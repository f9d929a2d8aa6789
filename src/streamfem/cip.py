"""C0 interior-penalty discretization of the biharmonic operator.

The bilinear form combines element integrals of D^2 v : D^2 w with edge
integrals of the average second normal derivative against the jump of
the normal derivative, plus the (eta / |e|)-weighted jump-jump penalty.
Jump and average follow the two-sided convention on interior edges
(normal pointing from T- into T+) and the one-sided convention
jump = -dv/dn, avg = d^2 v/dn^2 on boundary edges; the assembled matrix
is independent of which of the two normals is chosen per edge.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fem import FeFunction, reference_basis
from .linalg import Factorized, SolverError, build_csr
from .mesh import _LOCAL_EDGES, _VERT_REF
from .quadrature import interval_rule

__all__ = ["CoercivityError", "CipForm", "assemble_cip", "triple_norm",
           "consistency_pairing", "ritz_projection", "apply_Ah",
           "solve_stationary", "default_penalty"]

# smallest coercive penalty on the structured meshes, exact check:
#   degree 2:  2.48 (n=8)  2.60 (n=16)  2.63 (n=32)    (bisected to 0.05)
#   degree 3:  6.29 (n=8)  6.40 (n=16)  6.40 (n=32)
# larger penalties stay stable but degrade pre-asymptotic accuracy, so
# the defaults keep a safety margin of about 1.9 and 1.6
_DEFAULT_PENALTY = {2: 5.0, 3: 10.0}


class CoercivityError(RuntimeError):
    """The penalized form is not positive definite (penalty too small)."""


def default_penalty(degree):
    return _DEFAULT_PENALTY[degree]


def _edge_rule_points(degree):
    # integrands on edges are traces of degree-l polynomials
    return (2 * degree + 1 + 1) // 2 + 1


@dataclass
class CipForm:
    """Assembled interior-penalty form with its eliminated SPD block."""

    space: object
    eta: float
    matrix: object                      # full n_dofs x n_dofs CSR
    matrix_free: object                 # boundary DOFs eliminated
    _factor: object = dc_field(default=None, repr=False)

    def factor(self):
        if self._factor is None:
            self._factor = Factorized(self.matrix_free)
        return self._factor


def _edge_frames(mesh, flip=None):
    """Per-edge normals and (T-, T+) roles, optionally flipped for tests."""
    normals = mesh.normals.copy()
    minus = mesh.edge_tris[:, 0].copy()
    plus = mesh.edge_tris[:, 1].copy()
    lminus = mesh.edge_local[:, 0].copy()
    lplus = mesh.edge_local[:, 1].copy()
    if flip is not None:
        flip = np.asarray(flip, dtype=bool)
        interior = ~mesh.boundary_edge
        swap = flip & interior
        normals[swap] *= -1.0
        minus[swap], plus[swap] = plus[swap], minus[swap]
        lminus[swap], lplus[swap] = lplus[swap], lminus[swap]
    return normals, minus, plus, lminus, lplus


def _edge_reference_points(mesh, tri, local_edge, svals):
    """Reference coordinates in `tri` of edge points at parameters s.

    The edge parameter runs from the lower global vertex index to the
    higher, matching the orientation used for shared edge DOFs.
    """
    i_loc = np.array([e[0] for e in _LOCAL_EDGES])[local_edge]
    j_loc = np.array([e[1] for e in _LOCAL_EDGES])[local_edge]
    a = mesh.triangles[tri, i_loc]
    b = mesh.triangles[tri, j_loc]
    ra = _VERT_REF[i_loc]
    rb = _VERT_REF[j_loc]
    lo_first = (a < b)[:, None]
    r0 = np.where(lo_first, ra, rb)
    r1 = np.where(lo_first, rb, ra)
    return (r0[:, None, :] * (1.0 - svals)[None, :, None]
            + r1[:, None, :] * svals[None, :, None])


def _side_traces(space, tri, local_edge, normals, svals):
    """Normal-derivative and second-normal-derivative traces on edges.

    Returns (dn, d2n) of shape (E, Q, n_loc): derivatives along the
    edge normal of the local basis of triangle `tri`, evaluated on the
    edge from that triangle's side.
    """
    mesh = space.mesh
    ref_pts = _edge_reference_points(mesh, tri, local_edge, svals)
    gref = reference_basis(space.degree, ref_pts, 1)
    href = reference_basis(space.degree, ref_pts, 2)
    jinv = space.jac_inv[tri]
    grad = np.einsum("eqld,edi->eqli", gref, jinv)
    hess = np.einsum("eai,eqlab,ebj->eqlij", jinv, href, jinv)
    dn = np.einsum("eqli,ei->eql", grad, normals)
    d2n = np.einsum("eqlij,ei,ej->eql", hess, normals, normals)
    return dn, d2n


def assemble_cip(space, eta=None, flip_normals=None):
    """Assemble the penalized biharmonic form over a Lagrange space.

    Parameters
    ----------
    space : FeSpace
        Must have degree >= 2 (normal-derivative jumps of P1 carry no
        Hessian information).
    eta : float, optional
        Penalty weight; defaults to 5 (degree 2) or 10 (degree 3).
    flip_normals : bool array, optional
        Per-edge flags flipping the normal choice; the result must not
        change (exposed for the orientation-invariance check).

    Raises CoercivityError unless the eliminated block is positive
    definite, read exactly off its LU pivots (``Factorized.definite``).
    """
    if space.degree < 2:
        raise ValueError("interior penalty form needs degree >= 2")
    if eta is None:
        eta = default_penalty(space.degree)
    if eta <= 0.0:
        raise ValueError("penalty must be positive")
    # the assembly tables die with the helper, before the certifying
    # factor exists (with both alive, stationary-fine peak RSS was +12 %);
    # that factor is then dropped, not kept for factor(): keeping it cost
    # +16 % (stationary-fine) and +32 % (time-sweep, no a_h solves)
    full, free = _assemble_matrices(space, eta, flip_normals)
    try:
        definite = Factorized(free).definite
    except SolverError:  # a singular block is not definite either
        definite = False
    if not definite:
        raise CoercivityError(f"eta={eta} is too small: a_h is not definite")
    return CipForm(space, float(eta), full, free)


def _assemble_matrices(space, eta, flip_normals):
    """Full and boundary-eliminated CSR matrices of the penalized form."""
    mesh = space.mesh

    # element Hessian contributions
    vol_rule = space.default_matrix_rule()
    hess = space.basis_hessians(vol_rule)
    elem = np.einsum("q,fqlij,fqmij,f->flm", vol_rule.weights, hess, hess,
                     space.jac_det)
    elem = 0.5 * (elem + elem.transpose(0, 2, 1))
    dof = space.dof_map
    n_loc = dof.shape[1]
    rows = [np.repeat(dof, n_loc, axis=1).ravel()]
    cols = [np.tile(dof, (1, n_loc)).ravel()]
    vals = [elem.ravel()]

    erule = interval_rule(_edge_rule_points(space.degree))
    svals = erule.points
    normals, minus, plus, lminus, lplus = _edge_frames(mesh, flip_normals)
    interior = np.flatnonzero(~mesh.boundary_edge)
    boundary = np.flatnonzero(mesh.boundary_edge)

    def accumulate(edges, jump, avg, gdofs):
        lengths = mesh.edge_lengths[edges]
        w = erule.weights
        cross = np.einsum("q,eqi,eqj,e->eij", w, avg, jump, lengths)
        cross = cross + np.swapaxes(cross, 1, 2)
        pen = np.einsum("q,eqi,eqj->eij", w, jump, jump) * eta
        pen = 0.5 * (pen + np.swapaxes(pen, 1, 2))
        total = cross + pen  # |e| cancels against 1/|e| in the penalty
        n_slots = gdofs.shape[1]
        rows.append(np.repeat(gdofs, n_slots, axis=1).ravel())
        cols.append(np.tile(gdofs, (1, n_slots)).ravel())
        vals.append(total.ravel())

    if interior.size:
        n_int = normals[interior]
        dn_p, d2n_p = _side_traces(space, plus[interior], lplus[interior],
                                   n_int, svals)
        dn_m, d2n_m = _side_traces(space, minus[interior], lminus[interior],
                                   n_int, svals)
        jump = np.concatenate([dn_p, -dn_m], axis=2)
        avg = 0.5 * np.concatenate([d2n_p, d2n_m], axis=2)
        gdofs = np.concatenate([dof[plus[interior]], dof[minus[interior]]],
                               axis=1)
        accumulate(interior, jump, avg, gdofs)

    if boundary.size:
        dn_b, d2n_b = _side_traces(space, minus[boundary], lminus[boundary],
                                   normals[boundary], svals)
        accumulate(boundary, -dn_b, d2n_b, dof[minus[boundary]])

    full = build_csr(np.concatenate(rows), np.concatenate(cols),
                     np.concatenate(vals), (space.n_dofs, space.n_dofs))
    # duplicate-summation order inside the CSR conversion is not
    # symmetric; restore the exact symmetry the form has analytically
    full = (0.5 * (full + full.T)).tocsr()
    idx = space.free_dofs
    free = full[idx][:, idx].tocsr()
    return full, free


def triple_norm(form, v):
    """Energy norm sqrt(a_h(v, v)); raises when coercivity fails."""
    c = v.coefficients if isinstance(v, FeFunction) else np.asarray(v)
    quad = float(c @ (form.matrix @ c))
    floor = -1e-12 * float(c @ c)
    if quad < floor:
        raise CoercivityError(
            f"a_h(v, v) = {quad:.3e} is negative; penalty eta={form.eta} "
            "is too small")
    return float(np.sqrt(max(quad, 0.0)))


def consistency_pairing(form, w, t=0.0, volume_rule=None, edge_points=8):
    """Vector of a_h(w, phi_i) for a clamped analytic target w.

    Valid for w with w = dw/dn = 0 on the boundary (the caller asserts
    this); the jump terms of w vanish identically and are omitted, so
    only the element Hessian contraction and the average-of-second-
    normal-derivative term against the test jumps remain.
    """
    space = form.space
    mesh = space.mesh
    if not getattr(w, "clamped", False):
        raise ValueError("consistency pairing requires a clamped target "
                         "(w and grad w vanishing on the boundary)")
    vol_rule = volume_rule or space.default_data_rule()
    pts = space.phys_points(vol_rule)
    hw = w.hess(t, pts)
    hphi = space.basis_hessians(vol_rule)
    contrib = np.einsum("q,fqij,fqlij,f->fl", vol_rule.weights, hw, hphi,
                        space.jac_det)
    out = np.bincount(space.dof_map.ravel(), weights=contrib.ravel(),
                      minlength=space.n_dofs)

    erule = interval_rule(edge_points)
    svals = erule.points
    normals, minus, plus, lminus, lplus = _edge_frames(mesh)
    interior = np.flatnonzero(~mesh.boundary_edge)
    boundary = np.flatnonzero(mesh.boundary_edge)
    lo = mesh.vertices[np.minimum(mesh.edges[:, 0], mesh.edges[:, 1])]
    hi = mesh.vertices[np.maximum(mesh.edges[:, 0], mesh.edges[:, 1])]

    def edge_points_phys(edges):
        return (lo[edges][:, None, :] * (1.0 - svals)[None, :, None]
                + hi[edges][:, None, :] * svals[None, :, None])

    def add_edges(edges, jump, gdofs):
        xq = edge_points_phys(edges)
        hwq = w.hess(t, xq)
        n = normals[edges]
        d2n_w = np.einsum("eqij,ei,ej->eq", hwq, n, n)
        contrib = np.einsum("q,eq,eqi,e->ei", erule.weights, d2n_w, jump,
                            mesh.edge_lengths[edges])
        np.add.at(out, gdofs, contrib)

    if interior.size:
        n_int = normals[interior]
        dn_p, _ = _side_traces(space, plus[interior], lplus[interior],
                               n_int, svals)
        dn_m, _ = _side_traces(space, minus[interior], lminus[interior],
                               n_int, svals)
        jump = np.concatenate([dn_p, -dn_m], axis=2)
        gdofs = np.concatenate([space.dof_map[plus[interior]],
                                space.dof_map[minus[interior]]], axis=1)
        add_edges(interior, jump, gdofs)
    if boundary.size:
        dn_b, _ = _side_traces(space, minus[boundary], lminus[boundary],
                               normals[boundary], svals)
        add_edges(boundary, -dn_b, space.dof_map[minus[boundary]])
    return out


def ritz_projection(form, w, t=0.0):
    """Best approximation in a_h: a_h(w - R_h w, chi) = 0 for all chi."""
    if isinstance(w, FeFunction):
        rhs = form.matrix @ w.coefficients
    else:
        rhs = consistency_pairing(form, w, t)
    space = form.space
    out = np.zeros(space.n_dofs)
    out[space.free_dofs] = form.factor()(rhs[space.free_dofs])
    return FeFunction(space, out)


def apply_Ah(form, v):
    """Discrete lifting A_h v with (grad A_h v, grad chi) = a_h(v, chi)."""
    space = form.space
    rhs = (form.matrix @ v.coefficients)[space.free_dofs]
    out = np.zeros(space.n_dofs)
    out[space.free_dofs] = space.h1_factor()(rhs)
    return FeFunction(space, out)


def solve_stationary(form, rhs):
    """Solve a_h(psi_h, phi) = rhs[phi] for psi_h (rhs over all DOFs)."""
    space = form.space
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape == (space.n_dofs,):
        rhs = rhs[space.free_dofs]
    elif rhs.shape != (space.free_dofs.size,):
        raise ValueError("rhs length must match the full or free DOF count")
    out = np.zeros(space.n_dofs)
    out[space.free_dofs] = form.factor()(rhs)
    return FeFunction(space, out)
