"""C0 interior-penalty discretization of the biharmonic operator.

The bilinear form combines element integrals of D^2 v : D^2 w with edge
integrals of the average second normal derivative against the jump of
the normal derivative, plus the (eta / |e|)-weighted jump-jump penalty.
Jump and average follow the two-sided convention on interior edges
(normal pointing from T- into T+) and the one-sided convention
jump = -dv/dn, avg = d^2 v/dn^2 on boundary edges; the assembled matrix
is independent of which of the two normals is chosen per edge.

The kernels work on reference tables, never on physical per-cell basis
tables.  The element term is ``fem.element_matrices`` at k = 2: one
product of the per-cell factor det J (G kron G), G = J^-1 J^-T, with the
reference Hessian tensor.  Edge traces contract the reference gradient
and Hessian, tabulated once on each of the six oriented local edges,
with the reference normal nu = J^-1 n.  The volume term of
``consistency_pairing`` pulls D^2 w back to J^-1 (D^2 w) J^-T and tests
it against the reference Hessians with one product.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fem import (FeFunction, assemble_tested, element_matrices,
                  reference_basis)
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
    """Assembled interior-penalty form with its eliminated SPD block.

    ``assemble_cip`` hands the form the LU that certified coercivity, so
    ``factor()`` returns it and a Ritz or stationary solve factors a_h
    zero more times.  The form holds that factor until a transient solve
    releases it (``release_factor``, first thing in ``dg_solve``, which
    never solves with a_h alone); ``factor()`` then factors again on
    demand.
    """

    space: object
    eta: float
    matrix: object                      # full n_dofs x n_dofs CSR
    matrix_free: object                 # boundary DOFs eliminated
    _factor: object = dc_field(default=None, repr=False)

    def factor(self):
        if self._factor is None:
            self._factor = Factorized(self.matrix_free)
        return self._factor

    def release_factor(self):
        """Drop the cached LU of a_h; ``factor()`` rebuilds it lazily."""
        self._factor = None


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


def _edge_tables(degree, svals):
    """Reference gradients and Hessians on the six oriented local edges.

    Configuration 2 * le + f covers local edge le = (i, j) run from its
    lower to its higher global vertex (the orientation shared edge DOFs
    use): j -> i for f = 0 and i -> j for f = 1.  Returns
    (6, 2, Q * n_loc) and (6, 4, Q * n_loc) tables; row a, or 2a + b,
    holds d_a phi^ or d_a d_b phi^ at every point.
    """
    pts = []
    for i, j in _LOCAL_EDGES:
        a, b = _VERT_REF[i], _VERT_REF[j]
        for r0, r1 in ((b, a), (a, b)):
            pts.append(np.outer(1.0 - svals, r0) + np.outer(svals, r1))
    pts = np.array(pts)                                        # (6, Q, 2)
    grad = reference_basis(degree, pts, 1)                     # (6, Q, L, 2)
    hess = reference_basis(degree, pts, 2).reshape(grad.shape[:3] + (4,))
    return (np.moveaxis(grad, -1, 1).reshape(6, 2, -1),
            np.moveaxis(hess, -1, 1).reshape(6, 4, -1))


def _side_traces(space, tri, local_edge, normals, svals):
    """Normal-derivative and second-normal-derivative traces on edges.

    Returns (dn, d2n) of shape (E, Q, n_loc): derivatives along the
    edge normal of the local basis of triangle `tri`, evaluated on the
    edge from that triangle's side.  With the reference normal
    nu = J^-1 n, dn = nu . grad phi^ and d2n = nu^T (D^2 phi^) nu, so
    each edge configuration is one matrix product against its table.
    """
    i_loc, j_loc = np.array(_LOCAL_EDGES).T[:, local_edge]
    tris = space.mesh.triangles
    config = 2 * local_edge + (tris[tri, i_loc] < tris[tri, j_loc])
    grad, hess = _edge_tables(space.degree, svals)
    nu = (space.jac_inv[tri] @ normals[:, :, None])[..., 0]   # (E, 2)
    nu_nu = (nu[:, :, None] * nu[:, None, :]).reshape(-1, 4)
    dn = np.empty((len(tri), grad.shape[-1]))
    d2n = np.empty_like(dn)
    for k in range(6):
        sel = config == k
        dn[sel] = nu[sel] @ grad[k]
        d2n[sel] = nu_nu[sel] @ hess[k]
    shape = (len(tri), len(svals), -1)
    return dn.reshape(shape), d2n.reshape(shape)


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
    # The assembly buffers die with the helper, before the certifying
    # factor exists.  The form keeps that factor for factor(), and
    # dg_solve releases it first.  perfbench peak RSS (MB):
    #                   dropped   kept   kept, released by dg_solve
    #   stationary-fine   258.0   275.7   275.5
    #   time-sweep        181.5   256.1   181.4
    #   high-order        134.3   158.0   134.6
    #   diagnostics        83.4    88.2    83.0
    # On stationary-fine the kept factor is alive while ritz_projection
    # builds its pairing (+17 MB), and it saves that workload the second
    # factor of a_h (wall time 2.30 -> 1.49 s).
    full, free = _assemble_matrices(space, eta, flip_normals)
    try:
        factor = Factorized(free)
        definite = factor.definite
    except SolverError:  # a singular block is not definite either
        definite = False
    if not definite:
        raise CoercivityError(f"eta={eta} is too small: a_h is not definite")
    return CipForm(space, float(eta), full, free, _factor=factor)


def _assemble_matrices(space, eta, flip_normals):
    """Full and boundary-eliminated CSR matrices of the penalized form.

    The triplets go into one preallocated (rows, cols, vals) buffer with
    int32 indices, part by part (elements, interior edges, boundary
    edges); each part and its edge traces die once copied, and the
    buffer dies with the CSR conversion.  At n=32 P3 the traced peak is
    59 MB for 9 MB of CSR output (112 MB with concatenated lists).
    """
    mesh = space.mesh
    dof = space.dof_map.astype(np.int32)
    n_loc = dof.shape[1]
    interior = np.flatnonzero(~mesh.boundary_edge)
    boundary = np.flatnonzero(mesh.boundary_edge)
    size = (len(dof) + len(boundary)) * n_loc ** 2 \
        + len(interior) * (2 * n_loc) ** 2
    rows = np.empty(size, dtype=np.int32)
    cols = np.empty(size, dtype=np.int32)
    vals = np.empty(size)
    filled = 0

    def claim(gdofs):
        # the (P, n, n) value view of the next P * n * n triplet slots, with
        # their row and column indices filled from the (P, n) gdofs
        nonlocal filled
        n_parts, n_slots = gdofs.shape
        stop = filled + n_parts * n_slots ** 2
        shape = (n_parts, n_slots, n_slots)
        rows[filled:stop].reshape(shape)[:] = gdofs[:, :, None]
        cols[filled:stop].reshape(shape)[:] = gdofs[:, None, :]
        out = vals[filled:stop].reshape(shape)
        filled = stop
        return out

    claim(dof)[:] = element_matrices(space, space.default_matrix_rule(), 2)

    erule = interval_rule(_edge_rule_points(space.degree))
    svals = erule.points
    normals, minus, plus, lminus, lplus = _edge_frames(mesh, flip_normals)

    def accumulate(edges, jump, avg, gdofs):
        wjump = jump * erule.weights[:, None]
        lengths = mesh.edge_lengths[edges][:, None, None]
        cross = np.swapaxes(avg * lengths, 1, 2) @ wjump
        cross += np.swapaxes(cross, 1, 2)
        pen = (np.swapaxes(jump, 1, 2) @ wjump) * eta
        pen += np.swapaxes(pen, 1, 2)
        pen *= 0.5
        # |e| cancels against 1/|e| in the penalty
        np.add(cross, pen, out=claim(gdofs))

    if interior.size:
        n_int = normals[interior]
        dn_p, d2n_p = _side_traces(space, plus[interior], lplus[interior],
                                   n_int, svals)
        dn_m, d2n_m = _side_traces(space, minus[interior], lminus[interior],
                                   n_int, svals)
        jump = np.concatenate([dn_p, -dn_m], axis=2)
        avg = 0.5 * np.concatenate([d2n_p, d2n_m], axis=2)
        del dn_p, d2n_p, dn_m, d2n_m
        gdofs = np.concatenate([dof[plus[interior]], dof[minus[interior]]],
                               axis=1)
        accumulate(interior, jump, avg, gdofs)
        del jump, avg

    if boundary.size:
        dn_b, d2n_b = _side_traces(space, minus[boundary], lminus[boundary],
                                   normals[boundary], svals)
        accumulate(boundary, -dn_b, d2n_b, dof[minus[boundary]])

    full = build_csr(rows, cols, vals, (space.n_dofs, space.n_dofs))
    del rows, cols, vals
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
    out = assemble_tested(space, w.hess(t, space.phys_points(vol_rule)), 2,
                          vol_rule)

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
        n = normals[edges][:, None, :, None]                  # (E, 1, 2, 1)
        d2n_w = (np.swapaxes(n, 2, 3) @ w.hess(t, edge_points_phys(edges))
                 @ n)[..., 0, 0]                              # (E, Q)
        weights = d2n_w * erule.weights * mesh.edge_lengths[edges][:, None]
        np.add.at(out, gdofs, (weights[:, None, :] @ jump)[:, 0])

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
