"""C0 interior-penalty discretization of the biharmonic operator.

The bilinear form combines element integrals of D^2 v : D^2 w with edge
integrals of the average second normal derivative against the jump of
the normal derivative, plus the (eta / |e|)-weighted jump-jump penalty.
On an interior edge with normal n pointing from T- into T+,
[[dv/dn]] = dv+/dn - dv-/dn and {d^2 v/dn^2} is the mean of both sides;
on a boundary edge [[dv/dn]] = -dv/dn and {d^2 v/dn^2} = d^2 v/dn^2.
The mesh fixes T-, T+, the normal and the direction of every local edge
(``Mesh``); ``_edge_parts``, the edge iterator that both the matrix and
the consistency pairing walk, reads them as they are.  a_h does not
depend on that choice: the orientation check of ``diagnostics`` builds
the same mesh with its triangles in reverse order, which swaps T- and
T+ and the normal of every interior edge, and compares the two forms.

The kernels work on reference tables, never on physical per-cell basis
tables, and read the basis through the space (``FeSpace.reference``).
The element term is ``fem.element_matrices`` at k = 2: one product of
the per-cell factor det J (G kron G), G = J^-1 J^-T, with the reference
Hessian tensor.  Edge traces contract the reference gradient or Hessian
of ``space.reference``, tabulated on each of the six oriented local
edges, with the reference normal nu = J^-1 n.  These edge tables
(``_edge_tables``) are kept in the space's cache, one per derivative
order and edge rule, so an assembly's six side traces and a pairing's
three read three tables.  The volume term of
``consistency_pairing`` pulls D^2 w back to J^-1 (D^2 w) J^-T and tests
it against the reference Hessians with one product.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fem import FeFunction, assemble_tested, element_matrices
from .linalg import Factorized, SolverError, build_csr
from .mesh import _LOCAL_EDGES, _VERT_REF
from .quadrature import interval_rule

__all__ = ["CoercivityError", "CipForm", "assemble_cip",
           "consistency_pairing", "ritz_projection", "apply_Ah",
           "default_penalty"]

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
    # edge integrands have degree at most 2l - 2, so l points are exact;
    # l + 2 are kept, since fewer would move a_h, and every output, at
    # roundoff
    return degree + 2


@dataclass
class CipForm:
    """Interior-penalty form, held as its eliminated SPD block.

    Its public members are the form ``dg_time`` reads (its module notes).
    The method reads a_h only on V_h, whose boundary DOFs are zero, so
    the form keeps the free block alone (``_assemble_matrices`` also
    returns the full matrix).
    ``assemble_cip`` hands the form the LU that certified coercivity, so
    ``factor()`` returns it and a Ritz solve factors a_h zero more times.
    The form holds that factor until a transient solve releases it
    (``release_factor``, first thing in ``dg_solve``, which never solves
    with a_h alone); ``factor()`` then factors again on demand.
    """

    space: object
    eta: float
    matrix_free: object                 # boundary DOFs eliminated, CSR
    _factor: object = dc_field(default=None, repr=False)

    def factor(self):
        if self._factor is None:
            self._factor = Factorized(self.matrix_free)
        return self._factor

    def release_factor(self):
        """Drop the cached LU of a_h; ``factor()`` rebuilds it lazily."""
        self._factor = None

    def pairings(self, psi):
        """a_h(w_i, .) of every spatial factor of a clamped field, (I, n_dofs).

        Built once per space and data rule (``FeSpace.term_table``, key
        ``("pairing", clamped)``): the consistency pairing reads only the
        space of the form, not its penalty, and its key holds the
        clamping flag, so a field flagged unclamped is still refused.
        """
        space = self.space
        return np.stack([space.term_table(("pairing", psi.clamped), w,
                                          lambda: consistency_pairing(self, w))
                         for _, w in psi.static_terms()])

    def triple_norm(self, v):
        """Energy norm sqrt(a_h(v, v)); raises when coercivity fails.

        v is an ``FeFunction`` of V_h, so a_h is read on its free DOFs.
        """
        c = v.coefficients[self.space.free_dofs]
        quad = float(c @ (self.matrix_free @ c))
        floor = -1e-12 * float(c @ c)
        if quad < floor:
            raise CoercivityError(
                f"a_h(v, v) = {quad:.3e} is negative; penalty eta={self.eta} "
                "is too small")
        return float(np.sqrt(max(quad, 0.0)))


def _edge_parts(space):
    """The interior edges, then the boundary edges, with their sides.

    Yields (edges, normals, sides, gdofs) per nonempty part: the edge
    ids, their normals (E, 2), the sides as (triangles, local edges,
    jump sign, average weight), and the int32 DOFs of the sides' local
    bases side by side (E, sum n_loc).  An interior edge has the sides
    T+ (sign +1) and T- (sign -1), each of average weight 1/2; a
    boundary edge has T- alone, of sign -1 and weight 1.
    """
    mesh = space.mesh
    dof = space.dof_map.astype(np.int32)
    minus, plus = mesh.edge_tris.T
    lminus, lplus = mesh.edge_local.T
    for edges, sides in ((~mesh.boundary_edge, ((plus, lplus, 1.0, 0.5),
                                                (minus, lminus, -1.0, 0.5))),
                         (mesh.boundary_edge, ((minus, lminus, -1.0, 1.0),))):
        edges = np.flatnonzero(edges)
        if edges.size:
            sides = [(tri[edges], loc[edges], sign, weight)
                     for tri, loc, sign, weight in sides]
            yield (edges, mesh.normals[edges], sides,
                   np.concatenate([dof[tri] for tri, *_ in sides], axis=1))


def _edge_tables(space, svals, order):
    """Reference derivatives of one order on the six oriented local edges.

    Configuration 2 * le + f covers local edge le = (i, j) run from its
    lower to its higher global vertex (the orientation shared edge DOFs
    use): j -> i for f = 0 and i -> j for f = 1, with f the mesh's
    ``tri_edge_forward``.  Returns a
    (6, 2**order, Q * n_loc) table; row a (order 1) or 2a + b (order 2)
    holds d_a phi^ or d_a d_b phi^ at every point, read-only, since
    ``_side_traces`` shares it through the space's cache.
    """
    pts = []
    for i, j in _LOCAL_EDGES:
        a, b = _VERT_REF[i], _VERT_REF[j]
        for r0, r1 in ((b, a), (a, b)):
            pts.append(np.outer(1.0 - svals, r0) + np.outer(svals, r1))
    ref = space.reference(np.array(pts), order)            # (6, Q, L, ...)
    ref = ref.reshape(ref.shape[:3] + (-1,))
    table = np.moveaxis(ref, -1, 1).reshape(6, 2 ** order, -1)
    table.setflags(write=False)
    return table


def _side_traces(space, tri, local_edge, normals, rule, order, out):
    """Normal derivatives of one order of a side's local basis on edges.

    Writes (E, Q, n_loc) into ``out``: the first (order 1) or second
    (order 2) derivative along the edge normal of the local basis of
    triangle `tri`, evaluated on the edge from that triangle's side at
    the points of the edge rule ``rule``.
    With the reference normal nu = J^-1 n, dn = nu . grad phi^ and
    d2n = nu^T (D^2 phi^) nu, so each edge configuration is one matrix
    product against its table, stored straight into its rows of ``out``.
    The table is built once per space, order and rule, in the space's
    cache, as ``FeSpace.basis_table`` is.
    """
    config = 2 * local_edge + space.mesh.tri_edge_forward[tri, local_edge]
    table = space._rule_table(("edge", order), rule,
                              lambda: _edge_tables(space, rule.points, order))
    nu = (space.jac_inv[tri] @ normals[:, :, None])[..., 0]   # (E, 2)
    if order == 2:
        nu = (nu[:, :, None] * nu[:, None, :]).reshape(-1, 4)
    for k in range(6):
        sel = config == k
        out[sel] = (nu[sel] @ table[k]).reshape(-1, *out.shape[1:])


def _edge_traces(space, sides, normals, rule, order):
    """[[dn phi]] (order 1) or {d2n phi} (order 2) on one part's edges.

    The sides' traces times their jump sign or average weight, side by
    side as the part's DOFs stand, (E, Q, sum n_loc): one array, each
    side's traces written into its slice and scaled there.
    """
    n_loc = space.dof_map.shape[1]
    out = np.empty((len(normals), rule.points.size, n_loc * len(sides)))
    for s, (tri, loc, sign, weight) in enumerate(sides):
        part = out[:, :, s * n_loc:(s + 1) * n_loc]
        _side_traces(space, tri, loc, normals, rule, order, part)
        part *= sign if order == 1 else weight
    return out


def assemble_cip(space, eta=None):
    """Assemble the penalized biharmonic form over a Lagrange space.

    Parameters
    ----------
    space : FeSpace
        Must have degree >= 2 (normal-derivative jumps of P1 carry no
        Hessian information).
    eta : float, optional
        Penalty weight, positive and finite (a ValueError before any
        assembly otherwise); defaults to 5 (degree 2) or 10 (degree 3).

    Raises CoercivityError unless the eliminated block is positive
    definite, read exactly off its LU pivots (``Factorized.definite``).
    """
    if space.degree < 2:
        raise ValueError("interior penalty form needs degree >= 2")
    if eta is None:
        eta = default_penalty(space.degree)
    if not 0.0 < eta < np.inf:
        raise ValueError("penalty must be positive and finite")
    # The assembly buffers and the full matrix die with the helper's
    # result, before the certifying factor exists.  The form keeps that
    # factor for factor(), and dg_solve releases it first.  perfbench
    # peak RSS (MB; the last column is the median of 10 runs, the others
    # one run each):
    #                   dropped   kept   kept, released by dg_solve
    #   stationary-fine   251.8   252.6   252.5
    #   time-sweep        173.3   261.6   175.0  (runs read 173 to 181)
    #   high-order        129.3   154.5   129.3
    #   diagnostics        84.2    88.3    84.6
    # On stationary-fine the kept factor is alive while ritz_projection
    # builds its pairing (+0.7 MB: 252.5 kept against 251.8 dropped), and
    # it saves that workload the second factor of a_h (wall time
    # 1.73 -> 1.37 s).
    free = _assemble_matrices(space, eta)[1]
    try:
        factor = Factorized(free)
        definite = factor.definite
    except SolverError:  # a singular block is not definite either
        definite = False
    if not definite:
        raise CoercivityError(f"eta={eta} is too small: a_h is not definite")
    return CipForm(space, float(eta), free, _factor=factor)


def _assemble_matrices(space, eta):
    """Full and boundary-eliminated CSR matrices of the penalized form.

    The triplets go into one preallocated (rows, cols, vals) buffer with
    int32 indices, part by part (elements, interior edges, boundary
    edges); each part and its edge traces die once copied, and the
    buffer dies with the CSR conversion.  An edge part's products hold
    two (E, n, n) blocks at once.  At n=32 P3 the traced peak is 50 MB
    for 9 MB of CSR output (59 MB with five blocks per edge part, 112 MB
    with concatenated triplet lists).
    """
    mesh = space.mesh
    dof = space.dof_map.astype(np.int32)
    parts = list(_edge_parts(space))
    size = dof.size * dof.shape[1] + sum(gdofs.size * gdofs.shape[1]
                                         for *_, gdofs in parts)
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

    claim(dof)[:] = element_matrices(space, 2)

    erule = interval_rule(_edge_rule_points(space.degree))

    def accumulate(edges, jump, avg, gdofs):
        # out = (c + c^T) + (p + p^T) / 2 with c the consistency and p the
        # penalty product, both formed in one scratch block; the in-place
        # p += p^T reads a copy of p, the second block
        wjump = jump * erule.weights[:, None]
        lengths = mesh.edge_lengths[edges][:, None, None]
        out = claim(gdofs)
        scratch = np.swapaxes(avg * lengths, 1, 2) @ wjump
        np.add(scratch, np.swapaxes(scratch, 1, 2), out=out)
        np.matmul(np.swapaxes(jump, 1, 2), wjump, out=scratch)
        scratch *= eta
        scratch += np.swapaxes(scratch, 1, 2)
        scratch *= 0.5
        # |e| cancels against 1/|e| in the penalty
        out += scratch

    for edges, normals, sides, gdofs in parts:
        accumulate(edges, _edge_traces(space, sides, normals, erule, 1),
                   _edge_traces(space, sides, normals, erule, 2), gdofs)

    full = build_csr(rows, cols, vals, (space.n_dofs, space.n_dofs))
    del rows, cols, vals
    # duplicate-summation order inside the CSR conversion is not
    # symmetric; restore the exact symmetry the form has analytically
    full = (0.5 * (full + full.T)).tocsr()
    idx = space.free_dofs
    free = full[idx][:, idx].tocsr()
    return full, free


def consistency_pairing(form, w):
    """Vector of a_h(w, phi_i) for a clamped static analytic target w.

    Valid for w with w = dw/dn = 0 on the boundary, so a field not
    flagged ``clamped`` is refused; the jump terms of w vanish
    identically and are omitted, so only the element Hessian contraction
    and the average-of-second-normal-derivative term against the test
    jumps remain.  The volume term takes the data rule of the space, the
    edge term 8 Gauss points.
    """
    space = form.space
    mesh = space.mesh
    if not getattr(w, "clamped", False):
        raise ValueError("consistency pairing requires a clamped target "
                         "(w and grad w vanishing on the boundary)")
    out = assemble_tested(space, w.hess(0.0, space.phys_points()), 2)

    erule = interval_rule(8)
    svals = erule.points
    lo, hi = mesh.vertices[mesh.edges.T]
    for edges, normals, sides, gdofs in _edge_parts(space):
        pts = (lo[edges][:, None, :] * (1.0 - svals)[None, :, None]
               + hi[edges][:, None, :] * svals[None, :, None])
        n = normals[:, None, :, None]                         # (E, 1, 2, 1)
        d2n_w = (np.swapaxes(n, 2, 3) @ w.hess(0.0, pts) @ n)[..., 0, 0]
        weights = d2n_w * erule.weights * mesh.edge_lengths[edges][:, None]
        jump = _edge_traces(space, sides, normals, erule, 1)
        np.add.at(out, gdofs, (weights[:, None, :] @ jump)[:, 0])
    return out


def ritz_projection(form, w):
    """Best approximation in a_h: a_h(w - R_h w, chi) = 0 for all chi.

    The field w is taken at t = 0: the load is the sum of sigma_i(0)
    a_h(w_i, .) over its terms, read through ``form.pairings`` and so
    built once per space.
    """
    rhs = np.array([tf.fn(0.0) for tf, _ in w.terms]) @ form.pairings(w)
    space = form.space
    out = np.zeros(space.n_dofs)
    out[space.free_dofs] = form.factor()(rhs[space.free_dofs])
    return FeFunction(space, out)


def apply_Ah(form, v):
    """Discrete lifting A_h v with (grad A_h v, grad chi) = a_h(v, chi).

    v lies in V_h; a_h is read on its free DOFs.
    """
    space = form.space
    rhs = form.matrix_free @ v.coefficients[space.free_dofs]
    out = np.zeros(space.n_dofs)
    out[space.free_dofs] = space.h1_factor()(rhs)
    return FeFunction(space, out)

