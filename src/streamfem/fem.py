"""Continuous Lagrange spaces on triangles and the basic assembly kit.

Degree-l nodal spaces with vectorized assembly of the H1 stiffness
matrix, load vectors (scalar data, vector data paired with the rotated
gradient, and gradient data), the H1_0 projection and point evaluation.

Every element kernel is one dense matrix product against a reference
table, with a small per-cell factor from the affine map (the tensor
representation of Kirby and Logg, ACM TOMS 32, 2006); no physical
per-cell basis table exists.  ``FeSpace.basis_table`` holds reference
values, gradients or Hessians at the rule points.  ``element_matrices``
multiplies det J times G or G kron G (G = J^-1 J^-T) by the reference
tensor of the basis derivatives.  ``assemble_tested`` pulls data back to
reference coordinates and tests it against the table, and
``gradient_tables`` maps coefficient rows to reference gradients, then
applies J^-1 per cell.

Space-time quantities of separable fields sum_i sigma_i(t) w_i(x) share
one quadrature: ``sample_time_factors`` evaluates the sigma_i at every
interval Gauss point, ``gradient_tables`` gives the spatial gradients,
and ``space_time_squares`` integrates |sum_j C_pj T_j|^2 over
I x Omega with one matrix product per interval.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import Factorized, build_csr
from .mesh import _LOCAL_EDGES, _VERT_REF, affine_geometry
from .quadrature import interval_rule, triangle_rule

__all__ = ["FeSpace", "FeFunction", "reference_basis", "build_space",
           "element_matrices", "assemble_tested", "assemble_h1_stiffness",
           "assemble_load_scalar", "assemble_load_dual",
           "assemble_load_gradient", "h1_projection",
           "load_provider", "separable_load", "evaluate", "h1_seminorm",
           "h1_field_error", "sample_time_factors", "gradient_tables",
           "space_time_squares", "space_time_h1_error"]

SUPPORTED_DEGREES = (1, 2, 3)


@lru_cache(maxsize=None)
def _lattice(degree):
    """Local node coordinates: vertices, edge nodes, then interior."""
    ell = degree
    nodes = [tuple(v) for v in _VERT_REF]
    for i, j in _LOCAL_EDGES:
        a = _VERT_REF[i]
        b = _VERT_REF[j]
        for m in range(1, ell):
            nodes.append(tuple(a + (b - a) * (m / ell)))
    for jj in range(1, ell):
        for ii in range(1, ell - jj):
            nodes.append((ii / ell, jj / ell))
    return np.array(nodes)


@lru_cache(maxsize=None)
def _monomial_exponents(degree):
    return [(i, j) for total in range(degree + 1)
            for j in range(total + 1) for i in [total - j]]


@lru_cache(maxsize=None)
def _basis_coefficients(degree):
    """Monomial coefficients of the nodal basis, one column per node."""
    nodes = _lattice(degree)
    exps = _monomial_exponents(degree)
    vand = np.array([[x ** i * y ** j for (i, j) in exps] for x, y in nodes])
    return np.linalg.inv(vand)


def _mono_table(points, exps, dx=0, dy=0):
    """Monomial (derivative) values at points, shape (..., n_mono)."""
    x = points[..., 0]
    y = points[..., 1]
    cols = []
    for i, j in exps:
        ci = 1.0
        ii, jj = i, j
        for _ in range(dx):
            ci *= ii
            ii = max(ii - 1, 0) if ii > 0 else 0
        for _ in range(dy):
            ci *= jj
            jj = max(jj - 1, 0) if jj > 0 else 0
        if ci == 0.0:
            cols.append(np.zeros_like(x))
        else:
            cols.append(ci * x ** ii * y ** jj)
    return np.stack(cols, axis=-1)


def reference_basis(degree, points, order=0):
    """Nodal basis values on the reference triangle.

    Parameters
    ----------
    degree : int
        Polynomial degree, one of 1, 2, 3.
    points : array_like, shape (..., 2)
    order : int
        0 -> values (..., n_loc); 1 -> gradients (..., n_loc, 2);
        2 -> Hessians (..., n_loc, 2, 2).
    """
    if degree not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported degree {degree}")
    points = np.asarray(points, dtype=float)
    exps = _monomial_exponents(degree)
    coef = _basis_coefficients(degree)
    if order == 0:
        return _mono_table(points, exps) @ coef
    if order == 1:
        gx = _mono_table(points, exps, dx=1) @ coef
        gy = _mono_table(points, exps, dy=1) @ coef
        return np.stack([gx, gy], axis=-1)
    if order == 2:
        hxx = _mono_table(points, exps, dx=2) @ coef
        hxy = _mono_table(points, exps, dx=1, dy=1) @ coef
        hyy = _mono_table(points, exps, dy=2) @ coef
        h = np.stack([hxx, hxy, hxy, hyy], axis=-1)
        return h.reshape(h.shape[:-1] + (2, 2))
    raise ValueError("order must be 0, 1 or 2")


class FeSpace:
    """Degree-l continuous Lagrange space with homogeneous-trace DOFs."""

    def __init__(self, mesh, degree):
        if degree not in SUPPORTED_DEGREES:
            raise ValueError(f"unsupported degree {degree}")
        self.mesh = mesh
        self.degree = degree
        self._build_dof_map()
        self.origins, self.jac, self.jac_inv, self.jac_det = \
            affine_geometry(mesh)
        self._cache = {}

    # -- construction -------------------------------------------------

    def _build_dof_map(self):
        mesh = self.mesh
        ell = self.degree
        v, e, f = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
        n_edge = ell - 1
        n_int = (ell - 1) * (ell - 2) // 2
        self.n_dofs = v + n_edge * e + n_int * f

        n_loc = 3 + 3 * n_edge + n_int
        dof_map = np.empty((f, n_loc), dtype=np.int64)
        dof_map[:, :3] = mesh.triangles
        col = 3
        for le, (i, j) in enumerate(_LOCAL_EDGES):
            a = mesh.triangles[:, i]
            b = mesh.triangles[:, j]
            eid = mesh.tri_edges[:, le]
            base = v + eid * n_edge
            forward = a < b  # traversal matches the sorted global pair
            for m in range(n_edge):
                dof_map[:, col + m] = np.where(forward, base + m,
                                               base + (n_edge - 1 - m))
            col += n_edge
        if n_int:
            base = v + n_edge * e + n_int * np.arange(f)
            for m in range(n_int):
                dof_map[:, col + m] = base + m
        self.dof_map = dof_map

        bverts = mesh.boundary_vertices()
        bedges = np.flatnonzero(mesh.boundary_edge)
        parts = [bverts]
        if n_edge:
            parts.append((v + bedges[:, None] * n_edge
                          + np.arange(n_edge)[None, :]).ravel())
        self.boundary_dofs = np.unique(np.concatenate(parts))
        free = np.ones(self.n_dofs, dtype=bool)
        free[self.boundary_dofs] = False
        self.free_dofs = np.flatnonzero(free)

    # -- cached tables ------------------------------------------------

    def _rule_table(self, kind, rule, build):
        # the entry holds the rule, so its id cannot pass to another rule
        # while the entry exists
        key = (kind, id(rule))
        if key not in self._cache:
            self._cache[key] = (rule, build())
        return self._cache[key][1]

    def default_matrix_rule(self):
        return triangle_rule(2 * self.degree)

    def default_data_rule(self):
        return triangle_rule(8)

    def phys_points(self, rule):
        """Images of the rule points in every triangle, (F, Q, 2)."""
        return self._rule_table("pts", rule, lambda: (
            self.origins[:, None, :]
            + np.einsum("fij,qj->fqi", self.jac, rule.points)))

    def basis_table(self, rule, order=0):
        """Reference basis derivatives at the rule points.

        Shape (Q * 2**order, n_loc): row q (order 0), 2q + a (order 1) or
        4q + 2a + b (order 2) holds phi_l, d_a phi_l or d_a d_b phi_l at
        reference point q, so data pulled back to reference coordinates
        is tested against the basis with one matrix product.
        """
        def build():
            ref = reference_basis(self.degree, rule.points, order)
            return np.moveaxis(ref, 1, -1).reshape(-1, ref.shape[1])
        return self._rule_table(("basis", order), rule, build)

    # -- cached operators ---------------------------------------------

    def h1_stiffness(self):
        if "K" not in self._cache:
            self._cache["K"] = assemble_h1_stiffness(self)
        return self._cache["K"]

    def h1_free(self):
        if "K_free" not in self._cache:
            k = self.h1_stiffness()
            idx = self.free_dofs
            self._cache["K_free"] = k[idx][:, idx].tocsr()
        return self._cache["K_free"]

    def h1_factor(self):
        if "K_fac" not in self._cache:
            self._cache["K_fac"] = Factorized(self.h1_free())
        return self._cache["K_fac"]


def build_space(mesh, degree):
    """Construct the degree-l Lagrange space over a mesh."""
    return FeSpace(mesh, degree)


@dataclass
class FeFunction:
    """Discrete function: coefficient vector over the nodal basis."""

    space: FeSpace
    coefficients: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.coefficients is None:
            self.coefficients = np.zeros(self.space.n_dofs)
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.n_dofs,):
            raise ValueError("coefficient length must match n_dofs")


# -- assembly ----------------------------------------------------------


def _scatter_matrix(space, elem):
    dof = space.dof_map
    rows = np.repeat(dof, dof.shape[1], axis=1)
    cols = np.tile(dof, (1, dof.shape[1]))
    return build_csr(rows, cols, elem, (space.n_dofs, space.n_dofs))


def element_matrices(space, rule, order):
    """int_T D^k phi_m : D^k phi_l on every triangle, (F, n_loc, n_loc).

    On an affine cell D^k phi = J^-T (D^k phi^) J^-1 (k = 2) or
    J^-T grad phi^ (k = 1), so the integrand is the reference tensor
    sum_q w_q D^k phi^_l D^k phi^_m times a per-cell factor det J times
    G (k = 1) or G kron G (k = 2), with G = J^-1 J^-T: one matrix
    product (F, 4**k) @ (4**k, n_loc**2).  The blocks are made bitwise
    symmetric, so the assembled matrix is exactly symmetric.
    """
    d = 2 ** order
    table = space.basis_table(rule, order)
    n_loc = table.shape[1]
    table = table.reshape(len(rule), d, n_loc)
    tensor = np.tensordot(table * rule.weights[:, None, None], table,
                          axes=(0, 0))                         # (d, L, d, L)
    tensor = tensor.transpose(0, 2, 1, 3).reshape(d * d, n_loc * n_loc)
    g = space.jac_inv @ space.jac_inv.transpose(0, 2, 1)
    if order == 2:  # (G kron G)[(a, b), (c, d)] = G[a, c] G[b, d]
        g = g[:, :, None, :, None] * g[:, None, :, None, :]
    factor = space.jac_det[:, None] * g.reshape(len(g), -1)
    elem = (factor @ tensor).reshape(-1, n_loc, n_loc)
    return 0.5 * (elem + elem.transpose(0, 2, 1))


def assemble_tested(space, data, order, rule):
    """Vector of int data : D^k phi_i dx for data at the rule points.

    ``data`` holds physical values (F, Q) for k = 0, vectors (F, Q, 2)
    for k = 1 or matrices (F, Q, 2, 2) for k = 2.  They are pulled back
    to reference coordinates (J^-1 v, J^-1 M J^-T) and weighted, then
    tested against the reference basis table with one matrix product.
    """
    jinv = space.jac_inv
    if order == 1:
        data = data @ jinv.transpose(0, 2, 1)
    elif order == 2:
        data = jinv[:, None] @ data @ jinv.transpose(0, 2, 1)[:, None]
    wdet = _space_weights(space.jac_det, rule)
    weighted = data * wdet.reshape(wdet.shape + (1,) * order)
    contrib = weighted.reshape(len(wdet), -1) @ space.basis_table(rule, order)
    return np.bincount(space.dof_map.ravel(), weights=contrib.ravel(),
                       minlength=space.n_dofs)


def assemble_h1_stiffness(space, rule=None):
    """Matrix of (grad phi_j, grad phi_i) over the full DOF set."""
    rule = rule or space.default_matrix_rule()
    return _scatter_matrix(space, element_matrices(space, rule, 1))


def assemble_load_scalar(space, f, t=0.0, rule=None):
    """Load vector b_i = int f(t, x) phi_i dx at one time."""
    rule = rule or space.default_data_rule()
    return assemble_tested(space, f.value(t, space.phys_points(rule)), 0,
                           rule)


def assemble_load_dual(space, g, t=0.0, rule=None):
    """Load b_i = int g . (d2 phi_i, -d1 phi_i) dx for vector data g.

    This realizes the functional f = -curl(g) through the rotated
    gradient of the test function, without differentiating g:
    g . (d2 phi, -d1 phi) = (-g2, g1) . grad phi.
    """
    rule = rule or space.default_data_rule()
    gv = g.value(t, space.phys_points(rule))
    return assemble_tested(space, np.stack([-gv[..., 1], gv[..., 0]], -1),
                           1, rule)


def assemble_load_gradient(space, w, t=0.0, rule=None):
    """Load b_i = int grad(w) . grad(phi_i) dx for a field w."""
    rule = rule or space.default_data_rule()
    return assemble_tested(space, w.grad(t, space.phys_points(rule)), 1,
                           rule)


def separable_load(fld, assemble):
    """Callable t -> sum_i sigma_i(t) b_i with b_i = assemble(w_i).

    ``assemble`` maps the static field of one term to its load vector,
    so each spatial load is assembled once.
    """
    loads = [(tf, assemble(static)) for tf, static in fld.static_terms()]
    return lambda t: sum(tf.fn(t) * b for tf, b in loads)


def load_provider(space, f, rule=None, dual=False):
    """Callable t -> load vector, precomputing one load per separable term."""
    assemble = assemble_load_dual if dual else assemble_load_scalar
    return separable_load(f, lambda w: assemble(space, w, 0.0, rule=rule))


# -- projections and evaluation ---------------------------------------


def h1_projection(space, w, rule=None):
    """H1_0 projection onto the space: (grad Pw, grad v) = (grad w, grad v)."""
    if isinstance(w, FeFunction):
        if w.space is space:
            b = space.h1_stiffness() @ w.coefficients
        else:
            raise ValueError("projection across spaces needs an analytic field")
    else:
        b = assemble_load_gradient(space, w, 0.0, rule=rule)
    out = np.zeros(space.n_dofs)
    out[space.free_dofs] = space.h1_factor()(b[space.free_dofs])
    return FeFunction(space, out)


def _evaluate_many(space, coefficients, points):
    """Values and gradients at arbitrary physical points (brute-force)."""
    arr = np.asarray(points, dtype=float)
    lead_shape = arr.shape[:-1]
    pts = np.atleast_2d(arr.reshape(-1, 2))
    diff = pts[:, None, :] - space.origins[None, :, :]
    # reference coordinates of every point in every triangle
    ref = np.einsum("fij,pfj->pfi", space.jac_inv, diff)
    tol = 1e-12
    inside = (ref[..., 0] >= -tol) & (ref[..., 1] >= -tol) & \
             (ref.sum(axis=-1) <= 1.0 + tol)
    tri = np.argmax(inside, axis=1)
    if not inside[np.arange(pts.shape[0]), tri].all():
        raise ValueError("point outside the mesh domain")
    loc = ref[np.arange(pts.shape[0]), tri]
    vals = reference_basis(space.degree, loc, 0)
    grads_ref = reference_basis(space.degree, loc, 1)
    grads = np.einsum("pld,pdi->pli", grads_ref, space.jac_inv[tri])
    c = coefficients[space.dof_map[tri]]
    value = np.einsum("pl,pl->p", vals, c)
    grad = np.einsum("pli,pl->pi", grads, c)
    if arr.ndim == 1:
        return value[0], grad[0]
    return value.reshape(lead_shape), grad.reshape(lead_shape + (2,))


def evaluate(f, x):
    """Point evaluation of an FeFunction: (value, gradient)."""
    return _evaluate_many(f.space, f.coefficients, x)


def h1_seminorm(space, coefficients):
    """sqrt(c^T K c) = || grad v_h ||_Omega."""
    k = space.h1_stiffness()
    return float(np.sqrt(max(coefficients @ (k @ coefficients), 0.0)))


# -- space-time quadrature of separable fields ------------------------


def _weighted_squares(wdet, values):
    """int_Omega |v|^2 for each leading index of values (..., F, Q, 2)."""
    lead = values.shape[:-3]
    sq = np.square(values)
    return (sq[..., 0] + sq[..., 1]).reshape(lead + (-1,)) @ wdet.ravel()


def _space_weights(det, rule):
    """Spatial quadrature weights w_q det_f, shape (F, Q)."""
    return det[:, None] * rule.weights[None, :]


def sample_time_factors(fld, partition, trule):
    """sigma_i and sigma_i' of every term at every interval Gauss point.

    Returns two arrays of shape (M, P, I) for M intervals, the P points
    of ``trule`` mapped to each interval and the I terms of ``fld``.
    """
    times = (partition.nodes[:-1, None]
             + partition.lengths[:, None] * trule.points[None, :])
    sig = np.array([[[tf.fn(t) for tf, _ in fld.terms] for t in row]
                    for row in times])
    dsig = np.array([[[tf.dfn(t) for tf, _ in fld.terms] for t in row]
                     for row in times])
    return sig, dsig


def gradient_tables(space, rule, rows):
    """Gradients of the discrete functions with coefficient rows (A, n_dofs).

    Returns (A, F, Q, 2) at the rule points: the reference gradients of
    all rows and cells in one matrix product against the basis table,
    then one batched 2 x 2 product with J^-1 per cell.
    """
    coef = np.asarray(rows)[:, space.dof_map]                  # (A, F, L)
    ref = coef.reshape(-1, coef.shape[-1]) @ space.basis_table(rule, 1).T
    return ref.reshape(coef.shape[:2] + (-1, 2)) @ space.jac_inv


def space_time_squares(wdet, trule, lengths, blocks):
    """sum_m k_m sum_p w_p int_Omega |sum_j C_m[p, j] T_m[j]|^2 dx.

    Parameters
    ----------
    wdet : ndarray, shape (F, Q)
        Spatial weights w_q det_f.
    trule : QuadratureRule
        Time rule on [0, 1] with P points, mapped to every interval.
    lengths : ndarray, shape (M,)
        Interval lengths k_m.
    blocks : iterable of M pairs (C_m, T_m)
        Coefficients (P, J) and tables (J, F, Q, d) per interval; a
        generator keeps one interval's tables alive at a time.
    """
    total = 0.0
    for km, (coef, tables) in zip(lengths, blocks):
        values = (coef @ tables.reshape(len(tables), -1)).reshape(
            (len(coef),) + tables.shape[1:])
        total += km * float(trule.weights @ _weighted_squares(wdet, values))
    return total


# -- error integration -------------------------------------------------


def h1_field_error(space, coefficients, fld, t=0.0, rule=None):
    """|| grad(w(t) - v_h) ||_Omega by quadrature for an analytic w."""
    rule = rule or space.default_data_rule()
    diff = (fld.grad(t, space.phys_points(rule))
            - gradient_tables(space, rule, [coefficients])[0])
    val = _weighted_squares(_space_weights(space.jac_det, rule), diff[None])[0]
    return float(np.sqrt(max(val, 0.0)))


def space_time_h1_error(sol, psi, time_points=5, rule=None):
    """|| grad(psi - psi_kh) ||_{L2(I x Omega)} by Gauss-in-time quadrature.

    The discrete solution is taken right-continuous on each interval
    (t_{m-1}, t_m]; space integrals use the data quadrature rule.
    """
    space = sol.space
    rule = rule or space.default_data_rule()
    trule = interval_rule(time_points)
    pts = space.phys_points(rule)
    exact = np.stack([term.grad(pts) for _, term in psi.terms])
    sig, _ = sample_time_factors(psi, sol.partition, trule)
    minus_basis = -sol.basis.values(trule.points)              # (P, r+1)

    def blocks():
        tables = np.concatenate([exact, np.empty((sol.order + 1,)
                                                 + exact.shape[1:])])
        for m, coef in enumerate(sol.coefficients):
            tables[len(exact):] = gradient_tables(space, rule, coef)
            yield np.hstack([sig[m], minus_basis]), tables

    total = space_time_squares(_space_weights(space.jac_det, rule), trule,
                               sol.partition.lengths, blocks())
    return float(np.sqrt(max(total, 0.0)))
