"""Continuous Lagrange spaces on triangles and the basic assembly kit.

Degree-l nodal spaces with vectorized assembly of the H1 stiffness
matrix, load vectors (scalar data, vector data paired with the rotated
gradient, and gradient data), the H1_0 projection and point evaluation.
All element loops are vectorized over triangles.

Space-time quantities of separable fields sum_i sigma_i(t) w_i(x) share
one quadrature: ``sample_time_factors`` evaluates the sigma_i at every
interval Gauss point, ``gradient_tables`` turns coefficient rows into
gradients at the space rule points, and ``space_time_squares``
integrates |sum_j C_pj T_j|^2 over I x Omega with one matrix product
per interval.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import Factorized, build_csr
from .mesh import _LOCAL_EDGES, _VERT_REF, affine_geometry
from .quadrature import interval_rule, triangle_rule

__all__ = ["FeSpace", "FeFunction", "reference_basis", "build_space",
           "assemble_h1_stiffness", "assemble_load_scalar",
           "assemble_load_dual", "assemble_load_gradient", "h1_projection",
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

    def default_matrix_rule(self):
        return triangle_rule(2 * self.degree)

    def default_data_rule(self):
        return triangle_rule(8)

    def phys_points(self, rule):
        """Images of the rule points in every triangle, (F, Q, 2)."""
        key = ("pts", id(rule))
        if key not in self._cache:
            self._cache[key] = (self.origins[:, None, :] +
                                np.einsum("fij,qj->fqi", self.jac, rule.points))
        return self._cache[key]

    def basis_values(self, rule):
        key = ("val", id(rule))
        if key not in self._cache:
            self._cache[key] = reference_basis(self.degree, rule.points, 0)
        return self._cache[key]

    def basis_gradients(self, rule):
        """Physical gradients, (F, Q, n_loc, 2)."""
        key = ("grad", id(rule))
        if key not in self._cache:
            ref = reference_basis(self.degree, rule.points, 1)
            self._cache[key] = np.einsum("qld,fdi->fqli", ref, self.jac_inv)
        return self._cache[key]

    def basis_hessians(self, rule):
        """Physical Hessians, (F, Q, n_loc, 2, 2)."""
        key = ("hess", id(rule))
        if key not in self._cache:
            ref = reference_basis(self.degree, rule.points, 2)
            self._cache[key] = np.einsum("fai,qlab,fbj->fqlij",
                                         self.jac_inv, ref, self.jac_inv)
        return self._cache[key]

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


def symmetrize_blocks(elem):
    """Make element blocks bitwise symmetric so assembly is exact."""
    return 0.5 * (elem + elem.transpose(0, 2, 1))


def assemble_h1_stiffness(space, rule=None):
    """Matrix of (grad phi_j, grad phi_i) over the full DOF set."""
    rule = rule or space.default_matrix_rule()
    grads = space.basis_gradients(rule)
    elem = np.einsum("q,fqli,fqmi,f->flm", rule.weights, grads, grads,
                     space.jac_det)
    return _scatter_matrix(space, symmetrize_blocks(elem))


def assemble_load_scalar(space, f, t=0.0, rule=None):
    """Load vector b_i = int f(t, x) phi_i dx at one time."""
    rule = rule or space.default_data_rule()
    vals = f.value(t, space.phys_points(rule))
    basis = space.basis_values(rule)
    contrib = np.einsum("q,fq,ql,f->fl", rule.weights, vals, basis,
                        space.jac_det)
    return np.bincount(space.dof_map.ravel(), weights=contrib.ravel(),
                       minlength=space.n_dofs)


def assemble_load_dual(space, g, t=0.0, rule=None):
    """Load b_i = int g . (d2 phi_i, -d1 phi_i) dx for vector data g.

    This realizes the functional f = -curl(g) through the rotated
    gradient of the test function, without differentiating g.
    """
    rule = rule or space.default_data_rule()
    gv = g.value(t, space.phys_points(rule))
    grads = space.basis_gradients(rule)
    rot = np.stack([grads[..., 1], -grads[..., 0]], axis=-1)
    contrib = np.einsum("q,fqi,fqli,f->fl", rule.weights, gv, rot,
                        space.jac_det)
    return np.bincount(space.dof_map.ravel(), weights=contrib.ravel(),
                       minlength=space.n_dofs)


def assemble_load_gradient(space, w, t=0.0, rule=None):
    """Load b_i = int grad(w) . grad(phi_i) dx for a field w."""
    rule = rule or space.default_data_rule()
    gw = w.grad(t, space.phys_points(rule))
    grads = space.basis_gradients(rule)
    contrib = np.einsum("q,fqi,fqli,f->fl", rule.weights, gw, grads,
                        space.jac_det)
    return np.bincount(space.dof_map.ravel(), weights=contrib.ravel(),
                       minlength=space.n_dofs)


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
    """int_Omega |v|^2 for each leading index of values (..., F, Q, d)."""
    lead = values.shape[:-3]
    sq = np.einsum("...i,...i->...", values, values)
    return sq.reshape(lead + (-1,)) @ wdet.ravel()


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

    Returns (A, F, Q, 2) at the rule points, one batched matrix product
    per triangle and point against the cached basis gradients.
    """
    coef = np.asarray(rows)[:, space.dof_map]                  # (A, F, L)
    grads = space.basis_gradients(rule)                        # (F, Q, L, 2)
    out = np.matmul(coef.transpose(1, 0, 2)[:, None], grads)   # (F, Q, A, 2)
    return out.transpose(2, 0, 1, 3)


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
