"""Continuous Lagrange spaces on triangles and the basic assembly kit.

Degree-l nodal spaces with vectorized assembly of the H1 stiffness
matrix, load vectors (scalar data, vector data paired with the rotated
gradient, and gradient data) and the H1_0 projection.
A space is its DOF layout and its monomial coefficients: one column
per local basis function, over the monomials x^i y^j of total degree at
most the space's degree.  ``_tabulate`` is the one tabulation of every
polynomial basis; it forms the values, gradients or Hessians of the
columns of any coefficient matrix from the monomial derivative tables of
``_mono_table``, and ``FeSpace.reference`` is that table for the nodal
Lagrange coefficients (``reference_basis``, the inverse of the
Vandermonde matrix of the lattice).  A subclass that changes only the
DOF layout and the coefficients, such as the P1-plus-bubble velocity
space of ``mini_stokes``, runs on the same kernels, and every table,
the C0IP edge traces included, reads the basis through the space.

Every element kernel is one dense matrix product against a reference
table, with a small per-cell factor from the affine map (the tensor
representation of Kirby and Logg, ACM TOMS 32, 2006); no physical
per-cell basis table exists.  ``FeSpace.basis_table`` holds reference
values, gradients or Hessians at the rule points.  ``element_matrices``
multiplies det J times G or G kron G (G = J^-1 J^-T) by the reference
tensor of the basis derivatives (det J alone for the mass matrix).
``assemble_tested`` pulls data back to reference coordinates and tests
it against the table, and ``table_writer`` maps coefficient rows to
values, or to reference gradients and then applies J^-1 per cell, in
place (``gradient_tables`` is its allocating form).

The space owns its quadrature.  ``element_matrices`` reads
``FeSpace.default_matrix_rule()``; ``assemble_tested``,
``table_writer``, ``FeSpace.phys_points`` and the space weights read
``FeSpace.default_data_rule()``.  No caller passes a triangle rule to
them, so a space that needs another rule changes these two methods
alone.  ``basis_table`` takes its rule, as it serves
both.

Space-time quantities of separable fields sum_i sigma_i(t) w_i(x) share
one quadrature, and this module owns it in time as in space.
``sample_time_factors`` builds every time rule of the data from the
point count its caller names and evaluates the sigma_i (never sigma_i')
at its points in every interval; ``table_writer`` gives the spatial
tables of a trajectory; ``space_time_norm`` weighs
|sum_j C_pj T_j|^2 with the space's data rule and the time rule and
integrates it over I x Omega.  ``space_time_error`` is the distance of
a separable field to a trajectory through these, for the stream
function (``space_time_h1_error``) and the MINI velocity
(``mini_stokes.velocity_error_l2``) alike.  With the thin QR
factorization sqrt(W) C = Q R of the (P, J) coefficients of an interval
(W the time weights),

    sum_p w_p |sum_j C_pj T_j|^2 = sum_i |sum_j R_ij T_j|^2,

because Q has orthonormal columns, so each interval forms min(P, J)
combinations of its tables instead of P.  Each combination is formed
before it is squared, so an error, a small difference of nearly equal
tables, is taken inside it as at the Gauss points; the expansion
sum_jk (C^T W C)_jk (T_j, T_k) would subtract large inner products and
lose the digits in which the tables agree.

The intervals of a space-time norm are independent, and the norm is
memory-bound, so ``space_time_norm`` integrates two contiguous halves
of the partition at once: the calling thread one, and the other as the
future of a one-worker ``concurrent.futures.ThreadPoolExecutor`` (the
helper), each into its own entries of one length-M array that is then
summed in interval order, so the value is bitwise that of a loop over
the intervals.  The calling thread reads every cached table and
allocates both halves' buffers first, so the helper touches no cache
of the space and allocates no large array.  The memory bound is thus
two halves' buffers, all allocated by the caller, where it was one
interval's tables: per half the J tables of an interval, one work
buffer for the tables written per interval and then the squares, and a
block of about 1 MB in which the combinations are formed.

The static data of a
separable field (loads, values and exact gradients of its spatial
factors w_i) is stacked by ``term_tables``, one (I, ...) array per kind,
and evaluated once per space (``FeSpace.term_table``).  Every time
integral of the data, the interval loads of the solvers included, sums
static term tables times the sigma_i sampled by ``sample_time_factors``
(in the dG layer through ``dg_time._tested_data``), and so do the
time projection and the norms of ``dg_time``; so a time rule fitted to
the data, such as one split at a breakpoint of sigma_i, is a change to
``sample_time_factors`` alone.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .linalg import Factorized, build_csr
from .mesh import _LOCAL_EDGES, _VERT_REF, affine_geometry
from .quadrature import interval_rule, triangle_rule

__all__ = ["FeSpace", "FeFunction", "reference_basis", "build_space",
           "element_matrices", "assemble_tested", "assemble_h1_stiffness",
           "assemble_load_scalar", "assemble_load_dual",
           "assemble_load_gradient", "h1_projection", "term_tables",
           "h1_field_error", "sample_time_factors", "table_writer",
           "gradient_tables", "space_time_norm", "space_time_error",
           "space_time_h1_error"]

SUPPORTED_DEGREES = (1, 2, 3)
# floats of the combinations that ``space_time_norm`` forms at a time
_BLOCK = 2 ** 17


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
    """Monomial coefficients of the nodal basis, one column per node: the
    inverse of the Vandermonde matrix of the lattice."""
    return np.linalg.inv(_mono_table(_lattice(degree), degree))


def _mono_table(points, degree, dx=0, dy=0):
    """d_x^dx d_y^dy of the monomials of total degree <= ``degree`` at
    points, shape (..., n_mono); d_x^dx x^i = perm(i, dx) x^(i - dx)."""
    x, y = points[..., 0], points[..., 1]
    return np.stack([math.perm(i, dx) * math.perm(j, dy)
                     * x ** (i - dx) * y ** (j - dy)
                     if i >= dx and j >= dy else np.zeros_like(x)
                     for i, j in _monomial_exponents(degree)], axis=-1)


# the monomial derivatives (dx, dy) of each table order, in the order of the
# table's trailing axes: d_x, d_y; d_xx, d_xy, d_yx, d_yy
_DERIVATIVES = {0: ((0, 0),), 1: ((1, 0), (0, 1)),
                2: ((2, 0), (1, 1), (1, 1), (0, 2))}


def _tabulate(coef, degree, points, order):
    """Values, gradients or Hessians at points of the polynomials whose
    coefficients over the monomials of total degree <= ``degree`` are the
    columns of ``coef``; shapes as in ``reference_basis``."""
    if order not in _DERIVATIVES:
        raise ValueError("order must be 0, 1 or 2")
    points = np.asarray(points, dtype=float)
    table = np.stack([_mono_table(points, degree, dx, dy) @ coef
                      for dx, dy in _DERIVATIVES[order]], axis=-1)
    return table.reshape(table.shape[:-1] + (2,) * order)


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
    return _tabulate(_basis_coefficients(degree), degree, points, order)


class FeSpace:
    """Degree-l continuous Lagrange space with homogeneous-trace DOFs.

    A space is its DOF layout and its monomial coefficients.  The local
    basis on the reference triangle is ``reference(points, order)``, the
    ``fem._tabulate`` table of the coefficients, and the DOFs per edge and
    per triangle interior are ``_entity_dofs()``; every table and kernel,
    ``cip``'s edge traces included, reads the basis through these two, so
    a subclass may replace them (``mini_stokes.MiniSpace``, which
    tabulates its own coefficients).

    Its two triangle rules are ``default_matrix_rule()`` (degree 2l,
    read by ``element_matrices``) and ``default_data_rule()`` (degree 8,
    read by every kernel that integrates data or tabulates discrete
    functions); the kernels read them from the space, so no caller
    names either.

    The space caches what depends on it alone, for as long as it lives:
    the rule tables (``phys_points``, ``basis_table`` and ``cip``'s edge
    tables, one per derivative order and edge rule), the H1 stiffness
    matrix, its free block and factor, and the static data of separable
    fields (``term_table``), one entry per kind, spatial term and data
    rule; ``term_tables`` stacks these four kinds over the terms of a
    field:

    - ``"load"``: the scalar load vector of each term, shared by
      ``dg_time.dg_solve`` and ``dg_time.stability_data_norm``;
    - ``"grad load"``: the gradient load of each term, shared by
      ``dg_time.bh_analytic`` and the H1_0 projections of
      ``dg_time.best_approx_terms``;
    - ``"grad"``: the exact gradient table (F, Q, 2) of each term, shared
      by ``space_time_h1_error`` and ``dg_time.best_approx_terms``;
    - ``"value"``: the value table (F, Q) or (F, Q, 2) of each term,
      shared by the velocity loads of ``mini_stokes.mini_transient_solve``
      and ``mini_stokes.velocity_error_l2``.
    """

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

    def _entity_dofs(self):
        """DOFs per edge and per triangle interior (vertices carry one)."""
        ell = self.degree
        return ell - 1, (ell - 1) * (ell - 2) // 2

    def _build_dof_map(self):
        mesh = self.mesh
        v, e, f = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
        n_edge, n_int = self._entity_dofs()
        self.n_dofs = v + n_edge * e + n_int * f

        # an edge's DOFs run from its lower to its higher vertex, so a local
        # edge that is not forward takes them in reverse
        steps = np.arange(n_edge)
        edge_dofs = v + mesh.tri_edges[:, :, None] * n_edge + np.where(
            mesh.tri_edge_forward[:, :, None], steps, n_edge - 1 - steps)
        interior = (v + n_edge * e + n_int * np.arange(f)[:, None]
                    + np.arange(n_int))
        self.dof_map = np.hstack([mesh.triangles, edge_dofs.reshape(f, -1),
                                  interior])

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

    def term_table(self, kind, static, build):
        """``build()`` for the one-term field ``static``, once per space.

        ``static`` is a field of ``static_terms()``; the key holds its
        SpatialTerm itself, so no id of a freed term can pass to another
        while the entry exists, and the rule ``default_data_rule()``
        returns at the call, so no table built with another data rule is
        returned.  The table is read-only, since every later caller
        shares it.
        """
        (_, term), = static.terms

        def frozen():
            table = build()
            table.setflags(write=False)
            return table
        return self._rule_table((kind, term), self.default_data_rule(), frozen)

    def default_matrix_rule(self):
        return triangle_rule(2 * self.degree)

    def default_data_rule(self):
        return triangle_rule(8)

    def phys_points(self):
        """Images of the data rule points in every triangle, (F, Q, 2)."""
        rule = self.default_data_rule()
        return self._rule_table("pts", rule, lambda: (
            self.origins[:, None, :]
            + np.einsum("fij,qj->fqi", self.jac, rule.points)))

    def reference(self, points, order=0):
        """The local basis on the reference triangle (``reference_basis``)."""
        return reference_basis(self.degree, points, order)

    def basis_table(self, rule, order=0):
        """Reference basis derivatives at the rule points.

        Shape (Q * 2**order, n_loc): row q (order 0), 2q + a (order 1) or
        4q + 2a + b (order 2) holds phi_l, d_a phi_l or d_a d_b phi_l at
        reference point q, so data pulled back to reference coordinates
        is tested against the basis with one matrix product.
        """
        def build():
            ref = self.reference(rule.points, order)
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


def element_matrices(space, order):
    """int_T D^k phi_m : D^k phi_l on every triangle, (F, n_loc, n_loc),
    with the matrix rule of the space.

    On an affine cell D^k phi = J^-T (D^k phi^) J^-1 (k = 2),
    J^-T grad phi^ (k = 1) or phi^ (k = 0, the mass matrix), so the
    integrand is the reference tensor sum_q w_q D^k phi^_l D^k phi^_m
    times a per-cell factor det J times G (k = 1), G kron G (k = 2) or
    nothing (k = 0), with G = J^-1 J^-T: one matrix product
    (F, 4**k) @ (4**k, n_loc**2).  The blocks are made bitwise
    symmetric, so the assembled matrix is exactly symmetric.
    """
    rule = space.default_matrix_rule()
    d = 2 ** order
    table = space.basis_table(rule, order)
    n_loc = table.shape[1]
    table = table.reshape(len(rule), d, n_loc)
    tensor = np.tensordot(table * rule.weights[:, None, None], table,
                          axes=(0, 0))                         # (d, L, d, L)
    tensor = tensor.transpose(0, 2, 1, 3).reshape(d * d, n_loc * n_loc)
    factor = space.jac_det[:, None]
    if order:
        g = space.jac_inv @ space.jac_inv.transpose(0, 2, 1)
        if order == 2:  # (G kron G)[(a, b), (c, d)] = G[a, c] G[b, d]
            g = g[:, :, None, :, None] * g[:, None, :, None, :]
        factor = factor * g.reshape(len(g), -1)
    elem = (factor @ tensor).reshape(-1, n_loc, n_loc)
    return 0.5 * (elem + elem.transpose(0, 2, 1))


def assemble_tested(space, data, order):
    """Vector of int data : D^k phi_i dx for data at the data rule points.

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
    wdet = _space_weights(space)
    weighted = data * wdet.reshape(wdet.shape + (1,) * order)
    contrib = weighted.reshape(len(wdet), -1) @ space.basis_table(
        space.default_data_rule(), order)
    return np.bincount(space.dof_map.ravel(), weights=contrib.ravel(),
                       minlength=space.n_dofs)


def assemble_h1_stiffness(space):
    """Matrix of (grad phi_j, grad phi_i) over the full DOF set."""
    return _scatter_matrix(space, element_matrices(space, 1))


def assemble_load_scalar(space, f):
    """Load vector b_i = int f(x) phi_i dx of a static field f (its value
    at t = 0), with the data rule."""
    return assemble_tested(space, f.value(0.0, space.phys_points()), 0)


def assemble_load_dual(space, g):
    """Load b_i = int g . (d2 phi_i, -d1 phi_i) dx of a static vector
    field g (its value at t = 0), with the data rule.

    This realizes the functional f = -curl(g) through the rotated
    gradient of the test function, without differentiating g:
    g . (d2 phi, -d1 phi) = (-g2, g1) . grad phi.
    """
    gv = g.value(0.0, space.phys_points())
    return assemble_tested(space, np.stack([-gv[..., 1], gv[..., 0]], -1), 1)


def assemble_load_gradient(space, w):
    """Load b_i = int grad(w) . grad(phi_i) dx of a static field w (its
    value at t = 0), with the data rule."""
    return assemble_tested(space, w.grad(0.0, space.phys_points()), 1)


def term_tables(space, fld, kind):
    """The static tables of every term of a separable field, (I, ...).

    ``kind`` is ``"load"`` (the scalar load), ``"grad load"`` (the
    gradient load), ``"grad"`` (exact gradients at the data rule points)
    or ``"value"`` (values at the data rule points) of each spatial
    factor w_i; each table is built once per space and data rule
    (``FeSpace.term_table``).
    """
    return np.stack(_cached_term_tables(space, fld, kind))


def _cached_term_tables(space, fld, kind):
    """The cached tables of ``term_tables``, one per term, not stacked."""
    def build(static):
        if kind == "load":
            return assemble_load_scalar(space, static)
        if kind == "grad load":
            return assemble_load_gradient(space, static)
        return getattr(static, kind)(0.0, space.phys_points())
    return [space.term_table(kind, w, partial(build, w))
            for _, w in fld.static_terms()]


# -- projections -------------------------------------------------------


def h1_projection(space, w):
    """H1_0 projection onto the space: (grad Pw, grad v) = (grad w, grad v)."""
    if isinstance(w, FeFunction):
        if w.space is space:
            b = space.h1_stiffness() @ w.coefficients
        else:
            raise ValueError("projection across spaces needs an analytic field")
    else:
        b = assemble_load_gradient(space, w)
    return FeFunction(space, _h1_lift(space, b))


def _h1_lift(space, b):
    """Coefficients of the H1_0 projection whose gradient load is b."""
    out = np.zeros(space.n_dofs)
    out[space.free_dofs] = space.h1_factor()(b[space.free_dofs])
    return out


# -- space-time quadrature of separable fields ------------------------


def _weighted_squares(wdet, values):
    """int_Omega |v|^2 for each leading index of values (..., F, Q, 2)."""
    lead = values.shape[:-3]
    sq = np.square(values)
    return (sq[..., 0] + sq[..., 1]).reshape(lead + (-1,)) @ wdet.ravel()


def _space_weights(space):
    """Spatial weights w_q det_f of the data rule, shape (F, Q)."""
    return space.jac_det[:, None] * space.default_data_rule().weights[None, :]


def sample_time_factors(fld, partition, points):
    """The ``points``-point Gauss rule on [0, 1] and sigma_i of every term
    at its image in every interval.

    Returns (rule, sig), sig of shape (M, P, I) for M intervals, the P
    points of the rule and the I terms of ``fld``.  Every time rule of
    the data is built here, so a rule that depends on the data changes
    this function alone.  Only ``sigma_i`` (``fn``) is read; no
    derivative is evaluated.
    """
    rule = interval_rule(points)
    times = (partition.nodes[:-1, None]
             + partition.lengths[:, None] * rule.points[None, :])
    return rule, np.array([[[tf.fn(t) for tf, _ in fld.terms] for t in row]
                           for row in times])


def table_writer(space, order, count):
    """The shape of the values (order 0, (A, F, Q)) or gradients (order 1,
    (A, F, Q, 2)) of A = ``count`` coefficient rows at the data rule
    points, and ``write(rows, out, work)``, which forms them in ``out``.

    The reference values or gradients of all rows and cells are one
    matrix product against the basis table; gradients are formed in the
    flat buffer ``work`` (at least as many floats as ``out``; unread at
    order 0) and then take one batched 2 x 2 product with J^-1 per cell.
    The cached basis table and J^-1 are read and the gather buffer is
    allocated here, so ``write`` allocates nothing and touches no cache
    of the space, and may run on another thread than this call.
    """
    basis = space.basis_table(space.default_data_rule(), order).T
    jinv = space.jac_inv
    dof_map = space.dof_map
    coef = np.empty((count,) + dof_map.shape)                   # (A, F, L)

    def write(rows, out, work):
        # "clip" writes into out directly; "raise" would copy it first
        np.take(rows, dof_map, axis=1, out=coef, mode="clip")
        if order == 0:
            np.matmul(coef, basis, out=out)
            return
        ref = work[:out.size].reshape(-1, basis.shape[1])
        np.matmul(coef.reshape(-1, coef.shape[-1]), basis, out=ref)
        np.matmul(ref.reshape(out.shape), jinv, out=out)
    return (coef.shape[:2] + (basis.shape[1] // 2 ** order,)
            + (2,) * order), write


def gradient_tables(space, rows):
    """Gradients of the discrete functions with coefficient rows (A, n_dofs),
    (A, F, Q, 2) at the data rule points (``table_writer``)."""
    rows = np.asarray(rows, dtype=float)
    shape, write = table_writer(space, 1, len(rows))
    out = np.empty(shape)
    write(rows, out, np.empty(out.size))
    return out


def space_time_norm(space, partition, trule, coefficients, tables, discrete):
    """sqrt(sum_m k_m sum_p w_p int_Omega |sum_j C_m[p, j] T_m[j]|^2 dx),
    with the data rule of ``space``.

    Each interval factors sqrt(W) C_m = Q R (thin QR, R of min(P, J)
    rows) and sums int_Omega |sum_j R[i, j] T_m[j]|^2 over the rows i of
    R: the same value, since Q has orthonormal columns, from min(P, J)
    combinations of the tables instead of P.  Each combination is formed
    before it is squared, so an error (nearly equal tables with opposite
    coefficients) cancels inside it as it does at the Gauss points; the
    expansion through K = C^T W C, sum_jk K_jk (T_j, T_k), would subtract
    inner products of the tables and lose the digits in which they agree.

    The intervals are independent, so the partition is split into two
    contiguous halves, the first ceil(M/2) intervals and the rest (none
    when M = 1): the calling thread integrates the first and the one
    worker of a ``ThreadPoolExecutor`` the second, as a future (the
    helper), each into its own entries of one length-M array, which is
    then summed in interval order, as a loop over the intervals sums it;
    so the value does not depend on the split.  The calling
    thread reads every cached table and allocates both halves' buffers
    before the helper starts, and every interval writes into its half's
    buffers in place, so the helper allocates no large array and touches
    no cache.  Leaving the executor's ``with`` block joins the helper,
    also when the caller's half raises, and ``result()`` raises an
    exception of the helper's half again here.

    Memory: the two halves' buffers, allocated here.  Per half, with S
    floats per table (F Q 2):
    - the J tables of an interval, J S floats (without ``discrete`` the
      halves share ``tables``);
    - a work buffer of max(J - J0, min(P, J) / 2) S floats: ``discrete``
      forms its tables in it, then the squares |R T|^2 of the interval
      are summed into it, one row per combination;
    - a block of about 1 MB (``_BLOCK`` floats): the combinations R T
      are formed, squared and summed a block of columns at a time, so
      they stay in cache.  The column edges fall between points and are
      the same on every interval; each block's views of the tables, the
      combinations and the squares are sliced where they are used.

    Parameters
    ----------
    space : FeSpace
        Its data rule and cells weigh the tables (``_space_weights``).
    partition : TimePartition
        Interval lengths k_m.
    trule : QuadratureRule
        Time rule on [0, 1] with P points, mapped to every interval, as
        ``sample_time_factors`` returns it.
    coefficients : (M, P, J) array
        The coefficients C_m of every interval.
    tables : sequence of J0 <= J arrays (F, Q, 2)
        The first J0 tables, the same on every interval; without
        ``discrete``, J0 = J and ``tables`` is one (J, F, Q, 2) array.
    discrete : callable or None
        ``discrete(work)`` returns ``write(m, out)``, which writes the
        other J - J0 tables of interval m into ``out`` and may use the
        work buffer ``work`` (at least as many floats as ``out``) while
        it does.  It is called on the calling thread, once per half, so
        each half writes with its own buffers.
    """
    weights = _space_weights(space)
    wdet = weights.ravel()
    r = np.linalg.qr(np.sqrt(trule.weights)[:, None] * coefficients,
                     mode="r")                                # (M, K, J)
    n_comb, n_tables = r.shape[1:]
    n_blocks = -(-2 * wdet.size * n_comb // _BLOCK)
    edges = 2 * (np.arange(n_blocks + 1) * wdet.size // n_blocks)
    parts = np.empty(len(r))

    def buffers():
        """The rows ``discrete`` writes, the writer, the tables as rows, the
        squares and the block in which the combinations are formed, of one
        half."""
        work = np.empty(max(2 * (n_tables - len(tables)), n_comb)
                        * wdet.size)
        block = np.empty(n_comb * int(np.diff(edges).max()))
        if discrete is None:
            own, write = tables, None
        else:
            own = np.empty((n_tables,) + weights.shape + (2,))
            for j, table in enumerate(tables):
                own[j] = table
            write = discrete(work)
        return (own[len(tables):], write, own.reshape(n_tables, -1),
                work[:n_comb * wdet.size].reshape(n_comb, -1), block)

    def integrate(intervals, slot, write, flat, squares, block):
        for m in intervals:
            if write is not None:
                write(m, slot)
            for start, stop in zip(edges[:-1], edges[1:]):
                values = block[:n_comb * (stop - start)].reshape(n_comb, -1)
                np.matmul(r[m], flat[:, start:stop], out=values)
                np.square(values, out=values)
                np.add(values[:, 0::2], values[:, 1::2],
                       out=squares[:, start // 2:stop // 2])
            parts[m] = partition.lengths[m] * float((squares @ wdet).sum())

    own_half, helper_half = np.array_split(np.arange(len(r)), 2)
    own_buffers, helper_buffers = buffers(), buffers()
    with ThreadPoolExecutor(1, thread_name_prefix="space_time_norm") as pool:
        helper = pool.submit(integrate, helper_half, *helper_buffers)
        integrate(own_half, *own_buffers)
    helper.result()
    total = 0.0
    for part in parts:      # in interval order; np.sum would add pairwise
        total += part
    return float(np.sqrt(max(total, 0.0)))


def space_time_error(space, fld, kind, partition, basis, discrete, points):
    """|| fld - v ||_{L2(I x Omega)} of a separable field and a trajectory,
    in the ``term_tables`` kind ``"grad"`` or ``"value"``.

    On interval m, v = sum_a ell_a(tau) V_ma with the Lagrange basis
    ``basis`` in time (``.values`` and ``.order``, e.g.
    ``dg_time.TimeBasis``); ``discrete(work)`` returns ``write(m, out)``,
    which writes the (r+1, F, Q, d) tables of the V_ma at the data rule
    points into ``out``, in place (``space_time_norm``).  The time
    integral takes ``points`` Gauss points per interval
    (``sample_time_factors``) and the norm is ``space_time_norm``.
    """
    exact = _cached_term_tables(space, fld, kind)
    trule, sig = sample_time_factors(fld, partition, points)
    minus_basis = -basis.values(trule.points)                 # (P, r+1)
    coefficients = np.concatenate(
        [sig, np.broadcast_to(minus_basis, (len(sig),) + minus_basis.shape)],
        axis=-1)
    return space_time_norm(space, partition, trule, coefficients, exact,
                           discrete)


# -- error integration -------------------------------------------------


def h1_field_error(space, coefficients, fld):
    """|| grad(w - v_h) ||_Omega by quadrature for a static analytic w."""
    diff = (fld.grad(0.0, space.phys_points())
            - gradient_tables(space, [coefficients])[0])
    val = _weighted_squares(_space_weights(space), diff[None])[0]
    return float(np.sqrt(max(val, 0.0)))


def space_time_h1_error(sol, psi, time_points=5):
    """|| grad(psi - psi_kh) ||_{L2(I x Omega)} by Gauss-in-time quadrature.

    The discrete solution is taken right-continuous on each interval
    (t_{m-1}, t_m]; space integrals use the data quadrature rule
    (``space_time_error``).
    """
    space = sol.space

    def discrete(work):
        _, gradients = table_writer(space, 1, sol.basis.order + 1)
        return lambda m, out: gradients(sol.coefficients[m], out, work)

    return space_time_error(space, psi, "grad", sol.partition, sol.basis,
                            discrete, time_points)
