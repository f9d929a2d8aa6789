import math
import weakref
from functools import lru_cache

import numpy as np
import pytest

from streamfem import dg_time, linalg
from streamfem import manufactured as mf
from streamfem.cip import _assemble_matrices, assemble_cip
from streamfem.dg_time import (DgSolution, TimeBasis, TimePartition,
                               best_approx_terms, bh_analytic_functional,
                               bh_dual, bh_primal_functional, data_time_points,
                               dg_solve, make_partition, radau_points,
                               stability_data_norm, stability_functional,
                               time_projection_values)
from streamfem.fem import (FeFunction, build_space, gradient_tables,
                           h1_projection, space_time_h1_error, term_tables)
from streamfem.linalg import Factorized, SolverError
from streamfem.mesh import build_structured_mesh
from streamfem.mini_stokes import build_mini_space, mini_transient_solve


# -- partitions and time basis -------------------------------------------


def test_make_partition_uniform():
    p = make_partition(4, 1.0)
    assert p.nodes == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert p.lengths.max() == pytest.approx(0.25)
    assert p.num_intervals == 4


def test_make_partition_single():
    p = make_partition(1, 2.0)
    assert p.nodes == pytest.approx([0.0, 2.0])


def test_make_partition_rejects_zero():
    with pytest.raises(ValueError):
        make_partition(0)


@pytest.mark.parametrize("nodes, message", [
    ([0.0, 0.5, 0.25, 1.0], "increase strictly"),
    ([0.1, 0.5, 1.0], "from 0"),
    ([0.0, math.nan, 1.0], "finite"),
    ([0.0, 0.5, math.inf], "finite"),
], ids=["decreasing", "not from 0", "nan", "inf"])
def test_partition_rejects_bad_nodes(nodes, message):
    """A NaN node passes every comparison and would reach the sweep, which
    then builds no interval system; an infinite one ends in a math
    domain error.  Both are refused here, with the message saying why."""
    with pytest.raises(ValueError, match=message):
        TimePartition(np.array(nodes))


def test_radau_nodes():
    assert radau_points(0) == pytest.approx([1.0])
    assert radau_points(1) == pytest.approx([1.0 / 3.0, 1.0])
    assert radau_points(2) == pytest.approx(
        [(4 - math.sqrt(6)) / 10, (4 + math.sqrt(6)) / 10, 1.0])


@pytest.mark.parametrize("order", range(13))
def test_time_basis_lagrange_property(order):
    """ell_a(tau_b) = delta_ab to 2e-14 for every r <= 12; a monomial
    Vandermonde (cond 2.9e7 at r = 10) misses it by 1.7e-10 there."""
    basis = TimeBasis(order)
    assert np.abs(basis.values(basis.nodes) - np.eye(order + 1)).max() \
        <= 2e-14


def test_time_basis_gram_r1_exact():
    basis = TimeBasis(1)
    assert basis.gram() == pytest.approx(np.diag([0.75, 0.25]), abs=1e-14)
    # G[b, a] = int ell_a' ell_b
    assert basis.gram(da=1) == pytest.approx(
        np.array([[-9.0 / 8.0, 9.0 / 8.0], [-3.0 / 8.0, 3.0 / 8.0]]),
        abs=1e-14)
    assert basis.left_values == pytest.approx([1.5, -0.5])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_time_bases_of_one_order_share_read_only_arrays(order):
    """The arrays are built once per order, from the inverse Legendre
    Vandermonde matrix, its derivative and the values at 0: two bases
    hold the same arrays, bit-equal to these expressions, and a write to
    them raises."""
    basis, other = TimeBasis(order), TimeBasis(order)
    coef = np.linalg.inv(np.polynomial.legendre.legvander(
        2.0 * radau_points(order) - 1.0, order))
    dcoef = 2.0 * np.polynomial.legendre.legder(
        np.vstack([coef, np.zeros(order + 1)]))
    for name, want in (("coef", coef), ("dcoef", dcoef),
                       ("left_values", basis.values(np.zeros(1))[0])):
        arr = getattr(basis, name)
        assert arr is getattr(other, name)
        assert np.array_equal(arr, want)
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


_HIGH_ORDERS = range(1, 13)


@lru_cache(maxsize=None)
def _radau_oracle(order):
    """The right Radau points of dG(r) and the Gram matrices of their
    Lagrange basis at 50 digits, independent of numpy and scipy.

    The points are the roots of the Jacobi polynomial P_r^(1,0) from
    sympy's ``nroots``, mapped to (0, 1), followed by 1.  Each ell_a is
    expanded in monomials through the inverse of the 50-digit
    Vandermonde matrix, and G[b, a] = int_0^1 ell_a^(da) ell_b^(db) is
    summed from int_0^1 t^(i+j) dt = 1 / (i + j + 1).  Returns the
    points as mpf and the Gram matrices for (da, db) = (0, 0), (1, 0)
    and (1, 1), rounded to float.
    """
    sympy = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    x = sympy.symbols("x")
    n = order + 1
    with mpmath.workdps(50):
        roots = sympy.Poly(sympy.jacobi(order, 1, 0, x), x).nroots(n=50)
        nodes = [(mpmath.mpf(root) + 1) / 2 for root in sorted(roots)]
        nodes.append(mpmath.mpf(1))
        coef = mpmath.inverse(mpmath.matrix(
            [[t ** i for i in range(n)] for t in nodes]))
        hilbert = mpmath.matrix(n, n)
        shift = mpmath.matrix(n, n)  # t^i -> i t^(i-1)
        for i in range(n):
            for j in range(n):
                hilbert[i, j] = mpmath.mpf(1) / (i + j + 1)
            if i:
                shift[i - 1, i] = i
        dcoef = shift * coef
        grams = [np.array((cb.T * hilbert * ca).tolist(), dtype=float)
                 for ca, cb in ((coef, coef), (dcoef, coef),
                                (dcoef, dcoef))]
    return nodes, grams


@pytest.mark.parametrize("order", _HIGH_ORDERS)
def test_radau_points_are_the_jacobi_roots(order):
    """The interior points are the roots of P_r^(1,0) to 5e-16: a
    Legendre polynomial divided in monomials misses this by 3.3e-14 at
    r = 10."""
    want, _ = _radau_oracle(order)
    got = radau_points(order)
    assert got[-1] == 1.0
    assert max(float(abs(w - g)) for w, g in zip(want, got)) <= 5e-16


@pytest.mark.parametrize("order", _HIGH_ORDERS)
def test_time_basis_gram_matches_the_exact_integrals(order):
    """The mass, derivative and stiffness Gram matrices against the
    50-digit oracle, to 2e-14 relative to their largest entry; on a
    monomial Vandermonde the first two miss by 2.6e-10 and 1.3e-10 at
    r = 10."""
    basis = TimeBasis(order)
    got = (basis.gram(), basis.gram(da=1), basis.gram(da=1, db=1))
    for g, w in zip(got, _radau_oracle(order)[1]):
        assert np.abs(g - w).max() <= 2e-14 * np.abs(w).max()


# -- scalar mock problems ------------------------------------------------


class _MockSpace:
    def __init__(self, k=1.0):
        import scipy.sparse as sp
        self.n_dofs = 1
        self.free_dofs = np.array([0])
        self.boundary_dofs = np.array([], dtype=int)
        self._k = sp.csr_matrix(np.array([[k]]))

    def h1_free(self):
        return self._k

    def h1_stiffness(self):
        return self._k

    def h1_factor(self):
        return Factorized(self._k)

    def term_table(self, kind, static, build):
        """Every spatial factor has the load 1 on the one DOF."""
        return np.array([1.0])


class _MockForm:
    def __init__(self, lam, space):
        import scipy.sparse as sp
        self.space = space
        self.matrix_free = sp.csr_matrix(np.array([[lam]]))

    def release_factor(self):
        pass


def _mock_initial(space, value):
    psi0 = FeFunction.__new__(FeFunction)
    psi0.space = space
    psi0.coefficients = np.array([value])
    return psi0


def test_dg0_scalar_geometric_decay():
    """With one DOF, K=1, A=lam, the lowest-order step is the recurrence
    psi_m = psi_{m-1} / (1 + k lam)."""
    lam = 3.0
    space = _MockSpace()
    form = _MockForm(lam, space)
    part = make_partition(5, 1.0)
    k = 0.2
    sol = dg_solve(form, part, 0, psi0=_mock_initial(space, 1.0))
    expect = [(1.0 + k * lam) ** -(m + 1) for m in range(5)]
    assert sol.coefficients[:, 0, 0] == pytest.approx(expect, rel=1e-12)
    # decay is monotone in the gradient norm
    assert np.all(np.diff(np.abs(sol.coefficients[:, 0, 0])) < 0.0)


def test_dg1_scalar_against_sympy_oracle():
    """One interval of the degree-1 scheme on a single DOF against the
    exactly integrated 2x2 system."""
    sympy = pytest.importorskip("sympy")
    lam_v = 2.5
    k_v = 0.4
    u_prev = 1.3

    tau = sympy.symbols("tau", real=True)
    l0 = sympy.Rational(3, 2) * (1 - tau)
    l1 = (3 * tau - 1) / 2
    lam, k, up = sympy.Rational(5, 2), sympy.Rational(2, 5), \
        sympy.Rational(13, 10)
    rows = []
    rhs = []
    for lb in (l0, l1):
        row = []
        for la in (l0, l1):
            term = sympy.integrate(sympy.diff(la, tau) * lb, (tau, 0, 1)) \
                + la.subs(tau, 0) * lb.subs(tau, 0) \
                + k * lam * sympy.integrate(la * lb, (tau, 0, 1))
            row.append(term)
        rows.append(row)
        rhs.append(lb.subs(tau, 0) * up)
    sol_exact = sympy.Matrix(rows).solve(sympy.Matrix(rhs))

    space = _MockSpace()
    form = _MockForm(lam_v, space)
    part = make_partition(1, k_v)
    sol = dg_solve(form, part, 1, psi0=_mock_initial(space, u_prev))
    assert sol.coefficients[0, :, 0] == pytest.approx(
        np.array(sol_exact.evalf(16), dtype=float).ravel(), rel=1e-12)


def test_dg1_scalar_polynomial_load():
    """Degree-1 load f(t) = t integrated exactly by the solver's Gauss
    rule; oracle from the same exactly integrated 2x2 system."""
    sympy = pytest.importorskip("sympy")
    lam_v, k_v = 1.5, 0.5
    tau = sympy.symbols("tau", real=True)
    l0 = sympy.Rational(3, 2) * (1 - tau)
    l1 = (3 * tau - 1) / 2
    lam, k = sympy.Rational(3, 2), sympy.Rational(1, 2)
    rows, rhs = [], []
    for lb in (l0, l1):
        rows.append([sympy.integrate(sympy.diff(la, tau) * lb, (tau, 0, 1))
                     + la.subs(tau, 0) * lb.subs(tau, 0)
                     + k * lam * sympy.integrate(la * lb, (tau, 0, 1))
                     for la in (l0, l1)])
        rhs.append(k * sympy.integrate((k * tau) * lb, (tau, 0, 1)))
    oracle = sympy.Matrix(rows).solve(sympy.Matrix(rhs))

    space = _MockSpace()
    form = _MockForm(lam_v, space)
    part = make_partition(1, k_v)
    f = mf.ScalarField([(mf.TimeFactor(lambda t: t, lambda t: 1.0),
                         mf.SpatialTerm(None))])
    sol = dg_solve(form, part, 1, f=f)
    assert sol.coefficients[0, :, 0] == pytest.approx(
        np.array(oracle.evalf(16), dtype=float).ravel(), rel=1e-12)


# -- full solves ----------------------------------------------------------


def test_zero_data_zero_solution(space_n4_l2):
    form = assemble_cip(space_n4_l2)
    sol = dg_solve(form, make_partition(3), 0)
    assert np.all(sol.coefficients == 0.0)
    err = space_time_h1_error(sol, _zero_field())
    assert err == 0.0


def _zero_field():
    return mf.ScalarField([(mf.TimeFactor.one(), mf.SpatialTerm(
        lambda p: np.zeros(p.shape[:-1]),
        lambda p: np.zeros(p.shape),
        lambda p: np.zeros(p.shape[:-1] + (2, 2))))], clamped=True)


def test_dg0_energy_decay(space_n8_l2, form_n8_l2):
    sol = dg_solve(form_n8_l2, make_partition(16), 0, psi0=mf.phi())
    k = space_n8_l2.h1_stiffness()
    values = [h1_projection(space_n8_l2, mf.phi()).coefficients]
    values += [sol.coefficients[m, -1] for m in range(16)]
    norms = [math.sqrt(c @ (k @ c)) for c in values]
    assert all(norms[i] >= norms[i + 1] - 1e-14 for i in range(16))


def test_exactly_representable_field_error_zero(space_n4_l2):
    """Feeding the trajectory's own frozen profile back as the exact
    field gives a vanishing space-time error."""
    form = assemble_cip(space_n4_l2)
    sol = dg_solve(form, make_partition(1), 0, psi0=mf.phi())

    def profile_grad(x):
        # the error integral reads the gradient at the data rule points only
        assert np.array_equal(x, space_n4_l2.phys_points())
        return gradient_tables(space_n4_l2, sol.coefficients[0])[0]

    frozen = mf.ScalarField([(mf.TimeFactor.one(),
                              mf.SpatialTerm(None, profile_grad))])
    err = space_time_h1_error(sol, frozen)
    assert err < 1e-12


# -- time projection -------------------------------------------------------


def _one_term(fn):
    """A one-term field with time factor ``fn``; the projection reads
    neither its derivative nor its spatial factor."""
    return mf.ScalarField([(mf.TimeFactor(fn, None), mf.SpatialTerm(None))])


def test_projection_r0_is_right_endpoint():
    part = make_partition(1, 1.0)
    vals = time_projection_values(0, part, _one_term(lambda t: t))[..., 0]
    assert vals.ravel() == pytest.approx([1.0])
    # L2(0,1) distance of t to 1 is 1/sqrt(3)
    from streamfem.quadrature import interval_rule
    rule = interval_rule(6)
    err = math.sqrt(sum(w * (t - 1.0) ** 2
                        for t, w in zip(rule.points, rule.weights)))
    assert err == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_projection_reproduces_polynomials(order):
    part = make_partition(3, 1.5)
    coeffs = np.arange(1.0, order + 2.0)

    def poly(t):
        return sum(c * t ** p for p, c in enumerate(coeffs))

    vals = time_projection_values(order, part, _one_term(poly))[..., 0]
    basis = TimeBasis(order)
    for m in range(3):
        t0, t1 = part.nodes[m], part.nodes[m + 1]
        for tau in (0.2, 0.7):
            t = t0 + (t1 - t0) * tau
            assert basis.values(np.array([tau]))[0] @ vals[m] == pytest.approx(
                poly(t), rel=1e-12)


@pytest.mark.parametrize("order", _HIGH_ORDERS)
def test_projection_reproduces_t_to_the_r(order):
    """sigma = t^r is its own projection: the nodal values on
    ``make_partition(3)`` are t^r at the Radau points to 2e-14 relative
    for every r <= 12 (monomial moments reach only 5.8e-11 at r = 10)."""
    part = make_partition(3)
    got = time_projection_values(order, part,
                                 _one_term(lambda t: t ** order))[..., 0]
    want = (part.nodes[:-1, None]
            + part.lengths[:, None] * radau_points(order)) ** order
    assert np.abs(got - want).max() <= 2e-14 * np.abs(want).max()


def test_projection_r1_of_t_squared_oracle():
    """p(1) = 1 and a vanishing mean of (p - t^2) force p = -1/3 + 4t/3
    on a single unit interval; direct 2x2 derivation."""
    part = make_partition(1, 1.0)
    vals = time_projection_values(1, part, _one_term(lambda t: t * t))[..., 0]
    # nodal values at the collocation points 1/3 and 1
    assert vals[0] == pytest.approx([-1.0 / 3.0 + 4.0 / 9.0, 1.0], abs=1e-12)


def test_projection_endpoint_condition():
    part = make_partition(4, 1.0)
    fn = lambda t: math.sin(2.0 * math.pi * t)
    for order in (0, 1, 2):
        vals = time_projection_values(order, part, _one_term(fn))[..., 0]
        for m in range(4):
            assert vals[m, -1] == pytest.approx(fn(part.nodes[m + 1]),
                                                abs=1e-14)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_projection_of_a_field_is_that_of_its_terms(order):
    """All intervals and terms are projected at once: the projection of
    a two-term field on a graded partition is, term by term and to
    roundoff, the projection of each term alone."""
    part = TimePartition(make_partition(6).nodes ** 2)
    fns = (lambda t: math.sin(2.0 * math.pi * t), lambda t: math.exp(-t))
    both = mf.ScalarField([_one_term(fn).terms[0] for fn in fns])
    vals = time_projection_values(order, part, both)
    assert vals.shape == (6, order + 1, 2)
    for i, fn in enumerate(fns):
        alone = time_projection_values(order, part, _one_term(fn))[..., 0]
        assert np.abs(vals[..., i] - alone).max() <= 1e-14


# -- jump identity and bilinear forms --------------------------------------


def test_jump_identity_scalar():
    wm, wp = 1.0, 3.0
    jump = wp - wm
    assert jump * wp == pytest.approx(0.5 * wp ** 2 + 0.5 * jump ** 2
                                      - 0.5 * wm ** 2, abs=1e-13)


def test_jump_identity_gradient_form(space_n4_l2, rng):
    k = space_n4_l2.h1_stiffness()
    for _ in range(20):
        wm = rng.standard_normal(space_n4_l2.n_dofs)
        wp = rng.standard_normal(space_n4_l2.n_dofs)
        jump = wp - wm
        lhs = jump @ (k @ wp)
        rhs = 0.5 * (wp @ (k @ wp)) + 0.5 * (jump @ (k @ jump)) \
            - 0.5 * (wm @ (k @ wm))
        scale = abs(wp @ (k @ wp)) + abs(wm @ (k @ wm)) + 1.0
        assert abs(lhs - rhs) <= 1e-13 * scale


@pytest.mark.parametrize("order", [0, 1, 2])
def test_primal_dual_agreement(order, space_n4_l2, rng):
    form = assemble_cip(space_n4_l2)
    part = make_partition(3)
    shape = (3, order + 1, space_n4_l2.n_dofs)
    for _ in range(5):
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        u[:, :, space_n4_l2.boundary_dofs] = 0.0
        v[:, :, space_n4_l2.boundary_dofs] = 0.0
        p = bh_primal_functional(form, part, order, u)(v)
        d = bh_dual(form, part, order, u, v)
        assert abs(p - d) <= 1e-11 * (abs(p) + abs(d))


def _loop_primal(form, partition, order, ucoef, vcoef):
    """bh_primal_functional written out interval by interval, its oracle."""
    k = form.space.h1_stiffness()
    a = _assemble_matrices(form.space, form.eta)[0]
    basis = TimeBasis(order)
    g10, mass, left = basis.gram(da=1), basis.gram(), basis.left_values
    total = 0.0
    for m in range(partition.num_intervals):
        ub, vb = ucoef[m], vcoef[m]
        total += float(np.einsum("ba,af,bf->", g10, (k @ ub.T).T, vb))
        total += partition.lengths[m] * float(
            np.einsum("ba,af,bf->", mass, (a @ ub.T).T, vb))
        u_before = ucoef[m - 1][-1] if m else 0.0
        total += float((left @ ub - u_before) @ (k @ (left @ vb)))
    return total


def _loop_dual(form, partition, order, ucoef, vcoef):
    """bh_dual written out interval by interval, its oracle."""
    k = form.space.h1_stiffness()
    a = _assemble_matrices(form.space, form.eta)[0]
    basis = TimeBasis(order)
    g01, mass, left = basis.gram(db=1), basis.gram(), basis.left_values
    m_count = partition.num_intervals
    total = 0.0
    for m in range(m_count):
        ub, vb = ucoef[m], vcoef[m]
        total -= float(np.einsum("ba,af,bf->", g01, (k @ ub.T).T, vb))
        total += partition.lengths[m] * float(
            np.einsum("ba,af,bf->", mass, (a @ ub.T).T, vb))
        if m < m_count - 1:
            total -= float(ub[-1] @ (k @ (left @ vcoef[m + 1] - vb[-1])))
        else:
            total += float(ub[-1] @ (k @ vb[-1]))
    return total


def _loop_stability(sol, form, psi0=None):
    """stability_functional written out interval by interval, its oracle."""
    space = sol.space
    free = space.free_dofs
    k_free, a_free = space.h1_free(), form.matrix_free
    basis = sol.basis
    mass, dgram = basis.gram(), basis.gram(da=1, db=1)
    s1 = s2 = s3 = 0.0
    u_prev = (h1_projection(space, psi0).coefficients[free]
              if psi0 is not None else np.zeros(free.size))
    for m, km in enumerate(sol.partition.lengths):
        block = sol.coefficients[m][:, free]
        if sol.order > 0:
            kb = (k_free @ block.T).T
            s1 += float(np.einsum("ba,af,bf->", dgram, block, kb)) / km
        lifted = np.array([space.h1_factor()(a_free @ b) for b in block])
        klift = (k_free @ lifted.T).T
        s2 += km * float(np.einsum("ba,af,bf->", mass, lifted, klift))
        jump = basis.left_values @ block - u_prev
        s3 += float(jump @ (k_free @ jump)) / km
        u_prev = block[-1]
    return s1, s2, s3


def _random_blocks(rng, space, shape):
    out = rng.standard_normal(shape)
    out[:, :, space.boundary_dofs] = 0.0
    return out


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_block_forms_match_the_interval_loops(order, graded, space_n4_l2,
                                              rng):
    """bh_primal_functional, bh_dual and stability_functional pair all
    intervals at once; the interval-by-interval forms are their
    oracles."""
    form = assemble_cip(space_n4_l2)
    part = make_partition(5)
    if graded:
        part = TimePartition(part.nodes ** 2)
    shape = (5, order + 1, space_n4_l2.n_dofs)
    for _ in range(3):
        u = _random_blocks(rng, space_n4_l2, shape)
        v = _random_blocks(rng, space_n4_l2, shape)
        for got, want in ((bh_primal_functional(form, part, order, u)(v),
                           _loop_primal(form, part, order, u, v)),
                          (bh_dual(form, part, order, u, v),
                           _loop_dual(form, part, order, u, v))):
            assert abs(got - want) <= 1e-13 * abs(want)
    sol = dg_solve(form, part, order, f=mf.f_scalar(), psi0=mf.phi())
    for psi0 in (None, mf.phi()):
        got = stability_functional(sol, form, psi0)
        want = _loop_stability(sol, form, psi0)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        if order == 0:
            assert got[0] == 0.0


def test_primal_dual_check_fails_on_a_wrong_gram(space_n4_l2, rng,
                                                 monkeypatch):
    """With the derivative Gram matrix of the primal form alone
    transposed, the two forms disagree: the shared kernel does not make
    them equal."""
    form = assemble_cip(space_n4_l2)
    part = make_partition(3)
    shape = (3, 2, space_n4_l2.n_dofs)
    u = _random_blocks(rng, space_n4_l2, shape)
    v = _random_blocks(rng, space_n4_l2, shape)
    gram = TimeBasis.gram

    def transposed(self, da=0, db=0):
        g = gram(self, da, db)
        return g.T if (da, db) == (1, 0) else g
    monkeypatch.setattr(TimeBasis, "gram", transposed)
    p = bh_primal_functional(form, part, 1, u)(v)
    d = bh_dual(form, part, 1, u, v)
    assert abs(p - d) > 1e-11 * (abs(p) + abs(d))


def _pair_blocks(gram, mat, x, y, scale=None):
    sx = (mat @ x.reshape(-1, x.shape[-1]).T).T.reshape(x.shape)
    per = np.einsum("ba,maf,mbf->m", gram, sx, y)
    return float(per.sum() if scale is None else scale @ per)


def _primal_in_one_pass(form, partition, order, ucoef, vcoef):
    """The primal form with both blocks in one pass, the trial side formed
    against the one test block: the reference of ``bh_primal_functional``
    in the same arithmetic."""
    k = form.space.h1_stiffness()
    basis = TimeBasis(order)
    u_prev = np.concatenate([np.zeros_like(ucoef[:1, -1]), ucoef[:-1, -1]])
    jumps = (basis.left_values @ ucoef - u_prev)[:, None]
    free = form.space.free_dofs
    return (_pair_blocks(basis.gram(da=1), k, ucoef, vcoef)
            + _pair_blocks(basis.gram(), form.matrix_free, ucoef[..., free],
                           vcoef[..., free], partition.lengths)
            + _pair_blocks(np.ones((1, 1)), k, jumps,
                           (basis.left_values @ vcoef)[:, None]))


def _analytic_in_one_pass(form, psi, partition, order, vcoef):
    """The analytic form with its data built against the one test block: the
    reference of ``bh_analytic_functional`` in the same arithmetic."""
    space = form.space
    basis = TimeBasis(order)
    gloads = term_tables(space, psi, "grad load")
    cpairs = form.pairings(psi)
    points = data_time_points(order)
    weights = dg_time._tested_data(psi, partition, order, points)
    dweights = dg_time._tested_data(dg_time._time_derivative(psi),
                                    partition, order, points)
    total = float(np.vdot(dweights, vcoef @ gloads.T)
                  + np.vdot(weights, vcoef @ cpairs.T))
    sig0 = np.array([tf.fn(0.0) for tf, _ in psi.terms])
    total += float((sig0 @ gloads) @ (basis.left_values @ vcoef[0]))
    return total


@pytest.mark.parametrize("order", [0, 1, 2])
def test_functionals_are_the_forms_bit_for_bit(order, space_n4_l2, rng):
    """A functional built once gives, on each of three test blocks, the
    value of the one-pass reference, bit for bit."""
    form = assemble_cip(space_n4_l2)
    part = TimePartition(make_partition(4).nodes ** 2)
    psi = mf.psi_exact()
    shape = (4, order + 1, space_n4_l2.n_dofs)
    u = _random_blocks(rng, space_n4_l2, shape)
    primal = bh_primal_functional(form, part, order, u)
    analytic = bh_analytic_functional(form, psi, part, order)
    for _ in range(3):
        v = _random_blocks(rng, space_n4_l2, shape)
        assert primal(v) == _primal_in_one_pass(form, part, order, u, v)
        assert analytic(v) == _analytic_in_one_pass(form, psi, part, order,
                                                    v)


@pytest.mark.parametrize("order", [0, 1])
def test_galerkin_orthogonality(order, rng, monkeypatch):
    # the identity holds up to data quadrature, so the data must be
    # resolved identically on both routes: elevate the data rule of the
    # space (the time rule is shared)
    from streamfem.quadrature import triangle_rule
    space = build_space(build_structured_mesh(4), 2)
    monkeypatch.setattr(space, "default_data_rule", lambda: triangle_rule(20))
    form = assemble_cip(space)
    part = make_partition(8)
    psi = mf.psi_exact()
    sol = dg_solve(form, part, order, f=mf.f_scalar())
    for _ in range(5):
        v = rng.standard_normal(sol.coefficients.shape)
        v[:, :, space.boundary_dofs] = 0.0
        lhs = bh_analytic_functional(form, psi, part, order)(v)
        rhs = bh_primal_functional(form, part, order, sol.coefficients)(v)
        assert abs(lhs - rhs) <= 1e-7 * (abs(lhs) + abs(rhs) + 1e-30)


@pytest.fixture(scope="module")
def diagnostics_default_run():
    """The dG(0) trajectory of the diagnostics study's defaults."""
    space = build_space(build_structured_mesh(16), 2)
    form = assemble_cip(space)
    part = make_partition(32)
    return form, part, dg_solve(form, part, 0, f=mf.f_scalar())


def _orthogonality_residuals(run, rng, time_points=None):
    """The residuals of five random test blocks; ``time_points`` replaces
    the data time rule of ``bh_analytic_functional`` alone, not that of
    the solve."""
    form, part, sol = run
    out = []
    for _ in range(5):
        v = rng.standard_normal(sol.coefficients.shape)
        v[:, :, form.space.boundary_dofs] = 0.0
        with pytest.MonkeyPatch.context() as mp:
            if time_points is not None:
                mp.setattr(dg_time, "data_time_points",
                           lambda order: time_points)
            lhs = bh_analytic_functional(form, mf.psi_exact(), part, 0)(v)
        rhs = bh_primal_functional(form, part, 0, sol.coefficients)(v)
        out.append(abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    return np.array(out)


def test_galerkin_orthogonality_default_rules(diagnostics_default_run, rng):
    """dg_solve and bh_analytic_functional share their data time rule by
    default."""
    assert data_time_points(0) == 2
    res = _orthogonality_residuals(diagnostics_default_run, rng)
    assert res.max() <= 1e-7


def test_galerkin_orthogonality_fails_with_mismatched_time_rule(
        diagnostics_default_run, rng):
    """With 8 analytic time points against the solver's r+2 the check
    must fail: the residual is the time-quadrature mismatch."""
    res = _orthogonality_residuals(diagnostics_default_run, rng,
                                   time_points=8)
    assert res.min() > 1e-7


@pytest.mark.parametrize("order", [0, 1, 2])
def test_galerkin_orthogonality_of_the_solver(order, diagnostics_default_run,
                                              rng):
    """Fed the data that ``bh_analytic_functional`` pairs, the gradient
    loads tested with sigma' and the consistency pairings tested with
    sigma, the sweep from u0 = 0 gives a trajectory U with
    B(U, v) = B(psi, v) up to the solve contract: no space quadrature
    lies between the two sides, so the residual measures the solver
    alone.  psi(0) = 0, so the initial term of B(psi, v) vanishes."""
    form, part, _ = diagnostics_default_run
    space, psi = form.space, mf.psi_exact()
    free = space.free_dofs
    points = data_time_points(order)
    weights = dg_time._tested_data(psi, part, order, points)
    dweights = dg_time._tested_data(dg_time._time_derivative(psi), part,
                                    order, points)
    loads = np.concatenate([term_tables(space, psi, "grad load"),
                            form.pairings(psi)])[:, free]
    u = np.zeros((part.num_intervals, order + 1, space.n_dofs))
    for m, block in enumerate(dg_time._forward_sweep(
            space.h1_free(), form.matrix_free, loads,
            np.concatenate([dweights, weights], axis=-1), part.lengths,
            np.zeros(free.size), order)):
        u[m][:, free] = block
    for _ in range(10):
        v = _random_blocks(rng, space, u.shape)
        lhs = bh_analytic_functional(form, psi, part, order)(v)
        rhs = bh_primal_functional(form, part, order, u)(v)
        assert abs(lhs - rhs) <= 1e-10 * (abs(lhs) + abs(rhs))


def test_solver_error_carries_interval_and_residual(space_n4_l2,
                                                    monkeypatch):
    form = assemble_cip(space_n4_l2)
    monkeypatch.setattr(linalg, "_RTOL", 1e-30)
    with pytest.raises(SolverError) as info:
        dg_solve(form, make_partition(3), 1, f=mf.f_scalar())
    exc = info.value
    assert exc.interval == 1
    assert 0.0 < exc.residual < 1e-10
    assert isinstance(exc.__cause__, SolverError)
    assert exc.__cause__.residual == exc.residual
    assert str(exc).startswith("interval 1: residual")


# -- the diagonalized interval solve ----------------------------------------


@pytest.fixture(scope="module")
def form_n8_p3():
    return assemble_cip(build_space(build_structured_mesh(8), 3))


def _monolithic_solve(form, partition, order, f, psi0):
    """The dG(r) sweep on the assembled (r+1)-block interval system
    kron(C, K) + k kron(M, A), the oracle of the diagonalized solve."""
    import scipy.sparse as sp
    from streamfem.fem import assemble_load_scalar, sample_time_factors

    space = form.space
    free = space.free_dofs
    k_free, a_free = space.h1_free(), form.matrix_free
    basis = TimeBasis(order)
    coupling, mass = basis.coupling(), basis.gram()
    lengths = partition.lengths
    # the interval loads sum_i k_m sum_q w_q ell_a(tau_q) sigma_i(t_mq) b_i,
    # summed in the order of dg_solve: the free columns of the stacked
    # (I, n_dofs) loads, laid out as dg_solve's (F-contiguous), so that
    # weights[m] @ loads takes the same BLAS path and r = 0 rounds alike
    loads = np.array([assemble_load_scalar(space, w)
                      for _, w in f.static_terms()])[:, free]
    rule, sig = sample_time_factors(f, partition, data_time_points(order))
    tested = rule.weights[:, None] * basis.values(rule.points)
    weights = lengths[:, None, None] * (tested.T @ sig)
    u_prev = h1_projection(space, psi0).coefficients[free]
    coeffs = np.zeros((partition.num_intervals, order + 1, space.n_dofs))
    # one system k for a uniform partition, as in dg_solve: the lengths
    # of make_partition agree to roundoff, not bit for bit
    system_k = lengths if np.ptp(lengths) > 1e-12 * lengths[0] \
        else np.full_like(lengths, lengths[0])
    for m in range(partition.num_intervals):
        factor = Factorized(
            sp.kron(sp.csr_matrix(coupling), k_free)
            + sp.kron(sp.csr_matrix(system_k[m] * mass), a_free))
        rhs = (weights[m] @ loads
               + np.outer(basis.left_values, k_free @ u_prev))
        block = factor(rhs.ravel()).reshape(order + 1, free.size)
        coeffs[m][:, free] = block
        u_prev = block[-1]
    return coeffs


@pytest.mark.parametrize("partition", ["uniform", "graded", "refined"])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_diagonalized_solve_matches_monolithic_oracle(order, partition,
                                                      form_n8_p3,
                                                      refined_partition):
    """Ten intervals, uniform (one factor set) or graded (one per
    interval), or the refined partition (one per run of equal steps)."""
    part = make_partition(10)
    if partition == "graded":
        part = TimePartition(part.nodes ** 2)
    elif partition == "refined":
        part = refined_partition
    psi0 = mf.phi()
    want = _monolithic_solve(form_n8_p3, part, order, mf.f_scalar(), psi0)
    got = dg_solve(form_n8_p3, part, order, f=mf.f_scalar(),
                   psi0=psi0).coefficients
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    if order == 0:  # Lambda = V = [1]: the same system, the same rounding
        assert np.array_equal(got, want)


@pytest.mark.parametrize("factor_count", [dg_time], ids=["dg_time"],
                         indirect=True)
def test_runs_equal_to_roundoff_share_a_factor_set(form_n8_p3, factor_count):
    """make_partition(12) with the nodes 0.3 and 0.35 added has 14
    intervals in 6 runs, two of them of steps whose lengths agree only to
    roundoff.  Each run is factored once, with its first length, and
    still matches the oracle, which factors every interval with its own
    length."""
    part = TimePartition(np.union1d(make_partition(12).nodes, [0.3, 0.35]))
    psi0 = mf.phi()
    got = dg_solve(form_n8_p3, part, 0, f=mf.f_scalar(),
                   psi0=psi0).coefficients
    assert len(factor_count) == 6
    want = _monolithic_solve(form_n8_p3, part, 0, mf.f_scalar(), psi0)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("factor_count", [dg_time], ids=["dg_time"],
                         indirect=True)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_one_factor_set_per_run_of_equal_steps(order, space_n4_l2,
                                               refined_partition,
                                               factor_count):
    """The refined partition's nine intervals form three runs of equal
    steps, and the sweep factors one set of mode factors per run, for the
    stream function and for the MINI saddle alike."""
    dg_solve(assemble_cip(space_n4_l2), refined_partition, order,
             f=mf.f_scalar())
    assert len(factor_count) == 3 * len(dg_time.time_modes(order))
    factor_count.clear()
    mini_transient_solve(build_mini_space(space_n4_l2.mesh),
                         refined_partition, order, mf.g_field())
    assert len(factor_count) == 3 * len(dg_time.time_modes(order))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_a_run_drops_its_factors_before_the_next_exist(order, space_n4_l2,
                                                       refined_partition,
                                                       monkeypatch):
    """When the step length changes, the previous run's mode factors and
    their matrices are gone before ``_interval_system`` builds the next
    run's; at r = 0 the coupled operator holds the factor's matrix."""
    made, alive = [], []
    interval_system = dg_time._interval_system

    def spy(*args):
        alive.append(any(ref() is not None for ref in made))
        modes, system = interval_system(*args)
        made.extend(weakref.ref(obj) for factor, _, _ in modes
                    for obj in (factor, factor.a))
        return modes, system

    monkeypatch.setattr(dg_time, "_interval_system", spy)
    dg_solve(assemble_cip(space_n4_l2), refined_partition, order,
             f=mf.f_scalar())
    assert alive == [False, False, False]


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 6])
def test_time_modes_diagonalize_the_time_matrices(order):
    """Summed over the modes, Re(v w) is V W = M^-1 and Re(lambda v w)
    is V Lambda W = M^-1 C M^-1; V rebuilt from the modes has the
    documented condition number."""
    from streamfem.dg_time import time_modes
    basis = TimeBasis(order)
    coupling, mass = basis.coupling(), basis.gram()
    modes = time_modes(order)
    vw = sum(np.outer(v, w).real for _, v, w in modes)
    lvw = sum(np.outer(lam * v, w).real for lam, v, w in modes)
    assert vw @ mass == pytest.approx(np.eye(order + 1), abs=1e-11)
    assert lvw @ mass == pytest.approx(np.linalg.solve(mass, coupling),
                                       rel=1e-11, abs=1e-11)
    assert len(modes) == (order + 2) // 2
    assert sum(np.isrealobj(v) for _, v, _ in modes) == (order + 1) % 2
    columns = [c for lam, v, _ in modes
               for c in ((v,) if np.isrealobj(v) else (v / 2, np.conj(v) / 2))]
    cond = np.linalg.cond(np.column_stack(columns))
    documented = [1.0, 3.23, 8.99, 28.3, 95.3, 331.0, 1.17e3][order]
    assert cond == pytest.approx(documented, rel=5e-3)


def test_dg0_needs_one_lu_solve_per_interval(monkeypatch):
    """At dG(0) the coupled residual is taken on the assembled K + k A,
    the factor's own matrix, so the check rounds as the factor does and
    no interval refines.  At this size (converge-k's default mesh) the
    split K x + k A x would refine three of the eight intervals."""
    solves = []
    apply = Factorized._apply
    monkeypatch.setattr(Factorized, "_apply",
                        lambda self, b: solves.append(1) or apply(self, b))
    form = assemble_cip(build_space(build_structured_mesh(64), 2))
    dg_solve(form, make_partition(8), 0, f=mf.f_scalar())
    assert len(solves) == 8


@pytest.mark.parametrize("order", [1, 2])
def test_wrong_eigenvectors_fail_the_coupled_check(order, space_n4_l2,
                                                   monkeypatch):
    """The residual is taken on the coupled system, not through V, so
    perturbed eigenvectors raise instead of returning a wrong answer."""
    from streamfem import dg_time
    true_modes = dg_time.time_modes(order)
    perturbed = tuple((lam, v + 0.5 * np.roll(v, 1), w)
                      for lam, v, w in true_modes)
    monkeypatch.setattr(dg_time, "time_modes", lambda r: perturbed)
    form = assemble_cip(space_n4_l2)
    with pytest.raises(SolverError) as info:
        dg_solve(form, make_partition(3), order, f=mf.f_scalar())
    assert info.value.interval == 1
    assert info.value.residual > 1e-10


# -- diagnostics ------------------------------------------------------------


def test_stability_zero_solution(space_n4_l2):
    form = assemble_cip(space_n4_l2)
    sol = dg_solve(form, make_partition(3), 0)
    assert stability_functional(sol, form) == (0.0, 0.0, 0.0)


def test_stability_s1_vanishes_for_r0(space_n4_l2):
    form = assemble_cip(space_n4_l2)
    sol = dg_solve(form, make_partition(4), 0, f=mf.f_scalar())
    s1, s2, s3 = stability_functional(sol, form)
    assert s1 == 0.0
    assert s2 > 0.0
    assert s3 > 0.0


def test_stability_bounded_under_refinement():
    """(S1+S2+S3) / data stays of one size across simultaneous
    refinement; the constant is not quantified, only boundedness."""
    psi = mf.psi_exact()
    f = mf.f_scalar()
    ratios = []
    for n, m in ((4, 4), (8, 8), (16, 16)):
        space = build_space(build_structured_mesh(n), 2)
        form = assemble_cip(space)
        part = make_partition(m)
        sol = dg_solve(form, part, 1, f=f)
        s1, s2, s3 = stability_functional(sol, form)
        data = stability_data_norm(form, f, part)
        ratios.append((s1 + s2 + s3) / data)
    assert max(ratios) <= 2.0 * min(ratios)
    assert max(ratios) < 10.0


def test_best_approx_zero_field(space_n4_l2):
    form = assemble_cip(space_n4_l2)
    part = make_partition(2)
    terms = best_approx_terms(_zero_field(), form, part, 0)
    assert terms == (0.0, 0.0, 0.0)


def test_best_approx_separable_shortcut(space_n4_l2):
    """E_Rh for the separable field equals |sigma(t)| times the static
    projection error; verified against per-time projections at three
    quadrature times."""
    from streamfem.cip import ritz_projection
    from streamfem.fem import h1_field_error
    form = assemble_cip(space_n4_l2)
    psi = mf.psi_exact()
    static_err = None
    proj = ritz_projection(form, mf.phi())
    static_err = h1_field_error(space_n4_l2, proj.coefficients, mf.phi())
    for t in (0.11, 0.4, 0.8):
        sigma = math.sin(2 * math.pi * t)
        scaled = mf.ScalarField(
            [(mf.TimeFactor.one(), mf.SpatialTerm(
                lambda p, s=sigma: s * mf.phi().value(0.0, p),
                lambda p, s=sigma: s * mf.phi().grad(0.0, p),
                lambda p, s=sigma: s * mf.phi().hess(0.0, p)))],
            clamped=True)
        direct = ritz_projection(form, scaled)
        err_t = h1_field_error(space_n4_l2, direct.coefficients, scaled)
        assert err_t == pytest.approx(abs(sigma) * static_err, abs=1e-10)


def test_best_approx_pik_rates():
    """The time-projection distance decays at order r+1."""
    psi = mf.psi_exact()
    space = build_space(build_structured_mesh(8), 2)
    form = assemble_cip(space)
    for order, expect in ((0, 1.0), (1, 2.0)):
        errs = []
        for m in (4, 8, 16, 32):
            part = make_partition(m)
            _, _, e_pik = best_approx_terms(psi, form, part, order)
            errs.append(e_pik)
        slope = np.polyfit(np.log([1.0 / m for m in (8, 16, 32)]),
                           np.log(errs[1:]), 1)[0]
        assert slope == pytest.approx(expect, abs=0.2)


def test_solution_error_decreases_with_time_refinement():
    psi = mf.psi_exact()
    space = build_space(build_structured_mesh(16), 2)
    form = assemble_cip(space)
    errs = []
    for m in (4, 8, 16):
        sol = dg_solve(form, make_partition(m), 0, f=mf.f_scalar())
        errs.append(space_time_h1_error(sol, psi))
    assert errs[0] > errs[1] > errs[2]


# -- the form protocol ---------------------------------------------------


class _FormView:
    """The six members of a form the time layer reads, and no others."""

    __slots__ = ("space", "matrix_free", "factor", "release_factor",
                 "pairings", "triple_norm")

    def __init__(self, form):
        for name in self.__slots__:
            setattr(self, name, getattr(form, name))


def test_time_layer_reads_the_form_only_through_its_protocol(space_n4_l2,
                                                             rng):
    form = assemble_cip(space_n4_l2)
    part, order = make_partition(4), 1
    psi, f = mf.psi_exact(), mf.f_scalar()
    v = rng.standard_normal((4, order + 1, space_n4_l2.n_dofs))
    v[:, :, space_n4_l2.boundary_dofs] = 0.0

    def results(target):
        sol = dg_solve(target, part, order, f=f)
        return [sol.coefficients,
                bh_analytic_functional(target, psi, part, order)(v),
                bh_primal_functional(target, part, order, sol.coefficients)(v),
                best_approx_terms(psi, target, part, order),
                stability_functional(sol, target),
                stability_data_norm(target, f, part, psi0=mf.phi())]

    view = _FormView(form)
    assert not hasattr(view, "eta")
    for through_form, through_view in zip(results(form), results(view)):
        assert np.array_equal(through_form, through_view)
