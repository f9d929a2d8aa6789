import math

import numpy as np
import pytest

from streamfem import manufactured as mf
from streamfem.cip import assemble_cip
from streamfem.dg_time import (DgSolution, TimeBasis, TimePartition,
                               best_approx_terms, bh_analytic, bh_dual,
                               bh_primal, data_time_points, dg_solve,
                               make_partition, radau_points,
                               stability_data_norm, stability_functional,
                               time_projection_values)
from streamfem.fem import (FeFunction, build_space, evaluate, h1_projection,
                           h1_seminorm, space_time_h1_error)
from streamfem.linalg import Factorized, SolverError
from streamfem.mesh import build_structured_mesh


# -- partitions and time basis -------------------------------------------


def test_make_partition_uniform():
    p = make_partition(4, 1.0)
    assert p.nodes == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert p.k_max == pytest.approx(0.25)
    assert p.num_intervals == 4


def test_make_partition_single():
    p = make_partition(1, 2.0)
    assert p.nodes == pytest.approx([0.0, 2.0])


def test_make_partition_rejects_zero():
    with pytest.raises(ValueError):
        make_partition(0)


def test_radau_nodes():
    assert radau_points(0) == pytest.approx([1.0])
    assert radau_points(1) == pytest.approx([1.0 / 3.0, 1.0])
    assert radau_points(2) == pytest.approx(
        [(4 - math.sqrt(6)) / 10, (4 + math.sqrt(6)) / 10, 1.0])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_time_basis_lagrange_property(order):
    basis = TimeBasis(order)
    vals = basis.values(basis.nodes)
    assert vals == pytest.approx(np.eye(order + 1), abs=1e-12)


def test_time_basis_gram_r1_exact():
    basis = TimeBasis(1)
    assert basis.gram() == pytest.approx(np.diag([0.75, 0.25]), abs=1e-14)
    # G[b, a] = int ell_a' ell_b
    assert basis.gram(da=1) == pytest.approx(
        np.array([[-9.0 / 8.0, 9.0 / 8.0], [-3.0 / 8.0, 3.0 / 8.0]]),
        abs=1e-14)
    assert basis.left_values == pytest.approx([1.5, -0.5])


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


class _MockForm:
    def __init__(self, lam, space):
        import scipy.sparse as sp
        self.space = space
        self.matrix_free = sp.csr_matrix(np.array([[lam]]))
        self.matrix = self.matrix_free

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
    sol = dg_solve(form, part, 1, f=lambda t: np.array([t]))
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
    norms = [h1_seminorm(space_n8_l2, h1_projection(
        space_n8_l2, mf.phi()).coefficients)]
    norms += [h1_seminorm(space_n8_l2, sol.value_minus(m)) for m in range(16)]
    assert all(norms[i] >= norms[i + 1] - 1e-14 for i in range(16))


def test_exactly_representable_field_error_zero(space_n4_l2):
    """Feeding the trajectory's own frozen profile back as the exact
    field gives a vanishing space-time error."""
    form = assemble_cip(space_n4_l2)
    sol = dg_solve(form, make_partition(1), 0, psi0=mf.phi())
    profile = FeFunction(space_n4_l2, sol.coefficients[0, 0])
    frozen = mf.ScalarField([(mf.TimeFactor.one(), mf.SpatialTerm(
        lambda x: evaluate(profile, x)[0],
        lambda x: evaluate(profile, x)[1]))])
    err = space_time_h1_error(sol, frozen)
    assert err < 1e-12


# -- time projection -------------------------------------------------------


def test_projection_r0_is_right_endpoint():
    part = make_partition(1, 1.0)
    vals = time_projection_values(0, part, lambda t: t)
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

    vals = time_projection_values(order, part, poly)
    basis = TimeBasis(order)
    for m in range(3):
        t0, t1 = part.nodes[m], part.nodes[m + 1]
        for tau in (0.2, 0.7):
            t = t0 + (t1 - t0) * tau
            assert basis.values(tau) @ vals[m] == pytest.approx(
                poly(t), rel=1e-12)


def test_projection_r1_of_t_squared_oracle():
    """p(1) = 1 and a vanishing mean of (p - t^2) force p = -1/3 + 4t/3
    on a single unit interval; direct 2x2 derivation."""
    part = make_partition(1, 1.0)
    vals = time_projection_values(1, part, lambda t: t * t)
    # nodal values at the collocation points 1/3 and 1
    assert vals[0] == pytest.approx([-1.0 / 3.0 + 4.0 / 9.0, 1.0], abs=1e-12)


def test_projection_endpoint_condition():
    part = make_partition(4, 1.0)
    fn = lambda t: math.sin(2.0 * math.pi * t)
    for order in (0, 1, 2):
        vals = time_projection_values(order, part, fn)
        for m in range(4):
            assert vals[m, -1] == pytest.approx(fn(part.nodes[m + 1]),
                                                abs=1e-14)


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
        p = bh_primal(form, part, order, u, v)
        d = bh_dual(form, part, order, u, v)
        assert abs(p - d) <= 1e-11 * (abs(p) + abs(d))


@pytest.mark.parametrize("order", [0, 1])
def test_galerkin_orthogonality(order, rng):
    # the identity holds up to data quadrature, so the data must be
    # resolved identically on both routes: elevate the space rule (the
    # time rule is shared by default)
    from streamfem.quadrature import triangle_rule
    space = build_space(build_structured_mesh(4), 2)
    form = assemble_cip(space)
    part = make_partition(8)
    psi = mf.psi_exact()
    rule = triangle_rule(20)
    sol = dg_solve(form, part, order, f=mf.f_scalar(), load_rule=rule)
    for _ in range(5):
        v = rng.standard_normal(sol.coefficients.shape)
        v[:, :, space.boundary_dofs] = 0.0
        lhs = bh_analytic(form, psi, part, order, v, volume_rule=rule,
                          edge_points=16)
        rhs = bh_primal(form, part, order, sol.coefficients, v)
        assert abs(lhs - rhs) <= 1e-7 * (abs(lhs) + abs(rhs) + 1e-30)


@pytest.fixture(scope="module")
def diagnostics_default_run():
    """The dG(0) trajectory of the diagnostics study's defaults."""
    space = build_space(build_structured_mesh(16), 2)
    form = assemble_cip(space)
    part = make_partition(32)
    return form, part, dg_solve(form, part, 0, f=mf.f_scalar())


def _orthogonality_residuals(run, rng, time_points=None):
    form, part, sol = run
    out = []
    for _ in range(5):
        v = rng.standard_normal(sol.coefficients.shape)
        v[:, :, form.space.boundary_dofs] = 0.0
        lhs = bh_analytic(form, mf.psi_exact(), part, 0, v,
                          time_points=time_points)
        rhs = bh_primal(form, part, 0, sol.coefficients, v)
        out.append(abs(lhs - rhs) / (abs(lhs) + abs(rhs)))
    return np.array(out)


def test_galerkin_orthogonality_default_rules(diagnostics_default_run, rng):
    """dg_solve and bh_analytic share their data time rule by default."""
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


def test_solver_error_carries_interval_and_residual(space_n4_l2):
    form = assemble_cip(space_n4_l2)
    with pytest.raises(SolverError) as info:
        dg_solve(form, make_partition(3), 1, f=mf.f_scalar(), rtol=1e-30)
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
    from streamfem.fem import load_provider
    from streamfem.quadrature import interval_rule

    space = form.space
    free = space.free_dofs
    k_free, a_free = space.h1_free(), form.matrix_free
    basis = TimeBasis(order)
    coupling, mass = basis.coupling(), basis.gram()
    load = load_provider(space, f)
    rule = interval_rule(data_time_points(order))
    u_prev = h1_projection(space, psi0).coefficients[free]
    coeffs = np.zeros((partition.num_intervals, order + 1, space.n_dofs))
    lengths = partition.lengths
    # one system k for a uniform partition, as in dg_solve: the lengths
    # of make_partition agree to roundoff, not bit for bit
    system_k = lengths if np.ptp(lengths) > 1e-12 * lengths[0] \
        else np.full_like(lengths, lengths[0])
    for m, km in enumerate(lengths):
        factor = Factorized(
            sp.kron(sp.csr_matrix(coupling), k_free)
            + sp.kron(sp.csr_matrix(system_k[m] * mass), a_free))
        rhs = np.zeros((order + 1, free.size))
        for tau, wq in zip(rule.points, rule.weights):
            rhs += (wq * km) * np.outer(
                basis.values(tau), load(partition.nodes[m] + km * tau)[free])
        rhs += np.outer(basis.left_values, k_free @ u_prev)
        block = factor(rhs.ravel()).reshape(order + 1, free.size)
        coeffs[m][:, free] = block
        u_prev = block[-1]
    return coeffs


@pytest.mark.parametrize("graded", [False, True], ids=["uniform", "graded"])
@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_diagonalized_solve_matches_monolithic_oracle(order, graded,
                                                      form_n8_p3):
    """Ten intervals, uniform or graded (one factor set per interval)."""
    part = make_partition(10)
    if graded:
        part = TimePartition(part.nodes ** 2)
    psi0 = mf.phi()
    want = _monolithic_solve(form_n8_p3, part, order, mf.f_scalar(), psi0)
    got = dg_solve(form_n8_p3, part, order, f=mf.f_scalar(),
                   psi0=psi0).coefficients
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
    if order == 0:  # Lambda = V = [1]: the same system, the same rounding
        assert np.array_equal(got, want)


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
    terms = best_approx_terms(_zero_field(), space_n4_l2, form, part, 0)
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
            _, _, e_pik = best_approx_terms(psi, space, form, part, order)
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
