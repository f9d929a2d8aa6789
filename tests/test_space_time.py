"""The separable space-time quadrature: its rank compression, its memory,
and the static field data each space evaluates once."""

import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from streamfem import cip, dg_time, fem, mini_stokes
from streamfem import manufactured as mf
from streamfem.cip import assemble_cip
from streamfem.dg_time import (TimeBasis, TimePartition, _time_derivative,
                               best_approx_terms, bh_analytic_functional,
                               dg_solve,
                               make_partition, stability_data_norm,
                               time_projection_values)
from streamfem.fem import (build_space, h1_field_error, sample_time_factors,
                           space_time_h1_error, space_time_norm, term_tables)
from streamfem.mesh import build_structured_mesh
from streamfem.mini_stokes import (build_mini_space, mini_transient_solve,
                                   velocity_error_l2)
from streamfem.quadrature import interval_rule, triangle_rule


# -- rank compression ----------------------------------------------------


def _per_point_sum(wdet, trule, lengths, blocks):
    """sum_m k_m sum_p w_p int |sum_j C_m[p, j] T_m[j]|^2, point by point."""
    total = 0.0
    for km, (coef, tables) in zip(lengths, blocks):
        for p, wp in enumerate(trule.weights):
            values = np.tensordot(coef[p], tables, axes=1)     # (F, Q, d)
            total += km * wp * float(
                np.sum(wdet * np.sum(values ** 2, axis=-1)))
    return total


@pytest.mark.parametrize("points, terms, equal_columns", [
    (5, 2, False),     # P > J
    (3, 3, False),     # P = J
    (2, 4, False),     # P < J
    (5, 3, True),      # rank-deficient C: two equal columns
])
def test_compression_matches_the_per_point_sum(points, terms, equal_columns):
    rng = np.random.default_rng(points * 10 + terms)
    trule = interval_rule(points)
    partition = TimePartition(np.cumsum([0.0, 0.25, 0.5, 0.125]))
    space = build_space(build_structured_mesh(1), 1)
    wdet = space.jac_det[:, None] * space.default_data_rule().weights
    blocks = []
    for _ in partition.lengths:
        coef = rng.standard_normal((points, terms))
        if equal_columns:
            coef[:, -1] = coef[:, 0]
        blocks.append((coef, rng.standard_normal((terms,) + wdet.shape
                                                 + (2,))))
    want = _per_point_sum(wdet, trule, partition.lengths, blocks)
    # no table is shared: ``discrete`` writes all of them per interval
    shared = np.empty((0,) + wdet.shape + (2,))

    def discrete(work):
        def write(m, out):
            out[...] = blocks[m][1]
        return write
    got = space_time_norm(space, partition, trule,
                          np.array([coef for coef, _ in blocks]), shared,
                          discrete)
    assert got ** 2 == pytest.approx(want, rel=1e-13, abs=0.0)


# every point count of a data time rule: 3, 5, 8, 12 and r + 2 for r <= 4
@pytest.mark.parametrize("points", [2, 3, 4, 5, 6, 8, 12])
def test_the_data_time_rule_integrates_sigma_and_its_derivative(points):
    """On the nodes^2 grading of ``make_partition(10)``, the rule that
    ``sample_time_factors`` returns integrates sigma^2 and sigma'^2 of
    sigma(t) = t^n, n = P - 1, on every interval to their closed forms
    (b^(2n+1) - a^(2n+1)) / (2n+1) and n^2 (b^(2n-1) - a^(2n-1)) / (2n-1),
    taken in exact rational arithmetic; sigma' is sampled through
    ``_time_derivative``, as ``bh_analytic_functional`` samples it."""
    part = TimePartition(make_partition(10).nodes ** 2)
    n = points - 1
    fld = mf.ScalarField([(mf.TimeFactor(lambda t: t ** n,
                                         lambda t: n * t ** (n - 1)),
                           mf.SpatialTerm(None))])
    ends = [Fraction(t) for t in part.nodes]
    for sampled, scale, power in ((fld, 1, 2 * n + 1),
                                  (_time_derivative(fld), n * n, 2 * n - 1)):
        rule, sig = sample_time_factors(sampled, part, points)
        got = part.lengths * (sig[..., 0] ** 2 @ rule.weights)
        want = [float(scale * (b ** power - a ** power) / power)
                for a, b in zip(ends[:-1], ends[1:])]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_error_integration_peak_memory():
    """Traced peak of one space-time error at n=32, P2, dG(0), M = 2.

    The interval values shrink from P = 5 rows to J = 2 (the exact term
    and the discrete one).  Both halves of the partition hold their
    buffers at once, per half the J tables (1.6 MB), a work buffer (the
    discrete table, then the squares; 0.8 MB) and a block of the
    combinations (0.8 MB): 7.6 MiB with numpy 2.4, against 7.4 MiB when
    one interval at a time was integrated with allocating calls and
    12.5 MB when every Gauss point formed its own row.  The peak
    includes building the cached exact gradient table (0.8 MB) on the
    fresh space.
    """
    space = build_space(build_structured_mesh(32), 2)
    sol = dg_solve(assemble_cip(space), make_partition(2), 0,
                   f=mf.f_scalar())
    tracemalloc.start()
    try:
        space_time_h1_error(sol, mf.psi_exact())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


# -- two halves on two threads ------------------------------------------


def _serial_norm(space, partition, trule, coefficients, tables_of):
    """The norm as one loop over the intervals on one thread, with
    allocating numpy calls: sum_m k_m sum_i int |sum_j R_ij T_m[j]|^2."""
    wdet = space.jac_det[:, None] * space.default_data_rule().weights
    sqrt_w = np.sqrt(trule.weights)[:, None]
    total = 0.0
    for m, km in enumerate(partition.lengths):
        r = np.linalg.qr(sqrt_w * coefficients[m], mode="r")
        tables = tables_of(m)
        values = r @ tables.reshape(len(tables), -1)
        sq = np.square(values.reshape((len(r),) + tables.shape[1:]))
        total += km * float(
            ((sq[..., 0] + sq[..., 1]).reshape(len(r), -1)
             @ wdet.ravel()).sum())
    return float(np.sqrt(max(total, 0.0)))


def _serial_error(space, fld, kind, sol, basis, points, tables_of):
    """``space_time_error`` as a serial loop; ``tables_of(m)`` are the
    (r+1, F, Q, 2) tables of the trajectory on interval m."""
    trule, sig = sample_time_factors(fld, sol.partition, points)
    minus_basis = -basis.values(trule.points)
    exact = term_tables(space, fld, kind)
    return _serial_norm(
        space, sol.partition, trule,
        [np.hstack([sig_m, minus_basis]) for sig_m in sig],
        lambda m: np.concatenate([exact, tables_of(m)]))


class _Lockstep:
    """Table writes of the two halves of ``space_time_norm`` in lockstep.

    Each writer that ``table_writer`` makes while installed waits for the
    other half before and after each of its first ``pairs`` writes (the
    helper's half has M // 2 intervals), so a buffer the halves share,
    such as one coefficient row array, is written by both before either
    reads it, and a race on it changes the result on every run instead
    of on some.
    """

    def __init__(self, monkeypatch, pairs):
        self.barrier = threading.Barrier(2, timeout=10.0)
        self.pairs = pairs
        for module in (fem, mini_stokes):
            monkeypatch.setattr(module, "table_writer",
                                self.wrap(module.table_writer))

    def wrap(self, factory):
        def make(*args, **kwargs):
            shape, write = factory(*args, **kwargs)
            done = []

            def step(rows, out, work):
                paired = len(done) < self.pairs
                done.append(None)
                if paired:
                    self.barrier.wait()
                write(rows, out, work)
                if paired:
                    self.barrier.wait()
            return shape, step
        return make


def _gradients(space, rows):
    """Gradients of coefficient rows at the data rule points, (A, F, Q, 2)."""
    coef = rows[:, space.dof_map]
    ref = coef.reshape(-1, coef.shape[-1]) @ space.basis_table(
        space.default_data_rule(), 1).T
    return ref.reshape(coef.shape[:2] + (-1, 2)) @ space.jac_inv


@pytest.fixture(scope="module")
def form_n32():
    """At n=32 P2 the combinations of an interval span two blocks."""
    return assemble_cip(build_space(build_structured_mesh(32), 2))


@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("order", [0, 2])
def test_space_time_h1_error_equals_a_serial_loop(form_n32, monkeypatch,
                                                  order, steps):
    """M = 1 leaves the helper's half empty, M = 7 makes the halves
    unequal; with the halves' writes in lockstep the split value is
    bitwise that of one loop."""
    sol = dg_solve(form_n32, make_partition(steps), order, f=mf.f_scalar())
    psi = mf.psi_exact()
    want = _serial_error(sol.space, psi, "grad", sol, sol.basis, 5,
                         lambda m: _gradients(sol.space, sol.coefficients[m]))
    _Lockstep(monkeypatch, steps // 2)
    assert space_time_h1_error(sol, psi) == want


def _velocity_error_against_a_serial_loop(monkeypatch, order, steps):
    space = build_mini_space(build_structured_mesh(8))
    sol = mini_transient_solve(space, make_partition(steps), order,
                               mf.g_field())
    u = mf.u_exact()
    basis = space.basis_table(space.default_data_rule(), 0)

    def tables_of(m):
        out = []
        for values in sol.velocities[m]:       # one Radau node at a time
            rows = np.zeros((2, space.n_dofs))
            rows[:, space.free_dofs] = values.reshape(2, -1)
            out.append(np.moveaxis(rows[:, space.dof_map] @ basis.T, 0, -1))
        return np.array(out)
    want = _serial_error(space, u, "value", sol, TimeBasis(order), order + 3,
                         tables_of)
    _Lockstep(monkeypatch, steps // 2)
    assert velocity_error_l2(sol, u) == want


@pytest.mark.parametrize("steps", [1, 2, 7])
def test_velocity_error_equals_a_serial_loop(monkeypatch, steps):
    """The MINI velocity error, each half with its own coefficient rows."""
    _velocity_error_against_a_serial_loop(monkeypatch, 0, steps)


@pytest.mark.parametrize("order", [1, 2])
def test_velocity_error_of_dg_r_equals_a_serial_loop(monkeypatch, order):
    """At r >= 1 each interval writes the two components of its r + 1
    nodes, and the time rule has r + 3 points."""
    _velocity_error_against_a_serial_loop(monkeypatch, order, 7)


@pytest.mark.parametrize("steps", [1, 2, 7])
@pytest.mark.parametrize("order", [0, 2])
def test_best_approx_terms_equal_a_serial_loop(form_n8_l2, monkeypatch,
                                               order, steps):
    """Each of the three norms equals a serial loop over the same
    coefficients and tables."""
    norm = dg_time.space_time_norm
    compared = []

    def checked(space, partition, trule, coefficients, tables, discrete):
        got = norm(space, partition, trule, coefficients, tables, discrete)
        compared.append(got == _serial_norm(space, partition, trule,
                                            coefficients, lambda m: tables))
        return got
    monkeypatch.setattr(dg_time, "space_time_norm", checked)
    best_approx_terms(mf.psi_exact(), form_n8_l2, make_partition(steps),
                      order)
    assert compared == [True] * 3


def test_concurrent_callers_get_the_serial_value(form_n32):
    """Three callers at once, six threads on two cores, with a switch
    interval of 1 us: every value is that of the serial loop."""
    sol = dg_solve(form_n32, make_partition(7), 1, f=mf.f_scalar())
    psi = mf.psi_exact()
    want = _serial_error(sol.space, psi, "grad", sol, sol.basis, 5,
                         lambda m: _gradients(sol.space, sol.coefficients[m]))
    space_time_h1_error(sol, psi)       # the cached tables exist before
    got = []
    callers = [threading.Thread(
        target=lambda: got.append(space_time_h1_error(sol, psi)))
        for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == [want] * 3


@pytest.mark.parametrize("failing", [0, 2])
def test_an_interval_error_reaches_the_caller(failing):
    """An exception raised on interval 2 (the helper's half of M = 3) or
    0 (the caller's) is raised by the norm, after the helper is joined."""
    space = build_space(build_structured_mesh(2), 1)
    shape = space.jac_det.shape + (len(space.default_data_rule().weights), 2)
    raised_on = []

    def discrete(work):
        def write(m, out):
            if m == failing:
                raised_on.append(threading.current_thread())
                raise RuntimeError(f"interval {m}")
            out[...] = 1.0
        return write
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"interval {failing}"):
        space_time_norm(space, make_partition(3), interval_rule(2),
                        np.ones((3, 2, 1)), np.empty((0,) + shape), discrete)
    assert threading.active_count() == before
    assert (raised_on[0] is threading.main_thread()) == (failing == 0)


# -- static data once per space -------------------------------------------


class _Counting:
    """A spatial function that counts its evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, points):
        self.calls += 1
        return self.fn(points)


def _counting_term(base):
    def wrap(fn):
        return None if fn is None else _Counting(fn)
    return mf.SpatialTerm(wrap(base.value), wrap(base.grad), wrap(base.hess))


def _counting_psi():
    """psi_exact with a counting spatial factor."""
    (tf, term), = mf.psi_exact().terms
    return mf.ScalarField([(tf, _counting_term(term))], clamped=True)


def _counting_load():
    """f_scalar with counting spatial factors, one per term."""
    return mf.ScalarField([(tf, _counting_term(term))
                           for tf, term in mf.f_scalar().terms])


@pytest.fixture
def space():
    return build_space(build_structured_mesh(4), 2)


def test_loads_and_exact_gradients_once_per_rule(space, monkeypatch):
    form = assemble_cip(space)
    part = make_partition(3)
    f, psi = _counting_load(), _counting_psi()
    sols = [dg_solve(form, part, 0, f=f) for _ in range(2)]
    errors = [space_time_h1_error(sol, psi) for sol in sols]
    assert [term.value.calls for _, term in f.terms] == [1, 1]
    assert psi.terms[0][1].grad.calls == 1
    assert errors[0] == errors[1]

    # another data rule of the space is another entry
    with monkeypatch.context() as mp:
        mp.setattr(space, "default_data_rule", lambda: triangle_rule(6))
        dg_solve(form, part, 0, f=f)
        space_time_h1_error(sols[0], psi)
    assert [term.value.calls for _, term in f.terms] == [2, 2]
    assert psi.terms[0][1].grad.calls == 2

    # best_approx_terms shares the exact gradient table; its one new
    # evaluation is the gradient load of the H1 projection
    best_approx_terms(psi, form, part, 0)
    assert psi.terms[0][1].grad.calls == 3


def test_stability_and_best_approximation_share_the_loads(space):
    """stability_data_norm reads the scalar loads dg_solve assembled, and
    best_approx_terms the gradient loads of bh_analytic_functional."""
    form = assemble_cip(space)
    part = make_partition(2)
    f, psi = _counting_load(), _counting_psi()
    dg_solve(form, part, 0, f=f)
    stability_data_norm(form, f, part)
    assert [term.value.calls for _, term in f.terms] == [1, 1]

    v = np.zeros((2, 2, space.n_dofs))
    bh_analytic_functional(form, psi, part, 1)(v)
    assert psi.terms[0][1].grad.calls == 1
    best_approx_terms(psi, form, part, 0)
    assert psi.terms[0][1].grad.calls == 2      # the exact gradient table


def test_velocity_error_values_once_per_rule(monkeypatch):
    """velocity_error_l2 reads the value table of each term of u from the
    space, once per space and data rule."""
    space = build_mini_space(build_structured_mesh(2))
    part = make_partition(2)
    sol = mini_transient_solve(space, part, 0, mf.g_field())
    u = mf.VectorField([(tf, _counting_term(term))
                        for tf, term in mf.g_field().terms])
    errors = [velocity_error_l2(sol, u) for _ in range(2)]
    assert [term.value.calls for _, term in u.terms] == [1, 1]
    assert errors[0] == errors[1]
    monkeypatch.setattr(space, "default_data_rule", lambda: triangle_rule(6))
    velocity_error_l2(sol, u)
    assert [term.value.calls for _, term in u.terms] == [2, 2]


def test_velocity_loads_and_errors_share_the_value_tables():
    """Two MINI solves on one space and the velocity error evaluate each
    spatial term once: the loads read the value tables of g, whose first
    term is that of u."""
    space = build_mini_space(build_structured_mesh(2))
    part = make_partition(2)
    (sigma, curl_phi), = mf.u_exact().terms
    curl_phi = _counting_term(curl_phi)
    g = mf.VectorField([(tf, curl_phi if i == 0 else _counting_term(term))
                        for i, (tf, term) in enumerate(mf.g_field().terms)])
    sols = [mini_transient_solve(space, part, 0, g) for _ in range(2)]
    assert np.array_equal(sols[0].velocities, sols[1].velocities)
    velocity_error_l2(sols[0], mf.VectorField([(sigma, curl_phi)]))
    assert [term.value.calls for _, term in g.terms] == [1, 1]


@pytest.fixture
def pairing_calls(monkeypatch):
    """The targets of every ``cip.consistency_pairing`` call, in order."""
    calls = []
    pairing = cip.consistency_pairing

    def counted(*args, **kwargs):
        calls.append(args[1])
        return pairing(*args, **kwargs)
    monkeypatch.setattr(cip, "consistency_pairing", counted)
    return calls


def test_bh_analytic_pairs_each_term_once(space, pairing_calls):
    calls = pairing_calls
    psi = _counting_psi()
    part = make_partition(2)
    v = np.random.default_rng(3).standard_normal((2, 2, space.n_dofs))
    v[:, :, space.boundary_dofs] = 0.0
    # the pairing does not depend on the penalty, so a second form on the
    # same space shares it
    forms = [assemble_cip(space), assemble_cip(space),
             assemble_cip(space, eta=8.0)]
    values = [bh_analytic_functional(form, psi, part, 1)(v) for form in forms]
    assert len(calls) == 1
    assert psi.terms[0][1].grad.calls == 1      # the gradient load

    fresh = build_space(space.mesh, 2)
    assert values[2] == bh_analytic_functional(
        assemble_cip(fresh, eta=8.0), psi, part, 1)(v)
    assert len(calls) == 2

    # the same term in a field not flagged clamped is still refused
    unclamped = mf.ScalarField(psi.terms)
    with pytest.raises(ValueError, match="clamped"):
        bh_analytic_functional(forms[0], unclamped, part, 1)(v)


def test_best_approximation_reads_the_cached_pairing(space, pairing_calls):
    """best_approx_terms solves its Ritz projections from the consistency
    pairing bh_analytic_functional caches, so a diagnostics run pairs
    psi's one term once; E_Rh is that of ritz_projection."""
    form = assemble_cip(space)
    part = make_partition(2)
    psi = mf.psi_exact()
    _, e_rh, _ = best_approx_terms(psi, form, part, 0)
    v = np.zeros((2, 1, space.n_dofs))
    bh_analytic_functional(form, psi, part, 0)(v)
    assert len(pairing_calls) == 1

    # psi = sigma(t) w: E_Rh is the static Ritz error of w times the L2
    # norm of sigma by the same 5 Gauss points per interval
    (_, w), = psi.static_terms()
    static = h1_field_error(space, cip.ritz_projection(form, w).coefficients,
                            w)
    trule, sig = sample_time_factors(psi, part, 5)
    sigma_sq = part.lengths @ (sig[..., 0] ** 2 @ trule.weights)
    assert e_rh == pytest.approx(static * np.sqrt(sigma_sq), rel=1e-12)


def test_ritz_projection_reads_the_cached_pairing(space, pairing_calls):
    """ritz_projection solves from form.pairings, so two projections of
    phi and the best approximation of psi = sin(2 pi t) phi pair their
    one shared term once."""
    form = assemble_cip(space)
    first, second = (cip.ritz_projection(form, mf.phi()) for _ in range(2))
    assert np.array_equal(first.coefficients, second.coefficients)
    best_approx_terms(mf.psi_exact(), form, make_partition(2), 0)
    assert len(pairing_calls) == 1


def test_a_new_term_or_space_evaluates_afresh(space):
    form = assemble_cip(space)
    sol = dg_solve(form, make_partition(2), 0, f=mf.f_scalar())
    first, second = _counting_psi(), _counting_psi()
    want = space_time_h1_error(sol, first)
    assert space_time_h1_error(sol, second) == want
    assert first.terms[0][1].grad.calls == 1
    assert second.terms[0][1].grad.calls == 1

    # a different field on the same space gets its own table
    scaled = mf.ScalarField([(first.terms[0][0], _counting_term(
        mf.SpatialTerm(lambda p: 2.0 * mf.phi().value(0.0, p),
                       lambda p: 2.0 * mf.phi().grad(0.0, p))))])
    assert space_time_h1_error(sol, scaled) != want
    assert scaled.terms[0][1].grad.calls == 1

    other = build_space(space.mesh, 2)
    moved = dg_solve(assemble_cip(other), make_partition(2), 0,
                     f=mf.f_scalar())
    assert space_time_h1_error(moved, first) == want
    assert first.terms[0][1].grad.calls == 2


def test_cached_tables_are_read_only(space):
    psi = mf.psi_exact()
    (_, w), = psi.static_terms()
    table = space.term_table("grad", w,
                             lambda: w.grad(0.0, space.phys_points()))
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1.0


# -- time derivatives ----------------------------------------------------


class _DerivativeRead(Exception):
    pass


def _without_derivative(fld):
    """``fld`` with time factors whose derivative raises when read."""
    def dfn(t):
        raise _DerivativeRead(t)
    return type(fld)([(mf.TimeFactor(tf.fn, dfn), w) for tf, w in fld.terms],
                     clamped=fld.clamped)


def test_only_the_analytic_functional_reads_time_derivatives(space):
    """sigma_i' enters only the data term of ``bh_analytic_functional``:
    the two solvers, the time projection, the stability data norm, the
    best-approximation terms and both space-time errors run on fields
    whose time factors have no derivative, with the values they give
    the same fields with one."""
    form = assemble_cip(space)
    part = make_partition(3)
    f, psi = mf.f_scalar(), mf.psi_exact()
    bare_f, bare_psi = _without_derivative(f), _without_derivative(psi)
    sol = dg_solve(form, part, 1, f=bare_f, psi0=mf.phi())
    assert np.array_equal(sol.coefficients, dg_solve(
        form, part, 1, f=f, psi0=mf.phi()).coefficients)
    assert space_time_h1_error(sol, bare_psi) == space_time_h1_error(sol, psi)
    assert np.array_equal(time_projection_values(1, part, bare_psi),
                          time_projection_values(1, part, psi))
    assert (stability_data_norm(form, bare_f, part)
            == stability_data_norm(form, f, part))
    assert (best_approx_terms(bare_psi, form, part, 1)
            == best_approx_terms(psi, form, part, 1))

    mini = build_mini_space(build_structured_mesh(2))
    bare_g, bare_u = (_without_derivative(mf.g_field()),
                      _without_derivative(mf.u_exact()))
    msol = mini_transient_solve(mini, part, 1, bare_g)
    assert np.array_equal(msol.velocities, mini_transient_solve(
        mini, part, 1, mf.g_field()).velocities)
    assert velocity_error_l2(msol, bare_u) == velocity_error_l2(
        msol, mf.u_exact())

    with pytest.raises(_DerivativeRead):
        bh_analytic_functional(form, bare_psi, part, 1)(sol.coefficients)
