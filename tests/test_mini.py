import math

import numpy as np
import pytest

from streamfem import dg_time, linalg
from streamfem import manufactured as mf
from streamfem.dg_time import TimePartition, make_partition
from streamfem.linalg import SolverError
from streamfem.mesh import build_structured_mesh
from streamfem.mini_stokes import (_divergence, _pressure_integrals,
                                   build_mini_space, mini_transient_solve,
                                   velocity_error_l2)
from streamfem.quadrature import QuadratureRule


def test_dof_counts_n2():
    space = build_mini_space(build_structured_mesh(2))
    assert space.n_velocity == 2 * (1 + 8) == 18
    assert space.n_pressure == 9


def test_dof_counts_n1():
    space = build_mini_space(build_structured_mesh(1))
    assert space.n_velocity == 2 * (0 + 2) == 4


def test_rule_tables_follow_their_rule():
    """The MINI space's cached tables belong to one rule object; a new
    rule that may reuse the id of a freed one gets tables at its own
    points."""
    space = build_mini_space(build_structured_mesh(2))
    for k in range(20):
        old = QuadratureRule(np.array([[0.25, 0.25]]), np.array([0.5]), 0)
        space.basis_table(old)
        del old
        pts = np.array([[0.5, 0.125 + k / 100]])
        rule = QuadratureRule(pts, np.array([0.5]), 0)
        vals = space.basis_table(rule)
        assert vals[0, 1:3] == pytest.approx(pts[0], abs=1e-15)


def test_reference_is_the_hats_and_the_bubble(rng):
    """``MiniSpace.reference`` tabulates 1 - x - y, x, y and
    27 xy (1 - x - y): their values, gradients and Hessians at random
    points of the reference cell, to 1e-14."""
    space = build_mini_space(build_structured_mesh(1))
    pts = rng.random((200, 2)) * 0.5
    x, y = pts.T
    zero, one = np.zeros_like(x), np.ones_like(x)
    lam0 = 1.0 - x - y
    values = [lam0, x, y, 27.0 * x * y * lam0]
    grads = [(-one, -one), (one, zero), (zero, one),
             (27.0 * y * (lam0 - x), 27.0 * x * (lam0 - y))]
    hessians = [((zero, zero), (zero, zero))] * 3 + [
        ((-54.0 * y, 27.0 * (lam0 - x - y)),
         (27.0 * (lam0 - x - y), -54.0 * x))]
    for order, want in enumerate((values, grads, hessians)):
        got = space.reference(pts, order)
        assert got.shape == (len(pts), 4) + (2,) * order
        assert np.abs(got - np.moveaxis(np.array(want), -1, 0)).max() \
            <= 1e-14


def test_bubble_gradients_are_orthogonal_to_the_hats():
    """int_T d_a b d_c lambda_j = 0 on the reference cell for every a, c
    and j with the space's matrix rule: the gradients of the hats are
    constant and the bubble vanishes on the boundary, so the MINI
    stiffness couples no bubble to a hat."""
    space = build_mini_space(build_structured_mesh(1))
    rule = space.default_matrix_rule()
    grads = space.reference(rule.points, 1)                   # (Q, 4, 2)
    coupling = np.einsum("q,qa,qjc->ajc", rule.weights, grads[:, 3],
                         grads[:, :3])
    assert np.abs(coupling).max() <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 8])
def test_pressure_integrals_closed_form(n):
    """(q_j, 1) is the sum of |T| / 3 = det J / 6 over the triangles at
    vertex j, and the integrals of the hats sum to |Omega| = 1."""
    space = build_mini_space(build_structured_mesh(n))
    got = _pressure_integrals(space)
    want = np.bincount(space.mesh.triangles.ravel(),
                       weights=np.repeat(space.jac_det / 6.0, 3),
                       minlength=space.n_pressure)
    assert np.max(np.abs(got - want) / want) <= 1e-15
    assert got.sum() == pytest.approx(1.0, rel=1e-15, abs=0.0)


def test_zero_data_zero_solution():
    space = build_mini_space(build_structured_mesh(2))
    part = make_partition(3)
    zero = mf.VectorField([(mf.TimeFactor.one(),
                            mf.SpatialTerm(lambda p: np.zeros(p.shape)))])
    sol = mini_transient_solve(space, part, 0, zero)
    assert np.abs(sol.velocities).max() == 0.0
    assert np.abs(sol.pressures).max() == 0.0
    assert velocity_error_l2(sol, zero) == 0.0


def test_gradient_forcing_moves_velocity():
    """A pure gradient body force produces a NONZERO discrete velocity:
    the pressure does not absorb it exactly in the coupled pair."""
    space = build_mini_space(build_structured_mesh(4))
    part = make_partition(4)

    def gval(p):
        out = np.empty(p.shape)
        out[..., 0] = 2.0 * p[..., 0]          # grad(x^2 + y^2)
        out[..., 1] = 2.0 * p[..., 1]
        return out

    g = mf.VectorField([(mf.TimeFactor.one(), mf.SpatialTerm(gval))])
    sol = mini_transient_solve(space, part, 0, g)
    zero = mf.VectorField([(mf.TimeFactor.one(),
                            mf.SpatialTerm(lambda p: np.zeros(p.shape)))])
    err = velocity_error_l2(sol, zero)  # equals the discrete magnitude
    assert err > 1e-8


def test_solver_error_carries_step_and_residual(monkeypatch):
    space = build_mini_space(build_structured_mesh(2))
    monkeypatch.setattr(linalg, "_RTOL", 1e-30)
    with pytest.raises(SolverError) as info:
        mini_transient_solve(space, make_partition(3), 0, mf.g_field())
    exc = info.value
    assert exc.interval == 1
    assert 0.0 < exc.residual < 1e-10
    assert exc.__cause__.residual == exc.residual
    assert str(exc).startswith("interval 1: residual")


def _saddle_step_solve(space, partition, order, g):
    """The dG(r) sweep on the assembled (r+1)-block interval system
    kron(C, K) + k kron(M, A) of the saddle, K = diag(M, M, 0, 0) and
    A = (S, -B^T, 0; B, 0, c; 0, c^T, 0) over (u, p, lambda): the oracle
    of the diagonalized solve.  The data is tested as ``_tested_data``
    tests it, at r + 3 Gauss points per interval, and summed in the
    sweep's order: an (r+1, I) by (I, n) product over all n unknowns, the
    loads of the pressure rows zero."""
    import scipy.sparse as sp
    from streamfem.fem import sample_time_factors
    from streamfem.linalg import Factorized
    from streamfem.mini_stokes import (_divergence, _mass,
                                       _pressure_integrals, _velocity_loads)

    n_v, n_p = space.n_velocity, space.n_pressure
    k_mat = sp.block_diag([_mass(space)] * 2
                          + [sp.csr_matrix((n_p + 1, n_p + 1))], format="csr")
    stiff = sp.block_diag([space.h1_free()] * 2, format="csr")
    div = _divergence(space)
    csp = sp.csr_matrix(_pressure_integrals(space).reshape(-1, 1))
    a_mat = sp.bmat([[stiff, -div.T, None], [div, None, csp],
                     [None, csp.T, None]], format="csr")
    basis = dg_time.TimeBasis(order)
    coupling, mass = basis.coupling(), basis.gram()
    loads = np.pad(_velocity_loads(space, g), ((0, 0), (0, n_p + 1)))
    rule, sig = sample_time_factors(g, partition, order + 3)
    tested = rule.weights[:, None] * basis.values(rule.points)
    lengths = partition.lengths
    weights = lengths[:, None, None] * (tested.T @ sig)
    # one system k for a uniform partition, as in the sweep: the lengths
    # of make_partition agree to roundoff, not bit for bit
    system_k = lengths if np.ptp(lengths) > 1e-12 * lengths[0] \
        else np.full_like(lengths, lengths[0])
    x = np.zeros((lengths.size, order + 1, k_mat.shape[0]))
    u_prev = np.zeros(k_mat.shape[0])
    for m in range(lengths.size):
        factor = Factorized(sp.kron(sp.csr_matrix(coupling), k_mat)
                            + sp.kron(sp.csr_matrix(system_k[m] * mass),
                                      a_mat))
        rhs = weights[m] @ loads + np.outer(basis.left_values,
                                            k_mat @ u_prev)
        x[m] = factor(rhs.ravel()).reshape(order + 1, -1)
        u_prev = x[m, -1]
    return x[..., :n_v], x[..., n_v:-1], x[..., -1]


def _oracle_cases():
    """(field, partition, order); the ids of r = 0 name no order."""
    for order in (0, 1, 2):
        for partition in ("uniform", "graded", "refined"):
            for field in ("g", "g_tilde"):
                tag = f"-r{order}" if order else ""
                yield pytest.param(field, partition, order,
                                   id=f"{field}-{partition}{tag}")


@pytest.mark.parametrize("field, partition, order", _oracle_cases())
def test_sweep_matches_the_saddle_step_oracle(field, partition, order,
                                              refined_partition):
    """Bit for bit at r = 0, where Lambda = V = [1] makes the factor the
    oracle's own matrix; to 1e-10 of each field's largest entry at r >= 1,
    with the multipliers, zero up to roundoff, measured on the pressure
    scale."""
    space = build_mini_space(build_structured_mesh(8))
    part = make_partition(12)
    if partition == "graded":
        part = TimePartition(part.nodes ** 2)
    elif partition == "refined":
        part = refined_partition
    g = mf.g_tilde() if field == "g_tilde" else mf.g_field()
    sol = mini_transient_solve(space, part, order, g)
    got = (sol.velocities, sol.pressures, sol.multipliers)
    want = _saddle_step_solve(space, part, order, g)
    if order == 0:
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        return
    scales = [np.abs(want[0]).max()] + [np.abs(want[1]).max()] * 2
    for a, b, scale in zip(got, want, scales):
        assert np.abs(a - b).max() <= 1e-10 * scale


def _max_divergence_row(sol, step):
    """max_j |(q_j, div u_m)|: satisfaction of the constraint rows."""
    return float(np.abs(_divergence(sol.space)
                        @ sol.velocities[step, 0]).max())


def _mean_pressure(sol, step):
    """Mean value of the step pressure (zero up to solver tolerance)."""
    cvec = _pressure_integrals(sol.space)
    return float(cvec @ sol.pressures[step, 0]) / float(cvec.sum())


def test_divergence_and_pressure_mean():
    space = build_mini_space(build_structured_mesh(4))
    part = make_partition(4)
    sol = mini_transient_solve(space, part, 0, mf.g_field())
    for step in (0, 3):
        assert _max_divergence_row(sol, step) < 1e-9
        assert abs(_mean_pressure(sol, step)) < 1e-10


@pytest.mark.parametrize("order", [1, 2])
def test_divergence_vanishes_at_every_radau_node(order):
    """The constraint rows have no mass, so dG(r) enforces B U_a = 0 at
    each node a, not only on average over the interval: to the 1e-10
    contract relative to ||B|| ||U_a|| (infinity norms)."""
    from scipy.sparse.linalg import norm

    space = build_mini_space(build_structured_mesh(4))
    sol = mini_transient_solve(space, make_partition(4), order,
                               mf.g_field())
    div = _divergence(space)
    values = sol.velocities.reshape(-1, space.n_velocity)
    assert len(values) == 4 * (order + 1)
    for u in values:
        assert (np.abs(div @ u).max()
                <= 1e-10 * norm(div, np.inf) * np.abs(u).max())


def test_saddle_factor_keeps_its_ordering(monkeypatch):
    """The saddle LU pivots off its diagonal only past the zero pressure
    block, so it keeps the minimum-degree fill: 96 202 entries at n=16.
    A pivot threshold of 0.1 left the diagonal 177 times there and
    filled 197 863."""
    fills = []

    class Recording(linalg.Factorized):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fills.append(self._lu.L.nnz + self._lu.U.nnz)

    monkeypatch.setattr(dg_time, "Factorized", Recording)
    mini_transient_solve(build_mini_space(build_structured_mesh(16)),
                         make_partition(8), 0, mf.g_field())
    assert len(fills) == 1
    assert fills[0] < 120_000


def test_velocity_error_of_zero_solution_is_data_norm():
    space = build_mini_space(build_structured_mesh(4))
    part = make_partition(2)
    zero = mf.VectorField([(mf.TimeFactor.one(),
                            mf.SpatialTerm(lambda p: np.zeros(p.shape)))])
    sol = mini_transient_solve(space, part, 0, zero)

    def w(p):
        return np.stack([p[..., 0] ** 2, p[..., 0] * p[..., 1]], axis=-1)
    # u = t w(x): |u|^2 is of degree 2 in t and 4 in x, so the shipped
    # rules (3 Gauss points per interval, the degree-8 data rule) are exact
    u = mf.VectorField([(mf.TimeFactor(lambda t: t, lambda t: 1.0),
                         mf.SpatialTerm(w))])
    err = velocity_error_l2(sol, u)
    # int_0^1 t^2 dt = 1/3 and || w ||^2 = 1/5 + 1/9 = 14/45
    exact = math.sqrt(14.0 / 135.0)
    assert err == pytest.approx(exact, rel=1e-6)


def test_manufactured_error_decreases():
    u = mf.u_exact()
    g = mf.g_field()
    errs = []
    for n, m in ((4, 8), (8, 16), (16, 32)):
        space = build_mini_space(build_structured_mesh(n))
        sol = mini_transient_solve(space, make_partition(m), 0, g)
        errs.append(velocity_error_l2(sol, u))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] > 1.7


def test_perturbed_forcing_changes_mixed_velocity_only():
    """The gradient perturbation moves the mixed velocity by orders of
    magnitude more than the analytic-curl pipeline (whose data does not
    change at all)."""
    from streamfem.cip import assemble_cip
    from streamfem.dg_time import dg_solve
    from streamfem.fem import build_space

    n, m = 8, 16
    mesh = build_structured_mesh(n)
    space = build_mini_space(mesh)
    part = make_partition(m)
    sol_g = mini_transient_solve(space, part, 0, mf.g_field())
    sol_gt = mini_transient_solve(space, part, 0, mf.g_tilde())
    mini_change = np.abs(sol_gt.velocities - sol_g.velocities).max()

    # the stream-function route applies the curl analytically: both
    # forcings induce the same scalar data, bit for bit
    fe_space = build_space(mesh, 2)
    form = assemble_cip(fe_space)
    sf_g = dg_solve(form, part, 0, f=mf.f_scalar())
    sf_gt = dg_solve(form, part, 0, f=mf.f_scalar())
    sf_change = np.abs(sf_gt.coefficients - sf_g.coefficients).max()

    assert mini_change > 10.0 * max(sf_change, 1e-14)
    assert sf_change == 0.0
