import math

import numpy as np
import pytest

from streamfem import manufactured as mf
from streamfem.dg_time import make_partition
from streamfem.linalg import SolverError
from streamfem.mesh import affine_geometry, build_structured_mesh
from streamfem.mini_stokes import (build_mini_space, divergence_residual,
                                   mini_transient_solve, pressure_mean,
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
    """The cached tables belong to one rule object; a new rule that may
    reuse the id of a freed one gets tables at its own points."""
    space = build_mini_space(build_structured_mesh(2))
    origins, jac, _, _ = affine_geometry(space.mesh)
    for k in range(20):
        old = QuadratureRule(np.array([[0.25, 0.25]]), np.array([0.5]), 0)
        space.tables(old)
        del old
        pts = np.array([[0.5, 0.125 + k / 100]])
        vals, _, phys, _ = space.tables(QuadratureRule(pts, np.array([0.5]),
                                                       0))
        assert vals[0, 1:3] == pytest.approx(pts[0], abs=1e-15)
        assert np.allclose(phys[:, 0], origins + jac @ pts[0], rtol=0.0,
                           atol=1e-14)


def test_zero_data_zero_solution():
    space = build_mini_space(build_structured_mesh(2))
    part = make_partition(3)
    zero = mf.VectorField([(mf.TimeFactor.one(),
                            mf.SpatialTerm(lambda p: np.zeros(p.shape)))])
    sol = mini_transient_solve(space, part, zero)
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
    sol = mini_transient_solve(space, part, g)
    zero = mf.VectorField([(mf.TimeFactor.one(),
                            mf.SpatialTerm(lambda p: np.zeros(p.shape)))])
    err = velocity_error_l2(sol, zero)  # equals the discrete magnitude
    assert err > 1e-8


def test_solver_error_carries_step_and_residual():
    space = build_mini_space(build_structured_mesh(2))
    with pytest.raises(SolverError) as info:
        mini_transient_solve(space, make_partition(3), mf.g_field(),
                             rtol=1e-30)
    exc = info.value
    assert exc.interval == 1
    assert 0.0 < exc.residual < 1e-10
    assert exc.__cause__.residual == exc.residual
    assert str(exc).startswith("step 1: residual")


def test_divergence_and_pressure_mean():
    space = build_mini_space(build_structured_mesh(4))
    part = make_partition(4)
    sol = mini_transient_solve(space, part, mf.g_field())
    for step in (0, 3):
        assert divergence_residual(sol, step) < 1e-9
        assert abs(pressure_mean(sol, step)) < 1e-10


def test_velocity_error_of_zero_solution_is_data_norm():
    space = build_mini_space(build_structured_mesh(4))
    part = make_partition(2)
    zero = mf.VectorField([(mf.TimeFactor.one(),
                            mf.SpatialTerm(lambda p: np.zeros(p.shape)))])
    sol = mini_transient_solve(space, part, zero)
    u = mf.u_exact()
    # on this coarse mesh the oscillatory integrand needs elevated rules
    from streamfem.quadrature import triangle_rule
    err = velocity_error_l2(sol, u, time_points=20, rule=triangle_rule(20))
    # squared mean of sin(2 pi t) is 1/2 and || Curl phi ||^2 = 3 pi^2 / 2
    exact = math.sqrt(0.5 * 1.5 * math.pi ** 2)
    assert err == pytest.approx(exact, rel=1e-6)


def test_manufactured_error_decreases():
    u = mf.u_exact()
    g = mf.g_field()
    errs = []
    for n, m in ((4, 8), (8, 16), (16, 32)):
        space = build_mini_space(build_structured_mesh(n))
        sol = mini_transient_solve(space, make_partition(m), g)
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
    sol_g = mini_transient_solve(space, part, mf.g_field())
    sol_gt = mini_transient_solve(space, part, mf.g_tilde())
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
