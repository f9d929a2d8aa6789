"""Regression oracle for the separable space-time quadrature.

The literals are the outputs of the per-Gauss-point integrators this
quadrature replaced, on P2 meshes with four time intervals, and for
``velocity_error_gtilde`` (whose data holds the singular 1e5 x^-0.49
term) of the per-cell MINI kernels that the reference-table ones
replaced.  The new paths sum in another order, so agreement is to 1e-12
relative.
"""

import numpy as np
import pytest

from streamfem import dg_time
from streamfem import manufactured as mf
from streamfem.cip import assemble_cip
from streamfem.dg_time import (best_approx_terms, bh_analytic_functional,
                               dg_solve, make_partition, stability_data_norm)
from streamfem.fem import build_space, space_time_h1_error
from streamfem.mesh import build_structured_mesh
from streamfem.mini_stokes import (build_mini_space, mini_transient_solve,
                                   velocity_error_l2)

PINNED = {
    4: {"error_r0": 1.761117691728006,
        "error_r1": 1.454983294184634,
        "best_approx_r1": (1.2237974457978247, 1.440364329929657,
                           0.3908048846383334),
        "data_norm": 278866.3155979819,
        "bh_analytic_r1": 125.77747867615338,
        "velocity_error": 2.449258098040274,
        "velocity_error_gtilde": 37.616761590938445},
    8: {"error_r0": 1.3796563340250485,
        "error_r1": 0.8012053584715728,
        "best_approx_r1": (0.5417427780654976, 0.7662789612888272,
                           0.3908832466732876),
        "data_norm": 344300.04328249354,
        "bh_analytic_r1": 16.504829856331195,
        "velocity_error": 1.4451733993843385,
        "velocity_error_gtilde": 9.933838354893412},
}


@pytest.fixture(scope="module", params=sorted(PINNED))
def computed(request):
    n = request.param
    mesh = build_structured_mesh(n)
    space = build_space(mesh, 2)
    form = assemble_cip(space)
    part = make_partition(4)
    f, psi = mf.f_scalar(), mf.psi_exact()
    out = {}
    for r in (0, 1):
        sol = dg_solve(form, part, r, f=f)
        out[f"error_r{r}"] = space_time_h1_error(sol, psi)
    out["best_approx_r1"] = best_approx_terms(psi, form, part, 1)
    out["data_norm"] = stability_data_norm(form, f, part, psi0=mf.phi())
    v = np.random.default_rng(11).standard_normal(sol.coefficients.shape)
    v[:, :, space.boundary_dofs] = 0.0
    # pinned with 8 Gauss points per interval, not the r + 2 of dg_solve
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dg_time, "data_time_points", lambda order: 8)
        out["bh_analytic_r1"] = bh_analytic_functional(form, psi, part, 1)(v)
    mini_space = build_mini_space(mesh)
    for key, g in (("velocity_error", mf.g_field()),
                   ("velocity_error_gtilde", mf.g_tilde())):
        mini = mini_transient_solve(mini_space, part, 0, g)
        out[key] = velocity_error_l2(mini, mf.u_exact())
    return n, out


@pytest.mark.parametrize("key", sorted(PINNED[4]))
def test_matches_pinned(computed, key):
    n, out = computed
    assert np.ravel(out[key]) == pytest.approx(np.ravel(PINNED[n][key]),
                                               rel=1e-12, abs=0.0)
