import numpy as np
import pytest

from streamfem import manufactured as mf


def fd_grad(fn, t, pts, h=1e-5):
    out = np.zeros(pts.shape)
    for c in range(2):
        dp = np.zeros(2)
        dp[c] = h
        out[..., c] = (fn(t, pts + dp) - fn(t, pts - dp)) / (2 * h)
    return out


def interior_points(rng, count=100):
    return 0.05 + 0.9 * rng.random((count, 2))


def test_phi_values():
    phi = mf.phi()
    assert phi.value(0.0, np.array([0.25, 0.25])) == pytest.approx(1.0)
    ys = np.linspace(0.1, 0.9, 7)
    pts = np.column_stack([np.full(7, 0.5), ys])
    assert np.abs(phi.value(0.0, pts)).max() < 1e-14
    assert phi.grad(0.0, np.array([0.0, 0.3])) == pytest.approx([0.0, 0.0],
                                                               abs=1e-13)
    assert phi.clamped


def test_psi_and_velocity_values():
    psi = mf.psi_exact()
    u = mf.u_exact()
    p = np.array([0.25, 0.25])
    assert psi.value(0.25, p) == pytest.approx(1.0)
    assert psi.value(0.0, p) == pytest.approx(0.0, abs=1e-15)
    assert u.value(0.25, p) == pytest.approx([0.0, 0.0], abs=1e-12)
    assert u.value(0.0, np.array([0.3, 0.7])) == pytest.approx([0.0, 0.0],
                                                              abs=1e-15)


def test_velocity_is_rotated_gradient(rng):
    psi = mf.psi_exact()
    u = mf.u_exact()
    pts = interior_points(rng)
    g = psi.grad(0.3, pts)
    uv = u.value(0.3, pts)
    assert uv[:, 0] == pytest.approx(g[:, 1], abs=1e-13)
    assert uv[:, 1] == pytest.approx(-g[:, 0], abs=1e-13)


def test_velocity_divergence_free(rng):
    # fourth-order stencil: plain central differences cannot certify
    # 1e-10 for data with fifth derivatives of size ~4e4
    u = mf.u_exact()
    pts = interior_points(rng)
    h = 4e-4
    t = 0.3

    def d(fld_component, direction):
        dp = np.zeros(2)
        dp[direction] = h
        f1 = u.value(t, pts + dp)[:, fld_component]
        f2 = u.value(t, pts + 2 * dp)[:, fld_component]
        fm1 = u.value(t, pts - dp)[:, fld_component]
        fm2 = u.value(t, pts - 2 * dp)[:, fld_component]
        return (8 * (f1 - fm1) - (f2 - fm2)) / (12 * h)

    div = d(0, 0) + d(1, 1)
    assert np.abs(div).max() < 1e-10


@pytest.mark.parametrize("field_name", ["phi", "psi_exact"])
def test_scalar_derivatives_match_finite_differences(field_name, rng):
    fld = getattr(mf, field_name)()
    pts = interior_points(rng)
    t = 0.3
    g = fld.grad(t, pts)
    g_fd = fd_grad(fld.value, t, pts)
    scale = np.abs(g).max() + 1.0
    assert np.abs(g - g_fd).max() < 1e-6 * scale

    h = fld.hess(t, pts)
    h_fd = np.stack([fd_grad(lambda tt, p: fld.grad(tt, p)[..., c], t, pts)
                     for c in range(2)], axis=-2)
    scale = np.abs(h).max() + 1.0
    assert np.abs(h - h_fd).max() < 1e-6 * scale

    dt = 1e-6
    dv_fd = (fld.value(t + dt, pts) - fld.value(t - dt, pts)) / (2 * dt)
    dv = sum(tf.dfn(t) * term.value(pts) for tf, term in fld.terms)
    assert np.abs(dv - dv_fd).max() < 1e-6


def test_g_field_matches_finite_difference_of_velocity(rng):
    """g = dt(u) - Lap(u), checked with centered differences of u."""
    u = mf.u_exact()
    g = mf.g_field()
    pts = interior_points(rng, 40)
    t = 0.37
    h = 1e-4
    dt = 1e-6
    dudt = (u.value(t + dt, pts) - u.value(t - dt, pts)) / (2 * dt)
    lap = np.zeros(pts.shape)
    for c, dp in ((0, np.array([h, 0.0])), (1, np.array([0.0, h]))):
        lap += (u.value(t, pts + dp) - 2 * u.value(t, pts)
                + u.value(t, pts - dp)) / h ** 2
    gv = g.value(t, pts)
    scale = np.abs(gv).max()
    assert np.abs(gv - (dudt - lap)).max() < 1e-5 * scale


def test_scalar_data_is_negative_curl_of_g(rng):
    """curl(g) + (-dt Lap psi + Lap^2 psi) = 0 at random points, with the
    curl of g taken by finite differences."""
    g = mf.g_field()
    f = mf.f_scalar()
    pts = interior_points(rng)
    t = 0.41
    h = 1e-4
    dx = np.array([h, 0.0])
    dy = np.array([0.0, h])
    curl_g = ((g.value(t, pts + dy)[:, 0] - g.value(t, pts - dy)[:, 0])
              - (g.value(t, pts + dx)[:, 1] - g.value(t, pts - dx)[:, 1])) \
        / (2 * h)
    fv = f.value(t, pts)
    scale = np.abs(fv).max()
    assert np.abs(curl_g + fv).max() < 1e-5 * scale


def test_f_at_t0_is_minus_dt_lap_psi(rng):
    """At t = 0 the profile vanishes, so f reduces to the time-derivative
    part; cross-check against finite differences in time of Lap(psi)."""
    f = mf.f_scalar()
    psi = mf.psi_exact()
    pts = interior_points(rng, 30)
    dt = 1e-6
    h = 1e-4
    lap = np.zeros((2, 30))
    for k, t in enumerate((dt, -dt)):
        acc = np.zeros(30)
        for dp in (np.array([h, 0.0]), np.array([0.0, h])):
            acc += (psi.value(t, pts + dp) - 2 * psi.value(t, pts)
                    + psi.value(t, pts - dp)) / h ** 2
        lap[k] = acc
    dt_lap = (lap[0] - lap[1]) / (2 * dt)
    fv = f.value(0.0, pts)
    scale = np.abs(fv).max()
    assert np.abs(fv + dt_lap).max() < 1e-4 * scale


def test_curl_of_velocity_is_laplacian_of_stream(rng):
    """curl(u) = Lap(psi) pointwise (finite differences on u)."""
    u = mf.u_exact()
    psi = mf.psi_exact()
    pts = interior_points(rng, 50)
    t = 0.29
    h = 1e-4
    dx = np.array([h, 0.0])
    dy = np.array([0.0, h])
    curl_u = ((u.value(t, pts + dy)[:, 0] - u.value(t, pts - dy)[:, 0])
              - (u.value(t, pts + dx)[:, 1] - u.value(t, pts - dx)[:, 1])) \
        / (2 * h)
    hpsi = psi.hess(t, pts)
    lap_psi = hpsi[:, 0, 0] + hpsi[:, 1, 1]
    assert np.abs(curl_u - lap_psi).max() < 1e-5 * (np.abs(lap_psi).max() + 1)


def test_perturbation_value_and_guard():
    g = mf.g_field()
    gt = mf.g_tilde()
    p = np.array([0.01, 0.5])
    diff = gt.value(0.33, p) - g.value(0.33, p)
    assert diff == pytest.approx([1e5 * 0.01 ** -0.49, 0.0], rel=1e-12)
    with pytest.raises(ValueError):
        gt.value(0.1, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        gt.value(0.1, np.array([-0.2, 0.5]))


def test_perturbation_is_curl_free(rng):
    """The added gradient field has identically vanishing scalar curl,
    so both data routes induce the same stream-function load."""
    g = mf.g_field()
    gt = mf.g_tilde()
    pts = interior_points(rng, 40)
    t = 0.17
    h = 1e-6
    dx = np.array([h, 0.0])
    dy = np.array([0.0, h])

    def curl(fld):
        return ((fld.value(t, pts + dy)[:, 0] - fld.value(t, pts - dy)[:, 0])
                - (fld.value(t, pts + dx)[:, 1]
                   - fld.value(t, pts - dx)[:, 1])) / (2 * h)

    pert_curl = curl(gt) - curl(g)
    # the x1-derivative of the x1-only perturbation never enters the curl
    assert np.abs(pert_curl).max() < 1e-3
