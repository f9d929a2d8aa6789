import dataclasses
import math
import weakref

import numpy as np
import pytest

from streamfem import cip, dg_time
from streamfem import manufactured as mf
from streamfem.cip import (CoercivityError, _assemble_matrices, apply_Ah,
                           assemble_cip, consistency_pairing,
                           ritz_projection, solve_stationary, triple_norm)
from streamfem.fem import (FeFunction, assemble_load_gradient,
                           assemble_load_scalar, build_space, h1_field_error,
                           h1_seminorm)
from streamfem.linalg import Factorized, symmetry_gap
from streamfem.mesh import build_structured_mesh
from streamfem.quadrature import triangle_rule


def random_interior(space, rng):
    coef = np.zeros(space.n_dofs)
    coef[space.free_dofs] = rng.standard_normal(space.free_dofs.size)
    return FeFunction(space, coef)


def test_rejects_low_degree():
    space = build_space(build_structured_mesh(2), 1)
    with pytest.raises(ValueError):
        assemble_cip(space)


def test_exact_symmetry(form_n8_l2):
    assert symmetry_gap(form_n8_l2.matrix) == 0.0


def test_normal_orientation_invariance(space_n8_l2, form_n8_l2, rng):
    mesh = space_n8_l2.mesh
    flip_all = assemble_cip(space_n8_l2, flip_normals=np.ones(
        mesh.num_edges, dtype=bool))
    flip_some = assemble_cip(space_n8_l2, flip_normals=rng.random(
        mesh.num_edges) < 0.5)
    scale = np.abs(form_n8_l2.matrix.data).max()
    for other in (flip_all, flip_some):
        diff = (form_n8_l2.matrix - other.matrix).tocoo()
        gap = np.abs(diff.data).max() if diff.nnz else 0.0
        assert gap <= 1e-13 * scale


def test_entry_oracle_sympy():
    """Every entry of the assembled form on the 2-triangle mesh against
    exact symbolic integration of the three term groups.

    Every integrand is a polynomial, so each integral is an exact
    ``sympy.Poly`` antiderivative evaluated at its bounds, and each
    basis function's derivatives and edge traces are formed once.
    """
    sympy = pytest.importorskip("sympy")
    x, y, t = sympy.symbols("x y t", real=True)

    mesh = build_structured_mesh(1)
    space = build_space(mesh, 2)
    eta_val = 20
    form = assemble_cip(space, float(eta_val))

    def rat(v):
        return sympy.Rational(v).limit_denominator(10 ** 9)

    def definite(poly, var, lo, hi):
        anti = poly.integrate(var)
        return anti.subs(var, hi) - anti.subs(var, lo)

    mono = [sympy.Integer(1), x, y, x * x, x * y, y * y]
    basis = {}
    for f in range(2):
        tri = mesh.triangles[f]
        verts = [mesh.vertices[tri[0]], mesh.vertices[tri[1]],
                 mesh.vertices[tri[2]]]
        pts = list(verts)
        for (i, j) in ((0, 1), (1, 2), (2, 0)):
            pts.append(0.5 * (verts[i] + verts[j]))
        vand = sympy.Matrix([[m.subs({x: rat(p[0]), y: rat(p[1])})
                              for m in mono] for p in pts])
        inv = vand.inv()
        for k, d in enumerate(space.dof_map[f]):
            poly = sympy.Poly(sum(inv[i, k] * mono[i] for i in range(6)),
                              x, y)
            basis[(int(d), f)] = {"xx": poly.diff(x, x),
                                  "xy": poly.diff(x, y),
                                  "yy": poly.diff(y, y),
                                  "x": poly.diff(x), "y": poly.diff(y)}

    def tri_int(poly, f):
        # f = 0: (0,0), (1,0), (1,1) below the diagonal; f = 1 above it
        lo, hi = (0, x) if f == 0 else (x, 1)
        return definite(sympy.Poly(definite(poly, y, lo, hi), x), x, 0, 1)

    n = space.n_dofs
    oracle = sympy.zeros(n, n)
    for f in range(2):
        for i in range(n):
            bi = basis.get((i, f))
            if bi is None:
                continue
            for j in range(i, n):
                bj = basis.get((j, f))
                if bj is None:
                    continue
                integrand = (bi["xx"] * bj["xx"] + 2 * bi["xy"] * bj["xy"]
                             + bi["yy"] * bj["yy"])
                val = tri_int(integrand, f)
                oracle[i, j] += val
                if i != j:
                    oracle[j, i] += val

    zero = sympy.Poly(0, t)
    for e in range(mesh.num_edges):
        nx, ny = (rat(c) for c in mesh.normals[e])
        p0, p1 = mesh.vertices[mesh.edges[e]]
        xs = rat(p0[0]) + t * (rat(p1[0]) - rat(p0[0]))
        ys = rat(p0[1]) + t * (rat(p1[1]) - rat(p0[1]))
        length = sympy.sqrt((rat(p1[0]) - rat(p0[0])) ** 2
                            + (rat(p1[1]) - rat(p0[1])) ** 2)
        tm, tp = (int(v) for v in mesh.edge_tris[e])

        def on_edge(poly):
            return sympy.Poly(poly.as_expr().subs({x: xs, y: ys}), t)

        # (dn, d2n) of every basis function from one side, along the edge
        def traces(tri):
            out = []
            for i in range(n):
                d = basis.get((i, tri))
                if d is None:
                    out.append((zero, zero))
                    continue
                out.append((on_edge(nx * d["x"] + ny * d["y"]),
                            on_edge(nx * nx * d["xx"] + 2 * nx * ny * d["xy"]
                                    + ny * ny * d["yy"])))
            return out

        minus = traces(tm)
        if mesh.boundary_edge[e]:
            jump = [-dn for dn, _ in minus]
            avg = [d2n for _, d2n in minus]
        else:
            plus = traces(tp)
            half = sympy.Rational(1, 2)
            jump = [p[0] - m[0] for p, m in zip(plus, minus)]
            avg = [(p[1] + m[1]) * half for p, m in zip(plus, minus)]
        for i in range(n):
            for j in range(n):
                # |e| int (avg_i jump_j + jump_i avg_j + eta/|e| jump_i
                # jump_j) dt, with |e| multiplied through the penalty
                cross = avg[i] * jump[j] + jump[i] * avg[j]
                oracle[i, j] += (length * definite(cross, t, 0, 1)
                                 + eta_val * definite(jump[i] * jump[j], t,
                                                      0, 1))

    exact = np.array(oracle.evalf(17), dtype=float)
    assembled = form.matrix.toarray()
    assert np.abs(assembled - exact).max() < 1e-12 * np.abs(exact).max()


def test_coercivity_error_for_tiny_penalty(space_n8_l2):
    with pytest.raises(CoercivityError):
        assemble_cip(space_n8_l2, 0.1)


@pytest.mark.parametrize("degree, below, above", [(2, 2.0, 2.5),
                                                   (3, 6.0, 7.0)])
def test_coercivity_check_is_exact(degree, below, above):
    """The assembly-time check agrees with the dense spectrum of the
    eliminated block on both sides of the penalty threshold."""
    space = build_space(build_structured_mesh(8), degree)
    lam_min = {eta: np.linalg.eigvalsh(
        _assemble_matrices(space, eta, None)[1].toarray()).min()
        for eta in (below, above)}
    assert lam_min[below] < 0.0 < lam_min[above]
    with pytest.raises(CoercivityError):
        assemble_cip(space, below)
    form = assemble_cip(space, above)
    assert form.eta == above


def test_random_vector_positivity(form_n8_l2, rng):
    space = form_n8_l2.space
    for _ in range(100):
        v = random_interior(space, rng)
        q = v.coefficients @ (form_n8_l2.matrix @ v.coefficients)
        assert q > 0.0


def test_triple_norm_properties(form_n8_l2, rng):
    space = form_n8_l2.space
    assert triple_norm(form_n8_l2, FeFunction(space)) == 0.0
    for _ in range(100):
        v = random_interior(space, rng)
        nv = triple_norm(form_n8_l2, v)
        assert nv > 0.0
        v2 = FeFunction(space, 2.0 * v.coefficients)
        assert triple_norm(form_n8_l2, v2) == pytest.approx(2.0 * nv,
                                                            rel=1e-12)


def test_consistency_pairing_zero(form_n8_l2):
    zero = mf.ScalarField([(mf.TimeFactor.one(), mf.SpatialTerm(
        lambda p: np.zeros(p.shape[:-1]),
        hess=lambda p: np.zeros(p.shape[:-1] + (2, 2))))], clamped=True)
    assert np.all(consistency_pairing(form_n8_l2, zero) == 0.0)


def test_consistency_pairing_requires_clamped(form_n8_l2):
    with pytest.raises(ValueError):
        consistency_pairing(form_n8_l2, mf.phi_laplacian())


def test_consistency_pairing_locality(form_n8_l2):
    """Entries for basis functions whose support patch misses the bulk of
    the Hessian of the target remain small (locality of the pairing)."""
    pair = consistency_pairing(form_n8_l2, mf.phi())
    assert pair.shape == (form_n8_l2.space.n_dofs,)


def test_consistency_pairing_against_brute_force():
    """Pairing entries on the n=2 mesh against an independent dense-rule
    integration of both term groups."""
    mesh = build_structured_mesh(2)
    space = build_space(mesh, 2)
    form = assemble_cip(space)
    phi = mf.phi()
    rule = triangle_rule(30)
    pair = consistency_pairing(form, phi, volume_rule=rule, edge_points=24)

    # brute force: loop triangles and edges with plain dense quadrature
    from streamfem.quadrature import interval_rule
    from streamfem.fem import reference_basis
    oracle = np.zeros(space.n_dofs)
    href = reference_basis(2, rule.points, 2)
    for f in range(mesh.num_triangles):
        jinv = space.jac_inv[f]
        hw = phi.hess(0.0, space.origins[f] + rule.points @ space.jac[f].T)
        for q in range(len(rule)):
            for l in range(6):
                hphi = jinv.T @ href[q, l] @ jinv
                oracle[space.dof_map[f, l]] += (
                    rule.weights[q] * space.jac_det[f]
                    * np.tensordot(hw[q], hphi, 2))
    erule = interval_rule(24)
    for e in range(mesh.num_edges):
        nvec = mesh.normals[e]
        lo = mesh.vertices[min(mesh.edges[e])]
        hi = mesh.vertices[max(mesh.edges[e])]
        for s, wq in zip(erule.points, erule.weights):
            xq = lo * (1 - s) + hi * s
            d2n_w = nvec @ phi.hess(0.0, xq) @ nvec
            sides = []
            tm, tp = mesh.edge_tris[e]
            if tp >= 0:
                sides = [(tp, +1.0), (tm, -1.0)]
            else:
                sides = [(tm, -1.0)]
            for tri, sign in sides:
                ref = np.linalg.solve(space.jac[tri], xq - space.origins[tri])
                grads = reference_basis(2, ref, 1) @ space.jac_inv[tri]
                for l in range(6):
                    jump_l = sign * (grads[l] @ nvec)
                    oracle[space.dof_map[tri, l]] += (
                        wq * mesh.edge_lengths[e] * d2n_w * jump_l)
    scale = np.abs(oracle).max()
    assert np.abs(pair - oracle).max() < 1e-8 * scale


def test_ritz_idempotent_on_vh(form_n8_l2, rng):
    for _ in range(5):
        v = random_interior(form_n8_l2.space, rng)
        r = ritz_projection(form_n8_l2, v)
        assert np.abs(r.coefficients - v.coefficients).max() < 1e-9 * \
            max(1.0, np.abs(v.coefficients).max())


def test_ritz_zero(form_n8_l2):
    zero = mf.ScalarField([(mf.TimeFactor.one(), mf.SpatialTerm(
        lambda p: np.zeros(p.shape[:-1]),
        hess=lambda p: np.zeros(p.shape[:-1] + (2, 2))))], clamped=True)
    r = ritz_projection(form_n8_l2, zero)
    assert np.abs(r.coefficients).max() == 0.0


def test_ritz_galerkin_orthogonality(form_n8_l2, rng):
    """a_h(w - R_h w, chi) for random discrete chi, evaluated through the
    pairing minus the matrix action."""
    phi = mf.phi()
    pair = consistency_pairing(form_n8_l2, phi)
    proj = ritz_projection(form_n8_l2, phi)
    resid = pair - form_n8_l2.matrix @ proj.coefficients
    scale = triple_norm(form_n8_l2, proj)
    for _ in range(20):
        chi = random_interior(form_n8_l2.space, rng)
        chi_norm = triple_norm(form_n8_l2, chi)
        assert abs(resid @ chi.coefficients) <= 1e-8 * scale * chi_norm


def test_ritz_h1_convergence_approaches_two():
    """The projection error in the gradient norm decays toward second
    order; on this oscillatory profile the ratio is ~1.3 at the coarse
    end and reaches ~1.9 by n=64."""
    phi = mf.phi()
    errs = []
    for n in (8, 16, 32, 64):
        space = build_space(build_structured_mesh(n), 2)
        form = assemble_cip(space)
        proj = ritz_projection(form, phi)
        errs.append(h1_field_error(space, proj.coefficients, phi))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.diff(rates) > 0.0)  # approaching the asymptote
    assert rates[-1] > 1.75
    assert rates[-1] < 2.2


def test_apply_Ah_zero(form_n8_l2):
    out = apply_Ah(form_n8_l2, FeFunction(form_n8_l2.space))
    assert np.all(out.coefficients == 0.0)


def test_apply_Ah_self_adjoint(form_n8_l2, rng):
    space = form_n8_l2.space
    k = space.h1_stiffness()
    for _ in range(5):
        u = random_interior(space, rng)
        v = random_interior(space, rng)
        au = apply_Ah(form_n8_l2, u).coefficients
        av = apply_Ah(form_n8_l2, v).coefficients
        lhs = au @ (k @ v.coefficients)
        rhs = u.coefficients @ (k @ av)
        assert abs(lhs - rhs) <= 1e-9 * (abs(lhs) + abs(rhs))


def test_apply_Ah_stability(form_n8_l2):
    """For w_h solving a_h(w_h, chi) = (grad g, grad chi), the lifted
    field satisfies ||grad A_h w_h|| <= ||grad g||."""
    space = form_n8_l2.space
    phi = mf.phi()
    rhs = assemble_load_gradient(space, phi)
    wh = solve_stationary(form_n8_l2, rhs)
    lifted = apply_Ah(form_n8_l2, wh)
    rule = triangle_rule(8)
    pts = space.phys_points(rule)
    g = phi.grad(0.0, pts)
    norm_g = math.sqrt(np.einsum("q,fqi,fqi,f->", rule.weights, g, g,
                                 space.jac_det))
    assert h1_seminorm(space, lifted.coefficients) <= norm_g * (1 + 1e-8)


def test_solve_stationary_zero(form_n8_l2):
    out = solve_stationary(form_n8_l2, np.zeros(form_n8_l2.space.n_dofs))
    assert np.all(out.coefficients == 0.0)


def test_solve_stationary_matches_ritz(form_n8_l2):
    phi = mf.phi()
    rhs = consistency_pairing(form_n8_l2, phi)
    a = solve_stationary(form_n8_l2, rhs)
    b = ritz_projection(form_n8_l2, phi)
    assert a.coefficients == pytest.approx(b.coefficients, abs=1e-12)


def test_solve_stationary_biharmonic_load_converges():
    """Solving with the bilaplacian load reproduces the profile; the
    distance to the energy projection shrinks at second order."""
    phi = mf.phi()
    errs = []
    gaps = []
    for n in (8, 16, 32):
        space = build_space(build_structured_mesh(n), 2)
        form = assemble_cip(space)
        rhs = assemble_load_scalar(space, mf.phi_bilaplacian(),
                                   rule=triangle_rule(16))
        sol = solve_stationary(form, rhs)
        errs.append(h1_field_error(space, sol.coefficients, phi))
        proj = ritz_projection(form, phi)
        gaps.append(h1_seminorm(space, sol.coefficients - proj.coefficients))
    # the consistent-data solve coincides with the projection up to
    # data-quadrature error, and converges at the projection's rate
    assert gaps[-1] <= 1e-4 * errs[-1]
    assert errs[0] / errs[-1] > 7.0


def test_triple_norm_flags_indefinite(form_n8_l2):
    form = dataclasses.replace(form_n8_l2, matrix=-form_n8_l2.matrix)
    v = np.zeros(form.space.n_dofs)
    v[form.space.free_dofs] = 1.0
    with pytest.raises(CoercivityError):
        triple_norm(form, v)


# -- one factor of a_h: certify, then solve ---------------------------


@pytest.fixture
def factor_count(monkeypatch):
    """Counts the Factorized objects that cip builds."""
    made = []

    class Counting(Factorized):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cip, "Factorized", Counting)
    return made


@pytest.mark.parametrize("solve", ["ritz", "stationary"])
def test_certifying_factor_solves(space_n8_l2, factor_count, solve):
    """The LU that certifies coercivity is the one that then solves:
    assembly plus a Ritz or stationary solve factors a_h once."""
    form = assemble_cip(space_n8_l2)
    if solve == "ritz":
        ritz_projection(form, mf.phi())
    else:
        solve_stationary(form, assemble_load_scalar(space_n8_l2,
                                                    mf.f_scalar()))
    assert len(factor_count) == 1
    assert form.factor() is factor_count[0]


def test_kept_factor_solves_like_a_fresh_one(space_n8_l2):
    form = assemble_cip(space_n8_l2)
    got = ritz_projection(form, mf.phi()).coefficients
    pairing = consistency_pairing(form, mf.phi())
    free = space_n8_l2.free_dofs
    want = Factorized(form.matrix_free)(pairing[free])
    assert np.array_equal(got[free], want)


def test_transient_solve_releases_the_factor_first(monkeypatch):
    """dg_solve never solves with a_h alone: the form's factor is gone
    before K, the loads or the first interval's mode factors exist."""
    space = build_space(build_structured_mesh(4), 2)
    form = assemble_cip(space)
    ref = weakref.ref(form.factor())
    alive = {}
    h1_free, interval_system = space.h1_free, dg_time._interval_system

    def spy_h1_free():
        alive.setdefault("h1_free", ref() is not None)
        return h1_free()

    def spy_interval_system(*args):
        alive.setdefault("interval", ref() is not None)
        return interval_system(*args)

    monkeypatch.setattr(space, "h1_free", spy_h1_free)
    monkeypatch.setattr(dg_time, "_interval_system", spy_interval_system)
    dg_time.dg_solve(form, dg_time.make_partition(2), 0, f=mf.f_scalar())
    assert alive == {"h1_free": False, "interval": False}


def test_ritz_after_transient_solve_refactors(space_n4_l2, factor_count):
    """After the release, factor() builds the same LU again on demand."""
    form = assemble_cip(space_n4_l2)
    before = ritz_projection(form, mf.phi()).coefficients
    dg_time.dg_solve(form, dg_time.make_partition(2), 0, f=mf.f_scalar())
    after = ritz_projection(form, mf.phi()).coefficients
    assert len(factor_count) == 2
    assert np.array_equal(before, after)
