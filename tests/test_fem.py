import math
from functools import partial

import numpy as np
import pytest
import scipy.integrate

from streamfem import manufactured as mf
from streamfem.fem import (FeFunction, assemble_h1_stiffness,
                           assemble_load_scalar, assemble_tested,
                           build_space, gradient_tables, h1_field_error,
                           h1_projection, reference_basis, table_writer,
                           term_tables, _lattice, _mono_table)
from streamfem.linalg import largest_entry
from streamfem.mesh import build_structured_mesh
from streamfem.mini_stokes import build_mini_space
from streamfem.quadrature import QuadratureRule, triangle_rule


# -- reference basis -----------------------------------------------------


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_lagrange_property(degree):
    nodes = _lattice(degree)
    vals = reference_basis(degree, nodes, 0)
    assert vals == pytest.approx(np.eye(len(nodes)), abs=1e-12)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_partition_of_unity_and_derivative_sums(degree, rng):
    pts = rng.random((100, 2)) * 0.5
    vals = reference_basis(degree, pts, 0)
    grads = reference_basis(degree, pts, 1)
    hess = reference_basis(degree, pts, 2)
    assert vals.sum(axis=-1) == pytest.approx(np.ones(100), abs=1e-12)
    assert np.abs(grads.sum(axis=-2)).max() < 1e-11
    assert np.abs(hess.sum(axis=-3)).max() < 1e-10


def test_p2_hessians_constant():
    a = reference_basis(2, np.array([0.1, 0.2]), 2)
    b = reference_basis(2, np.array([0.6, 0.3]), 2)
    assert a == pytest.approx(b, abs=1e-12)


def _counted_mono_table(points, degree, dx, dy):
    """Monomial derivatives with the factor counted one step at a time,
    the reference of ``_mono_table``."""
    x, y = points[..., 0], points[..., 1]
    cols = []
    for total in range(degree + 1):
        for j in range(total + 1):
            i, factor = total - j, 1.0
            for _ in range(dx):
                factor, i = factor * i, max(i - 1, 0)
            for _ in range(dy):
                factor, j = factor * j, max(j - 1, 0)
            cols.append(factor * x ** i * y ** j if factor
                        else np.zeros_like(x))
    return np.stack(cols, axis=-1)


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_monomial_derivatives_match_the_counted_factor(degree, rng):
    """``_mono_table`` takes d_x^dx x^i = perm(i, dx) x^(i - dx) and keeps
    the counted loop's operation order: the same bits, for every
    derivative up to degree + 1."""
    pts = rng.random((7, 3, 2))
    for dx in range(degree + 2):
        for dy in range(degree + 2 - dx):
            assert np.array_equal(_mono_table(pts, degree, dx, dy),
                                  _counted_mono_table(pts, degree, dx, dy))


def test_unsupported_degree():
    with pytest.raises(ValueError):
        reference_basis(4, np.zeros(2), 0)


def test_unsupported_order():
    """The one tabulation refuses a derivative order past 2, for the
    Lagrange bases and the MINI space alike."""
    space = build_mini_space(build_structured_mesh(1))
    for reference in (partial(reference_basis, 2), space.reference):
        with pytest.raises(ValueError, match="order must be 0, 1 or 2"):
            reference(np.zeros(2), 3)


# -- spaces --------------------------------------------------------------


def test_dof_counts():
    assert build_space(build_structured_mesh(1), 2).n_dofs == 9
    assert build_space(build_structured_mesh(2), 2).n_dofs == 25
    assert build_space(build_structured_mesh(2), 3).n_dofs == 49


@pytest.mark.parametrize("n,degree", [(2, 1), (2, 2), (3, 3)])
def test_dof_count_formula(n, degree):
    mesh = build_structured_mesh(n)
    space = build_space(mesh, degree)
    expected = (mesh.num_vertices + (degree - 1) * mesh.num_edges
                + (degree - 1) * (degree - 2) // 2 * mesh.num_triangles)
    assert space.n_dofs == expected


@pytest.mark.parametrize("degree", [2, 3])
def test_shared_edge_dofs_conform(degree):
    """Shared-edge DOFs must refer to the same physical node from both
    triangles, so the broken interpolants glue continuously."""
    mesh = build_structured_mesh(3)
    space = build_space(mesh, degree)
    lat = _lattice(degree)
    pts = space.origins[:, None, :] + np.einsum("fij,lj->fli", space.jac, lat)
    coords = np.zeros((space.n_dofs, 2))
    seen = np.zeros(space.n_dofs, dtype=bool)
    for f in range(mesh.num_triangles):
        for l, d in enumerate(space.dof_map[f]):
            if seen[d]:
                assert pts[f, l] == pytest.approx(coords[d], abs=1e-13)
            coords[d] = pts[f, l]
            seen[d] = True
    assert seen.all()


def _looped_dof_map(space):
    """The DOF map column by column: the vertices, the edge DOFs of each
    local edge, directed by ``tri_edge_forward``, then the interior
    DOFs."""
    mesh = space.mesh
    v, e, f = mesh.num_vertices, mesh.num_edges, mesh.num_triangles
    n_edge, n_int = space._entity_dofs()
    dof_map = np.empty((f, 3 + 3 * n_edge + n_int), dtype=np.int64)
    dof_map[:, :3] = mesh.triangles
    col = 3
    for le in range(3):
        base = v + mesh.tri_edges[:, le] * n_edge
        forward = mesh.tri_edge_forward[:, le]
        for m in range(n_edge):
            dof_map[:, col + m] = np.where(forward, base + m,
                                           base + (n_edge - 1 - m))
        col += n_edge
    base = v + n_edge * e + n_int * np.arange(f)
    for m in range(n_int):
        dof_map[:, col + m] = base + m
    return dof_map


@pytest.mark.parametrize("kind", ["P1", "P2", "P3", "MINI"])
@pytest.mark.parametrize("triangles", ["structured", "seed 0"])
def test_dof_map_matches_the_column_loop(renumbered, kind, triangles):
    """On the structured mesh and on its triangles in the seed-0 random
    order, whose local edges run both ways."""
    mesh = build_structured_mesh(5)
    if triangles == "seed 0":
        order = np.random.default_rng(0).permutation(mesh.num_triangles)
        mesh = renumbered(build_space(mesh, 1), order)[0].mesh
    forward = mesh.tri_edge_forward
    assert forward.any() and not forward.all()
    space = (build_mini_space(mesh) if kind == "MINI"
             else build_space(mesh, int(kind[1])))
    assert space.dof_map.dtype == np.int64
    assert np.array_equal(space.dof_map, _looped_dof_map(space))


def test_boundary_dof_count():
    mesh = build_structured_mesh(4)
    space = build_space(mesh, 2)
    # nodes on the boundary: 16 vertices + 16 edge midpoints
    assert space.boundary_dofs.size == 32


# -- stiffness matrix ----------------------------------------------------


def test_stiffness_exactly_symmetric(space_n4_l2):
    k = space_n4_l2.h1_stiffness()
    assert largest_entry(k - k.T) == 0.0


def test_stiffness_kernel_and_row_sums(space_n4_l2):
    k = space_n4_l2.h1_stiffness()
    ones = np.ones(space_n4_l2.n_dofs)
    assert np.abs(k @ ones).max() < 1e-12
    assert np.abs(np.asarray(k.sum(axis=1))).max() < 1e-12


def test_stiffness_corner_entry_against_brute_force():
    """P1 entry K[v, v] for the corner vertex of the 2-triangle mesh.

    Hand/brute-force value: the hat at (0,0) restricts to 1 - x on the
    lower triangle and 1 - y on the upper one, each with |grad| = 1 and
    area 1/2, so the diagonal entry is 1.
    """
    mesh = build_structured_mesh(1)
    space = build_space(mesh, 1)
    k = space.h1_stiffness().toarray()

    def hat_grad_sq(f):
        # independent brute force: fit the linear nodal function and
        # integrate its gradient with a dense midpoint rule
        tri = mesh.triangles[f]
        verts = mesh.vertices[tri]
        target = (tri == 0).astype(float)
        coef = np.linalg.solve(
            np.column_stack([np.ones(3), verts]), target)
        grad = coef[1:]
        d1 = verts[1] - verts[0]
        d2 = verts[2] - verts[0]
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        return area * grad @ grad

    oracle = sum(hat_grad_sq(f) for f in range(2))
    assert k[0, 0] == pytest.approx(oracle, abs=1e-13)
    assert oracle == pytest.approx(1.0, abs=1e-13)


def test_positive_definite_after_elimination(space_n4_l2, rng):
    k = space_n4_l2.h1_free()
    for _ in range(20):
        x = rng.standard_normal(k.shape[0])
        assert x @ (k @ x) > 0.0


# -- loads ---------------------------------------------------------------


def _constant_field(value):
    from streamfem.manufactured import ScalarField, SpatialTerm, TimeFactor

    def val(p):
        return np.full(p.shape[:-1], value)

    def grad(p):
        return np.zeros(p.shape)

    return ScalarField([(TimeFactor.one(), SpatialTerm(val, grad))])


def _load_at(assemble, space, fld, t):
    """The load of a separable field at time t: sum_i sigma_i(t) times the
    load of the static factor w_i."""
    return sum(tf.fn(t) * assemble(space, w) for tf, w in fld.static_terms())


def test_zero_load(space_n4_l2):
    b = assemble_load_scalar(space_n4_l2, _constant_field(0.0))
    assert np.all(b == 0.0)


def test_unit_load_sums_to_area():
    space = build_space(build_structured_mesh(3), 1)
    b = assemble_load_scalar(space, _constant_field(1.0))
    assert b.sum() == pytest.approx(1.0, rel=1e-12)


def test_scalar_load_against_adaptive_quadrature(monkeypatch):
    """Entries of the manufactured load at t = 0.25 against per-entry
    adaptive quadrature with independently fitted basis polynomials.

    At this coarse mesh the data has ~2.5 oscillation periods per cell,
    so a high-order fixed rule is required to meet the oracle tolerance
    (the degree-8 default is adequate only from the production meshes
    onward)."""
    mesh = build_structured_mesh(2)
    space = build_space(mesh, 2)
    f = mf.f_scalar()
    t = 0.25
    monkeypatch.setattr(space, "default_data_rule", lambda: triangle_rule(30))
    b = _load_at(assemble_load_scalar, space, f, t)

    lat = _lattice(2)
    checked = 0
    for dof in [space.free_dofs[0], space.boundary_dofs[3],
                int(space.dof_map[1, 4]), int(space.dof_map[5, 0])]:
        oracle = 0.0
        for fidx in range(mesh.num_triangles):
            local = np.flatnonzero(space.dof_map[fidx] == dof)
            if local.size == 0:
                continue
            verts = mesh.vertices[mesh.triangles[fidx]]
            jac = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
            det = abs(np.linalg.det(jac))
            # independent quadratic fit of the local basis function
            mono = lambda p: np.array(
                [1.0, p[0], p[1], p[0] ** 2, p[0] * p[1], p[1] ** 2])
            vand = np.array([mono(p) for p in lat])
            coef = np.linalg.solve(vand, np.eye(6)[:, local[0]])

            def integrand(y, x):
                val = coef @ mono((x, y))
                phys = verts[0] + jac @ np.array([x, y])
                return val * f.value(t, phys) * det

            val, _ = scipy.integrate.dblquad(
                integrand, 0.0, 1.0, 0.0, lambda x: 1.0 - x,
                epsabs=1e-11, epsrel=1e-11)
            oracle += val
        assert b[dof] == pytest.approx(oracle, abs=1e-8)
        checked += 1
    assert checked == 4


def test_term_loads_times_time_factors_match_direct(space_n4_l2):
    """sum_i sigma_i(t) b_i from the stacked term loads is the load of
    the whole field at t, tested directly at the data rule points."""
    f = mf.f_scalar()
    loads = term_tables(space_n4_l2, f, "load")
    for t in (0.1, 0.37):
        sig = np.array([tf.fn(t) for tf, _ in f.terms])
        direct = assemble_tested(
            space_n4_l2, f.value(t, space_n4_l2.phys_points()), 0)
        assert sig @ loads == pytest.approx(direct, abs=1e-12)


# -- projection and evaluation -------------------------------------------


def test_projection_idempotent_on_vh(space_n4_l2, rng):
    for _ in range(10):
        coef = np.zeros(space_n4_l2.n_dofs)
        coef[space_n4_l2.free_dofs] = rng.standard_normal(
            space_n4_l2.free_dofs.size)
        v = FeFunction(space_n4_l2, coef)
        p = h1_projection(space_n4_l2, v)
        assert np.abs(p.coefficients - coef).max() < 1e-10


def test_projection_of_zero(space_n4_l2):
    p = h1_projection(space_n4_l2, _constant_field(0.0))
    assert np.all(p.coefficients == 0.0)


def test_rule_tables_follow_their_rule(space_n4_l2):
    """Tables are cached per rule object; a new rule that may reuse the
    id of a freed one still gets its own points and basis values."""
    space = space_n4_l2
    for k in range(20):
        old = QuadratureRule(np.array([[0.25, 0.25]]), np.array([0.5]), 0)
        space.basis_table(old)
        del old
        pts = np.array([[0.5, 0.125 + k / 100]])
        new = QuadratureRule(pts, np.array([0.5]), 0)
        assert np.array_equal(space.basis_table(new),
                              reference_basis(2, pts, 0))


def test_projection_stability(space_n8_l2):
    phi = mf.phi()
    proj = h1_projection(space_n8_l2, phi)
    rule = space_n8_l2.default_data_rule()
    pts = space_n8_l2.phys_points()
    g = phi.grad(0.0, pts)
    norm_w = np.sqrt(np.einsum("q,fqi,fqi,f->", rule.weights, g, g,
                               space_n8_l2.jac_det))
    c = proj.coefficients
    assert math.sqrt(c @ (space_n8_l2.h1_stiffness() @ c)) <= \
        norm_w * (1.0 + 1e-8)


def test_projection_rate_two():
    phi = mf.phi()
    errs = []
    for n in (4, 8, 16, 32):
        space = build_space(build_structured_mesh(n), 2)
        proj = h1_projection(space, phi)
        errs.append(h1_field_error(space, proj.coefficients, phi))
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert rates[-1] == pytest.approx(2.0, abs=0.25)
    slope = np.polyfit(np.log([np.sqrt(2) / n for n in (8, 16, 32)]),
                       np.log(errs[1:]), 1)[0]
    assert 1.7 < slope < 2.2


def value_tables(space, rows):
    """The values of coefficient rows at the data rule points, (A, F, Q)."""
    shape, write = table_writer(space, 0, len(rows))
    out = np.empty(shape)
    write(np.asarray(rows, dtype=float), out, None)
    return out


def test_evaluate_reproduces_linear():
    """The P1 interpolant of x1 has value x1 and gradient (1, 0) at the
    rule points of every cell."""
    space = build_space(build_structured_mesh(2), 1)
    coef = space.mesh.vertices[:, 0].copy()
    val = value_tables(space, [coef])[0]
    grad = gradient_tables(space, [coef])[0]
    assert val == pytest.approx(space.phys_points()[..., 0], abs=1e-13)
    assert grad[..., 0] == pytest.approx(np.ones(val.shape), abs=1e-12)
    assert grad[..., 1] == pytest.approx(np.zeros(val.shape), abs=1e-12)


def test_evaluate_reproduces_quadratic():
    mesh = build_structured_mesh(2)
    space = build_space(mesh, 2)
    lat = _lattice(2)
    pts = space.origins[:, None, :] + np.einsum("fij,lj->fli", space.jac, lat)
    coef = np.zeros(space.n_dofs)
    coef[space.dof_map.ravel()] = (pts[..., 0] * pts[..., 1]).ravel()
    xy = space.phys_points()
    val = value_tables(space, [coef])[0]
    assert val == pytest.approx(xy[..., 0] * xy[..., 1], abs=1e-13)


def test_evaluate_zero_function(space_n4_l2):
    zero = [FeFunction(space_n4_l2).coefficients]
    assert np.all(value_tables(space_n4_l2, zero) == 0.0)
    assert np.all(gradient_tables(space_n4_l2, zero) == 0.0)


def test_coefficient_length_checked(space_n4_l2):
    with pytest.raises(ValueError):
        FeFunction(space_n4_l2, np.zeros(3))
