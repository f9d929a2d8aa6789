"""The reference-table kernels against the per-cell formulations they replaced.

The oracles below map the reference basis to every triangle first and
contract the physical (F, Q, n_loc, 2[, 2]) tables with multi-operand
einsums, as the element kernels did before they became one matrix
product against a reference table.  The MINI oracles also number the
velocity DOFs per cell with -1 on the boundary and scatter through masks,
as the mixed solver did before its space became an ``FeSpace``.  Both
sides sum the same products in another order, so they agree to 1e-13
relative.
"""

import tracemalloc

import numpy as np
import pytest

from streamfem import manufactured as mf
from streamfem.cip import (_assemble_matrices, _edge_parts,
                           _edge_rule_points, _edge_traces, _side_traces,
                           assemble_cip, consistency_pairing,
                           default_penalty, ritz_projection)
from streamfem.fem import (_weighted_squares, assemble_h1_stiffness,
                           assemble_load_gradient, assemble_load_scalar,
                           build_space, gradient_tables, reference_basis)
from streamfem.linalg import build_csr
from streamfem.mesh import _LOCAL_EDGES, _VERT_REF, build_structured_mesh
from streamfem.mini_stokes import (_divergence, _mass, _pressure_integrals,
                                   _velocity_loads, build_mini_space)
from streamfem.quadrature import interval_rule, triangle_rule

RTOL = 1e-13


def assert_close(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.abs(new - old).max() <= RTOL * np.abs(old).max()


# -- the per-cell formulations ----------------------------------------


def phys_gradients(space, rule):
    ref = reference_basis(space.degree, rule.points, 1)
    return np.einsum("qld,fdi->fqli", ref, space.jac_inv)


def phys_hessians(space, rule):
    ref = reference_basis(space.degree, rule.points, 2)
    return np.einsum("fai,qlab,fbj->fqlij", space.jac_inv, ref, space.jac_inv)


def scatter(space, contrib):
    return np.bincount(space.dof_map.ravel(), weights=contrib.ravel(),
                       minlength=space.n_dofs)


def oracle_gradient_tables(space, rule, rows):
    coef = np.asarray(rows)[:, space.dof_map]
    out = np.matmul(coef.transpose(1, 0, 2)[:, None],
                    phys_gradients(space, rule))
    return out.transpose(2, 0, 1, 3)


def oracle_weighted_squares(wdet, values):
    lead = values.shape[:-3]
    sq = np.einsum("...i,...i->...", values, values)
    return sq.reshape(lead + (-1,)) @ wdet.ravel()


def oracle_edge_reference_points(mesh, tri, local_edge, svals):
    i_loc = np.array([e[0] for e in _LOCAL_EDGES])[local_edge]
    j_loc = np.array([e[1] for e in _LOCAL_EDGES])[local_edge]
    lo_first = (mesh.triangles[tri, i_loc] < mesh.triangles[tri, j_loc])
    r0 = np.where(lo_first[:, None], _VERT_REF[i_loc], _VERT_REF[j_loc])
    r1 = np.where(lo_first[:, None], _VERT_REF[j_loc], _VERT_REF[i_loc])
    return (r0[:, None, :] * (1.0 - svals)[None, :, None]
            + r1[:, None, :] * svals[None, :, None])


def oracle_side_traces(space, tri, local_edge, normals, svals):
    ref_pts = oracle_edge_reference_points(space.mesh, tri, local_edge, svals)
    gref = reference_basis(space.degree, ref_pts, 1)
    href = reference_basis(space.degree, ref_pts, 2)
    jinv = space.jac_inv[tri]
    grad = np.einsum("eqld,edi->eqli", gref, jinv)
    hess = np.einsum("eai,eqlab,ebj->eqlij", jinv, href, jinv)
    dn = np.einsum("eqli,ei->eql", grad, normals)
    d2n = np.einsum("eqlij,ei,ej->eql", hess, normals, normals)
    return dn, d2n


def oracle_cip_matrix(space, eta):
    mesh = space.mesh
    rule = space.default_matrix_rule()
    hess = phys_hessians(space, rule)
    elem = np.einsum("q,fqlij,fqmij,f->flm", rule.weights, hess, hess,
                     space.jac_det)
    elem = 0.5 * (elem + elem.transpose(0, 2, 1))
    dof = space.dof_map
    n_loc = dof.shape[1]
    rows = [np.repeat(dof, n_loc, axis=1).ravel()]
    cols = [np.tile(dof, (1, n_loc)).ravel()]
    vals = [elem.ravel()]
    erule = interval_rule(_edge_rule_points(space.degree))
    svals = erule.points
    normals = mesh.normals
    minus, plus = mesh.edge_tris.T
    lminus, lplus = mesh.edge_local.T
    interior = np.flatnonzero(~mesh.boundary_edge)
    boundary = np.flatnonzero(mesh.boundary_edge)

    def accumulate(edges, jump, avg, gdofs):
        w = erule.weights
        cross = np.einsum("q,eqi,eqj,e->eij", w, avg, jump,
                          mesh.edge_lengths[edges])
        cross = cross + np.swapaxes(cross, 1, 2)
        pen = np.einsum("q,eqi,eqj->eij", w, jump, jump) * eta
        pen = 0.5 * (pen + np.swapaxes(pen, 1, 2))
        n_slots = gdofs.shape[1]
        rows.append(np.repeat(gdofs, n_slots, axis=1).ravel())
        cols.append(np.tile(gdofs, (1, n_slots)).ravel())
        vals.append((cross + pen).ravel())

    n_int = normals[interior]
    dn_p, d2n_p = oracle_side_traces(space, plus[interior], lplus[interior],
                                     n_int, svals)
    dn_m, d2n_m = oracle_side_traces(space, minus[interior],
                                     lminus[interior], n_int, svals)
    accumulate(interior, np.concatenate([dn_p, -dn_m], axis=2),
               0.5 * np.concatenate([d2n_p, d2n_m], axis=2),
               np.concatenate([dof[plus[interior]], dof[minus[interior]]],
                              axis=1))
    dn_b, d2n_b = oracle_side_traces(space, minus[boundary],
                                     lminus[boundary], normals[boundary],
                                     svals)
    accumulate(boundary, -dn_b, d2n_b, dof[minus[boundary]])
    full = build_csr(np.concatenate(rows), np.concatenate(cols),
                     np.concatenate(vals), (space.n_dofs, space.n_dofs))
    return (0.5 * (full + full.T)).tocsr()


def oracle_consistency_pairing(form, w, edge_points=8):
    space = form.space
    mesh = space.mesh
    rule = space.default_data_rule()
    hw = w.hess(0.0, space.phys_points())
    out = scatter(space, np.einsum("q,fqij,fqlij,f->fl", rule.weights, hw,
                                   phys_hessians(space, rule),
                                   space.jac_det))
    erule = interval_rule(edge_points)
    svals = erule.points
    normals = mesh.normals
    minus, plus = mesh.edge_tris.T
    lminus, lplus = mesh.edge_local.T
    interior = np.flatnonzero(~mesh.boundary_edge)
    boundary = np.flatnonzero(mesh.boundary_edge)
    lo = mesh.vertices[np.minimum(mesh.edges[:, 0], mesh.edges[:, 1])]
    hi = mesh.vertices[np.maximum(mesh.edges[:, 0], mesh.edges[:, 1])]

    def add_edges(edges, jump, gdofs):
        xq = (lo[edges][:, None, :] * (1.0 - svals)[None, :, None]
              + hi[edges][:, None, :] * svals[None, :, None])
        n = normals[edges]
        d2n_w = np.einsum("eqij,ei,ej->eq", w.hess(0.0, xq), n, n)
        contrib = np.einsum("q,eq,eqi,e->ei", erule.weights, d2n_w, jump,
                            mesh.edge_lengths[edges])
        np.add.at(out, gdofs, contrib)

    n_int = normals[interior]
    dn_p, _ = oracle_side_traces(space, plus[interior], lplus[interior],
                                 n_int, svals)
    dn_m, _ = oracle_side_traces(space, minus[interior], lminus[interior],
                                 n_int, svals)
    add_edges(interior, np.concatenate([dn_p, -dn_m], axis=2),
              np.concatenate([space.dof_map[plus[interior]],
                              space.dof_map[minus[interior]]], axis=1))
    dn_b, _ = oracle_side_traces(space, minus[boundary], lminus[boundary],
                                 normals[boundary], svals)
    add_edges(boundary, -dn_b, space.dof_map[minus[boundary]])
    return out


def oracle_h1_stiffness(space):
    rule = space.default_matrix_rule()
    grads = phys_gradients(space, rule)
    elem = np.einsum("q,fqli,fqmi,f->flm", rule.weights, grads, grads,
                     space.jac_det)
    elem = 0.5 * (elem + elem.transpose(0, 2, 1))
    dof = space.dof_map
    n_loc = dof.shape[1]
    return build_csr(np.repeat(dof, n_loc, axis=1), np.tile(dof, (1, n_loc)),
                     elem, (space.n_dofs, space.n_dofs))


def oracle_loads(space, w):
    rule = space.default_data_rule()
    pts = space.phys_points()
    grads = phys_gradients(space, rule)
    basis = reference_basis(space.degree, rule.points, 0)
    scalar = np.einsum("q,fq,ql,f->fl", rule.weights, w.value(0.0, pts),
                       basis, space.jac_det)
    gradient = np.einsum("q,fqi,fqli,f->fl", rule.weights, w.grad(0.0, pts),
                         grads, space.jac_det)
    return [scatter(space, c) for c in (scalar, gradient)]


def oracle_bubble_tables(points):
    """Values and gradients of (hat0..hat2, bubble) on the reference cell."""
    x = points[..., 0]
    y = points[..., 1]
    lam = np.stack([1.0 - x - y, x, y], axis=-1)
    bubble = 27.0 * lam[..., 0] * lam[..., 1] * lam[..., 2]
    vals = np.concatenate([lam, bubble[..., None]], axis=-1)
    glam = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    gb = 27.0 * (glam[0] * (lam[..., 1] * lam[..., 2])[..., None]
                 + glam[1] * (lam[..., 0] * lam[..., 2])[..., None]
                 + glam[2] * (lam[..., 0] * lam[..., 1])[..., None])
    grads = np.concatenate([np.broadcast_to(glam, points.shape[:-1] + (3, 2)),
                            gb[..., None, :]], axis=-2)
    return vals, grads


def oracle_mini_local_dofs(mesh):
    """Scalar velocity DOFs per triangle, (F, 4), -1 on the boundary."""
    vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.int64)
    interior = np.setdiff1d(np.arange(mesh.num_vertices),
                            mesh.boundary_vertices())
    vertex_dof[interior] = np.arange(interior.size)
    loc = np.empty((mesh.num_triangles, 4), dtype=np.int64)
    loc[:, :3] = vertex_dof[mesh.triangles]
    loc[:, 3] = interior.size + np.arange(mesh.num_triangles)
    return loc


def oracle_mini_operators(space):
    """Mass, stiffness, divergence rows and pressure integrals of MINI."""
    mesh = space.mesh
    rule = triangle_rule(6)
    vals, gref = oracle_bubble_tables(rule.points)
    grads = np.einsum("qld,fdi->fqli", gref, space.jac_inv)
    det = space.jac_det
    loc = oracle_mini_local_dofs(mesh)
    n = space.n_scalar
    rows = np.repeat(loc, 4, axis=1)
    cols = np.tile(loc, (1, 4))
    ok = (rows >= 0) & (cols >= 0)

    def assemble(elem):
        elem = 0.5 * (elem + elem.transpose(0, 2, 1))
        return build_csr(rows[ok], cols[ok], elem.reshape(rows.shape)[ok],
                         (n, n))

    mass = assemble(np.einsum("q,ql,qm,f->flm", rule.weights, vals, vals,
                              det))
    stiff = assemble(np.einsum("q,fqli,fqmi,f->flm", rule.weights, grads,
                               grads, det))
    div_el = np.einsum("q,qj,fqli,f->fjli", rule.weights, vals[:, :3], grads,
                       det)
    prows = np.repeat(mesh.triangles, 4, axis=1)
    vcols = np.tile(loc, (1, 3))
    keep = vcols >= 0
    div = [build_csr(prows[keep], vcols[keep],
                     div_el[..., c].reshape(prows.shape)[keep],
                     (mesh.num_vertices, n)) for c in range(2)]
    contrib = np.einsum("q,qj,f->fj", rule.weights, vals[:, :3], det)
    cvec = np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_vertices)
    return mass, stiff, div, cvec


def oracle_mini_load(space, g):
    """Vector load (g, v) over the stacked velocity DOFs."""
    rule = triangle_rule(8)
    vals, _ = oracle_bubble_tables(rule.points)
    pts = space.origins[:, None, :] + np.einsum("fij,qj->fqi", space.jac,
                                                rule.points)
    gv = g.value(0.0, pts)
    loc = oracle_mini_local_dofs(space.mesh)
    keep = loc >= 0
    out = np.zeros(space.n_velocity)
    for c in range(2):
        contrib = np.einsum("q,fq,ql,f->fl", rule.weights, gv[..., c], vals,
                            space.jac_det)
        np.add.at(out, loc[keep] + c * space.n_scalar, contrib[keep])
    return out


# -- the comparisons --------------------------------------------------


CASES = [(n, degree) for n in (4, 8) for degree in (2, 3)]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"n{c[0]}-P{c[1]}")
def space(request):
    n, degree = request.param
    return build_space(build_structured_mesh(n), degree)


@pytest.mark.parametrize("shuffled", [False, True])
def test_cip_matrix(space, shuffled, renumbered):
    """On the structured mesh and on the same mesh with its triangles in
    a seeded random order, which flips about half of the interior edges;
    the oracle reads its frames from the mesh it is given."""
    if shuffled:
        order = np.random.default_rng(5).permutation(space.mesh.num_triangles)
        space, _ = renumbered(space, order)
    eta = 12.0
    new = _assemble_matrices(space, eta)[0]
    old = oracle_cip_matrix(space, eta)
    assert_close(new.toarray(), old.toarray())


@pytest.mark.parametrize("reversed_", [False, True])
def test_side_traces(space, reversed_, renumbered):
    """Reversing the triangle order flips every interior edge."""
    if reversed_:
        space, _ = renumbered(space, np.arange(space.mesh.num_triangles)[::-1])
    mesh = space.mesh
    normals = mesh.normals
    minus, plus = mesh.edge_tris.T
    lminus, lplus = mesh.edge_local.T
    erule = interval_rule(_edge_rule_points(space.degree))
    svals = erule.points
    interior = np.flatnonzero(~mesh.boundary_edge)
    for tri, loc in ((plus[interior], lplus[interior]),
                     (minus[interior], lminus[interior])):
        old = oracle_side_traces(space, tri, loc, normals[interior], svals)
        for order, want in zip((1, 2), old):
            got = np.empty(want.shape)
            _side_traces(space, tri, loc, normals[interior], erule, order,
                         got)
            assert_close(got, want)


def test_consistency_pairing(space):
    form = assemble_cip(space)
    assert_close(consistency_pairing(form, mf.phi()),
                 oracle_consistency_pairing(form, mf.phi()))


def test_gradient_tables(space):
    rule = space.default_data_rule()
    rows = np.random.default_rng(3).standard_normal((3, space.n_dofs))
    assert_close(gradient_tables(space, rows),
                 oracle_gradient_tables(space, rule, rows))


def test_weighted_squares_bit_identical():
    rng = np.random.default_rng(4)
    values = rng.standard_normal((3, 2, 50, 12, 2))
    wdet = rng.random((50, 12))
    assert np.array_equal(_weighted_squares(wdet, values),
                          oracle_weighted_squares(wdet, values))


def test_h1_stiffness(space):
    assert_close(assemble_h1_stiffness(space).toarray(),
                 oracle_h1_stiffness(space).toarray())


def test_loads(space):
    w = mf.phi()
    new = (assemble_load_scalar(space, w), assemble_load_gradient(space, w))
    for a, b in zip(new, oracle_loads(space, w)):
        assert_close(a, b)


def test_assembly_keeps_no_per_cell_basis_tables():
    """Traced peak memory of assembly plus a Ritz solve at n=32, P3.

    Both peaks fall in the sparse triplet assembly.  With the per-cell
    formulation the cached (F, Q, n_loc, 2, 2) Hessian table of the
    matrix rule (10.5 MB) was alive there: 122.1 MB, against 111.6 MB
    with the reference-table kernels (numpy 2.4, scipy 1.17).
    """
    space = build_space(build_structured_mesh(32), 3)
    tracemalloc.start()
    try:
        ritz_projection(assemble_cip(space), mf.phi())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 117e6


def test_assembly_triplets_fill_one_buffer():
    """Traced peak memory of the triplet assembly alone at n=32, P3.

    The triplets fill one preallocated int32/float64 buffer part by part:
    59.4 MB, against 111.6 MB when three triplet lists, their
    concatenations and the COO->CSR copies were alive at once (numpy
    2.4, scipy 1.17).  The CSR output is about 9 MB.
    """
    space = build_space(build_structured_mesh(32), 3)
    tracemalloc.start()
    try:
        _assemble_matrices(space, default_penalty(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80e6


def test_edge_products_take_two_scratch_blocks():
    """Traced peak memory of the triplet assembly alone at n=32, P3.

    The edge products write c + c^T straight into their triplet slots
    and form the penalty product in the same scratch block; the in-place
    symmetrization copies it once.  That is two (E, n, n) blocks alive
    at once: 49.8 MB, against 59.5 MB with five (numpy 2.4, scipy 1.17).
    """
    space = build_space(build_structured_mesh(32), 3)
    tracemalloc.start()
    try:
        _assemble_matrices(space, default_penalty(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 54e6


def test_pairing_tabulates_no_hessian_traces():
    """Traced peak memory of the consistency pairing alone at n=32, P3.

    With the space's tables built, the pairing takes 9.3 MB: it
    tabulates the normal-derivative traces of the test functions only.
    Tabulating the Hessian traces as well, as the matrix needs them, took
    12.5 MB (numpy 2.4).
    """
    space = build_space(build_structured_mesh(32), 3)
    form = assemble_cip(space)
    consistency_pairing(form, mf.phi())
    tracemalloc.start()
    try:
        consistency_pairing(form, mf.phi())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6


def test_edge_traces_are_built_in_place():
    """Traced peak of the interior jump traces at n=32, P3, against the
    array they fill.

    Each side's traces are written and scaled in their slice of that one
    array (1.38 times its size at the peak).  Side copies, scaled copies
    and their concatenation took 2.0 times (numpy 2.4).
    """
    space = build_space(build_structured_mesh(32), 3)
    erule = interval_rule(_edge_rule_points(3))
    _, normals, sides, _ = next(_edge_parts(space))
    _edge_traces(space, sides, normals, erule, 1)
    tracemalloc.start()
    try:
        out = _edge_traces(space, sides, normals, erule, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * out.nbytes


@pytest.fixture(scope="module", params=(4, 8), ids=lambda n: f"n{n}")
def mini_space(request):
    return build_mini_space(build_structured_mesh(request.param))


def test_mini_operators(mini_space):
    mass, stiff, div, cvec = oracle_mini_operators(mini_space)
    assert_close(_mass(mini_space).toarray(), mass.toarray())
    assert_close(mini_space.h1_free().toarray(), stiff.toarray())
    n = mini_space.n_scalar
    new_div = _divergence(mini_space)
    for c in range(2):
        assert_close(new_div[:, c * n:(c + 1) * n].toarray(),
                     div[c].toarray())
    assert_close(_pressure_integrals(mini_space), cvec)


def test_mini_velocity_load(mini_space):
    """Every term of the perturbed force, the singular 1e5 x^-0.49 one
    included."""
    g = mf.g_tilde()
    for load, (_, w) in zip(_velocity_loads(mini_space, g),
                            g.static_terms(), strict=True):
        assert_close(load, oracle_mini_load(mini_space, w))
