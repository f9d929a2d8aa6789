import numpy as np
import pytest

from streamfem.mesh import Mesh, build_structured_mesh


def test_smallest_mesh_counts():
    m = build_structured_mesh(1)
    assert m.num_vertices == 4
    assert m.num_triangles == 2
    assert m.num_edges == 5
    assert m.num_vertices - m.num_edges + m.num_triangles == 1


def test_n2_counts():
    m = build_structured_mesh(2)
    assert (m.num_vertices, m.num_triangles, m.num_edges) == (9, 8, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_euler_relation(n):
    m = build_structured_mesh(n)
    assert m.num_vertices - m.num_edges + m.num_triangles == 1


def test_mesh_size_is_cell_diagonal():
    """The longest edge, the diameter of every triangle, is the diagonal
    sqrt(2) / n that the studies report as h."""
    m = build_structured_mesh(4)
    assert m.edge_lengths.max() == pytest.approx(np.sqrt(2.0) / 4,
                                                 abs=1e-15)


def test_rejects_degenerate_input():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


def test_positive_ccw_areas_and_total_area():
    for n in (1, 3, 6):
        m = build_structured_mesh(n)
        areas = m.signed_areas()
        assert np.all(areas > 0)
        assert areas.sum() == pytest.approx(1.0, rel=1e-12)


def test_adjacency_counts_and_consistency():
    m = build_structured_mesh(3)
    interior = ~m.boundary_edge
    assert np.all(m.edge_tris[interior, 1] >= 0)
    assert np.all(m.edge_tris[m.boundary_edge, 1] == -1)
    # both adjacent triangles contain the edge's vertex pair
    for e in range(m.num_edges):
        pair = set(m.edges[e])
        for t in m.edge_tris[e]:
            if t >= 0:
                assert pair <= set(m.triangles[t])


def test_triangle_edges_are_three_distinct():
    m = build_structured_mesh(3)
    for f in range(m.num_triangles):
        assert len(set(m.tri_edges[f])) == 3


def test_interior_normal_points_from_tminus_to_tplus():
    m = build_structured_mesh(3)
    cent = m.vertices[m.triangles].mean(axis=1)
    interior = np.flatnonzero(~m.boundary_edge)
    tm = m.edge_tris[interior, 0]
    tp = m.edge_tris[interior, 1]
    assert np.all(tm < tp)  # lower triangle index is the minus side
    d = np.einsum("ei,ei->e", m.normals[interior], cent[tp] - cent[tm])
    assert np.all(d > 0)


def test_boundary_normals_point_outward():
    m = build_structured_mesh(2)
    for e in np.flatnonzero(m.boundary_edge):
        n = m.normals[e]
        mid = m.vertices[m.edges[e]].mean(axis=0)
        assert np.dot(n, mid + 0.01 * n - np.array([0.5, 0.5])) > \
            np.dot(n, mid - np.array([0.5, 0.5]))
        outside = mid + 1e-6 * n
        assert not (0.0 < outside[0] < 1.0 and 0.0 < outside[1] < 1.0) or \
            np.linalg.norm(n) == pytest.approx(1.0)
        # the genuinely binding check: stepping along n leaves the square
        assert (outside[0] < 0.0 or outside[0] > 1.0 or
                outside[1] < 0.0 or outside[1] > 1.0)


def test_edge_geometry_values():
    m = build_structured_mesh(1)
    # bottom boundary edge of the unit square
    bottom = [e for e in range(m.num_edges)
              if np.allclose(m.vertices[m.edges[e]][:, 1], 0.0)][0]
    assert m.edge_lengths[bottom] == pytest.approx(1.0)
    assert m.normals[bottom] == pytest.approx([0.0, -1.0])
    # the diagonal edge
    diag = [e for e in range(m.num_edges)
            if set(m.edges[e]) == {0, 3}][0]
    pts = m.vertices[m.edges[diag]]
    assert m.edge_lengths[diag] == pytest.approx(np.sqrt(2.0))
    assert abs(np.dot(m.normals[diag], pts[1] - pts[0])) < 1e-14


def test_interior_vertical_edge_n2():
    m = build_structured_mesh(2)
    for e in range(m.num_edges):
        pts = m.vertices[m.edges[e]]
        if np.allclose(pts[:, 0], 0.5) and not m.boundary_edge[e]:
            assert m.edge_lengths[e] == pytest.approx(0.5)
            assert abs(np.dot(m.normals[e], [0.0, 1.0])) < 1e-14
            break
    else:
        pytest.fail("no interior vertical edge found")



def _loop_adjacency(mesh):
    """edge_tris and edge_local by a loop over the local edges, their
    oracle: triangles are visited in ascending order, so slot 0 is T-."""
    edge_tris = np.full((mesh.num_edges, 2), -1, dtype=np.int64)
    edge_local = np.full((mesh.num_edges, 2), -1, dtype=np.int64)
    for f in range(mesh.num_triangles):
        for le in range(3):
            e = mesh.tri_edges[f, le]
            slot = 0 if edge_tris[e, 0] < 0 else 1
            edge_tris[e, slot] = f
            edge_local[e, slot] = le
    return edge_tris, edge_local


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("n", [1, 2, 4, 16])
def test_adjacency_matches_the_local_edge_loop(n, shuffled):
    m = build_structured_mesh(n)
    if shuffled:
        order = np.random.default_rng(n).permutation(m.num_triangles)
        m = Mesh(m.vertices, m.triangles[order])
    edge_tris, edge_local = _loop_adjacency(m)
    assert np.array_equal(m.edge_tris, edge_tris)
    assert np.array_equal(m.edge_local, edge_local)


def test_rejects_an_edge_of_three_triangles():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [1.0, 1.0]]
    triangles = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
    with pytest.raises(ValueError,
                       match="edge 0 shared by more than 2 triangles"):
        Mesh(vertices, triangles)


def _pair_edges(mesh):
    """The edge list and the local edges' indices into it by a row-wise
    ``np.unique`` of the sorted vertex pairs, their oracle."""
    pairs = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                    axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    return edges, inverse.reshape(-1, 3)


def _scrambled_mesh():
    """Two squares side by side with the vertex numbers out of grid
    order, so that a key's sort order differs from the coordinates'."""
    vertices = [[1.0, 1.0], [0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 0.0],
                [2.0, 1.0]]
    triangles = [[4, 5, 0], [1, 4, 0], [4, 2, 5], [1, 0, 3]]
    return Mesh(vertices, triangles)


@pytest.mark.parametrize("mesh", [*map(build_structured_mesh, (1, 2, 16, 64)),
                                  _scrambled_mesh()],
                         ids=["n=1", "n=2", "n=16", "n=64", "scrambled"])
def test_edges_match_the_row_wise_unique(mesh):
    edges, tri_edges = _pair_edges(mesh)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.tri_edges, tri_edges)
