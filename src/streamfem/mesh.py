"""Conforming triangulations, and the structured one of the unit square.

Meshes are immutable after construction and carry the full edge data
needed by interior-penalty assembly: unique edge list, edge/triangle
adjacency, boundary flags, per-edge unit normals and the direction of
each local edge.
"""

import numpy as np

__all__ = ["Mesh", "build_structured_mesh", "affine_geometry"]

# local edges of a triangle (a, b, c), traversed counterclockwise
_LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))

# reference coordinates of the three vertices
_VERT_REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


class Mesh:
    """Triangulation with edge connectivity.

    Attributes
    ----------
    vertices : ndarray, shape (V, 2)
    triangles : ndarray, shape (F, 3)
        Vertex indices, counterclockwise.
    edges : ndarray, shape (E, 2)
        Sorted vertex index pairs, each edge listed once.
    tri_edges : ndarray, shape (F, 3)
        Global edge index of the local edges (0,1), (1,2), (2,0).
    tri_edge_forward : ndarray of bool, shape (F, 3)
        Whether each local edge (i, j) runs from its lower to its higher
        global vertex, the direction of the sorted pair in ``edges``.
        The edge DOFs and the edge traces of the C0IP form read their
        orientation from here.
    edge_tris : ndarray, shape (E, 2)
        Adjacent triangle indices; the lower index (T-) first, -1 when
        the edge lies on the boundary.
    edge_local : ndarray, shape (E, 2)
        Local edge index within each adjacent triangle (-1 when absent).
    boundary_edge : ndarray of bool, shape (E,)
    normals : ndarray, shape (E, 2)
        Unit normal per edge: for interior edges pointing from T- into
        T+, for boundary edges pointing out of the domain.

    The mesh is the one owner of edge orientation: T-, T+, the normal
    and the direction of each local edge follow from the vertex and
    triangle numbering alone.  Renumbering the triangles swaps T- and T+
    and the normal of each interior edge whose two triangles swap order
    (of every interior edge, in reverse order).
    """

    def __init__(self, vertices, triangles):
        # a copy: the mesh freezes its arrays, and not the caller's
        vertices = np.array(vertices, dtype=float)
        triangles = np.asarray(triangles)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (V, 2)")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (F, 3)")
        if not np.all(np.isfinite(vertices)):
            raise ValueError("vertex coordinates must be finite")
        if not (np.all(np.isfinite(triangles))
                and np.array_equal(triangles, np.round(triangles))):
            raise ValueError("triangles must hold integer vertex indices")
        triangles = triangles.astype(np.int64)
        bad = triangles[(triangles < 0) | (triangles >= len(vertices))]
        if bad.size:
            raise ValueError(f"vertex index {bad[0]} is not one of the "
                             f"{len(vertices)} vertices")
        unused = np.setdiff1d(np.arange(len(vertices)), triangles)
        if unused.size:
            raise ValueError(f"vertex {unused[0]} is used by no triangle")
        self.vertices = vertices
        self.triangles = triangles
        self._build_edges()
        self._check_invariants()
        self.vertices.setflags(write=False)
        self.triangles.setflags(write=False)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    @property
    def num_edges(self):
        return self.edges.shape[0]

    def _build_edges(self):
        tris = self.triangles
        nf = tris.shape[0]
        # all local edges as sorted pairs, deduplicated into the edge list
        pairs = np.empty((3 * nf, 2), dtype=np.int64)
        for le, (i, j) in enumerate(_LOCAL_EDGES):
            pairs[le::3, 0] = tris[:, i]
            pairs[le::3, 1] = tris[:, j]
        forward = (pairs[:, 0] < pairs[:, 1]).reshape(nf, 3)
        pairs_sorted = np.sort(pairs, axis=1)
        # the key lo * V + hi sorts as the pair (lo, hi) does
        nv = self.vertices.shape[0]
        keys, inverse = np.unique(pairs_sorted[:, 0] * nv + pairs_sorted[:, 1],
                                  return_inverse=True)
        edges = np.column_stack([keys // nv, keys % nv])
        ne = edges.shape[0]

        tri_edges = inverse.reshape(nf, 3)
        counts = np.bincount(tri_edges.ravel(), minlength=ne)
        if np.any(counts > 2):
            raise ValueError(f"edge {np.argmax(counts > 2)} shared by more "
                             "than 2 triangles")
        # local edge 3 f + le, grouped by edge in ascending order (a stable
        # sort), so each edge's first slot is its lower triangle, T-
        order = np.argsort(tri_edges.ravel(), kind="stable")
        start = np.cumsum(counts) - counts
        shared = counts == 2
        slots = np.full((ne, 2), -1, dtype=np.int64)
        slots[:, 0] = order[start]
        slots[shared, 1] = order[start[shared] + 1]
        edge_tris = slots // 3                                # -1 stays -1
        edge_local = np.where(slots < 0, -1, slots % 3)

        boundary = edge_tris[:, 1] < 0

        # normal = outward normal of T- across its local edge, the directed
        # pair of slot 0; for a CCW triangle that is the edge rotated
        # clockwise
        p, q = self.vertices[pairs[slots[:, 0]].T]
        d = q - p
        lengths = np.hypot(d[:, 0], d[:, 1])
        normals = np.stack([d[:, 1], -d[:, 0]], axis=1) / lengths[:, None]

        self.edges = edges
        self.tri_edges = tri_edges
        self.tri_edge_forward = forward
        self.edge_tris = edge_tris
        self.edge_local = edge_local
        self.boundary_edge = boundary
        self.edge_lengths = lengths
        self.normals = normals
        for arr in (self.edges, self.tri_edges, self.tri_edge_forward,
                    self.edge_tris, self.edge_local, self.boundary_edge,
                    self.edge_lengths, self.normals):
            arr.setflags(write=False)

    def _check_invariants(self):
        v = self.num_vertices
        e = self.num_edges
        f = self.num_triangles
        if v - e + f != 1:
            raise ValueError(f"Euler relation violated: V-E+F = {v - e + f}")
        if np.any(self.signed_areas() <= 0.0):
            raise ValueError("all triangles must be counterclockwise with "
                             "positive area")

    def signed_areas(self):
        """Signed area per triangle (positive for CCW orientation)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def boundary_vertices(self):
        """Indices of vertices lying on the boundary."""
        return np.unique(self.edges[self.boundary_edge])


def build_structured_mesh(n):
    """Uniform n-by-n triangulation of the unit square.

    Every grid cell is split along the same lower-left to upper-right
    diagonal, which keeps vertex, edge and DOF orderings reproducible.
    The unit square is the domain on which the manufactured data of
    ``manufactured`` is clamped.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # cell j n + i has the corners a, b = a + 1, c = a + n + 2, d = a + n + 1
    # and the triangles 2 (j n + i) = (a, b, c) and 2 (j n + i) + 1 = (a, c, d)
    j, i = np.divmod(np.arange(n * n), n)
    a = j * (n + 1) + i
    triangles = np.stack([a, a + 1, a + n + 2, a, a + n + 2, a + n + 1],
                         axis=1).reshape(-1, 3)
    return Mesh(vertices, triangles)


def affine_geometry(mesh):
    """Affine maps x = origin + J xhat from the reference triangle.

    Returns (origins (F, 2), jac (F, 2, 2), jac_inv (F, 2, 2), det (F,));
    det is positive, twice the triangle area.
    """
    p = mesh.vertices[mesh.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    inv = np.empty_like(jac)
    inv[:, 0, 0] = jac[:, 1, 1]
    inv[:, 0, 1] = -jac[:, 0, 1]
    inv[:, 1, 0] = -jac[:, 1, 0]
    inv[:, 1, 1] = jac[:, 0, 0]
    inv /= det[:, None, None]
    return p[:, 0], jac, inv, det
