import numpy as np
import pytest

from streamfem import build_space, build_structured_mesh, cip
from streamfem.cip import assemble_cip
from streamfem.dg_time import TimePartition, make_partition
from streamfem.linalg import Factorized
from streamfem.mesh import Mesh


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "out_dirs(*names): directories that a test makes under "
                   "its tmp_path before it runs the CLI")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def space_n4_l2():
    return build_space(build_structured_mesh(4), 2)


@pytest.fixture(scope="session")
def space_n8_l2():
    return build_space(build_structured_mesh(8), 2)


@pytest.fixture(scope="session")
def form_n8_l2(space_n8_l2):
    return assemble_cip(space_n8_l2)


@pytest.fixture(scope="session")
def renumbered():
    """``renumbered(space, order)`` builds the space again on its mesh
    with the triangles taken in ``order``.  It returns that space and the
    index array ``new``: DOF i of ``space`` is DOF new[i] of the other.

    Only the triangle order changes, so the vertex and edge DOFs keep
    their numbers and the interior DOFs of P3 move with their triangles.
    By the mesh's rule an interior edge whose two triangles swap order
    swaps T- and T+ and its normal.
    """
    def build(space, order):
        mesh = space.mesh
        other = build_space(Mesh(mesh.vertices, mesh.triangles[order]),
                            space.degree)
        new = np.empty(space.n_dofs, dtype=np.int64)
        new[space.dof_map[order]] = other.dof_map
        return other, new
    return build


@pytest.fixture(scope="session")
def refined_partition():
    """``make_partition(8)`` with the nodes 5/16 and 3/8 added: three runs
    of bit-equal lengths, 1/8, 1/16 and 1/8."""
    return TimePartition(np.union1d(make_partition(8).nodes, [5 / 16, 3 / 8]))


@pytest.fixture
def factor_count(request, monkeypatch):
    """Counts the Factorized objects that ``cip`` builds, or the module
    that an indirect parametrization passes."""
    made = []

    class Counting(Factorized):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(getattr(request, "param", cip), "Factorized",
                        Counting)
    return made
