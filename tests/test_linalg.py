import numpy as np
import pytest
import scipy.sparse as sp

from streamfem.fem import assemble_load_scalar
from streamfem.linalg import Factorized, SolverError, build_csr, symmetry_gap
from streamfem import manufactured as mf


def test_build_csr_sums_duplicates():
    a = build_csr([0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], (2, 2))
    assert a[0, 0] == 3.0
    assert a[1, 1] == 5.0
    assert np.all(np.diff(a.indices[a.indptr[0]:a.indptr[1]]) > 0) or True
    assert a.has_sorted_indices


def test_symmetry_gap():
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.5, 1.0]]))
    assert symmetry_gap(a) == pytest.approx(0.5)
    assert symmetry_gap(sp.eye(3, format="csr")) == 0.0


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert Factorized(sp.eye(3, format="csr"))(b) == pytest.approx(b)


def test_solve_diagonal():
    a = sp.diags([2.0, 3.0]).tocsr()
    assert Factorized(a)(np.array([2.0, 3.0])) == pytest.approx([1.0, 1.0])


def test_solve_general_permutation():
    a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert Factorized(a)(np.array([1.0, 2.0])) == pytest.approx([2.0, 1.0])


def test_definite_spd(space_n4_l2):
    assert Factorized(space_n4_l2.h1_free()).definite


def test_definite_indefinite():
    a = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not Factorized(a).definite


def test_definite_needs_diagonal_pivots():
    """A zero diagonal forces an off-diagonal pivot: not definite, but
    the factor still solves."""
    a = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    fac = Factorized(a)
    assert not fac.definite
    assert fac(np.array([1.0, 2.0])) == pytest.approx([2.0, 1.0])


def test_solve_spd_residual_contract(space_n4_l2):
    k = space_n4_l2.h1_free()
    b = assemble_load_scalar(space_n4_l2, _one())[space_n4_l2.free_dofs]
    x = Factorized(k, rtol=1e-10)(b)
    assert np.linalg.norm(k @ x - b) <= 1e-10 * np.linalg.norm(b)


def _one():
    from streamfem.manufactured import ScalarField, SpatialTerm, TimeFactor
    return ScalarField([(TimeFactor.one(),
                         SpatialTerm(lambda p: np.ones(p.shape[:-1])))])


def test_spd_and_general_agree(space_n4_l2):
    """The sparse SPD solve agrees with a dense general solve."""
    k = space_n4_l2.h1_free()
    rng = np.random.default_rng(5)
    b = rng.standard_normal(k.shape[0])
    assert Factorized(k)(b) == pytest.approx(
        np.linalg.solve(k.toarray(), b), abs=1e-8)


def test_singular_matrix_raises():
    a = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SolverError):
        Factorized(a)(np.array([1.0, 0.0]))


def test_deterministic_solves(space_n4_l2):
    k = space_n4_l2.h1_free()
    rng = np.random.default_rng(6)
    b = rng.standard_normal(k.shape[0])
    x1 = Factorized(k)(b)
    x2 = Factorized(k)(b)
    assert np.array_equal(x1, x2)


def test_zero_rhs():
    a = sp.eye(4, format="csr") * 2.0
    assert np.all(Factorized(a)(np.zeros(4)) == 0.0)


def test_factorized_reuse(space_n4_l2):
    k = space_n4_l2.h1_free()
    fac = Factorized(k)
    rng = np.random.default_rng(7)
    for _ in range(3):
        b = rng.standard_normal(k.shape[0])
        assert np.linalg.norm(k @ fac(b) - b) <= 1e-10 * np.linalg.norm(b)


def _complex_shifted(space):
    """lambda K + k A for the complex eigenvalue 2 + sqrt(2) i of dG(1)."""
    from streamfem.cip import assemble_cip
    form = assemble_cip(space)
    return ((2.0 + np.sqrt(2.0) * 1j) * space.h1_free()
            + 0.1 * form.matrix_free).tocsr()


@pytest.mark.parametrize("rhs_kind", ["complex", "real"])
def test_complex_symmetric_residual_contract(space_n4_l2, rhs_kind):
    a = _complex_shifted(space_n4_l2)
    assert symmetry_gap(a) == 0.0
    rng = np.random.default_rng(8)
    b = rng.standard_normal(a.shape[0])
    if rhs_kind == "complex":
        b = b + 1j * rng.standard_normal(a.shape[0])
    x = Factorized(a, rtol=1e-10)(b)
    assert np.iscomplexobj(x)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert x == pytest.approx(np.linalg.solve(a.toarray(), b), rel=1e-9)


def test_definite_rejects_complex(space_n4_l2):
    """Definiteness is read off real symmetric factors only."""
    with pytest.raises(ValueError):
        Factorized(_complex_shifted(space_n4_l2)).definite
