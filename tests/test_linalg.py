import numpy as np
import pytest
import scipy.sparse as sp

from streamfem import linalg
from streamfem.fem import assemble_load_scalar
from streamfem.linalg import (Factorized, SolverError, build_csr,
                              largest_entry, refine)
from streamfem import manufactured as mf


def test_build_csr_sums_duplicates():
    """Row 0 arrives with columns 2, 0, 2, 1: the duplicate column 2 is
    summed and the row is stored in ascending column order."""
    a = build_csr([0, 0, 0, 0, 1], [2, 0, 2, 1, 1],
                  [1.0, 2.0, 4.0, 8.0, 5.0], (2, 3))
    row = slice(a.indptr[0], a.indptr[1])
    assert a.indices[row].tolist() == [0, 1, 2]
    assert a.data[row].tolist() == [2.0, 8.0, 5.0]
    assert a.indices[a.indptr[1]:].tolist() == [1]
    assert a.data[a.indptr[1]:].tolist() == [5.0]
    assert a.has_sorted_indices


def test_largest_entry():
    """The largest stored |entry|, 0 with none stored: of A - A^T it is
    the symmetry gap."""
    a = sp.csr_matrix(np.array([[1.0, 2.0], [-2.5, 1.0]]))
    assert largest_entry(a) == 2.5
    assert largest_entry(a - a.T) == 4.5
    eye = sp.eye(3, format="csr")
    assert largest_entry(eye - eye.T) == 0.0
    assert largest_entry(sp.csr_matrix((3, 3))) == 0.0


def test_solve_identity():
    b = np.array([3.0, -1.0, 2.0])
    assert Factorized(sp.eye(3, format="csr"))(b) == pytest.approx(b)


def test_solve_diagonal():
    a = sp.diags([2.0, 3.0]).tocsr()
    assert Factorized(a)(np.array([2.0, 3.0])) == pytest.approx([1.0, 1.0])


def test_factorized_solves_a_permutation_matrix():
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
    x = Factorized(k)(b)
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
    assert largest_entry(a - a.T) == 0.0
    rng = np.random.default_rng(8)
    b = rng.standard_normal(a.shape[0])
    if rhs_kind == "complex":
        b = b + 1j * rng.standard_normal(a.shape[0])
    x = Factorized(a)(b)
    assert np.iscomplexobj(x)
    assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert x == pytest.approx(np.linalg.solve(a.toarray(), b), rel=1e-9)


def test_definite_rejects_complex(space_n4_l2):
    """Definiteness is read off real symmetric factors only."""
    with pytest.raises(ValueError):
        Factorized(_complex_shifted(space_n4_l2)).definite


@pytest.mark.parametrize("shift", [1.0, 2.0 + np.sqrt(2.0) * 1j])
def test_equilibration_is_the_sparse_products(space_n4_l2, shift,
                                              monkeypatch):
    """The matrix handed to splu is D A D bit for bit as the products
    D @ A @ D form it, with the explicit zeros they drop dropped."""
    from streamfem import linalg
    from streamfem.cip import assemble_cip
    a = (shift * space_n4_l2.h1_free()
         + 0.1 * assemble_cip(space_n4_l2).matrix_free).tocsr()
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    a.data[np.flatnonzero(a.indices != rows)[:3]] = 0.0  # explicit zeros
    splu, handed = linalg.spla.splu, []
    monkeypatch.setattr(linalg.spla, "splu",
                        lambda m, **kw: handed.append(m) or splu(m, **kw))
    fac = Factorized(a)
    d = sp.diags(fac._scale)
    want = (d @ a @ d).tocsc()
    got, = handed
    assert want.nnz < a.nnz
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.data.dtype == want.data.dtype


def _contracting(factor):
    """A refinement whose residual falls by ``factor`` per solve: apply
    is the identity and solve returns (1 - factor) times its input; the
    calls are counted."""
    calls = []

    def solve(r):
        calls.append(r)
        return (1.0 - factor) * r
    return (lambda x: x), solve, calls


def test_stalled_refinement_raises_after_one_correction(monkeypatch):
    """A correction that fails to halve the residual ends the refinement:
    two solves, not the six of the full budget."""
    monkeypatch.setattr(linalg, "_RTOL", 1e-10)
    apply, solve, calls = _contracting(0.9)
    with pytest.raises(SolverError, match="stalled after 1 correction$") \
            as info:
        refine(apply, solve, np.ones(3))
    assert len(calls) == 2
    assert info.value.residual == pytest.approx(0.81)


def test_halving_refinement_runs_its_corrections(monkeypatch):
    """A residual that falls by 0.4 per step passes after five
    corrections, with the x of the plain refinement bit for bit."""
    monkeypatch.setattr(linalg, "_RTOL", 0.005)
    apply, solve, calls = _contracting(0.4)
    b = np.array([1.0, -2.0, 3.0])
    x = refine(apply, solve, b)
    want = 0.6 * b
    for _ in range(5):
        want = want + 0.6 * (b - want)
    assert len(calls) == 6
    assert x.tobytes() == want.tobytes()


def test_exhausted_refinement_raises_after_five_corrections(monkeypatch):
    """A residual that halves on every step never stalls; below a tiny
    tolerance the budget runs out: six solves, residual 0.5**6, and the
    message names no stall."""
    monkeypatch.setattr(linalg, "_RTOL", 1e-30)
    apply, solve, calls = _contracting(0.5)
    with pytest.raises(SolverError, match="^residual 1.562e-02 above rtol "
                                          "1.0e-30$") as info:
        refine(apply, solve, np.ones(3))
    assert len(calls) == 6
    assert info.value.residual == 0.5 ** 6
    assert "stalled" not in str(info.value)


class _CountingLU:
    """Stands in for a SuperLU factor and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def test_ritz_solve_at_its_floor_stops_after_one_correction(form_n8_l2,
                                                           monkeypatch):
    """Below its roundoff floor the n=8 P2 Ritz solve stalls at once:
    two LU solves instead of six.  The factor reads ``linalg._RTOL`` at
    the call, so the patch reaches it."""
    space = form_n8_l2.space
    rhs = np.array([tf.fn(0.0) for tf, _ in mf.phi().terms]) \
        @ form_n8_l2.pairings(mf.phi())
    monkeypatch.setattr(linalg, "_RTOL", 1e-30)
    fac = Factorized(form_n8_l2.matrix_free)
    fac._lu = _CountingLU(fac._lu)
    with pytest.raises(SolverError, match="stalled after 1 correction") \
            as info:
        fac(rhs[space.free_dofs])
    assert fac._lu.solves == 2
    assert 0.0 < info.value.residual < 1e-13
