"""Sparse matrix helpers and the linear solver used by all modules.

Storage is scipy CSR throughout.  ``Factorized`` is the one solve
entry point: ``Factorized(a)(b)`` factorizes with sparse LU once, real
or complex, and holds every solve to its residual contract
||Ax - b|| <= rtol * ||b||.  ``refine`` is the one iterative-refinement
loop behind that contract (up to five correction steps before giving
up); operators that are not a single matrix, such as the coupled dG(r)
interval system, use it with their own product and approximate inverse.
The same factor certifies positive definiteness (``definite``).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolverError", "build_csr", "symmetry_gap", "refine",
           "Factorized"]

_CORRECTIONS = 5  # refinement steps before a solve gives up


class SolverError(RuntimeError):
    """Linear solve failed to meet its residual contract.

    ``residual`` is the achieved relative residual (None when the
    factorization itself failed); ``interval`` is the 1-based time
    interval of a transient solve, None outside one.
    """

    def __init__(self, message, residual=None, interval=None):
        super().__init__(message)
        self.residual = residual
        self.interval = interval


def build_csr(rows, cols, vals, shape):
    """CSR matrix from triplets; duplicate entries are summed."""
    mat = sp.coo_matrix((np.asarray(vals).ravel(),
                         (np.asarray(rows).ravel(), np.asarray(cols).ravel())),
                        shape=shape).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def symmetry_gap(a):
    """max |A - A^T|, zero for exactly symmetric assembly."""
    d = (a - a.T).tocoo()
    return float(np.abs(d.data).max()) if d.nnz else 0.0


def refine(apply, solve, b, rtol):
    """x with ||apply(x) - b|| <= rtol * ||b||, by iterative refinement.

    ``apply`` is the operator x -> A x and ``solve`` an approximate
    inverse; x = solve(b) is corrected by solve(b - A x) at most
    ``_CORRECTIONS`` times.  Norms are Frobenius norms, so x and b may
    be blocks.  Raises SolverError with the achieved relative residual.
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    x = solve(b)
    for step in range(_CORRECTIONS + 1):
        resid = b - apply(x)
        res = np.linalg.norm(resid)
        if res <= rtol * norm_b:
            return x
        if step < _CORRECTIONS:
            x = x + solve(resid)
    raise SolverError(f"residual {res / norm_b:.3e} above rtol {rtol:.1e}",
                      residual=res / norm_b)


class Factorized:
    """Reusable sparse LU factorization with per-solve residual checks.

    One ``splu`` per matrix, of its row-norm equilibration D A D (which
    keeps iterative refinement effective on the badly scaled fourth-order
    systems; residuals are verified on A), with three settings: the
    minimum-degree ordering of A^T + A, ``SymmetricMode`` (one
    permutation for rows and columns) and a diagonal pivot threshold of
    0.1.  Nonsymmetric systems still pivot off the diagonal as needed.
    A complex A (such as the complex symmetric lambda K + k A of the
    diagonalized dG(r) solve) gets the same factor in complex
    arithmetic and takes real or complex right-hand sides; a real A
    takes real ones.

    ``rtol=None`` drops the factor's own contract: a call is one LU
    solve, the approximate inverse of a caller that runs ``refine`` on
    its own operator (the coupled dG(r) system).

    ``definite`` reads the inertia off that factor: with no row pivoted
    off the diagonal, P D A D P^T = L U with unit lower L, i.e.
    L diag(U) L^T for symmetric A, so by Sylvester's law A is positive
    definite exactly when every pivot is positive.  It has meaning for
    real symmetric input only and raises ValueError for a complex A.
    """

    def __init__(self, a, rtol=1e-10):
        self.a = a.tocsr()
        self.rtol = rtol
        row_max = np.maximum.reduceat(np.abs(self.a.data), self.a.indptr[:-1]) \
            if self.a.nnz and np.all(np.diff(self.a.indptr) > 0) else None
        if row_max is not None and np.all(row_max > 0.0):
            self._scale = 1.0 / np.sqrt(row_max)
        else:
            self._scale = np.ones(self.a.shape[0])
        d = sp.diags(self._scale)
        try:
            self._lu = spla.splu((d @ self.a @ d).tocsc(),
                                 permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.1,
                                 options={"SymmetricMode": True})
        except RuntimeError as exc:  # singular factor
            raise SolverError(f"factorization failed: {exc}") from exc

    @property
    def definite(self):
        """True when the real symmetric matrix is positive definite."""
        if np.iscomplexobj(self.a):
            raise ValueError("definiteness needs a real symmetric matrix")
        return bool(np.array_equal(self._lu.perm_r, self._lu.perm_c)
                    and np.all(self._lu.U.diagonal() > 0.0))

    def _apply(self, b):
        return self._scale * self._lu.solve(self._scale * b)

    def __call__(self, b):
        b = np.asarray(b)
        b = b.astype(np.result_type(b.dtype, float), copy=False)
        if self.rtol is None:
            return self._apply(b)
        return refine(self.a.__matmul__, self._apply, b, self.rtol)
