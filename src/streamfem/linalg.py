"""Sparse matrix helpers and the linear solver used by all modules.

Storage is scipy CSR throughout.  ``Factorized`` is the one solve
entry point: ``Factorized(a)(b)`` factorizes with sparse LU once and
holds every solve to its residual contract ||Ax - b|| <= rtol * ||b||,
applying up to five steps of iterative refinement before giving up.
The same factor certifies positive definiteness (``definite``).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolverError", "build_csr", "symmetry_gap", "Factorized"]


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


class Factorized:
    """Reusable sparse LU factorization with per-solve residual checks.

    One ``splu`` per matrix, of its row-norm equilibration D A D (which
    keeps iterative refinement effective on the badly scaled fourth-order
    systems; residuals are verified on A), with three settings: the
    minimum-degree ordering of A^T + A, ``SymmetricMode`` (one
    permutation for rows and columns) and a diagonal pivot threshold of
    0.1.  Nonsymmetric systems still pivot off the diagonal as needed.

    ``definite`` reads the inertia off that factor: with no row pivoted
    off the diagonal, P D A D P^T = L U with unit lower L, i.e.
    L diag(U) L^T for symmetric A, so by Sylvester's law A is positive
    definite exactly when every pivot is positive.  It has meaning for
    symmetric input only.
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
        """True when the (symmetric) matrix is positive definite."""
        return bool(np.array_equal(self._lu.perm_r, self._lu.perm_c)
                    and np.all(self._lu.U.diagonal() > 0.0))

    def _apply(self, b):
        return self._scale * self._lu.solve(self._scale * b)

    def __call__(self, b):
        b = np.asarray(b, dtype=float)
        norm_b = np.linalg.norm(b)
        if norm_b == 0.0:
            return np.zeros_like(b)
        x = self._apply(b)
        res = np.linalg.norm(self.a @ x - b)
        for _ in range(5):
            if res <= self.rtol * norm_b:
                return x
            x = x + self._apply(b - self.a @ x)
            res = np.linalg.norm(self.a @ x - b)
        if res > self.rtol * norm_b:
            raise SolverError(
                f"residual {res / norm_b:.3e} above rtol {self.rtol:.1e}",
                residual=res / norm_b)
        return x
