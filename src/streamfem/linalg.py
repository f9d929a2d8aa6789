"""Sparse matrix helpers and the linear solver used by all modules.

Storage is scipy CSR throughout.  ``Factorized`` is the one solve
entry point: ``Factorized(a)(b)`` factorizes with sparse LU once, real
or complex, holds every solve to the one residual contract
||Ax - b|| <= _RTOL * ||b|| and certifies definiteness (``definite``).
``refine`` is the iterative refinement behind the contract (up to five
corrections); an operator that is not one matrix, such as the coupled
dG(r) interval system, runs it with its own product and inverse.
``_RTOL`` is read by ``refine`` alone, at every call, so the factors,
the dG(r) sweep and a patch of ``linalg._RTOL`` all see one tolerance.
A correction that fails to halve the residual ends the refinement: the
residual has reached the roundoff floor of the solve, and more
corrections cannot meet the contract (the stopping rule of LAPACK's
xGERFS; Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
ed., SIAM 2002, section 12.1).
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolverError", "build_csr", "largest_entry", "refine",
           "Factorized"]

_CORRECTIONS = 5  # refinement steps before a solve gives up
_RTOL = 1e-10     # relative residual of every solve: the contract


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
    """CSR matrix from triplets in canonical form: ``tocsr`` sums the
    duplicate entries and sorts the column indices of every row."""
    rows, cols = np.asarray(rows).ravel(), np.asarray(cols).ravel()
    return sp.coo_matrix((np.asarray(vals).ravel(), (rows, cols)),
                         shape=shape).tocsr()


def largest_entry(m):
    """The largest stored |entry| of the sparse matrix m, 0 when none is
    stored: ``largest_entry(a - a.T)`` is zero for exactly symmetric
    assembly."""
    return float(np.abs(m.data).max()) if m.nnz else 0.0


def refine(apply, solve, b):
    """x with ||apply(x) - b|| <= _RTOL * ||b||, by iterative refinement.

    ``apply`` is the operator x -> A x and ``solve`` an approximate
    inverse; x = solve(b) is corrected by solve(b - A x) at most
    ``_CORRECTIONS`` times.  Norms are Frobenius norms, so x and b may
    be blocks.  Raises SolverError with the achieved relative residual
    once the corrections run out, or as soon as a correction fails to at
    least halve the residual: the refinement has stalled at its roundoff
    floor (LAPACK xGERFS; Higham, 2nd ed., section 12.1).  ``_RTOL`` is
    read at the call, so the contract is bound in this one place.
    """
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros_like(b)
    x = solve(b)
    last = np.inf
    for step in range(_CORRECTIONS + 1):
        resid = b - apply(x)
        res = np.linalg.norm(resid)
        if res <= _RTOL * norm_b:
            return x
        stalled = res > 0.5 * last
        if stalled or step == _CORRECTIONS:
            break
        last = res
        x = x + solve(resid)
    plural = "" if step == 1 else "s"
    stall = f", stalled after {step} correction{plural}" if stalled else ""
    raise SolverError(f"residual {res / norm_b:.3e} above rtol {_RTOL:.1e}"
                      f"{stall}", residual=res / norm_b)


class Factorized:
    """Reusable sparse LU factorization with per-solve residual checks.

    One ``splu`` per matrix, of its row-norm equilibration D A D (which
    keeps iterative refinement effective on the badly scaled fourth-order
    systems; residuals are verified on A), with three settings: the
    minimum-degree ordering of A^T + A, ``SymmetricMode`` (one
    permutation for rows and columns) and a diagonal pivot threshold of
    0: SuperLU keeps every nonzero diagonal pivot and pivots off the
    diagonal only past an exact zero, such as the zero pressure block of
    the MINI saddle matrix.  A threshold of 0.1 gives the same factors
    on the CIP matrices but pivots off the diagonal about 1 200 times on
    the MINI saddle at n=32, where that destroys the ordering (5.3 M
    instead of 0.6 M fill).  No pivot growth is bounded this way; the
    residual contract and ``refine`` remain the stability guard.  A
    complex A (such as the complex symmetric lambda K + k A of the
    diagonalized dG(r) solve) gets the same factor in complex
    arithmetic and takes real or complex right-hand sides; a real A
    takes real ones.

    A call runs ``refine`` with A and the factor, so it meets the
    contract.  ``refined=False`` drops it: a call is one LU solve, the
    approximate inverse of a caller that runs ``refine`` on its own
    operator (the coupled dG(r) system).

    ``definite`` reads the inertia off that factor: with no row pivoted
    off the diagonal, P D A D P^T = L U with unit lower L, i.e.
    L diag(U) L^T for symmetric A, so by Sylvester's law A is positive
    definite exactly when every pivot is positive.  Threshold 0 keeps
    this exact: elimination in any symmetric order meets only positive
    pivots on a positive definite matrix, so none leaves the diagonal,
    and a matrix that forces one off it (a zero pivot) is not definite.
    It has meaning for real symmetric input only and raises ValueError
    for a complex A.
    """

    def __init__(self, a, refined=True):
        self.a = a.tocsr()
        self.refined = refined
        row_max = np.maximum.reduceat(np.abs(self.a.data), self.a.indptr[:-1]) \
            if self.a.nnz and np.all(np.diff(self.a.indptr) > 0) else None
        if row_max is not None and np.all(row_max > 0.0):
            self._scale = 1.0 / np.sqrt(row_max)
        else:
            self._scale = np.ones(self.a.shape[0])
        # D A D entry by entry, (s_i a_ij) s_j as the products D A and
        # (D A) D round it; like them, it drops the entries that are zero
        scaled = self.a.tocsc()
        scaled.data *= self._scale[scaled.indices]
        scaled.data *= np.repeat(self._scale, np.diff(scaled.indptr))
        scaled.eliminate_zeros()
        try:
            self._lu = spla.splu(scaled,
                                 permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
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
        if not self.refined:
            return self._apply(b)
        return refine(self.a.__matmul__, self._apply, b)
