"""Constant sparse operators for neighborhood aggregation.

A :class:`CSROperator` is the (n_dst, n_src) weight matrix of one
sampled layer, held as three raw CSR arrays.  It is built once from an
edge list and then applied through SciPy's compiled ``*_matvecs``
kernels, without a ``scipy.sparse`` matrix object in between: building
and validating such an object on every mini-batch cost more than the
kernels themselves.

Canonical order.  Construction runs the same kernels, in the same
order, as ``scipy.sparse.csr_matrix((data, (rows, cols)))``: a counting
sort by row (``coo_tocsr``), a column sort within rows unless they are
already sorted, then duplicate ``(row, col)`` entries summed in that
order.  The entries, and so every float sum over them, are therefore
exactly those of the SciPy matrix.

Transpose for free.  The CSR arrays of A are the CSC arrays of Aᵀ, so
``Aᵀ @ g`` runs ``csc_matvecs`` on the same three arrays.  It adds each
output row's terms in increasing-column order, the order a materialised
``A.T.tocsr()`` would use.

The kernels trust their inputs (a wrong dtype is silently copied, which
loses an in-place result; a wrong length or index reads or writes out
of bounds), so dtypes, lengths, contiguity and index ranges are checked
here before any array reaches them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.sparse import _sparsetools

INDEX_DTYPE = np.dtype(np.int64)
VALUE_DTYPE = np.dtype(np.float32)


def _check_array(name: str, arr: np.ndarray, dtype: np.dtype,
                 length: int) -> None:
    if not isinstance(arr, np.ndarray) or arr.dtype != dtype:
        raise TypeError(f"{name} must be a {dtype} ndarray")
    if arr.ndim != 1 or len(arr) != length:
        raise ValueError(f"{name} must be 1-D of length {length}")
    if not arr.flags.c_contiguous:
        raise ValueError(f"{name} must be C-contiguous")


class CSROperator:
    """A constant (n_rows, n_cols) float32 matrix in canonical CSR.

    Its arrays are checked once here and never written afterwards.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, shape: Tuple[int, int]):
        n_rows, n_cols = (int(s) for s in shape)
        if n_rows < 0 or n_cols < 0:
            raise ValueError(f"bad shape {shape}")
        _check_array("indptr", indptr, INDEX_DTYPE, n_rows + 1)
        if indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
            raise ValueError("indptr must start at 0 and never decrease")
        nnz = int(indptr[-1])
        _check_array("indices", indices, INDEX_DTYPE, nnz)
        _check_array("data", data, VALUE_DTYPE, nnz)
        if nnz and (indices.min() < 0 or indices.max() >= n_cols):
            raise ValueError("column indices out of range")
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self.shape = (n_rows, n_cols)

    @classmethod
    def from_coo(cls, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray, shape: Tuple[int, int]) -> "CSROperator":
        """Sum the entries ``vals[e]`` at ``(rows[e], cols[e])``."""
        n_rows, n_cols = (int(s) for s in shape)
        rows = np.ascontiguousarray(rows, dtype=INDEX_DTYPE)
        cols = np.ascontiguousarray(cols, dtype=INDEX_DTYPE)
        vals = np.ascontiguousarray(vals, dtype=VALUE_DTYPE)
        nnz = len(vals)
        if len(rows) != nnz or len(cols) != nnz:
            raise ValueError("rows, cols and vals differ in length")
        # coo_tocsr counts rows into indptr by index; columns are only
        # copied, and the constructor checks them.
        if nnz and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row indices out of range")
        indptr = np.empty(n_rows + 1, dtype=INDEX_DTYPE)
        indices = np.empty(nnz, dtype=INDEX_DTYPE)
        data = np.empty(nnz, dtype=VALUE_DTYPE)
        _sparsetools.coo_tocsr(n_rows, n_cols, nnz, rows, cols, vals,
                               indptr, indices, data)
        if not _sparsetools.csr_has_sorted_indices(n_rows, indptr, indices):
            _sparsetools.csr_sort_indices(n_rows, indptr, indices, data)
        _sparsetools.csr_sum_duplicates(n_rows, n_cols, indptr, indices,
                                        data)
        nnz = int(indptr[-1])
        return cls(indptr, indices[:nnz], data[:nnz], (n_rows, n_cols))

    def _dense_operand(self, x: np.ndarray, rows: int) -> np.ndarray:
        if not isinstance(x, np.ndarray) or x.dtype != VALUE_DTYPE:
            raise TypeError("dense operand must be a float32 ndarray")
        if x.ndim != 2 or x.shape[0] != rows:
            raise ValueError(
                f"dense operand shape {x.shape} does not match operator "
                f"shape {self.shape}")
        return np.ascontiguousarray(x)

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` for a dense (n_cols, d) float32 array."""
        n_rows, n_cols = self.shape
        x = self._dense_operand(x, n_cols)
        out = np.zeros((n_rows, x.shape[1]), dtype=VALUE_DTYPE)
        _sparsetools.csr_matvecs(n_rows, n_cols, x.shape[1], self.indptr,
                                 self.indices, self.data, x.ravel(),
                                 out.ravel())
        return out

    def rmatmul(self, g: np.ndarray) -> np.ndarray:
        """``Aᵀ @ g`` for a dense (n_rows, d) float32 array."""
        n_rows, n_cols = self.shape
        g = self._dense_operand(g, n_rows)
        out = np.zeros((n_cols, g.shape[1]), dtype=VALUE_DTYPE)
        _sparsetools.csc_matvecs(n_cols, n_rows, g.shape[1], self.indptr,
                                 self.indices, self.data, g.ravel(),
                                 out.ravel())
        return out
