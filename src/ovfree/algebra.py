"""Dense complex linear algebra over the base algebra A = M_k(C).

Plain complex numpy arrays stand for elements of A.  AMatrix is a rectangular
grid of A-entries acting by left multiplication on right-module coordinate
columns; flattening it to an ordinary block matrix is a *-homomorphism, which
is the only fact the rest of the library relies on.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

DEFAULT_TOL = 1e-9
MAX_ARRAY_BYTES = 800_000_000  # 50M complex128 entries


def check_array_size(entries: int, what: str) -> None:
    """The one array-size rule: refuse, before allocating it, a complex array
    of more than MAX_ARRAY_BYTES."""
    size = 16 * int(entries)
    if size > MAX_ARRAY_BYTES:
        raise ValueError(
            f"{what} would need {size / 1e6:,.0f} MB, above the {MAX_ARRAY_BYTES / 1e6:,.0f} MB "
            "array limit; reduce the order, k or the Kraus rank"
        )


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the trailing two axes)."""
    return np.conjugate(np.swapaxes(np.asarray(a), -1, -2))


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a - dagger(a))) <= tol)


@lru_cache(maxsize=None)
def matrix_units(k: int) -> np.ndarray:
    """Array of shape (k*k, k, k); entry p*k + q is the matrix unit e_pq.

    This row-major ordering is the coordinate convention used everywhere:
    an element a of M_k has coordinate vector a.reshape(k*k).
    """
    units = np.zeros((k * k, k, k), dtype=complex)
    for p in range(k):
        for q in range(k):
            units[p * k + q, p, q] = 1.0
    units.setflags(write=False)
    return units


def unit_adjoint_index(c: int, k: int) -> int:
    """Index of e_c^* in the matrix-unit ordering: (p, q) -> (q, p)."""
    p, q = divmod(c, k)
    return q * k + p


@dataclass(frozen=True)
class AMatrix:
    """rows x cols grid of k x k complex blocks.

    Flattening places block (r, c) at rows r*k:(r+1)*k and columns
    c*k:(c+1)*k, so flatten(a @ b) = flatten(a) @ flatten(b) and
    flatten(a.adjoint()) = flatten(a)^dagger for square grids.
    """

    blocks: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=complex)
        if b.ndim != 4 or b.shape[2] != b.shape[3]:
            raise ValueError("blocks must have shape (rows, cols, k, k)")
        if not np.all(np.isfinite(b)):
            raise ValueError("AMatrix entries must be finite")
        object.__setattr__(self, "blocks", b)

    @property
    def rows(self) -> int:
        return self.blocks.shape[0]

    @property
    def cols(self) -> int:
        return self.blocks.shape[1]

    @property
    def k(self) -> int:
        return self.blocks.shape[2]

    @classmethod
    def identity(cls, n: int, k: int) -> "AMatrix":
        blocks = np.zeros((n, n, k, k), dtype=complex)
        idx = np.arange(n)
        blocks[idx, idx] = np.eye(k)
        return cls(blocks)

    @classmethod
    def zeros(cls, rows: int, cols: int, k: int) -> "AMatrix":
        return cls(np.zeros((rows, cols, k, k), dtype=complex))

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[i, j]

    def __matmul__(self, other: "AMatrix") -> "AMatrix":
        if self.cols != other.rows or self.k != other.k:
            raise ValueError("AMatrix dimension mismatch in product")
        return AMatrix(np.einsum("rcij,csjl->rsil", self.blocks, other.blocks))

    def __add__(self, other: "AMatrix") -> "AMatrix":
        return AMatrix(self.blocks + other.blocks)

    def __sub__(self, other: "AMatrix") -> "AMatrix":
        return AMatrix(self.blocks - other.blocks)

    def adjoint(self) -> "AMatrix":
        return AMatrix(self.blocks.transpose(1, 0, 3, 2).conj())

    def allclose(self, other: "AMatrix", tol: float = 1e-12) -> bool:
        return (
            self.blocks.shape == other.blocks.shape
            and float(np.max(np.abs(self.blocks - other.blocks))) <= tol
        )


def flatten(m: AMatrix) -> np.ndarray:
    """Flatten a square AMatrix to a (rows*k) x (rows*k) complex block matrix.

    Restricted to square grids, where it is multiplicative and *-preserving.
    """
    if m.rows != m.cols:
        raise ValueError(f"flatten requires a square AMatrix, got {m.rows}x{m.cols}")
    return m.blocks.transpose(0, 2, 1, 3).reshape(m.rows * m.k, m.cols * m.k)


@dataclass(frozen=True)
class PSDReport:
    """Smallest-eigenvalue certificate for a Hermitian matrix.

    witness is a unit-norm eigenvector attached exactly when min_eigenvalue
    lies below -tol; then <witness, M witness> = min_eigenvalue up to tol.
    """

    min_eigenvalue: float
    witness: Optional[np.ndarray]
    tol: float

    @property
    def is_psd(self) -> bool:
        return self.min_eigenvalue >= -self.tol


def psd_check(m: np.ndarray, tol: float = DEFAULT_TOL) -> PSDReport:
    """Dense eigenvalue-based PSD certificate.

    The input must be Hermitian within 10*tol; it is symmetrized before the
    eigensolve so the reported spectrum is that of (m + m^dagger)/2.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("psd_check expects a square matrix")
    asym = float(np.max(np.abs(m - dagger(m))))
    if asym > 10.0 * tol:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds {10.0 * tol:.3e}"
        )
    herm = (m + dagger(m)) / 2.0
    vals, vecs = np.linalg.eigh(herm)
    lam = float(vals[0])
    witness = vecs[:, 0].copy() if lam < -tol else None
    return PSDReport(min_eigenvalue=lam, witness=witness, tol=float(tol))
