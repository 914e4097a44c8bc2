"""Dense complex linear algebra over the base algebra A = M_k(C).

Plain complex numpy arrays stand for elements of A, and so do block matrices
over A: a W x W grid of k x k blocks is held with axes (W, k, W, k), so that
reshaping it to (W*k, W*k) gives the ordinary block matrix, block (i, j) at
rows i*k:(i+1)*k and columns j*k:(j+1)*k.

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


def read_only(a) -> np.ndarray:
    """A private read-only complex copy of a, as every value object stores
    its arrays: a caller mutating its own array cannot change the value."""
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


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
    units = np.eye(k * k, dtype=complex).reshape(k * k, k, k)
    units.setflags(write=False)
    return units


def unit_adjoint_index(c: int, k: int) -> int:
    """Index of e_c^* in the matrix-unit ordering: (p, q) -> (q, p)."""
    p, q = divmod(c, k)
    return q * k + p


@dataclass(frozen=True)
class PSDReport:
    """Smallest-eigenvalue certificate for a Hermitian matrix.

    witness is a unit-norm eigenvector attached exactly when min_eigenvalue
    lies below -tol; then <witness, M witness> = min_eigenvalue up to tol.
    """

    min_eigenvalue: float
    witness: Optional[np.ndarray]
    tol: float

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness", read_only(self.witness))

    @property
    def is_psd(self) -> bool:
        return self.min_eigenvalue >= -self.tol


def psd_check(m: np.ndarray, tol: float = DEFAULT_TOL) -> PSDReport:
    """Dense eigenvalue-based PSD certificate.

    The input must be finite and Hermitian within 10*tol; it is symmetrized
    before the eigensolve so the reported spectrum is that of (m + m^dagger)/2.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("psd_check expects a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("psd_check expects finite entries")
    asym = float(np.max(np.abs(m - dagger(m))))
    if asym > 10.0 * tol:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {asym:.3e} exceeds {10.0 * tol:.3e}"
        )
    herm = m / 2.0 + dagger(m) / 2.0  # halved first: a finite m cannot overflow
    vals, vecs = np.linalg.eigh(herm)
    lam = float(vals[0])
    witness = vecs[:, 0] if lam < -tol else None
    return PSDReport(min_eigenvalue=lam, witness=witness, tol=float(tol))
