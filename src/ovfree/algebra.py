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
from typing import Optional, Tuple

import numpy as np

DEFAULT_TOL = 1e-9
MAX_ARRAY_BYTES = 800_000_000  # 50M complex128 entries


def negligible(x, against, tol: float = DEFAULT_TOL) -> bool:
    """The one tolerance rule, behind every zero test of a verdict: x is zero
    against a number or array of largest absolute entry s when x's largest
    absolute entry is at most tol * max(1, s).  A NaN x never is."""
    return bool(np.max(np.abs(x), initial=0.0) <= tol * max(1.0, np.max(np.abs(against), initial=0.0)))


class PreconditionError(ValueError):
    """A refused precondition, which carries the PSDReport that certifies it,
    or None: the CLI exits 3 and prints both."""

    def __init__(self, message: str, report: Optional[PSDReport] = None):
        super().__init__(message)
        self.report = report


def check_array_size(entries: int, what: str) -> None:
    """The one array-size rule: refuse, before allocating it, a complex array
    of more than MAX_ARRAY_BYTES."""
    size = 16 * int(entries)
    if size > MAX_ARRAY_BYTES:
        raise ValueError(
            f"{what} would need {size / 1e6:,.0f} MB, above the {MAX_ARRAY_BYTES / 1e6:,.0f} MB "
            "array limit; reduce the order, k or the Kraus rank"
        )


def freeze(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only in place."""
    a.setflags(write=False)
    return a


def read_only(a) -> np.ndarray:
    """A private read-only C-contiguous complex copy of a, as every value
    object stores its arrays: a caller mutating its own array cannot change
    the value, and no result computed from it depends on a's strides (an
    einsum reduction sums in stride order)."""
    return freeze(np.array(a, dtype=complex, order="C"))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the trailing two axes)."""
    return np.conjugate(np.swapaxes(np.asarray(a), -1, -2))


@lru_cache(maxsize=None)
def matrix_units(k: int) -> np.ndarray:
    """Array of shape (k*k, k, k); entry p*k + q is the matrix unit e_pq.

    This row-major ordering is the coordinate convention used everywhere:
    an element a of M_k has coordinate vector a.reshape(k*k).
    """
    return freeze(np.eye(k * k, dtype=complex).reshape(k * k, k, k))


def unit_adjoint_index(c: int, k: int) -> int:
    """Index of e_c^* in the matrix-unit ordering: (p, q) -> (q, p)."""
    p, q = divmod(c, k)
    return q * k + p


@dataclass(frozen=True)
class PSDReport:
    """Smallest-eigenvalue certificate for a Hermitian matrix M, PSD up to tol
    exactly when no witness is attached (psd_check's rule).  A witness is a
    unit vector with <witness, M witness> = min_eigenvalue < 0, up to
    rounding; min_eigenvalue is then M's smallest eigenvalue, or, where the
    verdict was read at the rows' own scale (against the row-scaled matrix's
    largest eigenvalue), an upper bound on it."""

    min_eigenvalue: float
    witness: Optional[np.ndarray]
    tol: float

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness", read_only(self.witness))

    @property
    def is_psd(self) -> bool:
        return self.witness is None


def psd_check(m: np.ndarray, tol: float = DEFAULT_TOL) -> PSDReport:
    """Dense eigenvalue-based PSD certificate.

    The input must be finite and Hermitian: its asymmetry must be negligible
    against it at 10 * tol, the gate's margin for input rounded elsewhere.
    It is symmetrized before the eigensolve, so the reported spectrum is that
    of H = (m + m^dagger)/2.  A smallest eigenvalue of H not negligible
    against m decides alone.  Otherwise H is PSD unless, with D =
    diag(max(1, |h_ii|)), the smallest eigenvalue of S = D^-1/2 H D^-1/2
    (whose entries are at most 1 in size where H is PSD) is negative and not
    negligible against S's largest eigenvalue, whose rounding grows with the
    size of the matrix.  The congruence keeps the signs of the eigenvalues
    and brings every row to its own scale, so a graded matrix, as a moment
    matrix is, cannot hide a negative block under the rounding of its
    largest entries.
    """
    return hermitian_spectrum(m, tol)[0]


def hermitian_spectrum(m: np.ndarray, tol: float = DEFAULT_TOL) -> Tuple[PSDReport, np.ndarray, np.ndarray]:
    """psd_check's report with the eigenvalues (ascending) and eigenvectors
    (columns) of H it was read from."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("psd_check expects a square matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("psd_check expects finite entries")
    scale, asym = np.max(np.abs(m), initial=0.0), m - dagger(m)
    if not negligible(asym, scale, 10.0 * tol):
        raise ValueError(f"matrix is not Hermitian: asymmetry {np.max(np.abs(asym)):.3e} is not negligible at tol {10.0 * tol:.1e}")
    herm = m / 2.0 + dagger(m) / 2.0  # halved first: a finite m cannot overflow
    vals, vecs = np.linalg.eigh(herm)
    lam, witness = float(vals[0]), (None if vals[0] > 0 else vecs[:, 0])
    if negligible(lam, scale, tol):  # within the largest entries' rounding: read the sign at each row's own scale
        r = 1.0 / np.sqrt(np.maximum(1.0, np.abs(np.diag(herm))))
        svals, svecs = np.linalg.eigh(herm * np.outer(r, r))
        witness = r * svecs[:, 0]  # <witness, H witness> = svals[0]
        if svals[0] >= 0 or negligible(svals[0], svals[-1], tol):
            witness = None
        else:
            lam = float(svals[0]) / float(np.vdot(witness, witness).real)
            witness = witness / np.linalg.norm(witness)
    return PSDReport(min_eigenvalue=lam, witness=witness, tol=float(tol)), vals, vecs
