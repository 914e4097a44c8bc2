"""Linear maps eta: M_k -> M_k in Choi form, with Kraus decompositions,
complete-positivity certificates, and blockwise amplifications id_m (x) eta.

Conventions, pinned by a dedicated unit test:

  * the Choi matrix carries action(e_pq) in block (p, q), i.e.
    choi = sum_pq kron(e_pq, action(e_pq));
  * a Kraus family acts as apply(a) = sum_i K_i^* a K_i;
  * vec(K) stacks the columns of K^dagger (equivalently, the rows of the
    entrywise conjugate of K), so that choi = sum_i vec(K_i) vec(K_i)^*.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

import numpy as np

from .algebra import DEFAULT_TOL, PSDReport, PreconditionError, check_array_size, hermitian_spectrum, matrix_units, negligible, psd_check, read_only


class NotCompletelyPositiveError(PreconditionError):
    """Raised when a Kraus decomposition of a non-CP map is requested; its
    report's witness exhibits the negative Choi direction."""


def _vec(K: np.ndarray) -> np.ndarray:
    """Column-stacking of K^dagger (row-major flatten of conj(K))."""
    return np.conjugate(K).reshape(-1)


class CPMap:
    """A linear map on M_k stored through its k^2 x k^2 Choi matrix.

    The name is aspirational: instances may hold arbitrary linear maps (for
    example eta - id); complete positivity is what is_cp certifies.  The map
    is immutable: it owns a read-only copy of its Choi matrix, and neither
    k nor choi can be rebound.
    """

    def __init__(self, k: int, choi: np.ndarray):
        choi = read_only(choi)
        if choi.shape != (k * k, k * k):
            raise ValueError(f"choi must be {k * k}x{k * k} for k={k}")
        object.__setattr__(self, "k", int(k))
        object.__setattr__(self, "choi", choi)

    def __setattr__(self, name, value):
        raise AttributeError(f"CPMap is immutable: cannot assign '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"CPMap is immutable: cannot delete '{name}'")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_action(cls, k: int, action: Callable[[np.ndarray], np.ndarray]) -> "CPMap":
        """Build the Choi matrix from the values of the map on matrix units."""
        return cls.from_unit_values(k, [action(u) for u in matrix_units(k)])

    @classmethod
    def from_unit_values(cls, k: int, values: Sequence[np.ndarray]) -> "CPMap":
        """Choi matrix from the k^2 values action(e_pq), in unit order."""
        values = [np.asarray(v, dtype=complex) for v in values]
        if len(values) != k * k:
            raise ValueError(f"need {k * k} matrices, one per matrix unit")
        if any(v.shape != (k, k) for v in values):
            raise ValueError("unit values must be k x k matrices")
        choi4 = np.stack(values).reshape(k, k, k, k).transpose(0, 2, 1, 3)
        return cls(k, choi4.reshape(k * k, k * k))

    @classmethod
    def from_kraus(cls, k: int, kraus: Iterable[np.ndarray]) -> "CPMap":
        kraus = [np.asarray(K, dtype=complex) for K in kraus]
        if any(K.shape != (k, k) for K in kraus):
            raise ValueError(f"Kraus operators must be {k} x {k}")
        check_array_size(k**4, f"the Choi matrix of a map on M_{k}")
        choi = np.zeros((k * k, k * k), dtype=complex)
        for K in kraus:
            v = _vec(K)
            choi += np.outer(v, v.conj())
        return cls(k, choi)

    @classmethod
    def identity(cls, k: int) -> "CPMap":
        return cls.from_kraus(k, [np.eye(k)])

    @classmethod
    def scaled_identity(cls, k: int, t: float) -> "CPMap":
        return cls(k, t * cls.identity(k).choi)

    @classmethod
    def transpose_map(cls, k: int) -> "CPMap":
        return cls.from_action(k, lambda a: a.T.copy())

    @classmethod
    def zero(cls, k: int) -> "CPMap":
        return cls(k, np.zeros((k * k, k * k), dtype=complex))

    # -- basic algebra -----------------------------------------------------

    @property
    def choi4(self) -> np.ndarray:
        return self.choi.reshape(self.k, self.k, self.k, self.k)

    def apply(self, a: np.ndarray) -> np.ndarray:
        """self(a) for a in M_k, or for each k x k matrix along leading batch
        axes, bit for bit as einsum("...pq,piqj->...ij", a, choi4)."""
        a, k = np.asarray(a, dtype=complex), self.k
        if a.shape[-2:] != (k, k):
            raise ValueError(f"expected {k}x{k} matrices, got shape {a.shape}")
        choi = np.ascontiguousarray(self.choi4.transpose(1, 3, 0, 2))  # same products, same (p, q) order, faster
        return np.einsum("npq,ijpq->nij", a.reshape(-1, k, k), choi).reshape(a.shape)

    def compose(self, inner: "CPMap") -> "CPMap":
        """The map a -> self(inner(a))."""
        self._check_same(inner)
        return CPMap.from_action(self.k, lambda a: self.apply(inner.apply(a)))

    def minus_id(self) -> "CPMap":
        """The map a -> self(a) - a."""
        return CPMap(self.k, self.choi - CPMap.identity(self.k).choi)

    def _check_same(self, other: "CPMap") -> None:
        if self.k != other.k:
            raise ValueError("maps act on different matrix algebras")

    # -- positivity and Kraus form -----------------------------------------

    def is_cp(self, tol: float = DEFAULT_TOL) -> PSDReport:
        """CP iff the Choi matrix is PSD; the report carries a witness if not."""
        return psd_check(self.choi, tol)

    def kraus(self, tol: float = DEFAULT_TOL) -> List[np.ndarray]:
        """Minimal Kraus family via Choi eigendecomposition.

        Eigenvalues negligible against the Choi matrix are discarded, so the
        number of returned operators equals the Choi rank at tol.  Each K is
        normalized to make its largest-modulus entry real positive, which
        fixes the eigenvector phase ambiguity deterministically.  The same
        eigensolve decides complete positivity.
        """
        report, vals, vecs = hermitian_spectrum(self.choi, tol)
        if not report.is_psd:
            raise NotCompletelyPositiveError(
                f"map is not completely positive (min Choi eigenvalue {report.min_eigenvalue:.3e})",
                report,
            )
        ops: List[np.ndarray] = []
        for i in range(len(vals) - 1, -1, -1):
            if negligible(vals[i], self.choi, tol):
                break
            v = np.sqrt(vals[i]) * vecs[:, i]
            K = np.conjugate(v.reshape(self.k, self.k))
            j = int(np.argmax(np.abs(K)))
            phase = K.reshape(-1)[j]
            K = K * np.conjugate(phase / abs(phase))
            ops.append(K)
        return ops

    def amplify(self, m: int) -> "CPMap":
        """The blockwise map id_m (x) self on M_{m*k}.

        An (m*k) x (m*k) matrix is read as an m x m grid of k x k blocks and
        the map is applied to every block.
        """
        if int(m) < 1:
            raise ValueError("amplification order must be >= 1")
        m = int(m)
        eye = np.eye(m)
        choi8 = np.einsum("ua,vc,ibjd->uiabvjcd", eye, eye, self.choi4)
        n = m * self.k
        return CPMap(n, choi8.reshape(n * n, n * n))


def eta_minus_id_cp(eta: CPMap, tol: float = DEFAULT_TOL) -> PSDReport:
    """PSD certificate for the Choi matrix of a -> eta(a) - a."""
    return eta.minus_id().is_cp(tol)
