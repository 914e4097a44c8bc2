"""Shared random-instance generators for the test suite."""

import gc

import numpy as np
import pytest

from ovfree.cpmaps import CPMap
from ovfree.multimap import MultiMap
from ovfree.ovdist import Realization


@pytest.fixture(autouse=True)
def _unfreeze_after_cli():
    """cli.main freezes every object alive in its process, a test session
    too; unfreezing after each test lets the next collections free the
    session's garbage cycles again."""
    yield
    gc.unfreeze()


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def random_hermitian(rng, n, scale=1.0):
    h = random_complex(rng, (n, n), scale)
    return (h + h.conj().T) / 2


def random_density(rng, n):
    g = random_complex(rng, (n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cp(rng, k, rank=1, scale=0.5):
    """Random completely positive map with the given Kraus rank."""
    return CPMap.from_kraus(k, [random_complex(rng, (k, k), scale) for _ in range(rank)])


def random_eta(rng, k, rank=1, scale=0.5):
    """eta = id + psi for a random CP psi, so eta - id is CP by construction."""
    psi = random_cp(rng, k, rank=rank, scale=scale)
    return CPMap(k, CPMap.identity(k).choi + psi.choi)


def random_realization(rng, k=2, p=2, scale=1.0):
    return Realization(
        k=k, p=p, X=random_hermitian(rng, k * p, scale), rho=random_density(rng, p)
    )


def random_symmetric_cumulants(rng, k, order, scale=1.0):
    """Random cumulant family satisfying the Hermitian symmetry."""
    cums = []
    for n in range(1, order + 1):
        t = random_complex(rng, (k * k,) * (n - 1) + (k, k), scale)
        m = MultiMap(k, t)
        cums.append((m + m.herm_reflect()) * 0.5)
    return cums


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def built_orders(monkeypatch):
    """The order of every distribution built while the test runs."""
    from ovfree.ovdist import OVDistribution

    orders = []
    post_init = OVDistribution.__post_init__
    monkeypatch.setattr(OVDistribution, "__post_init__", lambda self: orders.append(self.order) or post_init(self))
    return orders
