"""An exact third route to the eta-convolution power, used only by the tests.

Everything runs in exact rationals on tuples of tuples, with no numpy and no
ovfree code: fractions.Fraction, and Gaussian, a pair of Fractions, for
complex entries.  The distribution over A = M_k is that of a Hermitian
Gaussian-rational X in M_{kp}, with A embedded as a -> a (x) 1_p and the
conditional expectation id (x) phi for a diagonal rational state phi on M_p.
Its moments are exact matrix products; its free cumulants follow by the
first-block moment-cumulant recursion; eta = id + sum_i K_i^* . K_i is
applied to the output of every cumulant; the same recursion, run forward,
then gives the eta-power's moments.

A map of n occurrences of X is a dict from each word (c_1, .., c_{n-1}) of
matrix units to a k x k matrix, c = p k + q standing for e_pq, as in the axes
of MultiMap's tensor; one dict holds every order, keyed by the words.
"""

import random
from fractions import Fraction
from itertools import combinations, product


class Gaussian:
    """The Gaussian rational re + i im, re and im Fractions; an int or a
    Fraction combines with it as a real number."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    @staticmethod
    def parts(x):
        return (x.re, x.im) if isinstance(x, Gaussian) else (x, 0)

    def __add__(self, other):
        re, im = Gaussian.parts(other)
        return Gaussian(self.re + re, self.im + im)

    __radd__ = __add__

    def __sub__(self, other):
        re, im = Gaussian.parts(other)
        return Gaussian(self.re - re, self.im - im)

    def __rsub__(self, other):
        re, im = Gaussian.parts(other)
        return Gaussian(re - self.re, im - self.im)

    def __mul__(self, other):
        re, im = Gaussian.parts(other)
        return Gaussian(self.re * re - self.im * im, self.re * im + self.im * re)

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def conjugate(self):
        return Gaussian(self.re, -self.im)


def zeros(n):
    return tuple((Fraction(0),) * n for _ in range(n))


def add(x, y):
    return tuple(tuple(a + b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def sub(x, y):
    return tuple(tuple(a - b for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def scale(t, x):
    return tuple(tuple(t * a for a in row) for row in x)


def mul(x, y):
    cols = tuple(zip(*y))
    return tuple(tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols) for row in x)


def transpose(x):
    return tuple(zip(*x))


def adjoint(x):
    return tuple(tuple(a.conjugate() for a in col) for col in zip(*x))


def unit(k, c):
    """The matrix unit e_pq, c = p k + q."""
    p, q = divmod(c, k)
    return tuple(tuple(Fraction(int(i == p and j == q)) for j in range(k)) for i in range(k))


def rational_case(seed, k, p, imaginary=False):
    """(X, state, kraus): a Hermitian kp x kp X and two k x k Kraus operators
    with entries a / b, |a|, b <= 9, and a positive diagonal state on M_p,
    seeded.  X and the Kraus operators are real symmetric and real, or with
    imaginary, Gaussian with both parts so drawn (X's diagonal real)."""
    rng = random.Random(seed)

    def entry(off_diagonal=True):
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return Gaussian(re, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) if imaginary and off_diagonal else re

    d = k * p
    X = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            X[i][j] = entry(i != j)
            X[j][i] = X[i][j].conjugate()
    weights = [rng.randint(1, 9) for _ in range(p)]
    state = tuple(Fraction(w, sum(weights)) for w in weights)
    kraus = tuple(tuple(tuple(entry() for _ in range(k)) for _ in range(k)) for _ in range(2))
    return tuple(map(tuple, X)), state, kraus


def realization_moments(X, state, k, p, order):
    """E(X (e_c1 (x) 1) X ... (e_c{n-1} (x) 1) X) for every word, n = 1..order.
    Row (i, s) of M_{kp} is i p + s, and E(x)_ij = sum_s phi_s x[(i, s), (j, s)]."""
    d = k * p

    def unit_times(c, y):  # (e_pq (x) 1_p) y: row (p, s) is y's row (q, s), the rest zero
        row, col = divmod(c, k)
        out = list(zeros(d))
        for s in range(p):
            out[row * p + s] = y[col * p + s]
        return tuple(out)

    def cond_exp(x):
        return tuple(
            tuple(sum((state[s] * x[i * p + s][j * p + s] for s in range(p)), Fraction(0)) for j in range(k))
            for i in range(k)
        )

    products, moments = {(): X}, {}
    for n in range(1, order + 1):
        for w in product(range(k * k), repeat=n - 1):
            if w:
                products[w] = mul(products[w[:-1]], unit_times(w[-1], X))
            moments[w] = cond_exp(products[w])
    return moments


def evaluate(f, args, k):
    """The multilinear map f at the k x k matrices args: sum over every word c
    of prod_j args_j[c_j] f[c], skipping zero coefficients."""
    total = zeros(k)
    supports = [[(i * k + j, a) for i, row in enumerate(b) for j, a in enumerate(row) if a] for b in args]
    for picks in product(*supports):
        coeff = Fraction(1)
        for _, a in picks:
            coeff *= a
        total = add(total, scale(coeff, f[tuple(c for c, _ in picks)]))
    return total


def _first_block_terms(w, kappa, moments, k, full):
    """The sum over the non-crossing partitions of the positions 0..n-1 of the
    X's of E(X a_1 X ... a_{n-1} X), a_t = e_{w[t-1]}, that share the first
    block V, for every V holding position 0, the block of every position (the
    one-block partition) only if full.  kappa_V takes, between its elements
    u < v, a_{u+1} M(gap) a_v, or a_v where u + 1 = v; the positions after V's
    last element l enter as the right factor a_{l+1} M(tail)."""
    n = len(w) + 1
    a = (None,) + w
    for size in range(n if full else n - 1):
        for rest in combinations(range(1, n), size):
            V = (0,) + rest
            args = [
                unit(k, a[v]) if v == u + 1 else mul(unit(k, a[u + 1]), mul(moments[a[u + 2 : v]], unit(k, a[v])))
                for u, v in zip(V, V[1:])
            ]
            term = evaluate(kappa, args, k)
            if V[-1] < n - 1:
                term = mul(term, mul(unit(k, a[V[-1] + 1]), moments[a[V[-1] + 2 :]]))
            yield term


def cumulants(moments, k, order):
    """Free cumulants: kappa_w is M_w minus every other partition's term."""
    kappa = {}
    for n in range(1, order + 1):
        for w in product(range(k * k), repeat=n - 1):
            kappa[w] = moments[w]
            for term in _first_block_terms(w, kappa, moments, k, full=False):
                kappa[w] = sub(kappa[w], term)
    return kappa


def moments_from_cumulants(kappa, k, order):
    """Moments: M_w is the sum of every partition's term."""
    moments = {}
    for n in range(1, order + 1):
        for w in product(range(k * k), repeat=n - 1):
            total = zeros(k)
            for term in _first_block_terms(w, kappa, moments, k, full=True):
                total = add(total, term)
            moments[w] = total
    return moments


def apply_eta(kraus, b):
    """eta(b) = b + sum_i K_i^* b K_i."""
    out = b
    for K in kraus:
        out = add(out, mul(mul(adjoint(K), b), K))
    return out


def eta_power_moments(X, state, kraus, k, p, order):
    """The moments of the eta-power of X's distribution, exactly."""
    kappa = cumulants(realization_moments(X, state, k, p, order), k, order)
    return moments_from_cumulants({w: apply_eta(kraus, c) for w, c in kappa.items()}, k, order)
