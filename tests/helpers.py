"""Shared fixtures for the test suite: reference shapes, random parameter
draws, hand-expanded entry tables, and a brute-force Givens product that is
independent of the package's own window materialization."""

from functools import reduce

import numpy as np

from snakefact.schur import SchurSequence
from snakefact.snake import GeneratingSequence, SnakeFactorization

# Mixed shape exercising both orientations, from the monomial order
# 1, z^-1, z, z^-2, z^2, z^3, z^-3, z^-4, z^4, z^5.
MIXED_MONOMIALS = (0, -1, 1, -2, 2, 3, -3, -4, 4, 5)
MIXED_BITS = (1, 0, 1, 0, 0, 1, 1, 0, 0)


def random_schur(rng, count, lo=0.1, hi=0.8):
    mods = rng.uniform(lo, hi, size=count)
    args = rng.uniform(-np.pi, np.pi, size=count)
    return SchurSequence(mods * np.exp(1j * args))


def parameter_family(rng, family, count, lo, hi):
    """Schur parameters: all zero, or with |alpha| in [lo, hi] and real, purely
    imaginary, of random phase, or of random phase with every third one zero,
    or of random phase at |alpha| = 0.999."""
    if family == "zero":
        return np.zeros(count, dtype=complex)
    mods = rng.uniform(lo, hi, size=count)
    if family == "real":
        return mods * rng.choice([-1.0, 1.0], size=count) + 0j
    if family == "imaginary":
        return 1j * mods * rng.choice([-1.0, 1.0], size=count)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=count))
    if family == "near_one":
        return 0.999 * phases
    alphas = mods * phases
    if family == "third_zero":
        alphas[::3] = 0.0
    return alphas


def random_bits(rng, m):
    return tuple(int(b) for b in rng.integers(0, 2, size=m))


def grid64():
    """Angles and weights of 64 atoms at random angles.

    The atoms carry 63 Schur parameters, but in float64 the moment route
    recovers them only to about 48: Gram-Schmidt loses orthonormality by
    56, and the Toeplitz matrix at jmax = 63 does not factor.
    """
    rng = np.random.default_rng(3)
    thetas = np.sort(rng.uniform(-np.pi, np.pi, 64))
    weights = rng.uniform(0.5, 1.5, 64)
    return thetas, weights / weights.sum()


def count_eig_calls(monkeypatch):
    """Record the shape of each input to numpy.linalg.eig.

    The rule calls it only where its Cayley pass fails; ``eigen_unitary``
    calls it once, always.
    """
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda m: calls.append(m.shape) or eig(m))
    return calls


def embedded_givens(size, k, block):
    """Full size x size matrix of a Givens factor."""
    g = np.eye(size, dtype=complex)
    g[k : k + 2, k : k + 2] = block
    return g


def brute_force_product(snake: SnakeFactorization, size: int) -> np.ndarray:
    """Multiply fully embedded factors in snake order (independent oracle)."""
    mats = [embedded_givens(size, k, snake.factor(k).block) for k in snake.left_order]
    mats += [embedded_givens(size, k, snake.factor(k).block) for k in snake.right_order]
    return reduce(np.matmul, mats)


def para_unitary_product(snake: SnakeFactorization, n: int, theta: float) -> np.ndarray:
    """n x n para-unitary truncation from fully embedded factors 0 .. n-2.

    The corner phase enters as diag(1, .., 1, e^{i theta}) on the side of
    factor n-1: on the right when s_{n-1} = 0, on the left when s_{n-1} = 1.
    """
    head = SnakeFactorization(
        SchurSequence(snake.schur.alphas[: n - 1]), GeneratingSequence(snake.gen.bits[: n - 2])
    )
    product = brute_force_product(head, n)
    corner = np.diag([1.0] * (n - 1) + [np.exp(1j * theta)])
    return product @ corner if snake.gen.s(n - 1) == 0 else corner @ product


def hessenberg_entry(alphas, i, j):
    """Closed-form entry of the unitary Hessenberg matrix."""
    a = np.asarray(alphas, dtype=complex)
    r = np.sqrt(1.0 - np.abs(a) ** 2)
    if j == i - 1:
        return complex(r[i - 1])
    if j < i - 1:
        return 0j
    lead = -a[i - 1] if i >= 1 else 1.0
    return complex(lead * np.prod(r[i:j]) * np.conj(a[j]))


def cmv_entry(alphas, i, j):
    """Closed-form entry of the five-diagonal matrix.

    Uses the standard boundary convention alpha_{-1} = -1, rho_{-1} = 0 so
    the top rows need no special casing.
    """
    a = np.asarray(alphas, dtype=complex)
    r = np.sqrt(1.0 - np.abs(a) ** 2)

    def al(k):
        return a[k] if k >= 0 else -1.0

    def rl(k):
        return r[k] if k >= 0 else 0.0

    half, odd = divmod(i, 2)
    base = 2 * half
    if not odd:
        if j == base - 1:
            return complex(rl(base - 1) * np.conj(a[base]))
        if j == base:
            return complex(-al(base - 1) * np.conj(a[base]))
        if j == base + 1:
            return complex(r[base] * np.conj(a[base + 1]))
        if j == base + 2:
            return complex(r[base] * r[base + 1])
        return 0j
    if j == base - 1:
        return complex(rl(base - 1) * r[base])
    if j == base:
        return complex(-al(base - 1) * r[base])
    if j == base + 1:
        return complex(-a[base] * np.conj(a[base + 1]))
    if j == base + 2:
        return complex(-a[base] * r[base + 1])
    return 0j


def mixed_block_entries(alphas):
    """Hand expansion of the leading 9 x 8 block for the mixed shape.

    Returns a dict keyed by (i, j); absent keys are structural zeros.
    """
    a = np.asarray(alphas, dtype=complex)
    r = np.sqrt(1.0 - np.abs(a) ** 2)
    c = np.conj
    return {
        (0, 0): c(a[0]),
        (0, 1): r[0],
        (1, 0): r[0] * c(a[1]),
        (1, 1): -a[0] * c(a[1]),
        (1, 2): r[1] * c(a[2]),
        (1, 3): r[1] * r[2],
        (2, 0): r[0] * r[1],
        (2, 1): -a[0] * r[1],
        (2, 2): -a[1] * c(a[2]),
        (2, 3): -a[1] * r[2],
        (3, 2): r[2] * c(a[3]),
        (3, 3): -a[2] * c(a[3]),
        (3, 4): r[3] * c(a[4]),
        (3, 5): r[3] * r[4] * c(a[5]),
        (3, 6): r[3] * r[4] * r[5],
        (4, 2): r[2] * r[3],
        (4, 3): -a[2] * r[3],
        (4, 4): -a[3] * c(a[4]),
        (4, 5): -a[3] * r[4] * c(a[5]),
        (4, 6): -a[3] * r[4] * r[5],
        (5, 4): r[4],
        (5, 5): -a[4] * c(a[5]),
        (5, 6): -a[4] * r[5],
        (6, 5): r[5] * c(a[6]),
        (6, 6): -a[5] * c(a[6]),
        (6, 7): r[6],
        (7, 5): r[5] * r[6] * c(a[7]),
        (7, 6): -a[5] * r[6] * c(a[7]),
        (7, 7): -a[6] * c(a[7]),
        (8, 5): r[5] * r[6] * r[7],
        (8, 6): -a[5] * r[6] * r[7],
        (8, 7): -a[6] * r[7],
    }
