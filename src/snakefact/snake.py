"""Generating sequences and snake-shaped Givens factorizations.

A generating sequence is a bit string s_1 .. s_m with partial sums
p_n = s_1 + ... + s_n; it fixes the order in which the monomials z^j are
orthogonalized (s_n = 1 means the nth monomial has a negative exponent).
The multiplication-by-z operator in the resulting orthonormal Laurent basis
is an ordered product of Givens factors G_{0,1} G_{1,2} ...: factor 0 starts
the right-hand product, and each subsequent factor k is multiplied onto the
running product from the right when s_k = 0 and from the left when s_k = 1.
The all-zeros sequence gives the unitary Hessenberg factorization, the
alternating sequence the five-diagonal (CMV) one.

A snake is stored as the pair (Schur sequence, generating sequence) plus the
derived multiplication order.  The canonical Givens blocks are built once,
with the Schur sequence, and are read-only, so the parameters and the
blocks can never drift apart.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    InvalidSchurParameter,
    ShapeError,
    check,
    complex_argument,
    int_argument,
    unitarity_defect,
)
from .schur import SchurSequence

__all__ = [
    "GeneratingSequence",
    "GivensFactor",
    "SnakeFactorization",
    "hessenberg_shape",
    "cmv_shape",
    "shape_from_monomials",
    "materialize_window",
]


class GeneratingSequence:
    """Order bits s_1 .. s_m plus the prefix counts p_0 .. p_m.

    p_0 = 0 and p_n - p_{n-1} = s_n, so 0 <= p_n <= n and both p_n and
    n - p_n are non-decreasing by construction.

    Two more prefix tables over k = 0 .. m + 1 hold the runs of equal bits:
    ``_next_one[k]`` is the first index >= k with s = 1 (m + 1 when there is
    none) and ``_last_zero[k]`` the last index <= k with s = 0 (0 when there
    is none).  They give the zero pattern of the path rule in O(1).
    """

    def __init__(self, bits):
        raw = tuple(bits)
        for n, b in enumerate(raw, start=1):
            if b not in (0, 1):
                raise ShapeError(f"shape bit s_{n} = {b!r}; bits must be 0 or 1")
        self.bits = bits = tuple(int(b) for b in raw)
        self.p = tuple(itertools.accumulate(bits, initial=0))
        m = len(bits)
        next_one = [m + 1] * (m + 2)
        for k in range(m, 0, -1):
            next_one[k] = k if bits[k - 1] else next_one[k + 1]
        next_one[0] = next_one[1]
        last_zero = [0] * (m + 2)
        for k in range(1, m + 2):
            last_zero[k] = k if k <= m and not bits[k - 1] else last_zero[k - 1]
        self._next_one = tuple(next_one)
        self._last_zero = tuple(last_zero)

    def __len__(self) -> int:
        return len(self.bits)

    def __eq__(self, other) -> bool:
        return isinstance(other, GeneratingSequence) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"GeneratingSequence({list(self.bits)!r})"

    def s(self, n: int) -> int:
        """Bit s_n for 1 <= n <= m."""
        if not 1 <= int_argument("n", n) <= len(self.bits):
            raise IndexError(f"s_{n} undefined; stored bits cover 1..{len(self.bits)}")
        return self.bits[n - 1]


def hessenberg_shape(m: int) -> GeneratingSequence:
    """All monomials of positive power: the unitary Hessenberg ordering."""
    return GeneratingSequence((0,) * int_argument("m", m, 1, ShapeError))


def cmv_shape(m: int) -> GeneratingSequence:
    """Alternating positive and negative powers: the five-diagonal ordering."""
    m = int_argument("m", m, 1, ShapeError)
    return GeneratingSequence(tuple((k + 1) % 2 for k in range(1, m + 1)))


def shape_from_monomials(exponents) -> GeneratingSequence:
    """Generating sequence for an explicit monomial order z^{r_0}, z^{r_1}, ...

    The order must start at r_0 = 0 and every prefix {r_0, ..., r_n} must be
    a contiguous integer range, i.e. each new exponent extends the covered
    range by exactly one on either end.  s_n = 1 exactly when r_n < 0.
    Exponents are integers; any other value raises ``TypeError``.
    """
    exps = [int_argument(f"exponent r_{n}", r, -math.inf) for n, r in enumerate(exponents)]
    if not exps:
        raise ShapeError("empty monomial order")
    if exps[0] != 0:
        raise ShapeError(f"monomial order must start with exponent 0, got {exps[0]}")
    lo = hi = 0
    bits = []
    for n, r in enumerate(exps[1:], start=1):
        if r == lo - 1:
            lo = r
            bits.append(1)
        elif r == hi + 1:
            hi = r
            bits.append(0)
        else:
            seen = "{" + ",".join(str(e) for e in exps[: n + 1]) + "}"
            raise ShapeError(
                f"prefix {seen} is not a contiguous range "
                f"(exponent {r} at index {n} does not extend [{lo},{hi}] by one)"
            )
    return GeneratingSequence(bits)


class GivensFactor:
    """Unitary transformation acting only on rows/columns (k, k+1).

    ``from_schur`` takes the canonical block of a Schur parameter from a
    one-parameter ``SchurSequence``; it has real positive off-diagonal
    entries and determinant -1.
    """

    def __init__(self, k: int, block):
        k = int_argument("k", k)
        block = np.asarray(block, dtype=complex)
        if block.shape != (2, 2):
            raise ValueError("a Givens block is a 2x2 matrix")
        check("block is not unitary", unitarity_defect(block), 1e-14, ValueError)
        self.k = k
        self.block = block

    @classmethod
    def from_schur(cls, k: int, alpha: complex) -> "GivensFactor":
        k = int_argument("k", k)
        alpha = complex_argument(f"parameter {k}", alpha)
        try:
            block = SchurSequence([alpha])._blocks[0]
        except InvalidSchurParameter:  # name alpha_k, not the one-parameter index 0
            raise InvalidSchurParameter(k, alpha) from None
        return cls(k, block)

    def __repr__(self) -> str:
        return f"GivensFactor(k={self.k})"


class SnakeFactorization:
    """Ordered product of canonical Givens factors G_{0,1} .. G_{m,m+1}.

    The generating sequence supplies bits s_1 .. s_m and the Schur sequence
    must supply exactly the m + 1 parameters alpha_0 .. alpha_m; length
    mismatches are rejected rather than padded.  ``left_order`` and
    ``right_order`` list the factor indices of the two half-products in
    multiplication order (leftmost factor first), with factor 0 starting the
    right-hand product.
    """

    def __init__(self, schur: SchurSequence, gen: GeneratingSequence):
        if len(schur) != len(gen) + 1:
            raise ShapeError(
                f"need exactly m + 1 Schur parameters for m shape bits; "
                f"got {len(schur)} parameters for m = {len(gen)}"
            )
        self.schur = schur
        self.gen = gen
        left: list[int] = []
        right = [0]
        for k, bit in enumerate(gen.bits, start=1):
            (left if bit else right).append(k)
        self.left_order = tuple(reversed(left))
        self.right_order = tuple(right)

    @property
    def num_factors(self) -> int:
        return len(self.gen) + 1

    def factor(self, k: int) -> GivensFactor:
        """Canonical factor G_{k,k+1}, the Schur sequence's block k."""
        if int_argument("k", k) >= self.num_factors:
            raise IndexError(f"factor {k} outside 0..{self.num_factors - 1}")
        return GivensFactor(k, self.schur._blocks[k])

    def __repr__(self) -> str:
        return (
            f"SnakeFactorization(m={len(self.gen)}, "
            f"left={list(self.left_order)}, right={list(self.right_order)})"
        )


def _snake_product(snake: SnakeFactorization, blocks) -> np.ndarray:
    """(k+1) x (k+1) product of the factors 0 .. k-1 with the k given blocks.

    Right-hand factors update columns (j, j+1) and left-hand factors rows
    (j, j+1) of a running identity, each in snake order.  Factors from k on
    act only on indices >= k, so the leading k x k block of the product is
    that of the whole snake.
    """
    k = len(blocks)
    out = np.eye(k + 1, dtype=complex)
    for j in snake.right_order:
        if j < k:
            out[:, j : j + 2] = out[:, j : j + 2] @ blocks[j]
    for j in reversed(snake.left_order):
        if j < k:
            out[j : j + 2, :] = blocks[j] @ out[j : j + 2, :]
    return out


def materialize_window(snake: SnakeFactorization, m: int) -> np.ndarray:
    """Dense (m+2) x (m+2) product of the factors G_{0,1} .. G_{m,m+1}.

    Factors beyond index m act only on indices >= m + 1, so every window
    entry (i, j) with max(i, j) <= m agrees with the whole snake.  Entries
    in the last row and column are truncation artifacts.
    """
    m = int_argument("m", m)
    if m >= snake.num_factors:
        raise ShapeError(
            f"window needs factors 0..{m} but only 0..{snake.num_factors - 1} exist"
        )
    return _snake_product(snake, snake.schur._blocks[: m + 1])
