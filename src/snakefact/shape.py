"""Generating sequences: the shape of a snake, in integers alone.

A generating sequence is a bit string s_1 .. s_m with partial sums
p_n = s_1 + ... + s_n; it fixes the order in which the monomials z^j are
orthogonalized (s_n = 1 means the nth monomial has a negative exponent).
The multiplication-by-z operator in the resulting orthonormal Laurent basis
is an ordered product of Givens factors G_{0,1} G_{1,2} ...: factor 0 starts
the right-hand product, and each subsequent factor k is multiplied onto the
running product from the right when s_k = 0 and from the left when s_k = 1.
The all-zeros sequence gives the unitary Hessenberg factorization, the
alternating sequence the five-diagonal (CMV) one.

Everything the shape fixes, the multiplication orders, the zero pattern and
the bandwidths, follows from the bits without any Schur parameter, so this
module imports nothing numerical.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from .errors import _INTEGER_TYPES, ShapeError, ShapeIndexError, _all_numbers, int_argument

__all__ = [
    "GeneratingSequence",
    "hessenberg_shape",
    "cmv_shape",
    "shape_from_monomials",
    "multiplication_orders",
    "bandwidths",
]


class GeneratingSequence:
    """Order bits s_1 .. s_m plus the prefix counts p_0 .. p_m.

    p_0 = 0 and p_n - p_{n-1} = s_n, so 0 <= p_n <= n and both p_n and
    n - p_n are non-decreasing by construction.

    The shape fixes the zero pattern: entry (i, j) of the product is a
    structural nonzero exactly when ``_lo[i] <= j <= _hi[i]``, for rows
    i = 0 .. m + 1.  ``_lo[i]`` is the last index below i with s = 0 (0
    when there is none) and ``_hi[i]`` the first index above i with s = 1
    (m + 1 when there is none).

    The bits are checked when the sequence is built; ``p``, ``_lo`` and
    ``_hi`` are computed on first use, in O(m) each, so a shape that is
    only expanded, or rebuilt for every call, never pays for them.
    ``expand.expand_dense`` reads the same row profile from its own arrays.
    """

    def __init__(self, bits):
        raw = tuple(bits)
        # Integers, NumPy ones included, with each distinct type checked once:
        # a float 1.0 or a bool equals a bit but is refused.
        if not (_all_numbers(raw, _INTEGER_TYPES) and set(raw) <= {0, 1}):
            n, b = next((n, b) for n, b in enumerate(raw, start=1)
                        if not (_all_numbers([b], _INTEGER_TYPES) and b in (0, 1)))
            raise ShapeError(f"shape bit s_{n} = {b!r}; bits must be 0 or 1")
        self.bits = tuple(map(int, raw))

    @cached_property
    def p(self) -> tuple:
        return tuple(itertools.accumulate(self.bits, initial=0))

    @cached_property
    def _lo(self) -> tuple:
        lo = [0] * (len(self.bits) + 2)
        for i in range(2, len(lo)):
            lo[i] = lo[i - 1] if self.bits[i - 2] else i - 1
        return tuple(lo)

    @cached_property
    def _hi(self) -> tuple:
        m = len(self.bits)
        hi = [m + 1] * (m + 2)
        for i in range(m - 1, -1, -1):
            hi[i] = i + 1 if self.bits[i] else hi[i + 1]
        return tuple(hi)

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
        n = int_argument("n", n)
        if not 1 <= n <= len(self.bits):
            raise IndexError(f"s_{n} undefined; stored bits cover 1..{len(self.bits)}")
        return self.bits[n - 1]

    def _index(self, n) -> int:
        """``n`` as a position 0 .. m: a monomial, a basis element or a Givens factor.

        The one statement of the shape's index range; past it raises ``ShapeIndexError``.
        """
        n = int_argument("n", n)
        if n > len(self.bits):
            raise ShapeIndexError(f"index {n} exceeds the {len(self.bits)} stored shape bits")
        return n


def hessenberg_shape(m: int) -> GeneratingSequence:
    """All monomials of positive power: the unitary Hessenberg ordering."""
    return GeneratingSequence((0,) * int_argument("m", m, 1, exc=ShapeError))


def cmv_shape(m: int) -> GeneratingSequence:
    """Alternating positive and negative powers: the five-diagonal ordering."""
    m = int_argument("m", m, 1, exc=ShapeError)
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


def multiplication_orders(gen: GeneratingSequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(left, right): the factor indices of the two half-products.

    Each lists its factors in multiplication order, leftmost factor first.
    Factor 0 starts the right-hand product, and factor k >= 1 joins the
    left-hand product when s_k = 1 and the right-hand one when s_k = 0.
    """
    left: list[int] = []
    right = [0]
    for k, bit in enumerate(gen.bits, start=1):
        (left if bit else right).append(k)
    return tuple(reversed(left)), tuple(right)


def bandwidths(gen: GeneratingSequence) -> tuple[int, int]:
    """Structural (lower, upper) bandwidths of the factorization.

    The farthest any row's nonzero column range reaches below (lower) and
    above (upper) the diagonal: one more than the longest run of ones and
    of zeros among the stored bits.  These count structural nonzeros: an
    entry in the band can still vanish for some parameters (alpha_k = 0).
    """
    return (max(i - lo for i, lo in enumerate(gen._lo)),
            max(hi - i for i, hi in enumerate(gen._hi)))
