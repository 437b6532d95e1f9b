"""Closed-form entries of a snake-shaped factorization via the path rule.

Drawing the snake as a chain of line segments (segment k for factor
G_{k,k+1}, placed bottom-right of segment k-1 when s_k = 0 and bottom-left
when s_k = 1), the (i, j) entry of the product is read off a path that
enters from the left at height i and leaves to the right at height j.  If
the path fails to move monotonically from left to right the entry is zero.
Otherwise only the two outermost segments, with indices r and t, contribute
one of their block entries each, and every segment strictly between them
contributes its rho; the entry is x_r * (prod of inner rhos) * y_t.

The path is monotone exactly when the bits strictly between i and j are
all 0 (i < j) or all 1 (i > j), so the nonzeros of row i fill one
contiguous column range bounded by the runs of equal bits next to i; the
generating sequence's run table gives that range in O(1).  ``entry`` costs
O(|i - j| + 1).  ``expand_dense`` walks each row's range outward from the
diagonal with a running rho product, one factor per step, so it costs
O(n + nnz) on top of the n^2 zero fill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .snake import GeneratingSequence, SnakeFactorization, _canonical_blocks

__all__ = ["PathDescriptor", "path", "entry", "bandwidths", "expand_dense"]


@dataclass(frozen=True)
class PathDescriptor:
    """Geometry of the path that determines entry (i, j).

    ``r`` and ``t`` are the indices of the outermost segments on the row and
    column side, ``K`` the (possibly empty) index range of the segments
    strictly between them, and ``b`` the orientation bit: 0 when the path
    climbs from right to left (r > t), 1 when it descends (r < t), None for
    a single-segment path (r = t).
    """

    i: int
    j: int
    r: int
    t: int
    K: range
    b: int | None
    monotone: bool


def path(gen: GeneratingSequence, i: int, j: int) -> PathDescriptor:
    """Path descriptor for entry (i, j) of a snake with the given shape."""
    m = len(gen)
    if not (0 <= i <= m and 0 <= j <= m):
        raise IndexError(f"entry ({i},{j}) outside the range covered by {m} shape bits")
    # The arrow at height i hits segment i first only if that segment sits to
    # the left of segment i-1 (s_i = 1); symmetrically for the column side.
    r = i if (i == 0 or gen.s(i) == 1) else i - 1
    t = j if (j == 0 or gen.s(j) == 0) else j - 1
    if i == j:
        monotone = True
    elif i < j:
        monotone = j <= gen._next_one[i + 1]
    else:
        monotone = j >= gen._last_zero[i - 1]
    if r > t:
        inner = range(t + 1, r)
        b = 0
    elif r < t:
        inner = range(r + 1, t)
        b = 1
    else:
        inner = range(0)
        b = None
    return PathDescriptor(i=i, j=j, r=r, t=t, K=inner, b=b, monotone=monotone)


def entry(snake: SnakeFactorization, i: int, j: int) -> complex:
    """Entry (i, j) of the snake product, in closed form."""
    d = path(snake.gen, i, j)
    if not d.monotone:
        return 0j
    lo = min(d.r, d.t)
    blocks = _canonical_blocks(snake.schur.alphas[lo : max(d.r, d.t) + 1])
    if d.r == d.t:
        return complex(blocks[0, i - d.r, j - d.t])
    value = blocks[d.r - lo, i - d.r, d.b] * blocks[d.t - lo, 1 - d.b, j - d.t]
    for k in d.K:
        value *= blocks[k - lo, 0, 1]
    return complex(value)


def _longest_run(bits, value: int) -> int:
    best = cur = 0
    for b in bits:
        cur = cur + 1 if b == value else 0
        best = max(best, cur)
    return best


def bandwidths(gen: GeneratingSequence) -> tuple[int, int]:
    """Structural (lower, upper) bandwidths of the factorization.

    The upper bandwidth is one more than the longest run of consecutive
    zeros among the stored bits and the lower bandwidth one more than the
    longest run of ones.  These count structural nonzeros: an entry within
    the band can still vanish for particular parameter values (alpha_k = 0).
    """
    return 1 + _longest_run(gen.bits, 1), 1 + _longest_run(gen.bits, 0)


def expand_dense(snake: SnakeFactorization, n: int) -> np.ndarray:
    """Dense n x n matrix of closed-form entries.

    Only the structural nonzeros are visited.  Row i is walked from the
    diagonal outward on each side; the rho product between the outermost
    segments r and t gains one factor whenever t moves, so each entry is
    x_r * y_t * P in O(1).  The products are always built by multiplication,
    never as ratios of prefix products, which would underflow.
    """
    gen = snake.gen
    if n < 1:
        raise ValueError(f"matrix size must be positive, got n = {n}")
    if n - 1 > len(gen):
        raise IndexError(
            f"size {n} needs indices up to {n - 1}; shape covers 0..{len(gen)}"
        )
    out = np.zeros((n, n), dtype=complex)
    block = _canonical_blocks(snake.schur.alphas[:n]).tolist()
    rho = [b[0][1].real for b in block]
    # Outermost segment on the row side (r) and on the column side (t), and
    # the column's block entry when the path descends (b = 1, t > r) or
    # climbs (b = 0, t < r).
    bits = (0,) + gen.bits
    seg_r = [k - 1 if k and not bits[k] else k for k in range(n)]
    seg_t = [k - 1 if k and bits[k] else k for k in range(n)]
    y_down = [block[t][0][j - t] for j, t in enumerate(seg_t)]
    y_up = [block[t][1][j - t] for j, t in enumerate(seg_t)]
    for i in range(n):
        r = seg_r[i]
        x = block[r][i - r]
        lo = gen._last_zero[max(i - 1, 0)]
        hi = min(gen._next_one[i + 1], n - 1)
        # Rightward: t >= r except for t = r - 1 on the diagonal, where no
        # segment lies between them.
        row = []
        prod, k = 1.0, r + 1
        for j in range(i, hi + 1):
            t = seg_t[j]
            if t > r:
                while k < t:
                    prod *= rho[k]
                    k += 1
                row.append(x[1] * y_down[j] * prod)
            elif t == r:
                row.append(x[j - t])
            else:
                row.append(x[0] * y_up[j])
        out[i, i : hi + 1] = row
        # Leftward: t <= r.
        row = []
        prod, k = 1.0, r - 1
        for j in range(i - 1, lo - 1, -1):
            t = seg_t[j]
            if t < r:
                while k > t:
                    prod *= rho[k]
                    k -= 1
                row.append(x[0] * y_up[j] * prod)
            else:
                row.append(x[j - t])
        if row:
            out[i, lo:i] = row[::-1]
    return out
