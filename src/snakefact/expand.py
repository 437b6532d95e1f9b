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
generating sequence stores that range for every row.  ``entry`` costs
O(|i - j| + 1).  ``expand_dense`` lists the nnz structural nonzeros of an
n x n block as flat arrays and evaluates the rule for all of them in a few
whole-array passes, in O(n + nnz) time and memory besides the n^2 output
and a table of running rho products.  That table has n rows of at most
L + 1 entries, L the longest run of equal bits, so it is never larger than
the output.  Each product is multiplied up from 1.0, because a ratio of
prefix products would be 0/0 once the products underflow.

``path`` and ``entry`` load no NumPy: ``entry`` multiplies the Schur
sequence's scalar blocks as Python complex numbers, x_r times y_t and then
each inner rho in turn, from a tuple of the rho's that the first call on a
sequence caches in O(m).  Only ``expand_dense`` imports NumPy.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import int_argument
from .shape import GeneratingSequence, bandwidths
from .snake import SnakeFactorization

__all__ = ["PathDescriptor", "path", "entry", "bandwidths", "expand_dense"]


class PathDescriptor(namedtuple("PathDescriptor", "i j r t K b monotone")):
    """Geometry of the path that determines entry (i, j), as a named tuple.

    ``r`` and ``t`` are the indices of the outermost segments on the row and
    column side, ``K`` the (possibly empty) index range of the segments
    strictly between them, and ``b`` the orientation bit: 0 when the path
    climbs from right to left (r > t), 1 when it descends (r < t), None for
    a single-segment path (r = t).
    """

    __slots__ = ()


def path(gen: GeneratingSequence, i: int, j: int) -> PathDescriptor:
    """Path descriptor for entry (i, j) of a snake with the given shape."""
    i = int_argument("i", i)
    j = int_argument("j", j)
    m = len(gen)
    if max(i, j) > m:
        raise IndexError(f"entry ({i},{j}) outside the range covered by {m} shape bits")
    # The arrow at height i hits segment i first only if that segment sits to
    # the left of segment i-1 (s_i = 1); symmetrically for the column side.
    r = i if (i == 0 or gen.s(i) == 1) else i - 1
    t = j if (j == 0 or gen.s(j) == 0) else j - 1
    monotone = gen._lo[i] <= j <= gen._hi[i]
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
    schur = snake.schur
    x = schur._block(d.r)[i - d.r]
    if d.r == d.t:
        return x[j - d.t]
    value = x[d.b] * schur._block(d.t)[1 - d.b][j - d.t]
    rhos = schur._rhos
    for k in d.K:
        value *= rhos[k]
    return value


def expand_dense(snake: SnakeFactorization, n: int):
    """Dense n x n matrix of closed-form entries.

    The structural nonzeros form one flat list, row i covering the columns
    lo_i .. min(hi_i, n - 1) of the shape's row profile.  A few whole-array
    passes over that list gather each entry's segments r and t, its block
    entries x and y and its inner rho product, and one scatter writes the
    values into the zero matrix.  Row a of the product table holds 1, 1
    and then the running products rho_{a+1}, rho_{a+1} rho_{a+2}, ..., as
    many as the longest inner run needs.  Each is multiplied up from 1.0
    and never taken as a ratio of prefix products, which is 0/0 once the
    products underflow.  The per-row and per-column tables have length n
    and the other arrays length nnz, so the fixed cost at small n is a few
    dozen numpy calls.
    """
    import numpy as np

    n = int_argument("n", n, 1)
    gen = snake.gen
    if n - 1 > len(gen):
        raise IndexError(
            f"size {n} needs indices up to {n - 1}; shape covers 0..{len(gen)}"
        )
    blocks = snake.schur._blocks[:n]
    # Index k lies on segment k - 1 on the column side when s_k = 1 and on
    # the row side when s_k = 0, and otherwise on segment k.
    col_bit = np.array((0, *gen.bits[: n - 1]))
    row_bit = 1 - col_bit
    row_bit[0] = 0
    index = np.arange(n)
    seg_r = index - row_bit
    seg_t = index - col_bit
    # Row i holds columns lo_i .. hi_i, so nonzero k, counted over all rows,
    # lies in column k + shift_i, shift_i being lo_i less the earlier count.
    lo = np.array(gen._lo[:n])
    counts = np.minimum(gen._hi[:n], n - 1) - lo + 1
    shift = lo - counts.cumsum() + counts
    i = np.repeat(index, counts)
    j = shift[i] + np.arange(i.size)
    r, t = seg_r[i], seg_t[j]
    # With s = sign(t - r), x = B_r[i - r, (1 + s) / 2] and y = B_t[(1 - s) / 2, j - t]
    # where t != r, while x = B_r[i - r, j - t] and y = 1 where t = r.  Row
    # i's x slots (x0, x0, x1, x1) at 1 + s + (j - t) and column j's y slots
    # (y0, 1, y1) at 1 - s cover all three cases.
    s = np.sign(t - r)
    x = blocks[seg_r, row_bit].repeat(2, axis=1)
    y = np.ones((n, 3), dtype=complex)
    y[:, ::2] = blocks[seg_t, :, col_bit]
    values = x.take(4 * i + 1 + s + col_bit[j]) * y.take(3 * j + 1 - s)
    # The rhos strictly between segments a = min(r, t) and a + delta, where
    # delta = |t - r|, are rho_{a+1} .. rho_{a+delta-1}: entry (a, delta).
    delta = np.abs(t - r)
    width = int(delta.max()) - 1
    if width > 0:
        rho = np.ones(n - 1 + width)
        rho[: n - 1] = blocks[1:, 0, 1].real
        table = np.ones((n, width + 2))
        # Row a of the windows is a view of rho[a : a + width], rho_{a+1} on.
        windows = np.ndarray((n, width), buffer=rho, strides=(rho.itemsize,) * 2)
        np.cumprod(windows, axis=1, out=table[:, 2:])
        values *= table.take(np.minimum(r, t) * (width + 2) + delta)
    out = np.zeros((n, n), dtype=complex)
    out.reshape(-1)[n * i + j] = values
    return out
