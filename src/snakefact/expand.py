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
O(|i - j| + 1).

``expand_dense`` splits the rule along the paper's line: the shape alone
fixes where each nonzero goes and which block entries and rho's it reads,
and the Schur parameters only fill those in.  Its layout (``_plan``) lists
the nnz structural nonzeros of the n x n block in one read-only (4, nnz)
integer array, 32 bytes a nonzero: their output positions, the flat
positions of their factors x and y among the blocks, and their positions in
a table of running rho products.  Its key is the bits s_1 .. s_{n-1},
which fix n, so shapes that share them share one layout.  A first call
builds the layout in O(n + nnz) time and memory, besides the n^2 output
and the table; a repeat costs a hash of the n - 1 bits and the fill alone:
one gather of the factors x and y, their product, the table and its
gather, one more product and one scatter.  The table has n rows
of at most L + 1 entries, L the longest run of equal bits, so it is never
larger than the output.  Each product is multiplied up from 1.0, because a
ratio of prefix products would be 0/0 once the products underflow.

The memo keeps the 8 most recently used layouts, at most 32 MiB in all,
each charged its array, its key and 4 KiB for its Python objects; a layout
too large for that is built, used and not kept.  The Hessenberg layout
takes 152 KB at n = 96 and 16.8 MB at n = 1024, so no two of the latter
fit.  The memo is shared by every thread, under one lock, and its arrays
are read-only.  Only a repeated shape gains from it: one that is new at
every call pays the first-call cost every time.

``path`` and ``entry`` load no NumPy: ``entry`` multiplies the Schur
sequence's scalar blocks as Python complex numbers, x_r times y_t and then
each inner rho in turn, from a tuple of the rho's that the first call on a
sequence caches in O(m).  Only ``expand_dense`` imports NumPy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, namedtuple

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
    gen._index(max(i, j))
    # The arrow at height i hits segment i first only if that segment sits to
    # the left of segment i-1 (s_i = 1); symmetrically for the column side.
    r = i if (i == 0 or gen.bits[i - 1] == 1) else i - 1
    t = j if (j == 0 or gen.bits[j - 1] == 0) else j - 1
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
    x = schur._block(d.r)[d.i - d.r]
    if d.r == d.t:
        return x[d.j - d.t]
    value = x[d.b] * schur._block(d.t)[1 - d.b][d.j - d.t]
    rhos = schur._rhos
    for k in d.K:
        value *= rhos[k]
    return value


# The memo of layouts, key -> (layout, charge), least recently used first.
_MEMO_LAYOUTS = 8
_MEMO_BYTES = 32 << 20
_ENTRY_BYTES = 4096
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()


def _plan(bits: bytes, n: int):
    """The layout of an n x n block, (at, width), for the bits s_1 .. s_{n-1}.

    The structural nonzeros form one flat list, row i covering the columns
    lo_i .. min(hi_i, n - 1) of the shape's row profile.  Row 0 of the
    read-only (4, nnz) array ``at`` holds their flat positions in the n x n
    output, rows 1 and 2 the positions of their factors x and y in a 1
    followed by the first n Schur blocks, flattened, and row 3 their
    positions in the running-product table, whose rows are ``width`` + 2
    long.  No path has an inner segment when ``width`` < 1, and row 3 is
    then unused.
    """
    import numpy as np

    # Index k lies on segment k - 1 on the column side when s_k = 1 and on
    # the row side when s_k = 0, and otherwise on segment k.
    col_bit = np.frombuffer(b"\0" + bits + b"\0", dtype=np.uint8).astype(np.intp)
    # The shape's row profile, capped at column n - 1: lo_i is the last
    # k < i with col_bit_k = 0, and end_i = hi_i + 1 the least k + 1 over
    # k > i with col_bit_k = 1, or n; the appended col_bit_n = 0 gives n.
    end = np.minimum.accumulate(np.where(col_bit, np.arange(1, n + 2), n)[::-1])[-2::-1]
    col_bit = col_bit[:-1]
    index = np.arange(n)
    row_bit = 1 - col_bit
    row_bit[0] = 0
    lo = np.zeros(n, dtype=np.intp)
    np.maximum.accumulate((index * row_bit)[:-1], out=lo[1:])
    # Row i holds columns lo_i .. hi_i, so nonzero k, counted over all rows,
    # lies in column k + shift_i, shift_i being hi_i + 1 less the count so far.
    counts = end - lo
    total = np.add.accumulate(counts)
    shift = end - total
    # A fresh array of nnz entries costs page faults at large n, so the
    # arithmetic runs in place wherever it can.
    at = np.empty((4, total[-1]), dtype=np.intp)
    pos, x, y, inner = at
    i = np.repeat(index, counts)
    j = np.arange(at.shape[1])
    j += shift.take(i, out=pos)
    seg_r, seg_t = index - row_bit, index - col_bit
    r, t = seg_r.take(i), seg_t.take(j)
    # With s = sign(t - r), x = B_r[i - r, (1 + s) / 2] and y = B_t[(1 - s) / 2, j - t]
    # where t != r, while x = B_r[i - r, j - t] and y = 1 where t = r.  The 1
    # is at position 0 and B_k[a, b] at 1 + 4k + 2a + b, and i - r = row_bit_i
    # and j - t = col_bit_j, so x is at (4(i + r) + j - t + 3 + s) // 2 and
    # y at (3t + j + 2 - s) |s|.
    d = t - r
    s = np.sign(d)
    np.multiply(i, n, out=pos)
    pos += j
    np.add(i, r, out=x)
    x *= 4
    x += j
    x -= t
    x += s
    x += 3
    x >>= 1
    np.multiply(t, 3, out=y)
    y += j
    y -= s
    y += 2
    y *= np.abs(s, out=s)
    # The rhos strictly between segments a = min(r, t) and a + delta, where
    # delta = |t - r|, are rho_{a+1} .. rho_{a+delta-1}: entry (a, delta).
    delta = np.abs(d, out=d)
    width = int(delta.max()) - 1
    np.minimum(r, t, out=inner)
    inner *= width + 2
    inner += delta
    at.setflags(write=False)
    return at, width


def _layout(gen: GeneratingSequence, n: int):
    """``_plan`` of the bits s_1 .. s_{n-1}, from the memo when it holds them."""
    key = bytes(gen.bits[: n - 1])
    with _memo_lock:
        if (kept := _memo.get(key)) is not None:
            _memo.move_to_end(key)
            return kept[0]
    layout = _plan(key, n)
    charge = layout[0].nbytes + len(key) + _ENTRY_BYTES
    if charge <= _MEMO_BYTES:  # a larger one would only evict the rest
        with _memo_lock:
            _memo[key] = layout, charge
            while len(_memo) > _MEMO_LAYOUTS or sum(c for _, c in _memo.values()) > _MEMO_BYTES:
                _memo.popitem(last=False)
    return layout


def expand_dense(snake: SnakeFactorization, n: int):
    """Dense n x n matrix of closed-form entries.

    The shape's layout, from the memo or built by ``_plan``, gives every
    structural nonzero's output position, the positions of its factors x
    and y and its place in the product table; the parameters fill them in.
    Row a of the product table holds 1, 1 and then the running products
    rho_{a+1}, rho_{a+1} rho_{a+2}, ..., as many as the longest inner run
    needs.  Each is multiplied up from 1.0 and never taken as a ratio of
    prefix products, which is 0/0 once the products underflow.  A bad ``n``
    raises before the memo is consulted.
    """
    import numpy as np

    n = int_argument("n", n, 1)
    gen = snake.gen
    gen._index(n - 1)
    at, width = _layout(gen, n)
    blocks = snake.schur._blocks[:n]
    flat = np.empty(4 * n + 1, dtype=complex)
    flat[0] = 1
    flat[1:] = blocks.reshape(-1)
    x, y = flat.take(at[1:3])
    values = x * y
    if width > 0:
        rho = np.ones(n - 1 + width)
        rho[: n - 1] = blocks[1:, 0, 1].real
        table = np.ones((n, width + 2))
        # Row a of the windows is a view of rho[a : a + width], rho_{a+1} on.
        windows = np.ndarray((n, width), buffer=rho, strides=(rho.itemsize,) * 2)
        np.cumprod(windows, axis=1, out=table[:, 2:])
        values *= table.take(at[3])
    out = np.zeros((n, n), dtype=complex)
    out.reshape(-1)[at[0]] = values
    return out
