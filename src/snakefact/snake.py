"""Snake-shaped Givens factorizations.

The shape of a snake, its generating sequence and the order in which its
Givens factors are multiplied, lives in ``shape`` and is re-exported here.
A snake is stored as the pair (Schur sequence, generating sequence) plus
that multiplication order.  The canonical Givens blocks are the Schur
sequence's own, built once on first use and read-only, so the parameters
and the blocks can never drift apart.  Loading this module, and building a
snake, loads no NumPy: a factor and a window import it when they run.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ShapeError, check, int_argument, number_array, unitarity_defect
from .parameters import SchurSequence, _one_parameter
from .shape import (
    GeneratingSequence,
    cmv_shape,
    hessenberg_shape,
    multiplication_orders,
    shape_from_monomials,
)

__all__ = [
    "GeneratingSequence",
    "GivensFactor",
    "SnakeFactorization",
    "hessenberg_shape",
    "cmv_shape",
    "shape_from_monomials",
    "materialize_window",
]


class GivensFactor:
    """Unitary transformation acting only on rows/columns (k, k+1).

    ``from_schur`` takes the canonical block of a Schur parameter from a
    one-parameter ``SchurSequence``; it has real positive off-diagonal
    entries and determinant -1.
    """

    def __init__(self, k: int, block):
        k = int_argument("k", k)
        block = number_array("block", block, shape=(2, 2))
        check("block is not unitary", unitarity_defect(block), 1e-14, ValueError)
        self.k = k
        self.block = block

    @classmethod
    def from_schur(cls, k: int, alpha: complex) -> "GivensFactor":
        k = int_argument("k", k)
        return cls(k, _one_parameter(f"parameter {k}", alpha, k)._blocks[0])

    def __repr__(self) -> str:
        return f"GivensFactor(k={self.k})"


class SnakeFactorization:
    """Ordered product of canonical Givens factors G_{0,1} .. G_{m,m+1}.

    The generating sequence supplies bits s_1 .. s_m and the Schur sequence
    must supply exactly the m + 1 parameters alpha_0 .. alpha_m; length
    mismatches are rejected rather than padded.  ``left_order`` and
    ``right_order`` are the shape's ``multiplication_orders``, computed on
    first use: expanding a snake reads neither.
    """

    def __init__(self, schur: SchurSequence, gen: GeneratingSequence):
        if len(schur) != len(gen) + 1:
            raise ShapeError(
                f"a shape with {len(gen)} bits needs exactly {len(gen) + 1} Schur parameters, "
                f"got {len(schur)}"
            )
        self.schur = schur
        self.gen = gen

    @cached_property
    def left_order(self) -> tuple[int, ...]:
        return multiplication_orders(self.gen)[0]

    @cached_property
    def right_order(self) -> tuple[int, ...]:
        return multiplication_orders(self.gen)[1]

    def factor(self, k: int) -> GivensFactor:
        """Canonical factor G_{k,k+1}, the Schur sequence's block k."""
        k = self.gen._index(int_argument("k", k))
        return GivensFactor(k, self.schur._blocks[k])

    def __repr__(self) -> str:
        return (
            f"SnakeFactorization(m={len(self.gen)}, "
            f"left={list(self.left_order)}, right={list(self.right_order)})"
        )


def _snake_product(snake: SnakeFactorization, blocks):
    """(k+1) x (k+1) product of the factors 0 .. k-1 with the k given blocks.

    Right-hand factors update columns (j, j+1) and left-hand factors rows
    (j, j+1) of a running identity, each in snake order.  Factors from k on
    act only on indices >= k, so the leading k x k block of the product is
    that of the whole snake.
    """
    import numpy as np

    k = len(blocks)
    out = np.eye(k + 1, dtype=complex)
    for j in snake.right_order:
        if j < k:
            out[:, j : j + 2] = out[:, j : j + 2] @ blocks[j]
    for j in reversed(snake.left_order):
        if j < k:
            out[j : j + 2, :] = blocks[j] @ out[j : j + 2, :]
    return out


def materialize_window(snake: SnakeFactorization, m: int):
    """Dense (m+2) x (m+2) product of the factors G_{0,1} .. G_{m,m+1}.

    Factors beyond index m act only on indices >= m + 1, so every window
    entry (i, j) with max(i, j) <= m agrees with the whole snake.  Entries
    in the last row and column are truncation artifacts.
    """
    m = snake.gen._index(int_argument("m", m))
    return _snake_product(snake, snake.schur._blocks[: m + 1])
