"""Validated Schur parameters and their canonical Givens blocks, without NumPy.

A Schur sequence alpha_0 .. alpha_{m-1} has complementary parameters
rho_k = sqrt(1 - |alpha_k|^2) and canonical Givens blocks
[[conj(alpha_k), rho_k], [rho_k, -alpha_k]].  The path rule reads at most
two blocks and a run of rho's per entry, so this module serves them as
Python complex numbers and imports NumPy only when the (m, 2, 2) block
array is first read.  ``snakefact.schur`` re-exports ``SchurSequence``.
"""

from __future__ import annotations

import math
from functools import cached_property

from .errors import InvalidSchurParameter, complex_argument, complex_arguments, int_argument, sequence_argument

__all__ = ["SchurSequence"]


def _rho(alpha, sqrt):
    """rho = sqrt(1 - |alpha|^2) of a complex with ``math.sqrt``, or of an array with ``numpy.sqrt``."""
    return sqrt(1.0 - (alpha.real * alpha.real + alpha.imag * alpha.imag))


class SchurSequence:
    """Validated finite sequence of Schur parameters alpha_0 .. alpha_{m-1}.

    Every parameter must be a finite number with |alpha_k| < 1 strictly;
    offending inputs are rejected with the index of the first bad entry.
    The canonical Givens block of alpha_k is
    [[conj(alpha_k), rho_k], [rho_k, -alpha_k]].  ``_block(k)`` gives it as
    nested tuples of Python complex numbers, for the path rule, and
    ``_blocks``, built on first use, as one read-only (m, 2, 2) array that
    snake products and truncations slice.  Both compute rho_k by ``_rho``
    and agree bit for bit.
    """

    def __init__(self, alphas):
        alphas = complex_arguments("parameter", sequence_argument("alphas", alphas, "numbers"))
        if not alphas:
            raise ValueError("a Schur sequence needs at least one parameter")
        for k, a in enumerate(alphas):
            if not abs(a) < 1.0:
                raise InvalidSchurParameter(k, a)
        self.alphas = alphas

    def __len__(self) -> int:
        return len(self.alphas)

    def __iter__(self):
        return iter(self.alphas)

    def __repr__(self) -> str:
        return f"SchurSequence({list(self.alphas)!r})"

    def _index(self, k) -> int:
        k = int_argument("k", k)
        if k >= len(self.alphas):
            raise IndexError(f"parameter index k = {k} outside 0..{len(self.alphas) - 1}")
        return k

    def _degree(self, n) -> int:
        """``n`` as a Szego degree: phi_n reads alpha_0 .. alpha_{n-1}."""
        n = int_argument("n", n)
        if n > len(self.alphas):
            raise ValueError(f"degree {n} needs {n} Schur parameters, have {len(self.alphas)}")
        return n

    @cached_property
    def _rhos(self) -> tuple:
        """rho_0 .. rho_{m-1} as complex numbers with imaginary part +0.0, as in ``_blocks``."""
        return tuple(complex(_rho(a, math.sqrt)) for a in self.alphas)

    def _block(self, k: int) -> tuple:
        """Block k as ((conj(alpha_k), rho_k), (rho_k, -alpha_k)), each a complex."""
        alpha, rho = self.alphas[k], self._rhos[k]
        return (alpha.conjugate(), rho), (rho, -alpha)

    @cached_property
    def _blocks(self):
        """The read-only (m, 2, 2) complex array of every block."""
        import numpy as np

        values = np.array(self.alphas, dtype=complex)
        blocks = np.empty((values.size, 2, 2), dtype=complex)
        blocks[:, 0, 0] = values.conj()
        blocks[:, 0, 1] = blocks[:, 1, 0] = _rho(values, np.sqrt)
        blocks[:, 1, 1] = -values
        blocks.flags.writeable = False
        return blocks

    def alpha(self, k: int) -> complex:
        return self.alphas[self._index(k)]

    def rho(self, k: int) -> float:
        return self._rhos[self._index(k)].real

    @property
    def rhos(self):
        """rho_0 .. rho_{m-1} as a read-only float array."""
        return self._blocks[:, 0, 1].real


def _one_parameter(name: str, value, index=None) -> SchurSequence:
    """``value`` as a one-parameter ``SchurSequence``; its errors call it ``name``."""
    value = complex_argument(name, value)
    try:
        return SchurSequence([value])
    except InvalidSchurParameter:
        raise InvalidSchurParameter(index, value, name) from None
