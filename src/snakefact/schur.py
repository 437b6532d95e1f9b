"""Schur parameters and Szego polynomials on the unit circle.

A probability measure on the unit circle is encoded by its Schur parameters
(also called Verblunsky coefficients): complex numbers alpha_0, alpha_1, ...
strictly inside the open unit disk, with complementary parameters
rho_k = sqrt(1 - |alpha_k|^2) in (0, 1].  The orthonormal Szego polynomials
phi_n and their duals phi_n* obey the coupled recursion

    phi_{n+1}(z)  = (z phi_n(z) - conj(alpha_n) phi_n*(z)) / rho_n,
    phi_{n+1}*(z) = (phi_n*(z) - alpha_n z phi_n(z)) / rho_n,

starting from phi_0 = phi_0* = 1.  The dual of a degree-n polynomial p is
p*(z) = z^n conj(p(1/conj(z))), i.e. the reversed, conjugated coefficient
vector.  Orthonormal Laurent polynomials for a mixed ordering of positive and
negative monomials are power-shifted copies of phi_n or phi_n*; see
``laurent_basis``.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSchurParameter, check, complex_argument, complex_arguments, int_argument

__all__ = [
    "SchurSequence",
    "PolynomialPair",
    "dual",
    "szego_step",
    "polynomial_pair",
    "evaluate_phi",
    "laurent_basis",
]


def _rho(alpha):
    """rho = sqrt(1 - |alpha|^2) of a scalar or elementwise of an array."""
    return np.sqrt(1.0 - (alpha.real * alpha.real + alpha.imag * alpha.imag))


def _szego_update(z_phi, star, alpha, rho):
    """One step of the Szego recursion on values or on shifted coefficient arrays."""
    return (z_phi - np.conj(alpha) * star) / rho, (star - alpha * z_phi) / rho


def _coefficients(alphas, phi, star):
    """Bare coefficient arrays (phi_k, phi_k*) from (phi, star) on, one pair per parameter."""
    for alpha, rho in zip(alphas, _rho(np.asarray(alphas, dtype=complex))):
        z_phi, star = np.concatenate(([0j], phi)), np.concatenate((star, [0j]))
        phi, star = _szego_update(z_phi, star, alpha, rho)
        yield phi, star


class SchurSequence:
    """Validated finite sequence of Schur parameters alpha_0 .. alpha_{m-1}.

    Every parameter must be a finite number with |alpha_k| < 1 strictly;
    offending inputs are rejected with the index of the first bad entry.
    Construction also builds the read-only (m, 2, 2) array ``_blocks`` of
    the canonical Givens blocks [[conj(alpha_k), rho_k], [rho_k, -alpha_k]],
    the one place the block formula is stated: snake products, truncations
    and the path rule slice it, and the rho_k are read from its off-diagonal.
    """

    def __init__(self, alphas):
        alphas = complex_arguments("parameter", alphas)
        if not alphas:
            raise ValueError("a Schur sequence needs at least one parameter")
        for k, a in enumerate(alphas):
            if not abs(a) < 1.0:
                raise InvalidSchurParameter(k, a)
        self.alphas = alphas
        values = np.array(alphas, dtype=complex)
        blocks = np.empty((values.size, 2, 2), dtype=complex)
        blocks[:, 0, 0] = values.conj()
        blocks[:, 0, 1] = blocks[:, 1, 0] = _rho(values)
        blocks[:, 1, 1] = -values
        blocks.flags.writeable = False
        self._blocks = blocks

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

    def alpha(self, k: int) -> complex:
        return self.alphas[self._index(k)]

    def rho(self, k: int) -> float:
        return float(self._blocks[self._index(k), 0, 1].real)

    @property
    def rhos(self) -> np.ndarray:
        return self._blocks[:, 0, 1].real


def dual(coeffs) -> np.ndarray:
    """Dual polynomial coefficients: p*(z) = z^n conj(p(1/conj(z))).

    ``coeffs`` holds ascending-power coefficients of a degree-n polynomial;
    the dual is the conjugated reversal, so coefficient j of the result is
    the conjugate of coefficient n - j of the input.
    """
    c = np.asarray(coeffs, dtype=complex)
    return np.conj(c[::-1])


class PolynomialPair:
    """A Szego polynomial and its dual at one degree, ascending coefficients.

    Invariants checked at construction: both coefficient vectors have length
    degree + 1, ``phi`` is finite, ``phi_star`` is its dual, and the leading
    coefficient of ``phi`` is real and strictly positive (the orthonormal
    normalization, which the recursion preserves).
    """

    def __init__(self, phi, phi_star):
        phi = np.asarray(phi, dtype=complex)
        phi_star = np.asarray(phi_star, dtype=complex)
        if phi.ndim != 1 or phi.shape != phi_star.shape or phi.size == 0:
            raise ValueError("phi and phi_star must be 1-d arrays of equal length")
        if not np.isfinite(phi).all():
            raise ValueError("phi must be finite")
        scale = max(np.max(np.abs(phi)), 1.0)
        check("phi_star is not the dual of phi", np.max(np.abs(phi_star - dual(phi))),
              1e-9 * scale, ValueError)
        lead = phi[-1]
        if not (lead.real > 0.0 and abs(lead.imag) <= 1e-9 * lead.real):
            raise ValueError("leading coefficient of phi must be real positive")
        self.phi = phi
        self.phi_star = phi_star

    @property
    def degree(self) -> int:
        return self.phi.size - 1

    @classmethod
    def initial(cls) -> "PolynomialPair":
        """Degree-zero pair phi_0 = phi_0* = 1."""
        return cls([1.0 + 0.0j], [1.0 + 0.0j])

    def __repr__(self) -> str:
        return f"PolynomialPair(degree={self.degree})"


def szego_step(pair: PolynomialPair, alpha_k: complex) -> PolynomialPair:
    """Advance (phi_k, phi_k*) one degree for the next Schur parameter."""
    alpha_k = complex_argument("alpha_k", alpha_k)
    if not abs(alpha_k) < 1.0:
        raise InvalidSchurParameter(None, alpha_k)
    return PolynomialPair(*next(_coefficients([alpha_k], pair.phi, pair.phi_star)))


def polynomial_pair(schur: SchurSequence, n: int) -> PolynomialPair:
    """Coefficients of (phi_n, phi_n*) for the given Schur parameters."""
    if int_argument("n", n) > len(schur):
        raise ValueError(f"degree {n} needs {n} Schur parameters, have {len(schur)}")
    phi, star = np.ones((2, 1), dtype=complex)
    for phi, star in _coefficients(schur.alphas[:n], phi, star):
        pass
    return PolynomialPair(phi, star)


def evaluate_phi(schur: SchurSequence, n: int, z):
    """Evaluate (phi_n(z), phi_n*(z)) by the two-term value recursion.

    Running the recursion on values instead of coefficients costs O(n) per
    point and avoids the cancellation that coefficient expansion can suffer.
    ``z`` may be a scalar or an ndarray; the recursion is applied elementwise.
    """
    if int_argument("n", n) > len(schur):
        raise ValueError(f"degree {n} needs {n} Schur parameters, have {len(schur)}")
    zz = np.asarray(z, dtype=complex)
    phi, star = np.ones((2, *zz.shape), dtype=complex)
    for alpha, rho in zip(schur.alphas[:n], schur.rhos):
        phi, star = _szego_update(zz * phi, star, alpha, rho)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(phi), complex(star)
    return phi, star


def laurent_basis(schur: SchurSequence, gen, n: int, z):
    """Value of the nth orthonormal Laurent polynomial at z.

    For the ordering fixed by the generating sequence ``gen`` the nth basis
    element is z^{-p_n} phi_n(z) when the nth monomial has a positive power
    (s_n = 0) and z^{-p_n} phi_n*(z) when it is negative (s_n = 1).  The
    index 0 element is the constant 1 either way.
    """
    if int_argument("n", n) > len(gen):
        raise ValueError(f"index {n} exceeds the {len(gen)} stored shape bits")
    zz = np.asarray(z, dtype=complex)
    if np.any(zz == 0):
        raise ValueError("z = 0 is outside the domain of a Laurent polynomial")
    phi, star = evaluate_phi(schur, n, zz)
    s_n = gen.s(n) if n >= 1 else 0
    p_n = gen.p[n]
    value = zz ** (-p_n) * (star if s_n == 1 else phi)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(value)
    return value
