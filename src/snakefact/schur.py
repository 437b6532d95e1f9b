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
``laurent_basis``.  ``SchurSequence`` and the rho formula live in
``parameters``, which loads no NumPy, and ``SchurSequence`` is re-exported
here.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share between threads.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, check, complex_argument
from .parameters import SchurSequence, _one_parameter, _rho

__all__ = [
    "SchurSequence",
    "PolynomialPair",
    "dual",
    "szego_step",
    "polynomial_pair",
    "evaluate_phi",
    "laurent_basis",
]


def _szego_update(z_phi, star, alpha, rho):
    """One step of the Szego recursion on values or on shifted coefficient arrays."""
    return (z_phi - np.conj(alpha) * star) / rho, (star - alpha * z_phi) / rho


def _coefficients(alphas, phi, star):
    """Bare coefficient arrays (phi_k, phi_k*) from (phi, star) on, one pair per parameter."""
    for alpha, rho in zip(alphas, _rho(np.asarray(alphas, dtype=complex), np.sqrt)):
        z_phi, star = np.concatenate(([0j], phi)), np.concatenate((star, [0j]))
        phi, star = _szego_update(z_phi, star, alpha, rho)
        yield phi, star


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
    alphas = _one_parameter("alpha_k", alpha_k).alphas
    return PolynomialPair(*next(_coefficients(alphas, pair.phi, pair.phi_star)))


def polynomial_pair(schur: SchurSequence, n: int) -> PolynomialPair:
    """Coefficients of (phi_n, phi_n*) for the given Schur parameters."""
    phi, star = np.ones((2, 1), dtype=complex)
    for phi, star in _coefficients(schur.alphas[: schur._degree(n)], phi, star):
        pass
    return PolynomialPair(phi, star)


def _points(z) -> np.ndarray:
    """``z`` as a complex array of finite points; the errors name ``z``.

    A scalar goes through ``errors.complex_argument``, and an array must
    have a numeric dtype other than bool.
    """
    zz = np.asarray(z if isinstance(z, np.ndarray) or np.ndim(z) else complex_argument("z", z))
    if zz.dtype.kind not in "iufc":
        raise TypeError(f"z must hold numbers, got an array of dtype {zz.dtype}")
    if not (finite := np.isfinite(zz)).all():
        raise ValueError(f"z = {zz.flat[np.argmin(finite)]} is not finite")
    return zz.astype(complex, copy=False)


def _value_steps(schur: SchurSequence, n: int, z: np.ndarray):
    """(phi_k(z), phi_k*(z)) for k = 0 .. n by the two-term value recursion."""
    pair = np.ones((2, *z.shape), dtype=complex)
    yield pair
    for alpha, rho in zip(schur.alphas[:n], schur.rhos):
        yield (pair := _szego_update(z * pair[0], pair[1], alpha, rho))


def _finite(values, z: np.ndarray, degree):
    """``values`` once each is finite at every point of ``z``.

    Otherwise ``NumericalError`` names the first point where one is not,
    and ``degree(point)``, the degree at which its values left float64.
    """
    if not (finite := np.isfinite(values).all(axis=0)).all():
        point = z.flat[np.argmin(finite)]
        raise NumericalError(f"the value of degree {degree(point)} at z = {point} leaves float64")
    return values


def _szego_values(schur: SchurSequence, n: int, z: np.ndarray):
    """(phi_n(z), phi_n*(z)) at the points ``z``, checked finite by ``_finite``."""

    def degree(point):  # a value that is not finite stays so: the replay finds where it left
        steps = enumerate(_value_steps(schur, n, point))
        return next((k for k, pair in steps if not np.isfinite(pair).all()), n)

    with np.errstate(all="ignore"):
        for pair in _value_steps(schur, n, z):
            pass
        return _finite(pair, z, degree)


def evaluate_phi(schur: SchurSequence, n: int, z):
    """Evaluate (phi_n(z), phi_n*(z)) by the two-term value recursion.

    Running the recursion on values instead of coefficients costs O(n) per
    point and avoids the cancellation that coefficient expansion can suffer.
    ``z`` may be a scalar or an ndarray of finite numbers; the recursion is
    applied elementwise.  A value beyond float64 raises ``NumericalError``
    naming the degree at which it left and the first such point.
    """
    phi, star = _szego_values(schur, schur._degree(n), _points(z))
    return (complex(phi), complex(star)) if np.ndim(phi) == 0 else (phi, star)


def laurent_basis(schur: SchurSequence, gen, n: int, z):
    """Value of the nth orthonormal Laurent polynomial at z.

    For the ordering fixed by the generating sequence ``gen`` the nth basis
    element is z^{-p_n} phi_n(z) when the nth monomial has a positive power
    (s_n = 0) and z^{-p_n} phi_n*(z) when it is negative (s_n = 1).  The
    index 0 element is the constant 1 either way.  ``z`` is checked as in
    ``evaluate_phi``, and a value beyond float64 raises ``NumericalError``.
    """
    n = gen._index(n)
    if np.any((zz := _points(z)) == 0):
        raise ValueError("z = 0 is outside the domain of a Laurent polynomial")
    phi, star = _szego_values(schur, schur._degree(n), zz)
    with np.errstate(all="ignore"):
        (value,) = _finite([zz ** (-gen.p[n]) * (star if n and gen.bits[n - 1] else phi)], zz, lambda _: n)
    return complex(value) if np.ndim(value) == 0 else value
