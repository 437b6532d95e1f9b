"""Moment-based ground truth, independent of the Givens factorization.

Everything here is computed from trigonometric moments of a probability
measure on the unit circle: Gram matrices of monomials, explicit
Gram-Schmidt orthogonalization of an ordered monomial sequence, recovery of
the Schur parameters, and the multiplication operator as the matrix of
inner products <psi_i, z psi_j>.  None of it touches Givens factors or the
closed-form entry rule, which is what makes it usable as an oracle for them.

Moment convention
-----------------
mu_j := <z^j, 1> = integral of conj(e^{i j theta}) d mu(theta), for
j in [-jmax, jmax].  Consequently the integral of z^j against the measure is
mu_{-j} = conj(mu_j), and the inner product of Laurent polynomials
f = sum_a f_a z^a and g = sum_b g_b z^b is

    <f, g> = sum_{a,b} conj(f_a) g_b mu_{a-b},

conjugate-linear in the first argument.  Laurent polynomials are dense:
the ordered monomials z^{e_0}, z^{e_1}, ... have the Gram matrix
(mu_{e_a - e_b}), Gram-Schmidt on them is its Cholesky factorization
G = R^H R, and column k of the upper-triangular C = R^{-1} holds the
coefficients of psi_k.  ``gram_schmidt_laurent`` returns the exponents and
C as they are.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    MomentError,
    NumericalError,
    check,
    int_argument,
    number_array,
    real_arguments,
    sequence_argument,
)
from .schur import SchurSequence, _coefficients, _one_parameter, evaluate_phi
from .shape import GeneratingSequence

__all__ = [
    "Lebesgue",
    "BernsteinSzego",
    "Geronimus",
    "GridMeasure",
    "MomentTable",
    "moments",
    "schur_parameters",
    "gram_schmidt_laurent",
    "schur_from_moments",
    "multiplication_matrix",
]

# Largest tolerated max|C^H G C - I|.  Past it the recovered parameters are
# no longer trustworthy to the 1e-9 the oracle-equivalence checks demand.
_ORTHONORMALITY_TOL = 1e-9


class Lebesgue:
    """Normalized arc length d theta / (2 pi); all Schur parameters vanish."""

    def __repr__(self) -> str:
        return "Lebesgue()"


class BernsteinSzego:
    """Measure with density 1 / (2 pi |phi_m(e^{i theta})|^2).

    phi_m is the orthonormal Szego polynomial of the prefix, so the Schur
    parameters of the measure are the prefix followed by zeros.  The density
    integrates to one exactly.
    """

    def __init__(self, prefix):
        if not isinstance(prefix, SchurSequence):
            prefix = SchurSequence(sequence_argument("prefix", prefix, "Schur parameters"))
        self.prefix = prefix

    def density(self, thetas: np.ndarray) -> np.ndarray:
        z = np.exp(1j * real_arguments("theta", thetas))
        phi, _ = evaluate_phi(self.prefix, len(self.prefix), z)
        return 1.0 / (2.0 * np.pi * np.abs(phi) ** 2)

    def __repr__(self) -> str:
        return f"BernsteinSzego({list(self.prefix.alphas)!r})"


class Geronimus:
    """Measure whose Schur parameters are the constant sequence a, |a| < 1.

    Its moments up to jmax depend only on alpha_0 .. alpha_{jmax-1} = a, so
    they are computed exactly from those.  The measure lives on an arc, so
    its Gram matrices grow ill-conditioned exponentially in the degree.
    """

    def __init__(self, a: complex):
        (self.a,) = _one_parameter("a", a).alphas

    def __repr__(self) -> str:
        return f"Geronimus({self.a!r})"


class GridMeasure:
    """Discrete measure sum_i w_i delta(theta - theta_i) on the circle."""

    def __init__(self, thetas, weights):
        thetas = real_arguments("grid angle", thetas, shape=("n",))
        weights = real_arguments("grid weight", weights, shape=thetas.shape)
        if not np.all(weights > 0.0):
            raise ValueError("grid weights must be strictly positive")
        if not np.all((thetas >= -np.pi) & (thetas < np.pi)):
            raise ValueError("grid angles must lie in [-pi, pi)")
        check("grid mass != 1; normalize the weights", abs(weights.sum() - 1.0), 1e-12, ValueError)
        self.thetas = thetas
        self.weights = weights

    def __repr__(self) -> str:
        return f"GridMeasure({len(self.thetas)} points)"


class MomentTable:
    """Moments mu_j for |j| <= jmax of a probability measure on the circle.

    Constructed from the finite values for j >= 0; negative indices are filled
    by conjugation, so conjugate symmetry holds exactly and mu_0 is pinned to 1.
    Construction verifies positive definiteness of the Toeplitz matrix
    (mu_{i-j}) by attempting a Cholesky factorization.
    """

    def __init__(self, nonnegative_values):
        vals = number_array("moment", nonnegative_values, shape=("jmax + 1",))
        if not np.isfinite(vals).all():
            raise MomentError("moments must be finite")
        check("mu_0 != 1 but the measure must have mass 1", abs(vals[0] - 1.0), 1e-12, MomentError)
        self.jmax = vals.size - 1
        vals = vals.copy()
        vals[0] = 1.0
        self._mu = np.concatenate((np.conj(vals[:0:-1]), vals))
        try:
            np.linalg.cholesky(self._gram(list(range(self.jmax + 1))))
        except np.linalg.LinAlgError as exc:
            raise MomentError(
                "moment Toeplitz matrix is not positive definite; the values do not come "
                "from a positive measure at this range, or the measure has at most "
                f"{self.jmax} atoms"
            ) from exc

    def _reach(self, span: int) -> int:
        """The table offset of mu_0, once every moment with |j| <= ``span`` is stored.

        The one statement of the moment range: every read of the table checks it.
        """
        if span > self.jmax:
            raise MomentError(f"needs moments up to |j| = {span}; the table has jmax = {self.jmax}")
        return self.jmax

    def _gram(self, rows, cols=None, shift: int = 0) -> np.ndarray:
        """Matrix of <z^{r_a}, z^{c_b + shift}> = mu_{r_a - c_b - shift}.

        ``rows`` and ``cols`` (by default ``rows``) are lists of int
        exponents, so the span of the read comes from their ends in Python.
        """
        cols = rows if cols is None else cols
        span = max(max(rows) - min(cols) - shift, max(cols) - min(rows) + shift)
        return self._mu[self._reach(span) - shift + np.subtract.outer(rows, cols)]

    def mu(self, j: int) -> complex:
        return complex(self._mu[self._reach(abs(j)) + j])

    def __repr__(self) -> str:
        return f"MomentTable(jmax={self.jmax})"


def _schur_moments(alphas, jmax: int) -> np.ndarray:
    """mu_0 .. mu_jmax of the measure whose Schur parameters start with alphas.

    Inverse Szego recursion: phi_{k+1} = sum_i c_i z^i is orthogonal to 1,
    so sum_i conj(c_i) mu_i = 0, which fixes mu_{k+1} from mu_0 .. mu_k.
    Past float64 the moments come out non-finite, for ``MomentTable`` to reject.
    """
    vals = np.zeros(jmax + 1, dtype=complex)
    vals[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (phi, _) in enumerate(_coefficients(alphas[:jmax], *np.ones((2, 1), dtype=complex))):
            c = np.conj(phi)
            vals[k + 1] = -(c[: k + 1] @ vals[: k + 1]) / c[k + 1]
    return vals


def moments(measure, jmax: int) -> MomentTable:
    """Trigonometric moments mu_0 .. mu_jmax of a measure, as a MomentTable.

    A grid sums its atoms.  Every other family states its Schur parameters,
    and its moments follow exactly from them by the inverse Szego recursion.
    A grid of k distinct atoms has only k - 1 Schur parameters inside the
    unit disk, so its Toeplitz matrix is positive definite only up to
    jmax = k - 1, and asking for more raises ``MomentError``.  Within that
    range the moments of every family come from a positive measure, so a
    table that float64 cannot resolve raises ``NumericalError``.
    """
    jmax = int_argument("jmax", jmax)
    if isinstance(measure, GridMeasure):
        atoms = len(set(measure.thetas.tolist()))  # not np.unique: it imports numpy.ma
        if jmax >= atoms:
            raise MomentError(
                f"a grid measure with {atoms} distinct atoms has only {atoms - 1} Schur "
                f"parameters inside the unit disk, and its moment Toeplitz matrix is positive "
                f"definite only up to jmax={atoms - 1}; jmax={jmax} was asked"
            )
        vals = np.exp(-1j * np.outer(np.arange(jmax + 1), measure.thetas)) @ measure.weights
        kind = "are float64 sums of its atoms, and their Toeplitz matrix is beyond float64"
    else:
        vals = _schur_moments(_stated_parameters(measure, jmax), jmax)
        kind = "are exact but beyond float64"
    try:
        return MomentTable(vals)
    except MomentError as exc:
        cause = ("moment Toeplitz matrix numerically singular" if np.isfinite(vals).all()
                 else "moment recursion overflows")
        raise NumericalError(
            f"{cause} at jmax={jmax}; the moments of {measure!r} {kind} at this range"
        ) from exc


def _stated_parameters(measure, count: int) -> list:
    """alpha_0 .. alpha_{count-1} of a family defined by its Schur parameters."""
    if isinstance(measure, Lebesgue):
        return [0j] * count
    if isinstance(measure, BernsteinSzego):
        prefix = list(measure.prefix)[:count]
        return prefix + [0j] * (count - len(prefix))
    if isinstance(measure, Geronimus):
        return [measure.a] * count
    raise TypeError(f"unsupported measure {measure!r}")


def schur_parameters(measure, count: int) -> SchurSequence:
    """First ``count`` Schur parameters of a measure.

    Lebesgue (all zero), Bernstein-Szego (the prefix, then zeros) and
    Geronimus (every one equal to a) measures state them exactly; only a
    grid measure has them recovered from its moments, whose atom bound
    ``moments`` states: a grid of k distinct atoms gives at most k - 1.
    """
    count = int_argument("count", count, 1)
    if isinstance(measure, GridMeasure):
        return schur_from_moments(moments(measure, count), count)
    return SchurSequence(_stated_parameters(measure, count))


def _gram_schmidt(table: MomentTable, exps) -> np.ndarray:
    """Upper-triangular C; column k holds psi_k over the monomials z^{exps}.

    The coefficient of the monomial new at position k is C[k, k] = 1/R[k, k],
    real and positive, which is the normalization of the Szego polynomials.
    """
    gram = table._gram(exps)
    try:
        r = np.linalg.cholesky(gram).conj().T
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Gram matrix numerically singular at degree {len(exps) - 1}; "
            "the measure or grid is too ill-conditioned for this degree"
        ) from exc
    c = np.linalg.inv(r)
    check("Gram-Schmidt lost orthonormality",
          np.max(np.abs(c.conj().T @ gram @ c - np.eye(len(exps)))), _ORTHONORMALITY_TOL)
    return c


def gram_schmidt_laurent(table: MomentTable, gen: GeneratingSequence, n: int) -> tuple[list, np.ndarray]:
    """Orthonormal Laurent polynomials psi_0 .. psi_n for the given ordering, as (exponents, C).

    ``exponents[a]`` is the exponent of the monomial at position a of the
    ordering, and column k of the upper-triangular C holds psi_k over
    z^{exponents[0]} .. z^{exponents[k]}.  The coefficient C[k, k] of the
    monomial new at position k is real positive.  Position ``n`` is checked
    by the shape index rule, ``GeneratingSequence._index``.  The exponents
    0 .. n span a range of n + 1 integers, so jmax >= n suffices.
    """
    exps = [0] + [-gen.p[k] if gen.bits[k - 1] == 1 else k - gen.p[k]
                  for k in range(1, gen._index(n) + 1)]
    return exps, _gram_schmidt(table, exps)


def schur_from_moments(table: MomentTable, n: int) -> SchurSequence:
    """Recover alpha_0 .. alpha_{n-1} from moments alone.

    Runs Gram-Schmidt on 1, z, z^2, ... and reads each parameter off the
    constant and leading coefficients of the resulting Szego polynomials:
    with kappa_k the (real positive) leading coefficient, the recursion
    forces conj(alpha_k) = -rho_k phi_{k+1}(0) / kappa_k, and eliminating
    rho_k = kappa_k / kappa_{k+1} gives alpha_k = -conj(phi_{k+1}(0)) / kappa_{k+1}.
    """
    c = _gram_schmidt(table, list(range(int_argument("n", n, 1) + 1)))
    return SchurSequence(-np.conj(c[0, 1:]) / np.diag(c)[1:])


def multiplication_matrix(table: MomentTable, gen: GeneratingSequence, n: int) -> np.ndarray:
    """Dense n x n matrix of <psi_i, z psi_j>, sharing one Gram-Schmidt run.

    Index n - 1 must be a position of the ordering, which
    ``GeneratingSequence._index`` checks.
    """
    exps, c = gram_schmidt_laurent(table, gen, int_argument("n", n, 1) - 1)
    return c.conj().T @ table._gram(exps, shift=1) @ c
