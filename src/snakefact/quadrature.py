"""Para-unitary truncations and Szego quadrature rules.

An n-point Szego rule integrates Laurent polynomials in
span{z^j : -n+1 <= j <= n-1} (the optimal subspace) exactly against the
measure whose Schur parameters parameterize the snake.  Its nodes are the
eigenvalues of the n x n para-unitary truncation: keep the factors
G_{0,1} .. G_{n-2,n-1} of the snake, replace the block of G_{n-1,n} by the
diagonal phase diag(e^{i theta}, e^{i theta~}), and absorb e^{i theta} into
the block of G_{n-2,n-1} (from the right when s_{n-1} = 0, from the left
when s_{n-1} = 1).  The second phase only multiplies the discarded tail and
is never materialized.  The weights are the squared moduli of the first
components of the orthonormal eigenvectors; taken unsquared they would not
even sum to one.  Replacing e^{i theta} by conj(alpha_{n-1}), the parameter
of the removed factor, yields the leading n x n block of the infinite matrix
instead, whose eigenvalues are the zeros of phi_n and lie strictly inside
the unit disk.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, NumericalError, ShapeError, check, unitarity_defect
from .snake import GivensFactor, SnakeFactorization, _snake_product

__all__ = [
    "ParaUnitaryTruncation",
    "QuadratureRule",
    "truncate_para_unitary",
    "principal_truncation",
    "eigen_unitary",
    "szego_quadrature",
    "apply_rule",
    "exactness_defect",
]

_MAX_EIG_SIZE = 256


class ParaUnitaryTruncation:
    """Result of breaking the snake at index n - 1 with a phase corner."""

    def __init__(self, n: int, theta: float, matrix: np.ndarray):
        check("truncation is not unitary", unitarity_defect(matrix), 1e-12)
        self.n = n
        self.theta = float(theta)
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"ParaUnitaryTruncation(n={self.n}, theta={self.theta})"


def _absorbed_block(snake: SnakeFactorization, n: int, corner: complex) -> np.ndarray:
    """Block of G_{n-2,n-1} with the corner scalar absorbed on the correct side."""
    if n < 2:
        raise ValueError("truncation size must be at least 2")
    if n - 1 > len(snake.gen):
        raise ShapeError(
            f"size {n} needs shape bits through s_{n - 1}; only {len(snake.gen)} stored"
        )
    absorb = np.array([[1.0, 0.0], [0.0, corner]], dtype=complex)
    block = snake.factor(n - 2).block
    return block @ absorb if snake.gen.s(n - 1) == 0 else absorb @ block


def truncate_para_unitary(snake: SnakeFactorization, n: int, theta: float) -> ParaUnitaryTruncation:
    """Unitary n x n truncation with corner phase e^{i theta}."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta = {theta} is not finite")
    corner = complex(np.exp(1j * theta))
    last = GivensFactor(n - 2, _absorbed_block(snake, n, corner), canonical=False)
    return ParaUnitaryTruncation(n, theta, _snake_product(snake, n - 2, n, last.block))


def principal_truncation(snake: SnakeFactorization, n: int) -> np.ndarray:
    """Leading n x n block of the infinite matrix (not unitary).

    Same construction as the para-unitary truncation but with the corner
    scalar conj(alpha_{n-1}) of the removed factor, which reproduces the
    principal submatrix entry for entry.  The absorbed block is contractive
    rather than unitary, so it is used raw instead of as a GivensFactor.
    """
    corner = np.conj(snake.schur.alpha(n - 1))
    return _snake_product(snake, n - 2, n, _absorbed_block(snake, n, corner))


def eigen_unitary(matrix: np.ndarray):
    """Eigendecomposition of a small dense unitary matrix.

    Returns (eigenvalues, eigenvectors) with orthonormal eigenvector columns
    scaled so that the first component of nonnegligible modulus in each
    column is real and nonnegative.  Backed by the complex Schur
    factorization, which for a unitary (hence normal) input is already the
    spectral decomposition up to roundoff; residuals are verified against
    the contract before returning.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape != (n, n):
        raise ValueError("input must be a square matrix")
    if n > _MAX_EIG_SIZE:
        raise ValueError(f"matrix size {n} exceeds the supported {_MAX_EIG_SIZE}")
    check("input is not unitary", unitarity_defect(matrix), 1e-10, ValueError)
    try:
        tri, vecs = scipy.linalg.schur(matrix, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"Schur iteration did not converge: {exc}") from exc
    values = np.diag(tri).copy()
    vecs = vecs.copy()
    for col in range(n):
        for row in range(n):
            lead = vecs[row, col]
            if abs(lead) > 1e-12:
                vecs[:, col] *= np.conj(lead) / abs(lead)
                break
    residual = np.linalg.norm(matrix @ vecs - vecs * values, axis=0)
    check("eigenpair residual too large", np.max(residual), 1e-10)
    check("eigenvectors are not orthonormal", unitarity_defect(vecs.conj().T), 1e-9)
    return values, vecs


class QuadratureRule:
    """Nodes on the unit circle and positive weights of an n-point rule."""

    def __init__(self, nodes, weights):
        nodes = np.asarray(nodes, dtype=complex)
        weights = np.asarray(weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        check("quadrature nodes left the unit circle", np.max(np.abs(np.abs(nodes) - 1.0)), 1e-10)
        sep = np.min(np.abs(nodes[:, None] - nodes[None, :]) + 2.0 * np.eye(nodes.size))
        if not sep > 1e-8:
            raise NumericalError(
                f"nodes nearly coincide (min separation {sep:.3e}); pick another theta"
            )
        if not np.all(weights > 0.0):
            raise NumericalError("quadrature weights must be strictly positive")
        check("quadrature weights do not sum to 1", abs(weights.sum() - 1.0), 1e-10)
        self.nodes = nodes
        self.weights = weights

    @property
    def n(self) -> int:
        return self.nodes.size

    def __repr__(self) -> str:
        return f"QuadratureRule(n={self.n})"


def _principal_argument(z: np.ndarray) -> np.ndarray:
    ang = np.angle(z)
    return np.where(ang >= np.pi, ang - 2.0 * np.pi, ang)


def szego_quadrature(snake: SnakeFactorization, n: int, theta: float) -> QuadratureRule:
    """n-point Szego rule for the measure with the snake's Schur parameters.

    Nodes are the eigenvalues of the para-unitary truncation and the weight
    of each node is the squared modulus of the first component of its
    normalized eigenvector.  Output is sorted by principal argument in
    [-pi, pi) so that equal rules compare deterministically.
    """
    truncation = truncate_para_unitary(snake, n, theta)
    values, vecs = eigen_unitary(truncation.matrix)
    weights = np.abs(vecs[0, :]) ** 2
    order = np.argsort(_principal_argument(values), kind="stable")
    return QuadratureRule(values[order], weights[order])


def apply_rule(rule: QuadratureRule, f) -> complex:
    """Apply the rule to a Laurent polynomial {exponent: coefficient}."""
    values = np.zeros(rule.n, dtype=complex)
    for e, c in f.items():
        values += c * rule.nodes**e
    return complex(np.dot(rule.weights, values))


def exactness_defect(rule: QuadratureRule, table) -> float:
    """Largest |rule(z^j) - mu_{-j}| over |j| <= n - 1 for a MomentTable of the measure."""
    n = rule.n
    return float(max(abs(apply_rule(rule, {j: 1.0}) - table.mu(-j)) for j in range(1 - n, n)))
