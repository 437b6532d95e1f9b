"""Para-unitary truncations and Szego quadrature rules.

An n-point Szego rule integrates Laurent polynomials in
span{z^j : -n+1 <= j <= n-1} (the optimal subspace) exactly against the
measure whose Schur parameters parameterize the snake.  Both truncations
are the product of the first n factors G_{0,1} .. G_{n-1,n} cut to its
leading n x n block, which factor n-1 enters only through the (0, 0) entry
of its block, the corner.  With the canonical corner conj(alpha_{n-1}) the
cut is the leading n x n block of the infinite matrix, whose eigenvalues
are the zeros of phi_n and lie strictly inside the unit disk.  With the
corner e^{i theta} the block of factor n-1 stands for the diagonal phase
diag(e^{i theta}, e^{i theta~}), which decouples the leading block and
leaves it unitary: that is the para-unitary truncation, and its
eigenvalues are the nodes.  The weights are the squared moduli of the
first components of the orthonormal eigenvectors; taken unsquared they
would not even sum to one.  The eigenvectors come from NumPy's dense
eigensolver and are made orthonormal by one QR factorization, so no other
library is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, NumericalError, ShapeError, check, unitarity_defect
from .snake import SnakeFactorization, _canonical_blocks, _snake_product

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


def _truncation_blocks(snake: SnakeFactorization, n: int) -> np.ndarray:
    """Canonical blocks of the first n factors, those of an n x n truncation."""
    if n < 2:
        raise ValueError("truncation size must be at least 2")
    if n - 1 > len(snake.gen):
        raise ShapeError(
            f"size {n} needs shape bits through s_{n - 1}; only {len(snake.gen)} stored"
        )
    return _canonical_blocks(snake.schur.alphas[:n])


def truncate_para_unitary(snake: SnakeFactorization, n: int, theta: float) -> ParaUnitaryTruncation:
    """Unitary n x n truncation with corner phase e^{i theta}."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta = {theta} is not finite")
    blocks = _truncation_blocks(snake, n)
    blocks[n - 1, 0, 0] = np.exp(1j * theta)
    return ParaUnitaryTruncation(n, theta, _snake_product(snake, blocks)[:n, :n])


def principal_truncation(snake: SnakeFactorization, n: int) -> np.ndarray:
    """Leading n x n block of the infinite matrix (not unitary)."""
    return _snake_product(snake, _truncation_blocks(snake, n))[:n, :n]


def eigen_unitary(matrix: np.ndarray):
    """Eigendecomposition of a small dense unitary matrix.

    Returns (eigenvalues, eigenvectors) with orthonormal eigenvector columns
    scaled so that the first component of modulus above 1e-12 in each column
    is real and nonnegative.  The eigenvectors V of the general dense solver
    are orthonormalized by one QR factorization V = QR.  Each column of
    Q = V R^-1 combines a column of V with earlier ones, and for a unitary
    (hence normal) input only those of an equal or nearby eigenvalue are not
    already orthogonal to it, so the columns stay eigenvectors while
    becoming orthonormal, also when eigenvalues repeat or cluster.
    Residuals are verified against the contract before returning.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape != (n, n):
        raise ValueError("input must be a square matrix")
    if n > _MAX_EIG_SIZE:
        raise ValueError(f"matrix size {n} exceeds the supported {_MAX_EIG_SIZE}")
    check("input is not unitary", unitarity_defect(matrix), 1e-10, ValueError)
    try:
        values, vecs = np.linalg.eig(matrix)
        vecs = np.linalg.qr(vecs)[0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    # A unit column has a component of modulus >= n**-0.5, so every column has a lead.
    lead = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(n)]
    vecs = vecs * (np.conj(lead) / np.abs(lead))
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
    exps = np.arange(1 - rule.n, rule.n)
    power_sums = rule.weights @ rule.nodes[:, None] ** exps
    return float(np.max(np.abs(power_sums - [table.mu(-j) for j in exps])))
