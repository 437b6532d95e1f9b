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
would not even sum to one.  The eigenvectors are those of the Hermitian
Cayley transform i (I - wU)(I + wU)^-1 of the unitary truncation U, from
NumPy's Hermitian eigensolver, and the nodes are their Rayleigh quotients.
Where that pass fails its own residual, or some first component underflows
to zero, NumPy's general eigensolver followed by one QR factorization takes
over, so no other library is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceError,
    NumericalError,
    ShapeError,
    check,
    int_argument,
    unitarity_defect,
)
from .snake import SnakeFactorization, _snake_product

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

_MAX_EIG_SIZE = 1024
_OMEGA = np.exp(1j)


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
    """Writable copy of the canonical blocks of the first n factors of an n x n truncation."""
    if n - 1 > len(snake.gen):
        raise ShapeError(
            f"size {n} needs shape bits through s_{n - 1}; only {len(snake.gen)} stored"
        )
    return snake.schur._blocks[:n].copy()


def truncate_para_unitary(snake: SnakeFactorization, n: int, theta: float) -> ParaUnitaryTruncation:
    """Unitary n x n truncation with corner phase e^{i theta}."""
    n = int_argument("n", n, 2)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta = {theta} is not finite")
    blocks = _truncation_blocks(snake, n)
    blocks[n - 1, 0, 0] = np.exp(1j * theta)
    return ParaUnitaryTruncation(n, theta, _snake_product(snake, blocks)[:n, :n])


def principal_truncation(snake: SnakeFactorization, n: int) -> np.ndarray:
    """Leading n x n block of the infinite matrix (not unitary)."""
    n = int_argument("n", n, 2)
    return _snake_product(snake, _truncation_blocks(snake, n))[:n, :n]


def eigen_unitary(matrix: np.ndarray):
    """Eigendecomposition of a dense unitary matrix of size at most 1024.

    Returns (eigenvalues, eigenvectors) with orthonormal eigenvector columns
    scaled so that the first component of modulus above 1e-12 in each column
    is real and nonnegative.  The input must be unitary to 1e-10.

    The fast pass takes the eigenvectors V of the Hermitian Cayley transform
    A = i (I - wU)(I + wU)^-1 from ``numpy.linalg.eigh``, which returns them
    orthonormal, and the eigenvalues as the Rayleigh quotients V^H U V.  The
    pass falls back to the general dense solver when the solve for A fails,
    when some eigenpair residual exceeds 1e-10 (a node near -conj(w) makes
    A ill-conditioned), or when some first component underflows to zero, so
    that a weight stays positive wherever a positive float64 can carry it.
    The fallback orthonormalizes the eigenvectors V of ``numpy.linalg.eig``
    by one QR factorization V = QR.  Each column of Q = V R^-1 combines a
    column of V with earlier ones, and for a unitary (hence normal) input
    only those of an equal or nearby eigenvalue are not already orthogonal
    to it, so the columns stay eigenvectors while becoming orthonormal, also
    when eigenvalues repeat or cluster.  Residuals and orthonormality are
    verified against the contract before returning.
    """
    matrix = np.asarray(matrix, dtype=complex)
    n = matrix.shape[0]
    if matrix.ndim != 2 or matrix.shape != (n, n):
        raise ValueError("input must be a square matrix")
    if n > _MAX_EIG_SIZE:
        raise ValueError(f"matrix size {n} exceeds the supported {_MAX_EIG_SIZE}")
    check("input is not unitary", unitarity_defect(matrix), 1e-10, ValueError)
    return _eigen_unitary(matrix)


def _rule_size(n) -> int:
    """``n`` as the size of a Szego rule: an integer from 2 to the eigensolver's limit.

    Checked before any n-sized work, so an oversized rule costs nothing.
    """
    n = int_argument("n", n, 2)
    if n > _MAX_EIG_SIZE:
        raise ValueError(f"rule size n = {n} exceeds the supported {_MAX_EIG_SIZE}")
    return n


def _eigen_unitary(matrix: np.ndarray):
    """`eigen_unitary` for a square complex input of a supported size, known to be unitary."""
    n = matrix.shape[0]
    pairs = _cayley_pairs(matrix)
    if pairs is None:
        try:
            values, vecs = np.linalg.eig(matrix)
            vecs = np.linalg.qr(vecs)[0]
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
        residual = _residual(matrix @ vecs, values, vecs)
    else:
        values, vecs, residual = pairs
    check("eigenpair residual too large", residual, 1e-10)
    # A unit column has a component of modulus >= n**-0.5, so every column has a lead.
    lead = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(n)]
    vecs = vecs * (np.conj(lead) / np.abs(lead))
    check("eigenvectors are not orthonormal", unitarity_defect(vecs.conj().T), 1e-9)
    return values, vecs


def _residual(image: np.ndarray, values: np.ndarray, vecs: np.ndarray) -> float:
    """Largest eigenpair residual |U v - lambda v|; overwrites the image U V."""
    image -= vecs * values
    return float(np.max(np.linalg.norm(image, axis=0)))


def _cayley_pairs(matrix: np.ndarray):
    """(values, vecs, residual) of the Hermitian Cayley pass, or None where it fails.

    With w = e^{i}, -conj(w) lies at the angle pi - 1, no rational multiple
    of pi, so no spectrum of roots of unity makes I + wU singular.  Upper
    storage makes the Hermitian tridiagonal reduction pin the last row of
    its transformation rather than the first, so every first component, and
    with it every weight, is a full inner product rather than a deflated
    zero.
    """
    n = matrix.shape[0]
    with np.errstate(all="ignore"):
        try:
            plus = _OMEGA * matrix
            minus = -plus
            plus[np.diag_indices(n)] += 1.0
            minus[np.diag_indices(n)] += 1.0
            cayley = np.linalg.solve(plus, minus)
            del plus, minus
            # i (C - C^H) is twice the Hermitian part of A = i C.
            cayley -= cayley.conj().T
            cayley *= 1j
            vecs = np.linalg.eigh(cayley, UPLO="U")[1]
            del cayley
        except np.linalg.LinAlgError:
            return None
        image = matrix @ vecs
        values = np.einsum("ij,ij->j", vecs.conj(), image)
        residual = _residual(image, values, vecs)
        if not residual <= 1e-10 or not np.all(np.abs(vecs[0]) ** 2 > 0.0):
            return None
    return values, vecs, residual


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
    """Argument in [-pi, pi), counting any argument within 1e-12 of pi as -pi.

    The sign of a roundoff imaginary part would otherwise decide whether a
    node at -1 sorts first or last; nodes of a rule are more than 1e-8
    apart, so at most one of them lies at the cut.
    """
    ang = np.angle(z)
    return np.where(ang >= np.pi - 1e-12, ang - 2.0 * np.pi, ang)


def szego_quadrature(snake: SnakeFactorization, n: int, theta: float) -> QuadratureRule:
    """n-point Szego rule for the measure with the snake's Schur parameters.

    Nodes are the eigenvalues of the para-unitary truncation and the weight
    of each node is the squared modulus of the first component of its
    normalized eigenvector.  Output is sorted by principal argument in
    [-pi, pi) so that equal rules compare deterministically.  ``n`` is at
    most 1024.
    """
    truncation = truncate_para_unitary(snake, _rule_size(n), theta)
    values, vecs = _eigen_unitary(truncation.matrix)
    weights = np.abs(vecs[0, :]) ** 2
    order = np.argsort(_principal_argument(values), kind="stable")
    return QuadratureRule(values[order], weights[order])


def apply_rule(rule: QuadratureRule, f) -> complex:
    """Apply the rule to a Laurent polynomial {exponent: coefficient}; exponents are integers."""
    values = np.zeros(rule.n, dtype=complex)
    for e, c in f.items():
        values += c * rule.nodes ** int_argument("exponent", e, -math.inf)
    return complex(np.dot(rule.weights, values))


def exactness_defect(rule: QuadratureRule, table) -> float:
    """Largest |rule(z^j) - mu_{-j}| over |j| <= n - 1 for a MomentTable of the measure."""
    exps = np.arange(1 - rule.n, rule.n)
    power_sums = rule.weights @ rule.nodes[:, None] ** exps
    return float(np.max(np.abs(power_sums - [table.mu(-j) for j in exps])))
