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
would not even sum to one.  A rule takes the eigenvectors of the Hermitian
Cayley transform A = i (I - wU)(I + wU)^-1 of the unitary truncation U from
NumPy's Hermitian eigensolver, and the nodes as their Rayleigh quotients.
Where that pass fails its own residual, or some first component underflows
to zero, NumPy's general eigensolver followed by one QR factorization takes
over, so no other library is needed.

A rule does not depend on the shape: alpha_0 .. alpha_{n-2} and theta fix
the n-point rule, so ``szego_quadrature`` takes a Schur sequence and never
forms the snake's dense truncation.  It reads the alternating factorization
U = L M from the canonical blocks, with L the block-diagonal product of the
odd factors and M that of the even ones; the corner is the 1 x 1 block of
factor n - 1.  Since I + wU = L (L^H + wM), the Cayley matrix comes from
the tridiagonal T = L^H + wM (the pencil of Bunse-Gerstner and Elsner, and
of Cantero, Moral and Velazquez) by one solve; T is complex symmetric, and
its elimination is the Szego recursion at -conj(w), so it needs no row
interchanges.  Every block is symmetric and conjugates to its inverse, so
x -> conj(M x) maps U to U^-1 and commutes with A; in the basis of the
block-diagonal Takagi factor W of conj(M) = W W^T it is plain conjugation,
so W^H A W is real and NumPy's real symmetric eigensolver gives its
eigenvectors Q.  One product Z = conj(W) Q serves the rest: the
eigenvectors of U are V = W Q = conj(Z), since Q is real, U acts on them as
L Z, and the Rayleigh quotients are sum_i Z_ij (L Z)_ij.  Unitarity is
checked block by block, and orthonormality on the real factors: Q^T Q and
the 2 x 2 blocks of W bound max|V^H V - I| from above, so the complex
V^H V is never formed.  Where the pencil pass fails, the general
eigensolver and one QR run on L M, built from the same blocks, and measure
V^H V directly.  ``eigen_unitary`` is that general eigensolver and QR alone,
on a dense unitary matrix: it shares no Cayley code with the rule, so it is
an independent reference for it.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    ConvergenceError,
    NumericalError,
    ShapeError,
    check,
    complex_argument,
    int_argument,
    real_argument,
    unitarity_defect,
)
from .schur import SchurSequence
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
_EPS = float(np.finfo(float).eps)
_EYE2 = np.eye(2)


class ParaUnitaryTruncation:
    """Result of breaking the snake at index n - 1 with a phase corner.

    ``defect`` is the unitarity defect max|T T^H - I| of ``matrix`` that the
    constructor's check measured.
    """

    def __init__(self, n: int, theta: float, matrix: np.ndarray):
        self.defect = check("truncation is not unitary", unitarity_defect(matrix), 1e-12)
        self.n = n
        self.theta = float(theta)
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"ParaUnitaryTruncation(n={self.n}, theta={self.theta})"


def _truncation_blocks(snake: SnakeFactorization, n: int) -> np.ndarray:
    """Canonical blocks of the first n factors of the snake's n x n truncation, read-only."""
    if n - 1 > len(snake.gen):
        raise ShapeError(
            f"size {n} needs shape bits through s_{n - 1}; only {len(snake.gen)} stored"
        )
    return snake.schur._blocks[:n]


def _corner_blocks(schur: SchurSequence | SnakeFactorization, n: int, theta):
    """(theta, blocks) of an n-point para-unitary truncation: blocks 0 .. n-2 and the corner.

    ``schur`` is a SchurSequence, or a SnakeFactorization whose sequence is
    read.  Factor n - 1 enters only through its (0, 0) entry, e^{i theta}, so
    alpha_{n-1} is never read and the rest of its block stays zero.
    """
    theta = real_argument("theta", theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta = {theta} is not finite")
    schur = schur.schur if isinstance(schur, SnakeFactorization) else schur
    if n - 1 > len(schur):
        raise ShapeError(f"n = {n} needs {n - 1} Schur parameters; only {len(schur)} given")
    corner = [[np.exp(1j * theta), 0.0], [0.0, 0.0]]
    return theta, np.concatenate((schur._blocks[: n - 1], [corner]))


def truncate_para_unitary(snake: SnakeFactorization, n: int, theta: float) -> ParaUnitaryTruncation:
    """Unitary n x n truncation with corner phase e^{i theta}."""
    n = int_argument("n", n, 2)
    _truncation_blocks(snake, n)  # the shape must place factor n - 1, the corner
    theta, blocks = _corner_blocks(snake, n, theta)
    return ParaUnitaryTruncation(n, theta, _snake_product(snake, blocks)[:n, :n])


def principal_truncation(snake: SnakeFactorization, n: int) -> np.ndarray:
    """Leading n x n block of the infinite matrix (not unitary)."""
    n = int_argument("n", n, 2)
    return _snake_product(snake, _truncation_blocks(snake, n))[:n, :n]


def eigen_unitary(matrix: np.ndarray):
    """Eigendecomposition of a dense unitary matrix of size 1 to 1024.

    Returns (eigenvalues, eigenvectors) with orthonormal eigenvector columns
    scaled so that the first component of modulus above 1e-12 in each column
    is real and nonnegative.  The input must be unitary to 1e-10.

    NumPy's general eigensolver gives the eigenvectors V, and one QR
    factorization V = QR orthonormalizes them.  Each column of Q = V R^-1
    combines a column of V with earlier ones, and for a unitary (hence
    normal) input only those of an equal or nearby eigenvalue are not
    already orthogonal to it, so the columns stay eigenvectors while
    becoming orthonormal, also when eigenvalues repeat or cluster.
    Residuals and orthonormality, as max|V^H V - I| of the returned
    vectors, are verified against the contract before returning.  No
    Cayley transform and no Hermitian solver enters, so this is a
    reference independent of the rule's pencil pass.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or not matrix.size:
        raise ValueError(f"input must be a nonempty square matrix, got shape {matrix.shape}")
    n = len(matrix)
    if n > _MAX_EIG_SIZE:
        raise ValueError(f"matrix size {n} exceeds the supported {_MAX_EIG_SIZE}")
    check("input is not unitary", unitarity_defect(matrix), 1e-10, ValueError)
    values, vecs = _checked_pairs(*_general_pairs(matrix))
    # A unit column has a component of modulus >= n**-0.5, so every column has a lead.
    lead = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(n)]
    return values, vecs * (np.conj(lead) / np.abs(lead))


def _rule_size(n) -> int:
    """``n`` as the size of a Szego rule: an integer from 2 to the eigensolver's limit.

    Checked before any n-sized work, so an oversized rule costs nothing.
    """
    n = int_argument("n", n, 2)
    if n > _MAX_EIG_SIZE:
        raise ValueError(f"rule size n = {n} exceeds the supported {_MAX_EIG_SIZE}")
    return n


def _checked_pairs(values: np.ndarray, vecs: np.ndarray, residual: float, defect: float):
    """(values, vecs) once the residual and the orthonormality defect meet their contracts.

    ``defect`` is max|V^H V - I| of ``vecs``, or an upper bound on it.
    """
    check("eigenpair residual too large", residual, 1e-10)
    check("eigenvectors are not orthonormal", defect, 1e-9)
    return values, vecs


def _general_pairs(matrix: np.ndarray):
    """(values, vecs, residual, defect) of the general eigensolver, orthonormalized by one QR."""
    try:
        values, vecs = np.linalg.eig(matrix)
        vecs = np.linalg.qr(vecs)[0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc
    # V^T conj(V) = conj(V^H V) has the defect of V^H V, without a conjugate copy of V.
    return values, vecs, _residual(matrix @ vecs, values, vecs), unitarity_defect(vecs.T)


def _residual(image: np.ndarray, values: np.ndarray, vecs: np.ndarray) -> float:
    """Largest eigenpair residual |U v - lambda v|; overwrites the image U V.

    The squared column norms are sums over the real and imaginary parts of
    the float view, without the complex temporaries of ``numpy.linalg.norm``.
    """
    image -= vecs * values
    parts = image.view(float)
    squares = np.einsum("ij,ij->j", parts, parts)
    return math.sqrt((squares[0::2] + squares[1::2]).max())


def _block_defect(blocks: np.ndarray) -> float:
    """Unitarity defect of the Givens blocks of a truncation, corner included.

    A canonical block [[conj(alpha), rho], [rho, -alpha]] has B B^H - I =
    (|alpha|^2 + rho^2 - 1) I, and the corner is the phase e^{i theta}.
    """
    head = blocks[:-1]
    defect = np.abs(np.abs(head[:, 0, 0]) ** 2 + head[:, 0, 1].real ** 2 - 1.0)
    return max(float(np.max(defect)), abs(abs(complex(blocks[-1, 0, 0])) - 1.0))


def _half_product(blocks: np.ndarray, parity: int, vecs: np.ndarray) -> np.ndarray:
    """H V for the block-diagonal half-product H of the factors of one parity.

    M holds the even factors and L the odd ones.  Factor k < n - 1 acts on
    rows (k, k + 1) through its 2 x 2 block; row 0 of L is left alone, and
    the corner factor n - 1 scales row n - 1 by its (0, 0) entry, e^{i theta}
    for a truncation's blocks.  Any blocks laid out this way, such as
    ``_takagi_blocks``, multiply the same way.
    """
    n, cols = vecs.shape
    pairs = blocks[parity : n - 1 : 2]
    stop = parity + 2 * len(pairs)
    out = np.empty((n, cols), dtype=np.result_type(blocks, vecs))
    out[:parity] = vecs[:parity]
    stacked = (-1, 2, cols)
    np.matmul(pairs, vecs[parity:stop].reshape(stacked), out=out[parity:stop].reshape(stacked))
    out[stop:] = blocks[n - 1, 0, 0] * vecs[stop:]
    return out


def _even_matrix(blocks: np.ndarray) -> np.ndarray:
    """Dense n x n matrix of the even half-product, M for a truncation's blocks.

    The blocks of ``_half_product`` at parity 0 are placed on the diagonal,
    and the corner factor n - 1 fills entry (n - 1, n - 1) where n is odd.
    """
    n = len(blocks)
    pairs = blocks[0 : n - 1 : 2]
    out = np.zeros((n, n), dtype=blocks.dtype)
    rows = np.arange(2 * len(pairs)).reshape(-1, 2, 1)
    out[rows, rows.transpose(0, 2, 1)] = pairs
    if n % 2:
        out[n - 1, n - 1] = blocks[n - 1, 0, 0]
    return out


def _takagi_blocks(blocks: np.ndarray) -> np.ndarray:
    """Unitary Takagi factor W of conj(M), conj(M) = W W^T, laid out like the blocks.

    The conjugate of an even block is [[alpha, rho], [rho, -conj(alpha)]] =
    X + i Im(alpha) I, where the real reflection X = [[Re alpha, rho],
    [rho, -Re alpha]] has the eigenvalues +-c, c = hypot(Re alpha, rho) > 0,
    on the rotation R by phi / 2, phi = atan2(rho, Re alpha).  So the block
    is R diag(c + i Im alpha, -c + i Im alpha) R^T, and W_k = R diag(square
    roots) has W_k W_k^T equal to it; both roots have modulus
    |alpha|^2 + rho^2 = 1.  The corner, in M when n is odd, gets
    e^{-i theta / 2}.  The odd blocks of W are zero.
    """
    n = len(blocks)
    top = blocks[0 : n - 1 : 2, 0, 0]
    re, im, rho = top.real, -top.imag, blocks[0 : n - 1 : 2, 0, 1].real
    c = np.hypot(re, rho)
    half = 0.5 * np.arctan2(rho, re)
    cos, sin = np.cos(half), np.sin(half)
    rotation = np.array([[cos, -sin], [sin, cos]]).transpose(2, 0, 1)
    roots = np.sqrt(np.stack((c + 1j * im, -c + 1j * im), axis=-1))
    takagi = np.zeros_like(blocks)
    takagi[0 : n - 1 : 2] = rotation * roots[:, None, :]
    takagi[n - 1, 0, 0] = np.sqrt(np.conj(blocks[n - 1, 0, 0]))
    return takagi


def _pencil_cayley(blocks: np.ndarray, conj: np.ndarray):
    """Real symmetric W^H A W, up to a positive factor, from the tridiagonal pencil, or None.

    I + wU = L T with T = L^H + w M, tridiagonal and complex symmetric, so
    the Cayley matrix (I + wU)^-1 (I - wU) is I - 2w T^-1 M.  Row i of T
    carries the top of factor i and the bottom of factor i - 1 (of L's
    identity for i = 0), one from each half-product, and the coupling of
    rows i and i + 1 is rho_i.  Every block B is symmetric with
    B conj(B) = I, so the antiunitary x -> conj(M x) maps U to U^-1 and
    commutes with A; it is plain conjugation in the basis W of
    ``_takagi_blocks``, whose conjugate blocks ``conj`` holds, so W^H A W is
    real.  Since M W = conj(W), twice W^H A W is S + S^T with
    S = Im(2w W^H T^-1 conj(W)).  None where T, and with it I + wU, is
    singular.
    """
    n = len(blocks)
    top = blocks[:, 0, 0]
    bottom = np.concatenate(([1.0], blocks[:-1, 1, 1]))
    # M tops the even rows and L the odd ones.
    diag = bottom.conj() + _OMEGA * top
    diag[1::2] = top[1::2].conj() + _OMEGA * bottom[1::2]
    off = blocks[:-1, 0, 1].copy()
    off[::2] *= _OMEGA
    with np.errstate(all="ignore"):
        solution = _pencil_solve(diag.tolist(), off.tolist(), _even_matrix(conj))
        if solution is None:
            return None
        sandwich = _half_product((2.0 * _OMEGA) * conj.transpose(0, 2, 1), 0, solution).imag
        return sandwich + sandwich.T


def _pencil_solve(diag: list, off: list, rhs: np.ndarray):
    """Solution of T X = B for the pencil T = L^H + wM, or None at a zero pivot.

    T is tridiagonal and complex symmetric, so its diagonal ``diag`` and
    off-diagonal ``off``, as Python scalars, give all of it.  Elimination
    without row interchanges factors T = F D F^T, F unit lower bidiagonal,
    with f_k = t_{k,k+1} / d_k and the pivots d_0 = t_00 and
    d_{k+1} = t_{k+1,k+1} - f_k t_{k,k+1}.  The k x k leading minor of T is
    the monic Szego polynomial Phi_k at -conj(w) up to a unimodular factor,
    so |d_k| = |Phi_{k+1}(-conj(w)) / Phi_k(-conj(w))|: the elimination is
    the Szego recursion.  Since Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k
    and |Phi*_k| = |Phi_k| on |z| = 1, 1 - |alpha_k| <= |d_k| <= 1 + |alpha_k|
    for k < n - 1.  With |t_{k,k+1}| = rho_k, |f_k|^2 |d_k| =
    rho_k^2 / |d_k| <= 1 + |alpha_k|, so |F| |D| |F^T| <= 4 entrywise and
    the elimination is backward stable without pivoting.  Only the last
    pivot, where the corner e^{i theta} enters, can vanish, and it does
    where I + wU is singular.  Each step costs the rows of B one 2-term
    update.
    """
    try:
        pivots = [diag[0]]
        for t, d in zip(off, diag[1:]):
            pivots.append(d - t * t / pivots[-1])
        factors = [t / d for t, d in zip(off, pivots)]
        inverses = [1.0 / d for d in pivots]
    except ZeroDivisionError:
        return None
    x = np.array(rhs, dtype=complex)
    for i, f in enumerate(factors):
        x[i + 1] -= f * x[i]
    x *= np.array(inverses)[:, None]
    for i in range(len(factors) - 1, -1, -1):
        x[i] -= factors[i] * x[i + 1]
    return x


def _factor_defect(q: np.ndarray, conj: np.ndarray) -> float:
    """Upper bound on max|V^H V - I| for the rule's V = fl(W Q), from the factors Q and W.

    ``q`` is the real Q from ``eigh`` and ``conj`` the conjugate blocks of
    the Takagi factor W.  V^H V - I = (Q^T Q - I) + Q^T (W^H W - I) Q.
    With delta = max|Q^T Q - I| every column has |q_j|^2 <= 1 + delta, so
    entry (i, j) of the second term is at most |q_i| |q_j| eta <=
    eta (1 + delta), eta = ||W^H W - I||_2.  W is block diagonal, so eta is
    the largest over its 2 x 2 blocks and the corner (counted also where W
    does not hold it), and a 2 x 2 Hermitian matrix has norm at most twice
    its largest entry.  Rounding adds at most (n + 32) eps (1 + delta)
    (1 + eta): each entry of fl(W Q) is a sum of two products, so
    V = W Q + F with |F| <= gamma_2 |W| |Q| entrywise and
    |(W Q)^H F + F^H W Q + F^H F| <= 3 gamma_2 (1 + eta)(1 + delta); the
    computed Q^T Q is within gamma_n (1 + delta) of the exact one, and each
    block's Gram matrix within a few units of roundoff of its own.  So the
    bound is never below the defect of the returned vectors, and a check
    of it can refuse more often than one of V^H V, never less.  Q^T Q is a
    real product of one buffer with itself, which NumPy runs as a syrk; it
    replaces the complex V^H V.
    """
    n = len(q)
    gram = q.T @ q
    gram.flat[:: n + 1] -= 1.0
    delta = float(np.abs(gram).max())
    pairs = conj[0 : n - 1 : 2]
    grams = pairs.conj().transpose(0, 2, 1) @ pairs
    grams -= _EYE2
    eta = max(2.0 * float(np.abs(grams).max()), abs(abs(complex(conj[-1, 0, 0])) ** 2 - 1.0))
    rounding = (n + 32) * _EPS * (1.0 + delta) * (1.0 + eta)
    return delta + eta * (1.0 + delta) + rounding


def _pencil_pairs(blocks: np.ndarray):
    """(values, vecs, residual, defect) of the rule's Cayley pass, or None where it fails.

    ``eigh`` gives the eigenvectors Q of the real W^H A W from
    ``_pencil_cayley``, A = i (I - wU)(I + wU)^-1 for U = L M and W the
    Takagi factor of conj(M).  Z = conj(W) Q is formed once: the
    eigenvectors of U are V = W Q = conj(Z), since Q is real, U V = L Z,
    and the Rayleigh quotients V^H U V are sum_i Z_ij (L Z)_ij.  The pass
    fails where I + wU is singular, where some eigenpair residual exceeds
    1e-10 (a node near -conj(w) makes A ill-conditioned), or where some
    first component underflows to zero, so that a weight stays positive
    wherever a positive float64 can carry it.  With w = e^{i}, -conj(w)
    lies at the angle pi - 1, no rational multiple of pi, so no spectrum of
    roots of unity makes I + wU singular.  Upper storage makes the
    tridiagonal reduction pin the last row of its transformation rather
    than the first, so every first component, and with it every weight, is
    a full inner product rather than a deflated zero.
    """
    conj = _takagi_blocks(blocks).conj()
    hermitian = _pencil_cayley(blocks, conj)
    if hermitian is None:
        return None
    with np.errstate(all="ignore"):
        try:
            q = np.linalg.eigh(hermitian, UPLO="U")[1]
        except np.linalg.LinAlgError:
            return None
        del hermitian
        z = _half_product(conj, 0, q)
        image = _half_product(blocks, 1, z)
        values = np.einsum("ij,ij->j", z, image)
        vecs = np.conjugate(z, out=z)
        residual = _residual(image, values, vecs)
        if not residual <= 1e-10 or not np.all(np.abs(vecs[0]) ** 2 > 0.0):
            return None
    return values, vecs, residual, _factor_defect(q, conj)


class QuadratureRule:
    """Nodes on the unit circle and positive weights of an n-point rule."""

    def __init__(self, nodes, weights):
        nodes = np.asarray(nodes, dtype=complex)
        weights = np.asarray(weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not nodes.size:
            raise ValueError("a quadrature rule needs at least one node; it has no nodes")
        check("quadrature nodes left the unit circle", np.max(np.abs(np.abs(nodes) - 1.0)), 1e-10)
        # The closest two nodes are neighbours in angle, the last and the first included.
        ring = nodes[np.argsort(np.angle(nodes))]
        sep = np.min(np.abs(ring - np.roll(ring, 1)) if nodes.size > 1 else [], initial=2.0)
        if not sep > 1e-8:
            raise NumericalError(
                f"nodes nearly coincide (min separation {sep:.3e}); pick another theta"
            )
        bad = np.count_nonzero(~(weights > 0.0))
        if bad:
            raise NumericalError(
                f"quadrature weights must be strictly positive ({bad} of {weights.size} "
                f"are not; smallest {np.min(weights):.3e})"
            )
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


def szego_quadrature(schur: SchurSequence | SnakeFactorization, n: int, theta: float) -> QuadratureRule:
    """n-point Szego rule for the measure with Schur parameters ``schur``.

    ``schur`` is a SchurSequence of at least n - 1 parameters, or a
    SnakeFactorization, whose sequence is read; the rule reads alpha_0 ..
    alpha_{n-2} and theta, and never the shape.

    Nodes are the eigenvalues of the para-unitary truncation and the weight
    of each node is the squared modulus of the first component of its
    normalized eigenvector.  Output is sorted by principal argument in
    [-pi, pi) so that equal rules compare deterministically.  ``n`` is at
    most 1024.

    The truncations of all shapes are unitarily similar by a similarity
    that fixes the first basis vector, so the rule is read from the
    alternating one, U = L M, whose half-products are block-diagonal: the
    Cayley pass takes the real W^H A W from the tridiagonal pencil, with W
    the Takagi factor of conj(M), forms Z = conj(W) Q once, and returns
    V = conj(Z) with U V = L Z; ``_factor_defect`` bounds the orthonormality
    defect of V from Q and W.  Where that pass fails, the general
    eigensolver runs on L M, from the blocks already checked, so the shape
    never enters.
    """
    n = _rule_size(n)
    _, blocks = _corner_blocks(schur, n, theta)
    check("truncation blocks are not unitary", _block_defect(blocks), 1e-12)
    pairs = _pencil_pairs(blocks) or _general_pairs(_half_product(blocks, 1, _even_matrix(blocks)))
    values, vecs = _checked_pairs(*pairs)
    weights = np.abs(vecs[0, :]) ** 2
    order = np.argsort(_principal_argument(values), kind="stable")
    return QuadratureRule(values[order], weights[order])


def apply_rule(rule: QuadratureRule, f) -> complex:
    """Apply the rule to a Laurent polynomial {exponent: coefficient}.

    Exponents are integers and coefficients finite numbers: a coefficient
    that is not a number raises a ``TypeError``, and one that is not finite
    a ``ValueError``, each naming "coefficient of z^<exponent>".
    """
    values = np.zeros(rule.n, dtype=complex)
    for e, c in f.items():
        e = int_argument("exponent", e, -math.inf)
        name = f"coefficient of z^{e}"
        c = complex_argument(name, c)
        if not cmath.isfinite(c):
            raise ValueError(f"{name} = {c} is not finite")
        values += c * rule.nodes**e
    return complex(np.dot(rule.weights, values))


def exactness_defect(rule: QuadratureRule, table) -> float:
    """Largest |rule(z^j) - mu_{-j}| over |j| <= n - 1 for a MomentTable of the measure."""
    exps = np.arange(1 - rule.n, rule.n)
    power_sums = rule.weights @ rule.nodes[:, None] ** exps
    return float(np.max(np.abs(power_sums - [table.mu(-j) for j in exps])))
