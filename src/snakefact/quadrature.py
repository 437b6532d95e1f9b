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
NumPy's Hermitian eigensolver, and the nodes as their Rayleigh quotients;
NumPy's general eigensolver and one QR factorization are its fallback, so
no other library is needed.

A rule does not depend on the shape: alpha_0 .. alpha_{n-2} and theta fix
the n-point rule, so ``szego_quadrature`` takes a Schur sequence and never
forms the snake's dense truncation.  It reads the alternating factorization
U = L M from the canonical blocks, with L the block-diagonal product of the
odd factors and M that of the even ones; the corner is the 1 x 1 block of
factor n - 1.  Since I + wU = L (L^H + wM), the Cayley matrix comes from
the tridiagonal T = L^H + wM (the pencil of Bunse-Gerstner and Elsner, and
of Cantero, Moral and Velazquez).  T is complex symmetric, its elimination
is the Szego recursion at -conj(w), and its inverse is semiseparable, so no
system is solved: above its 2 x 2 diagonal blocks the eigensolver's matrix
is one real rank-2 product times powers of two.  Every block is symmetric
and conjugates to its inverse, so x -> conj(M x) maps U to U^-1 and
commutes with A; in the basis of the block-diagonal Takagi factor W of
conj(M) = W W^T it is plain conjugation, so W^H A W is real and NumPy's
real symmetric eigensolver gives its eigenvectors Q.  One product
Z = conj(W) Q serves the rest: V = W Q = conj(Z), U V = L Z, and the
Rayleigh quotients are sum_i Z_ij (L Z)_ij.  Unitarity is checked block by
block, and orthonormality on the real factors Q and W, never on V^H V.
Where the pencil pass raises the reason it refuses, or fails the residual
or orthonormality bound that ``_checked_pairs`` applies to both routes,
the general eigensolver and one QR run on L M, built from the same blocks,
and measure V^H V directly.  ``eigen_unitary``
is that general eigensolver and QR alone, on a dense unitary matrix: it
shares no Cayley code with the rule, so it is an independent reference.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    MAX_SIZE,
    ConvergenceError,
    NumericalError,
    check,
    finite,
    int_argument,
    laurent_argument,
    number_array,
    real_argument,
    real_arguments,
    unitarity_defect,
)
from .schur import SchurSequence
from .snake import SnakeFactorization, _snake_product, materialize_window

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

# Largest eigenpair residual |U v - lambda v| that ``_checked_pairs`` accepts,
# on both routes of a rule and in the reference.
_RESIDUAL_TOL = 1e-10
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


def _corner_blocks(schur: SchurSequence, n: int, theta):
    """(theta, blocks) of an n-point para-unitary truncation: blocks 0 .. n-2 and the corner.

    Factor n - 1 enters only through its (0, 0) entry, e^{i theta}, so
    alpha_{n-1} is never read and the rest of its block stays zero: the
    blocks are those of phi_{n-1}, whose degree ``SchurSequence._degree``
    checks.
    """
    theta = finite("theta", real_argument("theta", theta))
    schur._degree(n - 1)
    corner = [[np.exp(1j * theta), 0.0], [0.0, 0.0]]
    return theta, np.concatenate((schur._blocks[: n - 1], [corner]))


def truncate_para_unitary(snake: SnakeFactorization, n: int, theta: float) -> ParaUnitaryTruncation:
    """Unitary n x n truncation with corner phase e^{i theta}."""
    n = int_argument("n", n, 2)
    snake.gen._index(n - 1)  # the shape must place factor n - 1, the corner
    theta, blocks = _corner_blocks(snake.schur, n, theta)
    return ParaUnitaryTruncation(n, theta, _snake_product(snake, blocks)[:n, :n])


def principal_truncation(snake: SnakeFactorization, n: int) -> np.ndarray:
    """Leading n x n block of the infinite matrix (not unitary)."""
    n = int_argument("n", n, 2)
    return materialize_window(snake, n - 1)[:n, :n]


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
    if hasattr(matrix, "__len__") and getattr(matrix, "ndim", 1):  # before converting it
        int_argument("matrix size", len(matrix), hi=MAX_SIZE)
    matrix = number_array("matrix", matrix, shape=("n", "n"))
    n = len(matrix)
    check("input is not unitary", unitarity_defect(matrix), 1e-10, ValueError)
    values, vecs = _checked_pairs(*_general_pairs(matrix))
    # A unit column has a component of modulus >= n**-0.5, so every column has a lead.
    lead = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(n)]
    return values, vecs * (np.conj(lead) / np.abs(lead))


def _rule_size(n) -> int:
    """``n`` as a Szego rule size: an integer from 2 to ``MAX_SIZE``, the eigensolver's limit.

    ``int_argument`` checks it before any n-sized work, so an oversized
    rule costs nothing: "n = <n> exceeds the supported 1024".
    """
    return int_argument("n", n, 2, MAX_SIZE)


def _checked_pairs(values: np.ndarray, vecs: np.ndarray, residual: float, defect: float):
    """(values, vecs) once the residual and the orthonormality defect meet their contracts.

    ``defect`` is max|V^H V - I| of ``vecs``, or an upper bound on it.
    """
    check("eigenpair residual too large", residual, _RESIDUAL_TOL)
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


def _pencil_pivots(diag: list, off: list):
    """Pivots d_k of T = F D F^T from T's diagonal and off-diagonal, or None where one is zero."""
    pivots = [diag[0]]
    try:
        for t, d in zip(off, diag[1:]):
            pivots.append(d - t * t / pivots[-1])
    except ZeroDivisionError:
        return None
    return pivots if pivots[-1] else None


def _pencil_cayley(blocks: np.ndarray, conj: np.ndarray):
    """Upper triangle of twice the real W^H A W from the tridiagonal pencil.

    I + wU = L T with T = L^H + wM, so the Cayley matrix (I + wU)^-1 (I - wU)
    is I - 2w T^-1 M, and W^H A W = Im(2w K T^-1 K^T) with K = W^H, since
    M W = conj(W); ``conj`` holds the blocks of conj(W).

    Elimination without interchanges factors T = F D F^T.  The k x k leading
    minor of T is the monic Szego polynomial Phi_k at -conj(w) up to a
    unimodular factor, so |d_k| = |Phi_{k+1} / Phi_k| there, and as
    Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k with |Phi*_k| = |Phi_k| on
    |z| = 1, 1 - |alpha_k| <= |d_k| <= 1 + |alpha_k| for k < n - 1.  With
    r_k = -t_{k,k+1} / d_k, |r_k|^2 |d_k| = rho_k^2 / |d_k| <= 1 + |alpha_k|,
    so |F| |D| |F^T| <= 4 entrywise and no pivoting is needed.  Only the last
    pivot, where the corner e^{i theta} enters, can vanish, and it does where
    I + wU is singular; then a ``NumericalError`` says so.

    T^-1 is semiseparable: for i <= j, (T^-1)_ij = g_j Pi_j / Pi_i with
    Pi_m = r_0 .. r_{m-1} and g_j = (T^-1)_jj = 1 / d_j + r_j^2 g_{j+1}.  So
    above the 2 x 2 diagonal blocks of K the matrix is one real rank-2
    product, and within block s, s + 1 only (T^-1)_{s+1,s} departs from it,
    which one O(n) term corrects.  Pi spans thousands of bits for |alpha|
    near 1, so it is kept as a mantissa and a power of two for ``ldexp``.
    The strict lower triangle is zero.
    """
    n = len(blocks)
    top, bottom = blocks[:, 0, 0], np.concatenate(([1.0], blocks[:-1, 1, 1]))
    # Row i has the top of factor i and the bottom of factor i - 1 (1 at i = 0);
    # M tops the even rows and L the odd ones.
    diag = bottom.conj() + _OMEGA * top
    diag[1::2] = top[1::2].conj() + _OMEGA * bottom[1::2]
    off = blocks[:-1, 0, 1].copy()
    off[::2] *= _OMEGA
    pivots = _pencil_pivots(diag.tolist(), off.tolist())
    if pivots is None:
        raise NumericalError("the Cayley pencil is singular: a pivot is zero")
    half, full = (n + 1) // 2, n // 2  # blocks of K, with and without a 1 x 1 corner
    with np.errstate(all="ignore"):
        ratio = np.concatenate((-off / np.array(pivots[:-1]), (1.0, 1.0)))[: 2 * half]
        g = [1.0 / pivots[-1]]
        for d, r in zip(pivots[-2::-1], ratio[n - 2 :: -1].tolist()):
            g.append(1.0 / d + r * r * g[-1])
        g = np.array(g[::-1] + [0.0] * (2 * half - n), dtype=complex)
        # Pi_s at each block start s = 2p; each ratio pair is scaled toward modulus 1
        r = ratio[0::2]
        step = np.concatenate(((1.0,), r[:-1] * ratio[1:-1:2]))
        shift = -np.frexp(np.abs(step) * math.sqrt(0.5))[1]
        scale = np.multiply.accumulate(np.ldexp(1.0, shift) * step)
        # block p's generators K_p [1, 1 / r_s] / Pi_s and Pi_s K_p [g_s, g_{s+1} r_s]
        coef = np.empty((2, half, 1, 2), dtype=complex)
        coef[0, :, 0, 0], coef[1, :, 0] = 1.0 / scale, g.reshape(half, 2) * scale[:, None]
        coef[0, :, 0, 1], coef[1, :, 0, 1] = coef[0, :, 0, 0] / r, coef[1, :, 0, 1] * r
        sides = coef @ conj[0::2]
        # Im(x y) = (Im x, Re x) . (Re y, Im y), the float views of i conj(x) and y
        left = np.conj((-4j * _OMEGA) * sides[0]).view(float).reshape(-1, 2)[:n]
        h = left @ sides[1].view(float).reshape(-1, 2)[:n].T
        exponent = np.add.accumulate(shift, dtype=np.int32).repeat(2)[:n]
        np.ldexp(h, np.subtract.outer(exponent, exponent), out=h)
        # (T^-1)_{s+1,s} is g_{s+1} r_s, not the rank-one g_s / r_s
        delta = (-4j * _OMEGA) * (g[1:n:2] * r[:full] - g[0 : n - 1 : 2] / r[:full])
        pairs = conj[0 : n - 1 : 2]
        diagonal = np.ndarray((full, 2, 2), float, h, strides=(2 * sum(h.strides), *h.strides))
        diagonal += (delta[:, None, None] * pairs[:, 1, :, None] * pairs[:, 0, None, :]).real
        np.copyto(h, 0.0, where=np.tri(n, k=-1, dtype=bool))
        return h


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
    """(values, vecs, residual, defect) of the rule's Cayley pass for ``_checked_pairs``.

    ``eigh`` gives the eigenvectors Q of ``_pencil_cayley``'s real W^H A W,
    and Z = conj(W) Q gives V = conj(Z) and U V = L Z.  The pass raises a
    ``NumericalError`` that names its refusal where I + wU is singular,
    where ``eigh`` does not converge (a ``ConvergenceError``), or where the
    squared modulus of some first component underflows to 0, so that a
    weight stays positive wherever a positive float64 can carry it; a NaN
    component is left to the residual.  The residual and the orthonormality
    bound are ``_checked_pairs``' alone: a node near -conj(w) makes A
    ill-conditioned and fails the residual there.  With w = e^{i}, -conj(w)
    lies at the angle pi - 1, no rational multiple of pi, so no spectrum of
    roots of unity makes I + wU singular.  Upper storage makes the
    tridiagonal reduction pin the last row of its transformation rather
    than the first, so every first component, and with it every weight, is
    a full inner product rather than a deflated zero.
    """
    conj = _takagi_blocks(blocks).conj()
    hermitian = _pencil_cayley(blocks, conj)
    with np.errstate(all="ignore"):
        try:
            q = np.linalg.eigh(hermitian, UPLO="U")[1]
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"the Cayley pencil's eigh did not converge: {exc}") from exc
        del hermitian
        z = _half_product(conj, 0, q)
        image = _half_product(blocks, 1, z)
        values = np.einsum("ij,ij->j", z, image)
        vecs = np.conjugate(z, out=z)
        check("weights of the Cayley pass underflow to 0",
              np.count_nonzero(np.abs(vecs[0]) ** 2 == 0.0), 0)
        return values, vecs, _residual(image, values, vecs), _factor_defect(q, conj)


class QuadratureRule:
    """Nodes on the unit circle and positive weights of an n-point rule."""

    def __init__(self, nodes, weights):
        nodes = number_array("node", nodes, shape=("n",))
        weights = real_arguments("weight", weights, shape=nodes.shape)
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


def _sorted_rule(values: np.ndarray, vecs: np.ndarray) -> QuadratureRule:
    """The rule of eigenpairs: weights |v_0|^2, sorted by principal argument in [-pi, pi)."""
    order = np.argsort(_principal_argument(values), kind="stable")
    return QuadratureRule(values[order], np.abs(vecs[0, order]) ** 2)


def szego_quadrature(schur: SchurSequence | SnakeFactorization, n: int, theta: float) -> QuadratureRule:
    """n-point Szego rule for the measure with Schur parameters ``schur``.

    ``schur`` is a SchurSequence of at least n - 1 parameters, or a
    SnakeFactorization, whose sequence is read; any other type raises a
    ``TypeError``.  The rule reads alpha_0 .. alpha_{n-2} and theta, and
    never the shape; fewer parameters fail the degree rule of
    ``SchurSequence._degree`` for phi_{n-1} with a ``ValueError``.

    Nodes are the eigenvalues of the para-unitary truncation and the weight
    of each node is the squared modulus of the first component of its
    normalized eigenvector.  Output is sorted by principal argument in
    [-pi, pi) so that equal rules compare deterministically.  ``n`` is at
    most 1024.

    The truncations of all shapes are unitarily similar by a similarity
    that fixes the first basis vector, so the rule is read from the
    alternating one, U = L M, whose half-products are block-diagonal: the
    Cayley pass reads the real W^H A W of the tridiagonal pencil, and where
    it fails the general eigensolver runs on L M, from the blocks already
    checked, so the shape never enters.
    """
    n = _rule_size(n)
    if isinstance(schur, SnakeFactorization):
        schur = schur.schur
    elif not isinstance(schur, SchurSequence):
        raise TypeError("schur must be a SchurSequence or a SnakeFactorization, "
                        f"got {type(schur).__name__} {schur!r}")
    _, blocks = _corner_blocks(schur, n, theta)
    check("truncation blocks are not unitary", _block_defect(blocks), 1e-12)
    try:
        pairs = _checked_pairs(*_pencil_pairs(blocks))
    except NumericalError:  # an error of the general route keeps the pencil's as its context
        dense = _half_product(blocks, 1, _half_product(blocks, 0, np.eye(n, dtype=complex)))
        return _sorted_rule(*_checked_pairs(*_general_pairs(dense)))
    return _sorted_rule(*pairs)


def apply_rule(rule: QuadratureRule, f) -> complex:
    """Apply the rule to a Laurent polynomial {exponent: coefficient}.

    ``errors.laurent_argument`` checks it: a mapping of integer exponents
    to finite number coefficients.
    """
    values = np.zeros(rule.n, dtype=complex)
    for e, c in laurent_argument("f", f).items():
        values += c * rule.nodes**e
    return complex(np.dot(rule.weights, values))


def exactness_defect(rule: QuadratureRule, table) -> float:
    """Largest |rule(z^j) - mu_{-j}| over |j| <= n - 1 for a MomentTable of the measure."""
    exps = np.arange(1 - rule.n, rule.n)
    power_sums = rule.weights @ rule.nodes[:, None] ** exps
    return float(np.max(np.abs(power_sums - [table.mu(-j) for j in exps])))
