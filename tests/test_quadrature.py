import re

import mpmath
import numpy as np
import pytest
import scipy.linalg

from helpers import (
    MIXED_BITS,
    count_eig_calls,
    para_unitary_product,
    parameter_family,
    random_bits,
    random_schur,
)
from snakefact import quadrature
from snakefact.errors import NumericalError, ShapeError, ShapeIndexError, unitarity_defect
from snakefact.expand import entry, expand_dense
from snakefact.oracle import BernsteinSzego, Lebesgue, moments, schur_from_moments
from snakefact.quadrature import (
    QuadratureRule,
    _corner_blocks,
    _factor_defect,
    _half_product,
    _pencil_cayley,
    _pencil_pivots,
    _principal_argument,
    _takagi_blocks,
    apply_rule,
    eigen_unitary,
    szego_quadrature,
    truncate_para_unitary,
)
from snakefact.schur import SchurSequence, evaluate_phi
from snakefact.snake import (
    GeneratingSequence,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
    _snake_product,
    materialize_window,
)


def free_snake(m):
    return SnakeFactorization(SchurSequence([0.0] * (m + 1)), hessenberg_shape(m))


def refuse_the_snake_truncation(monkeypatch):
    """Make the snake's shape-dependent product and dense truncation raise."""

    def refuse(*args):
        raise AssertionError("the snake's dense truncation ran")

    monkeypatch.setattr("snakefact.quadrature._snake_product", refuse)
    monkeypatch.setattr("snakefact.quadrature.truncate_para_unitary", refuse)


def cyclic_shift(n):
    mat = np.zeros((n, n))
    mat[np.arange(1, n), np.arange(n - 1)] = 1.0
    mat[0, n - 1] = 1.0
    return mat


class TestTruncation:
    def test_free_case_is_cyclic_shift(self):
        trunc = truncate_para_unitary(free_snake(4), 4, 0.0)
        assert np.allclose(trunc.matrix, cyclic_shift(4), atol=1e-15)

    def test_two_point(self):
        snake = SnakeFactorization(SchurSequence([0.6, 0.0]), hessenberg_shape(1))
        trunc = truncate_para_unitary(snake, 2, 0.0)
        assert np.allclose(trunc.matrix, [[0.6, 0.8], [0.8, -0.6]], atol=1e-15)
        values, _ = eigen_unitary(trunc.matrix)
        assert np.allclose(sorted(values.real), [-1.0, 1.0], atol=1e-12)
        assert np.max(np.abs(np.abs(values) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 0.7, np.pi / 3, 2.1])
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_unitary_for_all_shapes(self, n, theta):
        rng = np.random.default_rng(n)
        m = 63
        shapes = [hessenberg_shape(m), cmv_shape(m), GeneratingSequence(random_bits(rng, m))]
        for gen in shapes:
            snake = SnakeFactorization(random_schur(rng, m + 1), gen)
            trunc = truncate_para_unitary(snake, n, theta)
            defect = np.max(np.abs(trunc.matrix @ trunc.matrix.conj().T - np.eye(n)))
            assert defect <= 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("pair", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_corner_on_the_side_of_the_last_factor(self, n, pair):
        # The corner side is invisible to unitarity and to the spectrum, so
        # compare entries against an independent product.
        rng = np.random.default_rng(100 * n + 2 * pair[0] + pair[1])
        bits = list(random_bits(rng, 12))
        bits[n - 2] = pair[1]  # s_{n-1}; s_{n-2} exists from n = 3 on
        if n >= 3:
            bits[n - 3] = pair[0]
        snake = SnakeFactorization(random_schur(rng, 13), GeneratingSequence(bits))
        theta = float(rng.uniform(-np.pi, np.pi))
        got = truncate_para_unitary(snake, n, theta).matrix
        assert np.max(np.abs(got - para_unitary_product(snake, n, theta))) <= 1e-14

    def test_corner_does_not_leak_into_the_snake(self):
        # The corner is written into a copy of the sequence's shared blocks.
        rng = np.random.default_rng(14)
        snake = SnakeFactorization(random_schur(rng, 9), GeneratingSequence(random_bits(rng, 8)))

        def outputs():
            entries = [entry(snake, i, j) for i in range(9) for j in range(9)]
            return materialize_window(snake, 8), expand_dense(snake, 9), np.array(entries)

        before = outputs()
        truncate_para_unitary(snake, 9, 2.5)
        truncate_para_unitary(snake, 5, -1.0)
        for old, new in zip(before, outputs()):
            np.testing.assert_array_equal(new, old)

    def test_needs_enough_bits(self):
        snake = SnakeFactorization(SchurSequence([0.1] * 3), hessenberg_shape(2))
        with pytest.raises(ShapeError):
            truncate_para_unitary(snake, 4, 0.0)
        with pytest.raises(ValueError):
            truncate_para_unitary(snake, 1, 0.0)


class TestPrincipalTruncation:
    # The leading n x n block of the infinite matrix, which is not unitary:
    # the window through factor n - 1, cut to n x n.
    def test_equals_leading_block(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            m = int(rng.integers(3, 10))
            gen = GeneratingSequence(random_bits(rng, m))
            snake = SnakeFactorization(random_schur(rng, m + 1), gen)
            for n in (2, m, m + 1):
                block = materialize_window(snake, n - 1)[:n, :n]
                assert np.max(np.abs(block - expand_dense(snake, n))) <= 1e-13

    def test_eigenvalues_inside_disk(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            snake = SnakeFactorization(
                random_schur(rng, 9, lo=0.05, hi=0.9), GeneratingSequence(random_bits(rng, 8))
            )
            values = np.linalg.eigvals(materialize_window(snake, 7)[:8, :8])
            assert np.max(np.abs(values)) < 1.0

    def test_eigenvalues_are_polynomial_zeros(self):
        rng = np.random.default_rng(23)
        schur = random_schur(rng, 9)
        snake = SnakeFactorization(schur, hessenberg_shape(8))
        for n in (4, 8):
            values = np.linalg.eigvals(materialize_window(snake, n - 1)[:n, :n])
            phi, _ = evaluate_phi(schur, n, values)
            assert np.max(np.abs(phi)) <= 1e-8

    def test_spectrum_shape_invariant(self):
        rng = np.random.default_rng(24)
        schur = random_schur(rng, 9)
        spectra = []
        for gen in (hessenberg_shape(8), cmv_shape(8), GeneratingSequence(MIXED_BITS[:8])):
            values = np.linalg.eigvals(materialize_window(SnakeFactorization(schur, gen), 7)[:8, :8])
            spectra.append(np.sort_complex(values))
        assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-10
        assert np.max(np.abs(spectra[0] - spectra[2])) <= 1e-10


class TestTruncationWindow:
    # Both truncations are the leading block of the product of the snake's
    # first n factors, the window through factor n - 1, and refuse a size
    # whose corner factor the shape does not place.
    @pytest.mark.parametrize("shape", ["hessenberg", "cmv", "random"])
    def test_truncations_are_window_products(self, shape):
        rng = np.random.default_rng([26, len(shape)])
        m = 14
        gen = {"hessenberg": hessenberg_shape(m), "cmv": cmv_shape(m),
               "random": GeneratingSequence(random_bits(rng, m))}[shape]
        snake = SnakeFactorization(random_schur(rng, m + 1), gen)
        blocks = snake.schur._blocks
        for n in range(2, m + 2):
            want = _snake_product(snake, blocks[:n])[:n, :n]
            np.testing.assert_array_equal(materialize_window(snake, n - 1)[:n, :n], want)
            theta = float(rng.uniform(-np.pi, np.pi))
            corner = [[np.exp(1j * theta), 0.0], [0.0, 0.0]]
            want = _snake_product(snake, np.concatenate((blocks[: n - 1], [corner])))[:n, :n]
            np.testing.assert_array_equal(truncate_para_unitary(snake, n, theta).matrix, want)

    @pytest.mark.parametrize("shape", ["hessenberg", "cmv", "random"])
    def test_one_factor_past_the_shape(self, shape):
        rng = np.random.default_rng([27, len(shape)])
        m = 6
        gen = {"hessenberg": hessenberg_shape(m), "cmv": cmv_shape(m),
               "random": GeneratingSequence(random_bits(rng, m))}[shape]
        snake = SnakeFactorization(random_schur(rng, m + 1), gen)
        message = rf"^index {m + 1} exceeds the {m} stored shape bits$"
        truncate_para_unitary(snake, m + 1, 0.3)
        with pytest.raises(ShapeIndexError, match=message):
            truncate_para_unitary(snake, m + 2, 0.3)
        with pytest.raises(ShapeIndexError, match=message):
            materialize_window(snake, m + 1)


class TestEigenUnitary:
    def test_identity(self):
        values, vecs = eigen_unitary(np.eye(5, dtype=complex))
        assert np.allclose(values, 1.0)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(5), atol=1e-12)

    def test_cyclic_shift_four(self):
        values, vecs = eigen_unitary(cyclic_shift(4).astype(complex))
        # eigenvalues are the 4th roots of unity
        roots = np.exp(2j * np.pi * np.arange(4) / 4)
        # compared by angle: sort_complex orders -1 and +-i by roundoff real parts
        gaps = np.abs(np.angle(values[:, None] / roots[None, :]))
        assert sorted(np.argmin(gaps, axis=1)) == [0, 1, 2, 3]
        assert np.max(np.min(gaps, axis=1)) <= 1e-12
        # discrete Fourier eigenvectors: every first component has modulus 1/2,
        # and the scaling convention makes it real positive
        assert np.allclose(vecs[0, :], 0.5, atol=1e-12)

    def test_two_by_two(self):
        values, _ = eigen_unitary(np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex))
        assert np.allclose(np.sort(values.real), [-1.0, 1.0], atol=1e-12)

    def test_contract_bounds_on_random_truncation(self):
        rng = np.random.default_rng(25)
        snake = SnakeFactorization(
            random_schur(rng, 33), GeneratingSequence(random_bits(rng, 32))
        )
        matrix = truncate_para_unitary(snake, 32, 0.7).matrix
        values, vecs = eigen_unitary(matrix)
        assert np.max(np.abs(np.abs(values) - 1.0)) <= 1e-12
        residual = np.linalg.norm(matrix @ vecs - vecs * values, axis=0)
        assert np.max(residual) <= 1e-10
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(32))) <= 1e-9
        for col in range(32):
            lead = vecs[np.argmax(np.abs(vecs[:, col]) > 1e-12), col]
            assert lead.real >= 0 and abs(lead.imag) <= 1e-12 * max(1.0, lead.real)

    @pytest.mark.parametrize(
        "phases",
        [
            [0.0, 0.0, np.pi, np.pi / 2],
            [0.3] * 3 + [2.0] * 2 + [-2.5] * 3,
            [0.5, 0.5 + 1e-7, np.pi, 2.0],
        ],
        ids=["double", "multiplicity-3-2-3", "gap-1e-7"],
    )
    def test_repeated_and_clustered_eigenvalues(self, phases):
        rng = np.random.default_rng(len(phases))
        size = len(phases)
        q = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))[0]
        spectrum = np.exp(1j * np.array(phases))
        matrix = (q * spectrum) @ q.conj().T
        values, vecs = eigen_unitary(matrix)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(size))) <= 1e-12
        assert np.max(np.linalg.norm(matrix @ vecs - vecs * values, axis=0)) <= 1e-10
        assert np.max(np.abs(np.sort_complex(values) - np.sort_complex(spectrum))) <= 1e-10

    @pytest.mark.parametrize("n", [16, 64, 256, 512])
    def test_matches_the_schur_reference(self, n):
        # The complex Schur factorization of a normal matrix is its spectral
        # decomposition, so it gives the rule independently of eigh and eig.
        rng = np.random.default_rng(n)
        snake = SnakeFactorization(
            random_schur(rng, n), GeneratingSequence(random_bits(rng, n - 1))
        )
        matrix = truncate_para_unitary(snake, n, 0.4).matrix
        tri, ref_vecs = scipy.linalg.schur(matrix, output="complex")
        ref_values = np.diag(tri)
        values, vecs = eigen_unitary(matrix)
        order, ref_order = np.argsort(np.angle(values)), np.argsort(np.angle(ref_values))
        assert np.max(np.abs(values[order] - ref_values[ref_order])) <= 1e-12
        weights, ref_weights = np.abs(vecs[0]) ** 2, np.abs(ref_vecs[0]) ** 2
        assert np.max(np.abs(weights[order] - ref_weights[ref_order])) <= 1e-12

    def test_one_eig_and_no_eigh_on_a_truncation(self, monkeypatch):
        # the reference shares no solver with the rule's Cayley pass, and
        # still gives the same rule
        rng = np.random.default_rng(64)
        snake = SnakeFactorization(random_schur(rng, 64), GeneratingSequence(random_bits(rng, 63)))
        rule = szego_quadrature(snake, 64, 0.7)
        calls = count_eig_calls(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: pytest.fail("eigh ran"))
        values, vecs = eigen_unitary(truncate_para_unitary(snake, 64, 0.7).matrix)
        assert calls == [(64, 64)]
        order = np.argsort(_principal_argument(values), kind="stable")
        assert np.max(np.abs(rule.nodes - values[order])) <= 1e-12
        assert np.max(np.abs(rule.weights - np.abs(vecs[0, order]) ** 2)) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            eigen_unitary(np.diag([1.0, 2.0]).astype(complex))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="size"):
            eigen_unitary(np.eye(1025, dtype=complex))

    def test_refuses_oversize_before_converting(self, monkeypatch):
        monkeypatch.setattr(quadrature, "number_array", lambda *args, **kwargs: pytest.fail("converted"))
        with pytest.raises(ValueError, match="^matrix size = 1025 exceeds the supported 1024$"):
            eigen_unitary(np.eye(1025).tolist())

    @pytest.mark.parametrize("shape", [(), (0, 0), (0,), (2,), (2, 3), (1, 2, 2)], ids=str)
    def test_rejects_what_is_not_a_nonempty_square_matrix(self, shape):
        with pytest.raises(ValueError, match=r"^matrix must be a nonempty array of shape \(n, n\), got shape"):
            eigen_unitary(np.ones(shape))

    def test_one_by_one(self):
        values, vecs = eigen_unitary(np.array([[1j]]))
        assert values == pytest.approx([1j], abs=1e-15)
        assert np.array_equal(vecs, [[1.0]])


class TestCayleyPass:
    def test_common_case_does_not_call_eig(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the general eigensolver or the dense truncation ran")

        # one op of the rules benchmark: n = 256, |alpha| in [0.05, 0.8], from
        # the pencil alone, without the dense snake product
        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr("snakefact.quadrature._snake_product", refuse)
        # and from a real symmetric eigenproblem
        eigh, inputs = np.linalg.eigh, []
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a, UPLO="L": inputs.append(a.dtype) or eigh(a, UPLO)
        )
        rng = np.random.default_rng(256)
        snake = SnakeFactorization(
            random_schur(rng, 256, 0.05, 0.8), GeneratingSequence(random_bits(rng, 255))
        )
        rule = szego_quadrature(snake, 256, float(rng.uniform(-np.pi, np.pi)))
        assert rule.n == 256
        assert inputs == [np.dtype(np.float64)]

    @pytest.mark.parametrize("seed", range(3))
    def test_power_sums_of_a_benchmark_rule(self, seed):
        # the check of the rules benchmark: sum_k w_k lambda_k^j = (T^j)_00,
        # the right side from matrix-vector products with the truncation T
        rng = np.random.default_rng([seed, 256])
        snake = SnakeFactorization(
            random_schur(rng, 256, 0.05, 0.8), GeneratingSequence(random_bits(rng, 255))
        )
        theta = float(rng.uniform(-np.pi, np.pi))
        rule = szego_quadrature(snake, 256, theta)
        t = truncate_para_unitary(snake, 256, theta).matrix
        v = t[:, 0]
        for j in range(1, 5):
            assert abs(np.dot(rule.weights, rule.nodes**j) - v[0]) <= 1e-10
            v = t @ v

    def test_node_at_minus_conj_omega_falls_back(self, monkeypatch):
        # I + wU is singular for w = e^{i}, where the rule's Cayley transform
        # does not exist; eigen_unitary, the rule's reference, runs the
        # general eigensolver alone and has no such blind spot
        calls = count_eig_calls(monkeypatch)
        spectrum = np.array([-np.exp(-1j), 1.0, 1j, -1.0])
        values, vecs = eigen_unitary(np.diag(spectrum))
        assert calls == [(4, 4)]
        assert np.max(np.abs(np.sort_complex(values) - np.sort_complex(spectrum))) <= 1e-15
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) <= 1e-12

    def test_rule_with_a_node_at_minus_conj_omega(self, monkeypatch):
        # the free rule has the nodes z^n = e^{i theta}; this theta puts one at e^{i(pi-1)}
        calls = count_eig_calls(monkeypatch)
        refuse_the_snake_truncation(monkeypatch)
        n = 8
        rule = szego_quadrature(free_snake(n - 1), n, n * (np.pi - 1.0) % (2.0 * np.pi))
        assert calls == [(n, n)]
        assert np.min(np.abs(rule.nodes + np.exp(-1j))) <= 1e-14
        assert np.max(np.abs(rule.weights - 1.0 / n)) <= 1e-12

    def test_weights_below_float64_range_fall_back(self, monkeypatch):
        # alternating +-0.99 localizes eigenvectors so far from index 0 that
        # the smallest true weight is about 1e-466
        calls = count_eig_calls(monkeypatch)
        refuse_the_snake_truncation(monkeypatch)
        alphas = [0.99 * (-1) ** k for k in range(256)]
        snake = SnakeFactorization(SchurSequence(alphas), hessenberg_shape(255))
        rule = szego_quadrature(snake, 256, 0.3)
        assert calls == [(256, 256)]
        assert np.all(rule.weights > 0.0)

    def test_zero_weights_are_counted(self):
        # at |alpha| = 1 - 1e-8 the pencil pass refuses and eig + QR leaves
        # most weights below the smallest float64
        rng = np.random.default_rng(7)
        alphas = (1 - 1e-8) * np.exp(1j * rng.uniform(-np.pi, np.pi, 128))
        snake = SnakeFactorization(
            SchurSequence(alphas), GeneratingSequence(random_bits(rng, 127))
        )
        with pytest.raises(
            NumericalError,
            match=r"^quadrature weights must be strictly positive "
            r"\(\d+ of 128 are not; smallest 0\.000e\+00\)$",
        ):
            szego_quadrature(snake, 128, 0.3)


class TestPencil:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17])
    def test_half_products_multiply_to_the_alternating_truncation(self, n):
        # s_k = k mod 2 puts the odd factors on the left and the even ones on
        # the right, so that shape's truncation is L M, corner included
        rng = np.random.default_rng(n)
        snake = SnakeFactorization(
            random_schur(rng, n), GeneratingSequence([k % 2 for k in range(1, n)])
        )
        _, blocks = _corner_blocks(snake.schur, n, 0.9)
        product = _half_product(blocks, 1, _half_product(blocks, 0, np.eye(n, dtype=complex)))
        assert np.max(np.abs(product - truncate_para_unitary(snake, n, 0.9).matrix)) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 17, 64, 65])
    def test_rule_matches_the_dense_route(self, n):
        # an even n puts the corner in L, an odd n in M; real, imaginary and
        # zero parameters are the degenerate directions of the Takagi blocks
        rng = np.random.default_rng(100 + n)
        for family in ["complex", "real", "imaginary", "third_zero"]:
            schur = SchurSequence(parameter_family(rng, family, n, 0.05, 0.8))
            theta = float(rng.uniform(-np.pi, np.pi))
            shapes = [hessenberg_shape(n - 1), cmv_shape(n - 1)]
            for gen in shapes + [GeneratingSequence(random_bits(rng, n - 1))]:
                snake = SnakeFactorization(schur, gen)
                rule = szego_quadrature(snake, n, theta)
                values, vecs = eigen_unitary(truncate_para_unitary(snake, n, theta).matrix)
                order = np.argsort(_principal_argument(values), kind="stable")
                assert np.max(np.abs(rule.nodes - values[order])) <= 1e-12
                assert np.max(np.abs(rule.weights - np.abs(vecs[0, order]) ** 2)) <= 1e-12

    @pytest.mark.parametrize("family", ["zero", "real", "imaginary", "near_one"])
    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_takagi_factor(self, n, family):
        # W is unitary with W W^T = conj(M), and turns the Cayley matrix real
        rng = np.random.default_rng(n)
        alphas = parameter_family(rng, family, n, 0.05, 0.95)
        snake = SnakeFactorization(
            SchurSequence(alphas), GeneratingSequence([k % 2 for k in range(1, n)])
        )
        _, blocks = _corner_blocks(snake.schur, n, 0.4)
        eye = np.eye(n, dtype=complex)
        w = _half_product(_takagi_blocks(blocks), 0, eye)
        m = _half_product(blocks, 0, eye)
        assert np.max(np.abs(w @ w.conj().T - eye)) <= 1e-15
        assert np.max(np.abs(w @ w.T - m.conj())) <= 1e-15
        u = truncate_para_unitary(snake, n, 0.4).matrix
        cayley = 1j * np.linalg.solve(eye + np.exp(1j) * u, eye - np.exp(1j) * u)
        sandwich = w.conj().T @ cayley @ w
        assert np.max(np.abs(sandwich.imag)) <= 1e-14 * np.linalg.norm(cayley, 2)

    @pytest.mark.parametrize("family", ["complex", "real", "imaginary", "near_one"])
    @pytest.mark.parametrize("n", [2, 3, 16, 17, 256])
    def test_pencil_solve(self, n, family):
        # T = L^H + wM from the half-products is complex symmetric and
        # tridiagonal, and the closed form of 2 Im(2w E^T T^-1 E), E = conj(W),
        # matches a dense solve; elimination on T needs no interchange, since
        # its pivots d_k are Szego ratios
        rng = np.random.default_rng([n, 20])
        alphas = parameter_family(rng, family, n, 0.05, 0.95)
        snake = SnakeFactorization(SchurSequence(alphas), hessenberg_shape(n - 1))
        _, blocks = _corner_blocks(snake.schur, n, float(rng.uniform(-np.pi, np.pi)))
        pencil = dense_pencil(blocks)
        diag, off = np.diag(pencil), np.diag(pencil, 1)
        assert np.array_equal(pencil, np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        conj = _takagi_blocks(blocks).conj()
        e = _half_product(conj, 0, np.eye(n, dtype=complex))
        want = 2.0 * np.imag(2.0 * np.exp(1j) * e.T @ np.linalg.solve(pencil, e))
        got = _pencil_cayley(blocks, conj)
        upper = np.triu_indices(n)
        assert np.max(np.abs(got[upper] - want[upper])) <= 1e-12 * np.max(np.abs(want[upper]))
        assert not np.any(np.tril(got, -1))
        pivots = np.abs(_pencil_pivots(diag.tolist(), off.tolist())[:-1])
        mods = np.abs(alphas[: n - 1])
        assert np.all(1.0 - mods <= pivots)
        assert np.all(pivots <= 1.0 + mods)

    def test_pencil_solve_refuses_a_zero_pivot(self):
        # [[1, 1], [1, 1]] is singular at its last pivot
        assert _pencil_pivots([1.0, 1.0], [1.0]) is None

    @pytest.mark.parametrize("lo, hi", [(0.9, 0.99), (0.99, 0.999)])
    def test_closed_form_stays_finite_at_the_largest_size(self, lo, hi):
        # log2 |Pi_m| spans thousands of bits here, so the semiseparable
        # generators only stay finite with their powers of two kept apart
        n = 1024
        rng = np.random.default_rng([n, 24])
        alphas = parameter_family(rng, "complex", n, lo, hi)
        _, blocks = _corner_blocks(SchurSequence(alphas), n, float(rng.uniform(-np.pi, np.pi)))
        conj = _takagi_blocks(blocks).conj()
        got = _pencil_cayley(blocks, conj)
        assert np.all(np.isfinite(got))
        want = row_by_row_cayley(blocks, conj)
        upper = np.triu_indices(n)
        assert np.max(np.abs(got[upper] - want[upper])) <= 1e-13 * np.max(np.abs(want[upper]))


def dense_pencil(blocks):
    """The tridiagonal pencil T = L^H + wM, w = e^i, as a dense matrix."""
    eye = np.eye(len(blocks), dtype=complex)
    return _half_product(blocks, 1, eye).conj().T + np.exp(1j) * _half_product(blocks, 0, eye)


def row_by_row_cayley(blocks, conj):
    """Twice W^H A W from T X = conj(W), T = L^H + wM, solved by elimination row by row.

    T = F D F^T with f_k = t_{k,k+1} / d_k; each step updates one row of X,
    and S = Im(2w W^H X) gives the symmetric S + S^T.
    """
    n = len(blocks)
    pencil = dense_pencil(blocks)
    diag, off = np.diag(pencil).tolist(), np.diag(pencil, 1).tolist()
    pivots = [diag[0]]
    for t, d in zip(off, diag[1:]):
        pivots.append(d - t * t / pivots[-1])
    factors = [t / d for t, d in zip(off, pivots)]
    x = _half_product(conj, 0, np.eye(n, dtype=complex))
    for i, f in enumerate(factors):
        x[i + 1] -= f * x[i]
    x /= np.array(pivots)[:, None]
    for i in range(n - 2, -1, -1):
        x[i] -= factors[i] * x[i + 1]
    sandwich = _half_product((2.0 * np.exp(1j)) * conj.transpose(0, 2, 1), 0, x).imag
    return sandwich + sandwich.T


FAMILIES = ["complex", "real", "imaginary", "near_one"]


class TestFactorBound:
    """The pencil route bounds max|V^H V - I| from the real Q and the blocks of W."""

    @staticmethod
    def reported(monkeypatch):
        """Record (vecs, defect) of each call of the one check site."""
        seen = []
        checked = quadrature._checked_pairs

        def record(values, vecs, residual, defect):
            seen.append((vecs, defect))
            return checked(values, vecs, residual, defect)

        monkeypatch.setattr(quadrature, "_checked_pairs", record)
        return seen

    # plus one rule at the largest size with |alpha| in [0.5, 0.95]
    CASES = [(n, family) for n in [2, 3, 16, 17, 256] for family in FAMILIES] + [(1024, "large")]

    @staticmethod
    def draw(n, family):
        rng = np.random.default_rng([n, 22])
        if family == "large":
            alphas = parameter_family(rng, "complex", n, 0.5, 0.95)
        else:
            alphas = parameter_family(rng, family, n, 0.05, 0.95)
        return alphas, float(rng.uniform(-np.pi, np.pi))

    @pytest.mark.parametrize("n, family", CASES)
    def test_bound_is_at_least_the_defect_of_the_pencil_vectors(self, n, family):
        alphas, theta = self.draw(n, family)
        _, blocks = _corner_blocks(SchurSequence(alphas), n, theta)
        conj = _takagi_blocks(blocks).conj()
        q = np.linalg.eigh(_pencil_cayley(blocks, conj), UPLO="U")[1]
        vecs = _half_product(conj, 0, q).conj()
        measured = np.max(np.abs(vecs.conj().T @ vecs - np.eye(n)))
        assert measured <= _factor_defect(q, conj) <= 1e-12

    # At n = 256 and |alpha| = 0.999 most weights lie below the smallest
    # float64, so that family has no 256-point rule to report a bound.
    @pytest.mark.parametrize("n, family", [case for case in CASES if case != (256, "near_one")])
    def test_the_rule_reports_the_bound(self, monkeypatch, n, family):
        alphas, theta = self.draw(n, family)
        calls = count_eig_calls(monkeypatch)
        seen = self.reported(monkeypatch)
        szego_quadrature(SchurSequence(alphas), n, theta)
        [(vecs, defect)] = seen
        if n == 1024:
            # three first components of the pencil's vectors underflow to 0,
            # so the fallback runs, and it measures V^H V itself
            assert calls == [(n, n)]
            assert defect == unitarity_defect(vecs.T)
        else:
            assert calls == []
            measured = np.max(np.abs(vecs.conj().T @ vecs - np.eye(n)))
            assert measured <= defect <= 1e-12

    def test_a_defect_above_the_bound_is_refused(self, monkeypatch):
        # A repeated column is still an eigenvector with a nonzero first
        # component, so the residual passes; only the orthonormality check,
        # on Q^T Q, can refuse the pencil's vectors, and the general
        # eigensolver then gives the rule.
        eigh = np.linalg.eigh

        def repeat_a_column(m, UPLO):
            values, q = eigh(m, UPLO)
            q[:, 1] = q[:, 0]
            return values, q

        schur = random_schur(np.random.default_rng(16), 16)
        want = szego_quadrature(schur, 16, 0.3)
        calls = count_eig_calls(monkeypatch)
        seen = self.reported(monkeypatch)
        monkeypatch.setattr(quadrature.np.linalg, "eigh", repeat_a_column)
        rule = szego_quadrature(schur, 16, 0.3)
        assert calls == [(16, 16)]
        [(_, pencil), (_, general)] = seen
        assert pencil > 1e-9 >= general
        assert np.max(np.abs(rule.nodes - want.nodes)) <= 1e-12
        assert np.max(np.abs(rule.weights - want.weights)) <= 1e-12


class TestBenchmarkFallback:
    """Ops of the rules benchmark (seed 1), redrawn as its workload draws them."""

    @staticmethod
    def rule_of_op(i, monkeypatch):
        rng = np.random.default_rng([1, 1, i])
        alphas = rng.uniform(0.05, 0.8, size=256) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=256))
        bits = [int(b) for b in rng.integers(0, 2, size=255)]
        theta = float(rng.uniform(-np.pi, np.pi))
        snake = SnakeFactorization(SchurSequence(alphas), GeneratingSequence(bits))
        calls = count_eig_calls(monkeypatch)
        rule = szego_quadrature(snake, 256, theta)
        # the workload's check: sum_k w_k lambda_k^j = (T^j)_00
        t = truncate_para_unitary(snake, 256, theta).matrix
        v = t[:, 0]
        for j in range(1, 5):
            assert abs(np.dot(rule.weights, rule.nodes**j) - v[0]) <= 1e-10
            v = t @ v
        return calls

    def test_op_734_falls_back_once(self, monkeypatch):
        assert self.rule_of_op(734, monkeypatch) == [(256, 256)]

    def test_op_0_stays_on_the_pencil(self, monkeypatch):
        assert self.rule_of_op(0, monkeypatch) == []


class TestExtendedPrecision:
    # The nodes are the zeros of B(z) = z phi_{n-1}(z) - e^{i theta} phi*_{n-1}(z),
    # refined from the rule's own nodes at 40 digits, and the weights are
    # the Christoffel numbers 1 / sum_{j<n} |phi_j(z)|^2 there.
    def test_rule_matches_a_40_digit_reference(self):
        self.check_rule("complex", 0.8)

    def test_imaginary_parameters_match_a_40_digit_reference(self):
        # every Takagi block at a purely imaginary alpha
        self.check_rule("imaginary", 0.9)

    @staticmethod
    def check_rule(family, hi):
        n, theta = 48, 0.7
        rng = np.random.default_rng(48)
        schur = SchurSequence(parameter_family(rng, family, n, 0.05, hi))
        snake = SnakeFactorization(schur, GeneratingSequence(random_bits(rng, n - 1)))
        rule = szego_quadrature(snake, n, theta)
        with mpmath.workdps(40):
            alphas = [mpmath.mpc(a) for a in schur.alphas[: n - 1]]
            rhos = [mpmath.sqrt(1 - abs(a) ** 2) for a in alphas]
            phase = mpmath.expj(theta)

            def szego(z):
                phi = star = mpmath.mpc(1)
                values = [phi]
                for a, r in zip(alphas, rhos):
                    phi, star = (z * phi - mpmath.conj(a) * star) / r, (star - a * z * phi) / r
                    values.append(phi)
                return values, star

            def node_polynomial(z):
                values, star = szego(z)
                return z * values[-1] - phase * star

            node_error = weight_error = 0.0
            for node, weight in zip(rule.nodes, rule.weights):
                z = mpmath.findroot(node_polynomial, mpmath.mpc(node))
                christoffel = 1 / mpmath.fsum(abs(v) ** 2 for v in szego(z)[0])
                node_error = max(node_error, float(abs(z - node)))
                weight_error = max(weight_error, float(abs(christoffel - weight)))
        assert node_error <= 1e-12
        assert weight_error <= 1e-12


class TestSzegoQuadrature:
    def test_oversized_rule_rejected_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("n-sized work started for an oversized rule")

        monkeypatch.setattr("snakefact.quadrature.truncate_para_unitary", unreachable)
        monkeypatch.setattr("snakefact.quadrature._corner_blocks", unreachable)
        with pytest.raises(ValueError, match="n = 1025 exceeds the supported 1024"):
            szego_quadrature(free_snake(4), 1025, 0.0)

    def test_lebesgue_roots_of_unity(self):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        angles = -np.pi + 2 * np.pi * np.arange(8) / 8
        assert np.max(np.abs(rule.nodes - np.exp(1j * angles))) <= 1e-12
        assert np.max(np.abs(rule.weights - 0.125)) <= 1e-12

    def test_argument_at_the_cut_is_minus_pi(self):
        # np.angle rounds the first to pi and leaves the second just below it
        nodes = np.array([-1 + 2.3e-16j, -1 + 4.4e-16j, -1 - 4.4e-16j, -1 + 2e-12j])
        args = _principal_argument(nodes)
        assert np.max(np.abs(args[:3] + np.pi)) <= 1e-15
        assert abs(args[3] - (np.pi - 2e-12)) <= 1e-15

    def test_bernstein_szego_exactness(self):
        prefix = [0.6]
        table = moments(BernsteinSzego(prefix), 5)
        alphas = prefix + [0.0] * 5
        snake = SnakeFactorization(SchurSequence(alphas), hessenberg_shape(5))
        rule = szego_quadrature(snake, 6, 0.0)
        for j in range(-5, 6):
            assert apply_rule(rule, {j: 1.0}) == pytest.approx(table.mu(-j), abs=1e-10)

    def test_shape_invariance(self):
        rng = np.random.default_rng(26)
        schur = random_schur(rng, 12)
        theta = 0.35
        reference = None
        shapes = [hessenberg_shape(11), cmv_shape(11)]
        shapes += [GeneratingSequence(random_bits(rng, 11)) for _ in range(2)]
        for gen in shapes:
            rule = szego_quadrature(SnakeFactorization(schur, gen), 12, theta)
            if reference is None:
                reference = rule
            else:
                assert np.max(np.abs(rule.nodes - reference.nodes)) <= 1e-10
                assert np.max(np.abs(rule.weights - reference.weights)) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 16, 17])
    def test_reads_only_the_first_n_minus_one_parameters(self, n):
        # the snake-based rule, bit for bit, from alpha_0 .. alpha_{n-2} alone
        rng = np.random.default_rng([n, 21])
        schur = random_schur(rng, n)
        snake = SnakeFactorization(schur, GeneratingSequence(random_bits(rng, n - 1)))
        want = szego_quadrature(snake, n, 0.6)
        got = szego_quadrature(SchurSequence(schur.alphas[: n - 1]), n, 0.6)
        np.testing.assert_array_equal(got.nodes, want.nodes)
        np.testing.assert_array_equal(got.weights, want.weights)

    def test_needs_n_minus_one_parameters(self):
        with pytest.raises(ValueError, match=r"^degree 4 needs 4 Schur parameters, have 3$"):
            szego_quadrature(SchurSequence([0.3, 0.2, 0.1]), 5, 0.0)

    @pytest.mark.parametrize("bad", [[0.1, 0.2], (0.1, 0.2), np.array([0.1, 0.2]), 0.1, None,
                                     hessenberg_shape(2)], ids=repr)
    def test_schur_must_be_a_sequence_or_a_snake(self, bad):
        with pytest.raises(TypeError, match="^schur must be a SchurSequence or a SnakeFactorization, "
                                            f"got {type(bad).__name__} "):
            szego_quadrature(bad, 3, 0.0)

    def test_theta_families_differ(self):
        rng = np.random.default_rng(27)
        schur = random_schur(rng, 8)
        snake = SnakeFactorization(schur, hessenberg_shape(7))
        a = szego_quadrature(snake, 8, 0.0).nodes
        b = szego_quadrature(snake, 8, 0.7).nodes
        cross = np.min(np.abs(a[:, None] - b[None, :]))
        assert cross > 1e-6

    def test_exactness_on_random_optimal_subspace_element(self):
        rng = np.random.default_rng(28)
        prefix = [0.5, -0.4j, 0.2]
        n = 8
        table = moments(BernsteinSzego(prefix), n - 1)
        alphas = prefix + [0.0] * (n - 3)
        snake = SnakeFactorization(SchurSequence(alphas), hessenberg_shape(n - 1))
        rule = szego_quadrature(snake, n, 0.7)
        coeffs = {
            int(e): complex(*rng.normal(size=2))
            for e in range(-(n - 1), n)
        }
        want = sum(c * table.mu(-e) for e, c in coeffs.items())
        assert apply_rule(rule, coeffs) == pytest.approx(want, abs=1e-10)


class TestApplyRule:
    def test_constant(self):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        assert apply_rule(rule, {0: 1.0}) == pytest.approx(1.0)

    def test_cube_power_sum(self):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        assert apply_rule(rule, {3: 1.0}) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("bad", ["1", "x", None, [1.0], True], ids=repr)
    def test_coefficient_not_a_number_names_its_exponent(self, bad):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        with pytest.raises(TypeError, match=r"^coefficient of z\^-2 must be a number"):
            apply_rule(rule, {0: 1.0, -2: bad})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=repr)
    def test_non_finite_coefficient_rejected(self, bad):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        with pytest.raises(ValueError, match=r"^coefficient of z\^3 = .* is not finite$"):
            apply_rule(rule, {3: bad})

    @pytest.mark.parametrize("bad", [[1.0, 2.0], [(0, 1.0)], 1.0, None, "z", "z^2", {0, 1}], ids=repr)
    def test_polynomial_must_be_a_mapping(self, bad):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        message = f"f must be a mapping {{exponent: coefficient}}, got {type(bad).__name__} {bad!r}"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            apply_rule(rule, bad)

    def test_empty_polynomial_is_zero_after_checks(self):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        assert apply_rule(rule, {}) == 0j
        with pytest.raises(TypeError, match="^exponent must be an integer"):
            apply_rule(rule, {1.0: 2.0})


class TestQuadratureRuleValidation:
    def test_rejects_an_empty_rule(self):
        with pytest.raises(ValueError, match="got shape \\(0,\\)"):
            QuadratureRule([], [])

    def test_rejects_off_circle_nodes(self):
        with pytest.raises(NumericalError, match="circle"):
            QuadratureRule([0.5], [1.0])

    def test_rejects_coincident_nodes(self):
        with pytest.raises(NumericalError, match="coincide"):
            QuadratureRule([1.0, 1.0 + 1e-12], [0.5, 0.5])

    def test_rejects_coincident_nodes_in_any_order(self):
        # the close pair is neither adjacent in the input nor away from the cut at -1
        angles = [0.5, -np.pi, 2.0, np.pi - 5e-9, -1.0]
        with pytest.raises(NumericalError, match=r"min separation 5\.000e-09"):
            QuadratureRule(np.exp(1j * np.array(angles)), [0.2] * 5)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(NumericalError, match="sum"):
            QuadratureRule([1.0, -1.0], [0.6, 0.6])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(NumericalError, match="positive"):
            QuadratureRule([1.0, -1.0], [1.0, 0.0])
