import numpy as np
import pytest
import scipy.linalg

from helpers import (
    MIXED_BITS,
    count_eig_calls,
    para_unitary_product,
    random_bits,
    random_schur,
)
from snakefact.errors import NumericalError, ShapeError
from snakefact.expand import entry, expand_dense
from snakefact.oracle import BernsteinSzego, Lebesgue, inner_product, moments, schur_from_moments
from snakefact.quadrature import (
    QuadratureRule,
    _principal_argument,
    apply_rule,
    eigen_unitary,
    principal_truncation,
    szego_quadrature,
    truncate_para_unitary,
)
from snakefact.schur import SchurSequence, evaluate_phi
from snakefact.snake import (
    GeneratingSequence,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
    materialize_window,
)


def free_snake(m):
    return SnakeFactorization(SchurSequence([0.0] * (m + 1)), hessenberg_shape(m))


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
    def test_equals_leading_block(self):
        rng = np.random.default_rng(21)
        for _ in range(6):
            m = int(rng.integers(3, 10))
            gen = GeneratingSequence(random_bits(rng, m))
            snake = SnakeFactorization(random_schur(rng, m + 1), gen)
            for n in (2, m, m + 1):
                block = principal_truncation(snake, n)
                assert np.max(np.abs(block - expand_dense(snake, n))) <= 1e-13

    def test_eigenvalues_inside_disk(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            snake = SnakeFactorization(
                random_schur(rng, 9, lo=0.05, hi=0.9), GeneratingSequence(random_bits(rng, 8))
            )
            values = np.linalg.eigvals(principal_truncation(snake, 8))
            assert np.max(np.abs(values)) < 1.0

    def test_eigenvalues_are_polynomial_zeros(self):
        rng = np.random.default_rng(23)
        schur = random_schur(rng, 9)
        snake = SnakeFactorization(schur, hessenberg_shape(8))
        for n in (4, 8):
            values = np.linalg.eigvals(principal_truncation(snake, n))
            phi, _ = evaluate_phi(schur, n, values)
            assert np.max(np.abs(phi)) <= 1e-8

    def test_spectrum_shape_invariant(self):
        rng = np.random.default_rng(24)
        schur = random_schur(rng, 9)
        spectra = []
        for gen in (hessenberg_shape(8), cmv_shape(8), GeneratingSequence(MIXED_BITS[:8])):
            values = np.linalg.eigvals(principal_truncation(SnakeFactorization(schur, gen), 8))
            spectra.append(np.sort_complex(values))
        assert np.max(np.abs(spectra[0] - spectra[1])) <= 1e-10
        assert np.max(np.abs(spectra[0] - spectra[2])) <= 1e-10


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

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            eigen_unitary(np.diag([1.0, 2.0]).astype(complex))

    def test_rejects_oversize(self):
        with pytest.raises(ValueError, match="size"):
            eigen_unitary(np.eye(1025, dtype=complex))


class TestCayleyPass:
    def test_common_case_does_not_call_eig(self, monkeypatch):
        def refuse(m):
            raise AssertionError("the general eigensolver ran")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        rng = np.random.default_rng(64)
        snake = SnakeFactorization(random_schur(rng, 64), GeneratingSequence(random_bits(rng, 63)))
        eigen_unitary(truncate_para_unitary(snake, 64, 0.7).matrix)
        # one op of the rules benchmark: n = 256, |alpha| in [0.05, 0.8]
        rng = np.random.default_rng(256)
        snake = SnakeFactorization(
            random_schur(rng, 256, 0.05, 0.8), GeneratingSequence(random_bits(rng, 255))
        )
        rule = szego_quadrature(snake, 256, float(rng.uniform(-np.pi, np.pi)))
        assert rule.n == 256

    def test_node_at_minus_conj_omega_falls_back(self, monkeypatch):
        # I + wU is singular for w = e^{i}, so the Cayley transform does not exist
        calls = count_eig_calls(monkeypatch)
        spectrum = np.array([-np.exp(-1j), 1.0, 1j, -1.0])
        values, vecs = eigen_unitary(np.diag(spectrum))
        assert calls == [(4, 4)]
        assert np.max(np.abs(np.sort_complex(values) - np.sort_complex(spectrum))) <= 1e-15
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) <= 1e-12

    def test_rule_with_a_node_at_minus_conj_omega(self, monkeypatch):
        # the free rule has the nodes z^n = e^{i theta}; this theta puts one at e^{i(pi-1)}
        calls = count_eig_calls(monkeypatch)
        n = 8
        rule = szego_quadrature(free_snake(n - 1), n, n * (np.pi - 1.0) % (2.0 * np.pi))
        assert calls == [(n, n)]
        assert np.min(np.abs(rule.nodes + np.exp(-1j))) <= 1e-14
        assert np.max(np.abs(rule.weights - 1.0 / n)) <= 1e-12

    def test_weights_below_float64_range_fall_back(self, monkeypatch):
        # alternating +-0.99 localizes eigenvectors so far from index 0 that
        # the smallest true weight is about 1e-466
        calls = count_eig_calls(monkeypatch)
        alphas = [0.99 * (-1) ** k for k in range(256)]
        snake = SnakeFactorization(SchurSequence(alphas), hessenberg_shape(255))
        rule = szego_quadrature(snake, 256, 0.3)
        assert calls == [(256, 256)]
        assert np.all(rule.weights > 0.0)


class TestSzegoQuadrature:
    def test_oversized_rule_rejected_before_any_work(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("n-sized work started for an oversized rule")

        monkeypatch.setattr("snakefact.quadrature.truncate_para_unitary", unreachable)
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
        want = inner_product(table, {0: 1.0}, coeffs)
        assert apply_rule(rule, coeffs) == pytest.approx(want, abs=1e-10)


class TestApplyRule:
    def test_constant(self):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        assert apply_rule(rule, {0: 1.0}) == pytest.approx(1.0)

    def test_cube_power_sum(self):
        rule = szego_quadrature(free_snake(7), 8, 0.0)
        assert apply_rule(rule, {3: 1.0}) == pytest.approx(0.0, abs=1e-14)


class TestQuadratureRuleValidation:
    def test_rejects_off_circle_nodes(self):
        with pytest.raises(NumericalError, match="circle"):
            QuadratureRule([0.5], [1.0])

    def test_rejects_coincident_nodes(self):
        with pytest.raises(NumericalError, match="coincide"):
            QuadratureRule([1.0, 1.0 + 1e-12], [0.5, 0.5])

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(NumericalError, match="sum"):
            QuadratureRule([1.0, -1.0], [0.6, 0.6])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(NumericalError, match="positive"):
            QuadratureRule([1.0, -1.0], [1.0, 0.0])
