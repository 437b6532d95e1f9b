import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MIXED_BITS,
    MIXED_MONOMIALS,
    brute_force_product,
    embedded_givens,
    random_bits,
    random_schur,
)
from snakefact.errors import InvalidSchurParameter, ShapeError
from snakefact.schur import SchurSequence
from snakefact.snake import (
    GeneratingSequence,
    GivensFactor,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
    materialize_window,
    shape_from_monomials,
)

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=20)


def defined_profile(bits):
    """p, _lo, _hi and the left and right orders of a shape, each by its definition."""
    m = len(bits)
    p = tuple(sum(bits[:n]) for n in range(m + 1))
    lo = tuple(max([k for k in range(1, i) if bits[k - 1] == 0], default=0) for i in range(m + 2))
    hi = tuple(min([k for k in range(i + 1, m + 1) if bits[k - 1] == 1], default=m + 1)
               for i in range(m + 2))
    left = tuple(k for k in range(m, 0, -1) if bits[k - 1] == 1)
    right = (0, *(k for k in range(1, m + 1) if bits[k - 1] == 0))
    return p, lo, hi, left, right


class TestGeneratingSequence:
    def test_rejects_non_bits(self):
        with pytest.raises(ShapeError):
            GeneratingSequence([0, 2, 1])

    def test_rejects_non_integral_bits(self):
        with pytest.raises(ShapeError):
            GeneratingSequence([1.7])

    @pytest.mark.parametrize("bits, n", [
        ([1.0, 0.0], 1),
        ([0, True, False], 2),
        (np.array([0.0, 1.0]), 1),
        (np.array([1, 0], dtype=bool), 1),
        ([0, 1, 1.0], 3),
    ], ids=["floats", "bools", "float array", "bool array", "float after ints"])
    def test_bits_must_be_integers(self, bits, n):
        with pytest.raises(ShapeError) as err:
            GeneratingSequence(bits)
        assert str(err.value) == f"shape bit s_{n} = {bits[n - 1]!r}; bits must be 0 or 1"

    @pytest.mark.parametrize("bits", [
        np.array([1, 0, 1]), [np.int8(1), np.uint64(0), 1], np.random.default_rng(0).integers(0, 2, 3),
    ], ids=["int array", "numpy scalars", "rng draw"])
    def test_numpy_integer_bits_pass(self, bits):
        gen = GeneratingSequence(bits)
        assert gen.bits == tuple(int(b) for b in bits)
        assert all(type(b) is int for b in gen.bits)

    @settings(deadline=None)
    @given(bit_lists)
    def test_prefix_invariants(self, bits):
        gen = GeneratingSequence(bits)
        assert gen.p[0] == 0
        for n in range(1, len(gen) + 1):
            assert gen.p[n] - gen.p[n - 1] == gen.s(n)
            assert 0 <= gen.p[n] <= n
        # both p_n and n - p_n non-decreasing
        diffs_p = np.diff(gen.p)
        assert np.all(diffs_p >= 0) and np.all(1 - diffs_p >= 0)

    def test_row_profile_is_the_givens_windows_zero_pattern(self):
        # Every shape with m <= 10 (2,047 of them): row i of the window on the
        # snake extended by one 0 bit is nonzero in columns _lo[i] .. _hi[i]
        # (capped at m + 1) and nowhere else.  Up to m = 8 the attributes
        # computed on first use equal their definitions.
        shapes = 0
        for m in range(11):
            alphas = SchurSequence([0.4 * np.exp(0.7j * k) for k in range(m + 2)])
            for bits in itertools.product((0, 1), repeat=m):
                gen = GeneratingSequence(bits)
                if m <= 8:
                    snake = SnakeFactorization(SchurSequence(alphas.alphas[: m + 1]), gen)
                    assert not {"p", "_lo", "_hi"} & vars(gen).keys()
                    assert not {"left_order", "right_order"} & vars(snake).keys()
                    assert (gen.p, gen._lo, gen._hi, snake.left_order, snake.right_order) == \
                        defined_profile(bits), bits
                extended = SnakeFactorization(alphas, GeneratingSequence(bits + (0,)))
                window = materialize_window(extended, m + 1)[: m + 2, : m + 2] != 0
                want = np.zeros_like(window)
                for i in range(m + 2):
                    want[i, gen._lo[i] : min(gen._hi[i], m + 1) + 1] = True
                assert np.array_equal(window, want), bits
                shapes += 1
        assert shapes == 2047

    def test_s_out_of_range(self):
        gen = hessenberg_shape(3)
        with pytest.raises(IndexError):
            gen.s(4)
        with pytest.raises(IndexError):
            gen.s(0)


class TestNamedShapes:
    def test_hessenberg(self):
        assert hessenberg_shape(3).bits == (0, 0, 0)

    def test_cmv(self):
        assert cmv_shape(4).bits == (0, 1, 0, 1)

    def test_cmv_prefix_counts(self):
        assert cmv_shape(6).p == (0, 0, 1, 1, 2, 2, 3)

    def test_require_positive_length(self):
        with pytest.raises(ShapeError):
            hessenberg_shape(0)


class TestShapeFromMonomials:
    def test_mixed_example(self):
        gen = shape_from_monomials(MIXED_MONOMIALS)
        assert gen.bits == MIXED_BITS
        assert gen.p == (0, 1, 1, 2, 2, 2, 3, 4, 4, 4)

    def test_all_positive(self):
        assert shape_from_monomials([0, 1, 2, 3]).bits == (0, 0, 0)

    def test_alternating(self):
        assert shape_from_monomials([0, 1, -1, 2, -2]).bits == (0, 1, 0, 1)

    def test_gap_rejected(self):
        with pytest.raises(ShapeError, match=r"prefix \{0,2\} is not a contiguous range"):
            shape_from_monomials([0, 2])

    def test_must_start_at_zero(self):
        with pytest.raises(ShapeError, match="start"):
            shape_from_monomials([1, 0])

    def test_repeat_rejected(self):
        with pytest.raises(ShapeError, match="contiguous"):
            shape_from_monomials([0, 1, 1])


class TestGivensFactor:
    def test_canonical_block(self):
        f = GivensFactor.from_schur(2, 0.6)
        assert np.allclose(f.block, [[0.6, 0.8], [0.8, -0.6]])
        assert np.linalg.det(f.block) == pytest.approx(-1.0)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            GivensFactor(0, [[1.0, 0.1], [0.0, 1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [1.0, 0.6 - 0.8j, 2.0, float("nan")])
    def test_from_schur_rejects_a_parameter_outside_the_disk(self, alpha):
        with pytest.raises(InvalidSchurParameter, match="parameter 3") as err:
            GivensFactor.from_schur(3, alpha)
        assert err.value.index == 3

    @pytest.mark.parametrize("alpha", ["0.5", None, [0.5]], ids=repr)
    def test_from_schur_names_a_non_number_by_k(self, alpha):
        with pytest.raises(TypeError, match="^parameter 3 must be a number"):
            GivensFactor.from_schur(3, alpha)

    def test_factor_is_the_sequences_block(self):
        snake = SnakeFactorization(SchurSequence([0.6, 0.3j]), hessenberg_shape(1))
        np.testing.assert_array_equal(snake.factor(1).block, snake.schur._blocks[1])
        with pytest.raises(ValueError, match="read-only"):
            snake.factor(0).block[0, 0] = 1.0


class TestSnakeOrder:
    def test_mixed_order(self):
        snake = SnakeFactorization(
            SchurSequence([0.1] * 10), GeneratingSequence(MIXED_BITS)
        )
        assert snake.left_order == (7, 6, 3, 1)
        assert snake.right_order == (0, 2, 4, 5, 8, 9)

    def test_all_right_for_hessenberg(self):
        snake = SnakeFactorization(SchurSequence([0.1] * 6), hessenberg_shape(5))
        assert snake.left_order == ()
        assert snake.right_order == (0, 1, 2, 3, 4, 5)

    def test_alternating_order(self):
        snake = SnakeFactorization(SchurSequence([0.1] * 5), cmv_shape(4))
        assert snake.left_order == (4, 2)
        assert snake.right_order == (0, 1, 3)

    def test_all_ones_long_shape(self):
        # Every factor but the first joins the left-hand product, in the
        # reverse of the bit order.
        m = 40_000
        snake = SnakeFactorization(SchurSequence([0.1] * (m + 1)), GeneratingSequence([1] * m))
        assert snake.left_order == tuple(range(m, 0, -1))
        assert snake.right_order == (0,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="exactly"):
            SnakeFactorization(SchurSequence([0.1] * 4), cmv_shape(4))
        with pytest.raises(ShapeError, match="exactly"):
            SnakeFactorization(SchurSequence([0.1] * 6), cmv_shape(4))
        message = "^a shape with 4 bits needs exactly 5 Schur parameters, got 6$"
        with pytest.raises(ShapeError, match=message):
            SnakeFactorization(SchurSequence([0.1] * 6), cmv_shape(4))


class TestMaterializeWindow:
    def test_free_hessenberg_window(self):
        snake = SnakeFactorization(SchurSequence([0.0] * 3), hessenberg_shape(2))
        window = materialize_window(snake, 2)
        # exact on the locality region: the shift pattern
        for i in range(2):
            assert window[i + 1, i] == pytest.approx(1.0)
            assert abs(window[i, i]) <= 1e-15
        # full product is the 4-cycle permutation
        expected = np.zeros((4, 4))
        expected[1, 0] = expected[2, 1] = expected[3, 2] = expected[0, 3] = 1.0
        assert np.allclose(window, expected)

    @pytest.mark.parametrize("m", [4, 16, 64, 128])
    def test_window_unitary(self, m):
        rng = np.random.default_rng(m)
        snake = SnakeFactorization(
            random_schur(rng, m + 1), GeneratingSequence(random_bits(rng, m))
        )
        window = materialize_window(snake, m)
        defect = np.max(np.abs(window @ window.conj().T - np.eye(m + 2)))
        assert defect <= 1e-13

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = int(rng.integers(2, 12))
            snake = SnakeFactorization(
                random_schur(rng, m + 1), GeneratingSequence(random_bits(rng, m))
            )
            window = materialize_window(snake, m)
            assert np.max(np.abs(window - brute_force_product(snake, m + 2))) <= 1e-14

    def test_subsnake_locality(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = int(rng.integers(3, 10))
            bits = random_bits(rng, m + 5)
            alphas = random_schur(rng, m + 6).alphas
            small = SnakeFactorization(
                SchurSequence(alphas[: m + 1]), GeneratingSequence(bits[:m])
            )
            large = SnakeFactorization(SchurSequence(alphas), GeneratingSequence(bits))
            w_small = materialize_window(small, m)
            w_large = materialize_window(large, m + 5)
            assert np.max(np.abs(w_small[:m, :m] - w_large[:m, :m])) <= 1e-14

    @pytest.mark.parametrize("shape_seed", [29, 31, 37])
    def test_regrouping_commuting_factors(self, shape_seed):
        # adjacent factors in the product order may be swapped whenever their
        # indices differ by >= 2; any such regrouping leaves the matrix intact
        rng = np.random.default_rng(shape_seed)
        m = 8
        snake = SnakeFactorization(
            random_schur(rng, m + 1), GeneratingSequence(random_bits(rng, m))
        )
        size = m + 2
        window = materialize_window(snake, m)
        order = list(snake.left_order) + list(snake.right_order)
        for _ in range(200):
            pos = int(rng.integers(0, len(order) - 1))
            if abs(order[pos] - order[pos + 1]) >= 2:
                order[pos], order[pos + 1] = order[pos + 1], order[pos]
        product = np.eye(size, dtype=complex)
        for k in order:
            product = product @ embedded_givens(size, k, snake.factor(k).block)
        assert np.max(np.abs(product - window)) <= 1e-14

    def test_too_large_window_rejected(self):
        snake = SnakeFactorization(SchurSequence([0.1] * 3), hessenberg_shape(2))
        with pytest.raises(ShapeError):
            materialize_window(snake, 3)
