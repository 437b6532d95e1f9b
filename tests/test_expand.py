import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    MIXED_BITS,
    cmv_entry,
    hessenberg_entry,
    mixed_block_entries,
    random_bits,
    random_schur,
)
from snakefact import expand
from snakefact.expand import PathDescriptor, bandwidths, entry, expand_dense, path
from snakefact.schur import SchurSequence
from snakefact.snake import (
    GeneratingSequence,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
    materialize_window,
)
from snakefact.verify import measured_bandwidths

MIXED_GEN = GeneratingSequence(MIXED_BITS)


def mixed_snake(rng=None):
    rng = rng or np.random.default_rng(0)
    return SnakeFactorization(random_schur(rng, 10), MIXED_GEN)


class TestPath:
    def test_descriptor_is_a_named_tuple(self):
        d = path(MIXED_GEN, 7, 5)
        assert d._fields == ("i", "j", "r", "t", "K", "b", "monotone")
        assert d == PathDescriptor(i=7, j=5, r=7, t=5, K=range(6, 7), b=0, monotone=True)
        assert tuple(d) == (7, 5, 7, 5, range(6, 7), 0, True)
        assert repr(d) == "PathDescriptor(i=7, j=5, r=7, t=5, K=range(6, 7), b=0, monotone=True)"
        with pytest.raises(AttributeError):
            d.r = 0

    def test_mixed_7_5(self):
        d = path(MIXED_GEN, 7, 5)
        assert (d.r, d.t) == (7, 5)
        assert set(d.K) == {6}
        assert d.b == 0
        assert d.monotone

    def test_mixed_7_4_not_monotone(self):
        assert not path(MIXED_GEN, 7, 4).monotone

    def test_corner(self):
        d = path(MIXED_GEN, 0, 0)
        assert (d.r, d.t) == (0, 0)
        assert len(d.K) == 0
        assert d.b is None
        assert d.monotone

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            path(MIXED_GEN, 0, 10)


class TestEntry:
    def test_mixed_7_5(self):
        snake = mixed_snake()
        a, rho = snake.schur.alphas, snake.schur.rhos
        assert entry(snake, 7, 5) == pytest.approx(rho[5] * rho[6] * np.conj(a[7]))

    def test_mixed_7_4_zero(self):
        assert entry(mixed_snake(), 7, 4) == 0

    def test_mixed_diagonal_3(self):
        snake = mixed_snake()
        a = snake.schur.alphas
        assert entry(snake, 3, 3) == pytest.approx(-a[2] * np.conj(a[3]))

    def test_hessenberg_0_4(self):
        rng = np.random.default_rng(1)
        snake = SnakeFactorization(random_schur(rng, 5), hessenberg_shape(4))
        a, rho = snake.schur.alphas, snake.schur.rhos
        expected = rho[0] * rho[1] * rho[2] * rho[3] * np.conj(a[4])
        assert entry(snake, 0, 4) == pytest.approx(expected)

    def test_cmv_1_2(self):
        rng = np.random.default_rng(2)
        snake = SnakeFactorization(random_schur(rng, 3), cmv_shape(2))
        a, rho = snake.schur.alphas, snake.schur.rhos
        assert entry(snake, 1, 2) == pytest.approx(-a[0] * rho[1])


def array_entry(snake, i, j):
    """Entry (i, j) as a product of NumPy scalars read from the block array."""
    d = path(snake.gen, i, j)
    if not d.monotone:
        return 0j
    blocks = snake.schur._blocks
    if d.r == d.t:
        return complex(blocks[d.r, i - d.r, j - d.t])
    value = blocks[d.r, i - d.r, d.b] * blocks[d.t, 1 - d.b, j - d.t]
    for k in d.K:
        value *= blocks[k, 0, 1]
    return complex(value)


class TestScalarEntry:
    """``entry`` multiplies Python complex numbers; the block array gives the same bits."""

    @pytest.mark.parametrize("seed", range(6))
    def test_repr_equals_the_array_product(self, seed):
        rng = np.random.default_rng([seed, 28])
        for draw in range(4):
            m = int(rng.integers(1, 41))
            mods = rng.uniform(0.0, 0.999999, size=m + 1)
            alphas = mods * np.exp(1j * rng.uniform(-np.pi, np.pi, size=m + 1))
            if draw % 2:  # real parameters give signed zeros
                alphas = alphas.real * rng.choice([-1.0, 1.0], size=m + 1) + 0j
            snake = SnakeFactorization(SchurSequence(alphas), GeneratingSequence(random_bits(rng, m)))
            for i, j in itertools.product(range(m + 1), repeat=2):
                assert repr(entry(snake, i, j)) == repr(array_entry(snake, i, j)), (seed, draw, i, j)

    def test_value_is_a_python_complex(self):
        snake = mixed_snake()
        assert type(entry(snake, 7, 5)) is complex and type(entry(snake, 0, 0)) is complex


class TestBlockTables:
    def test_mixed_block(self):
        snake = mixed_snake(np.random.default_rng(4))
        table = mixed_block_entries(snake.schur.alphas)
        window = materialize_window(snake, 8)
        for i in range(9):
            for j in range(8):
                expected = table.get((i, j), 0j)
                assert entry(snake, i, j) == pytest.approx(expected, abs=1e-14)
                assert window[i, j] == pytest.approx(expected, abs=1e-13)

    def test_hessenberg_block(self):
        rng = np.random.default_rng(5)
        snake = SnakeFactorization(random_schur(rng, 6), hessenberg_shape(5))
        window = materialize_window(snake, 5)
        for i in range(6):
            for j in range(6):
                expected = hessenberg_entry(snake.schur.alphas, i, j)
                assert entry(snake, i, j) == pytest.approx(expected, abs=1e-14)
                if max(i, j) <= 4:
                    assert window[i, j] == pytest.approx(expected, abs=1e-13)

    def test_cmv_block(self):
        rng = np.random.default_rng(6)
        snake = SnakeFactorization(random_schur(rng, 8), cmv_shape(7))
        window = materialize_window(snake, 7)
        for i in range(7):
            for j in range(8):
                expected = cmv_entry(snake.schur.alphas, i, j)
                assert entry(snake, i, j) == pytest.approx(expected, abs=1e-14)
                if max(i, j) <= 6:
                    assert window[i, j] == pytest.approx(expected, abs=1e-13)


class TestBandwidths:
    def test_cmv_five_diagonal(self):
        assert bandwidths(cmv_shape(9)) == (2, 2)

    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_hessenberg(self, m):
        assert bandwidths(hessenberg_shape(m)) == (1, m + 1)

    def test_mixed(self):
        assert bandwidths(MIXED_GEN) == (3, 3)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_measured_all_shapes(self, m):
        for bits in itertools.product((0, 1), repeat=m):
            gen = GeneratingSequence(bits)
            assert measured_bandwidths(gen) == bandwidths(gen)

    @pytest.mark.parametrize("m", [1, 5, 9])
    def test_measured_matches_loop_reference(self, m):
        # an (m+2)^2 double loop over the path rule's expansion of the same
        # extended snake, against measured_bandwidths' Givens window
        gen = GeneratingSequence(random_bits(np.random.default_rng(m), m))
        alphas = SchurSequence([0.4 * np.exp(0.7j * k) for k in range(m + 2)])
        dense = expand_dense(SnakeFactorization(alphas, GeneratingSequence(gen.bits + (0,))), m + 2)
        lower = upper = 0
        for i, j in itertools.product(range(m + 2), repeat=2):
            if dense[i, j] != 0:
                lower, upper = max(lower, i - j), max(upper, j - i)
        got = measured_bandwidths(gen)
        assert got == (lower, upper)
        assert all(type(b) is int for b in got)

    def test_measured_does_not_use_the_path_rule(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("measured_bandwidths must read the Givens product")

        monkeypatch.setattr("snakefact.verify.expand_dense", unreachable)
        assert measured_bandwidths(MIXED_GEN) == (3, 3)

    def test_matches_measured_sampled_up_to_12(self):
        rng = np.random.default_rng(19)
        for _ in range(120):
            m = int(rng.integers(8, 13))
            gen = GeneratingSequence(random_bits(rng, m))
            assert measured_bandwidths(gen) == bandwidths(gen)


class TestOracleEquivalence:
    def test_entry_matches_window_random(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            m = int(rng.integers(2, 32))
            snake = SnakeFactorization(
                random_schur(rng, m + 1), GeneratingSequence(random_bits(rng, m))
            )
            window = materialize_window(snake, m)
            for _ in range(8):
                i = int(rng.integers(0, m))
                j = int(rng.integers(0, m))
                assert entry(snake, i, j) == pytest.approx(window[i, j], abs=1e-13)
                checked += 1

    def test_expand_dense_matches_window(self):
        alphas = [0.3 + 0.1j * k for k in range(10)]
        alphas = [a * min(1.0, 0.9 / abs(a)) for a in alphas]
        snake = SnakeFactorization(SchurSequence(alphas), MIXED_GEN)
        dense = expand_dense(snake, 8)
        window = materialize_window(snake, 8)
        assert np.max(np.abs(dense - window[:8, :8])) <= 1e-13

    def test_cmv_free_entry(self):
        snake = SnakeFactorization(SchurSequence([0.0] * 5), cmv_shape(4))
        assert entry(snake, 0, 2) == pytest.approx(1.0)


class TestZeroPattern:
    @staticmethod
    def _assert_zero_iff_not_monotone(rng, gen):
        snake = SnakeFactorization(random_schur(rng, len(gen) + 1, lo=0.2), gen)
        for i in range(len(gen) + 1):
            for j in range(len(gen) + 1):
                value = entry(snake, i, j)
                if path(gen, i, j).monotone:
                    assert value != 0
                else:
                    assert value == 0

    def test_zero_iff_not_monotone_exhaustive(self):
        rng = np.random.default_rng(8)
        for m in range(1, 7):
            for bits in itertools.product((0, 1), repeat=m):
                self._assert_zero_iff_not_monotone(rng, GeneratingSequence(bits))

    def test_zero_iff_not_monotone_sampled_length_10(self):
        rng = np.random.default_rng(18)
        for _ in range(60):
            self._assert_zero_iff_not_monotone(
                rng, GeneratingSequence(random_bits(rng, 10))
            )

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10))
    def test_flip_transposes_pattern(self, bits):
        gen = GeneratingSequence(bits)
        flipped = GeneratingSequence([1 - b for b in bits])
        m = len(bits)
        for i in range(m + 1):
            for j in range(m + 1):
                assert path(gen, i, j).monotone == path(flipped, j, i).monotone


def _scanned_monotone(bits, i, j):
    """The path rule's monotonicity, read straight off the bits between i and j."""
    if i == j:
        return True
    between = bits[min(i, j) : max(i, j) - 1]  # s_k for min(i, j) < k < max(i, j)
    return all(b == (0 if i < j else 1) for b in between)


class TestExpandDense:
    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example([0] * 40, 0)
    @example([1] * 40, 0)
    @example([0], 0)
    @example([1], 0)
    def test_every_size_matches_entry_window_and_pattern(self, bits, seed):
        gen = GeneratingSequence(bits)
        m = len(bits)
        snake = SnakeFactorization(random_schur(np.random.default_rng(seed), m + 1, lo=0.2), gen)
        window = materialize_window(snake, m)
        entries = np.array([[entry(snake, i, j) for j in range(m + 1)] for i in range(m + 1)])
        monotone = np.array([[path(gen, i, j).monotone for j in range(m + 1)] for i in range(m + 1)])
        scanned = [[_scanned_monotone(bits, i, j) for j in range(m + 1)] for i in range(m + 1)]
        assert monotone.tolist() == scanned
        for n in range(1, m + 2):
            dense = expand_dense(snake, n)
            assert np.max(np.abs(dense - window[:n, :n])) <= 1e-13
            assert np.max(np.abs(dense - entries[:n, :n])) <= 1e-15
            assert np.array_equal(dense != 0, monotone[:n, :n])

    @pytest.mark.parametrize("bit", [0, 1])
    def test_long_runs_at_1024(self, bit):
        # Hessenberg (all zeros) and its transpose pattern (all ones) at the
        # top rung of the benchmark ladder: the longest rows, where the inner
        # rho products span up to 1022 factors
        rng = np.random.default_rng(20 + bit)
        snake = SnakeFactorization(random_schur(rng, 1025), GeneratingSequence([bit] * 1024))
        dense = expand_dense(snake, 1024)
        assert np.max(np.abs(dense - materialize_window(snake, 1023)[:1024, :1024])) <= 1e-13

    def test_random_shape_at_1024(self):
        n = 1024
        rng = np.random.default_rng(22)
        bits = random_bits(rng, n - 1)
        snake = SnakeFactorization(random_schur(rng, n, lo=0.2), GeneratingSequence(bits))
        dense = expand_dense(snake, n)
        assert np.max(np.abs(dense - materialize_window(snake, n - 1)[:n, :n])) <= 1e-13
        # Entry (i, j) is nonzero exactly when the bits strictly between i and
        # j are all 0 (i < j) or all 1 (i > j), counted here by prefix sums.
        p = np.array(snake.gen.p)
        i, j = np.indices((n, n))
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        ones = p[np.maximum(hi - 1, 0)] - p[lo]
        monotone = (i == j) | ((i < j) & (ones == 0)) | ((i > j) & (ones == hi - lo - 1))
        assert np.array_equal(dense != 0, monotone)

    def test_inner_products_underflow_without_nan(self):
        # |alpha| = 1 - 1e-12 makes every rho about 1.4e-6, so the inner rho
        # products of the Hessenberg rows underflow to 0 after ~50 factors.
        # Products formed as ratios of prefix products would be 0/0 there.
        n = 128
        rng = np.random.default_rng(23)
        alphas = (1 - 1e-12) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
        snake = SnakeFactorization(SchurSequence(alphas), hessenberg_shape(n - 1))
        dense = expand_dense(snake, n)
        assert np.isfinite(dense).all()
        assert not dense[0, 60:].any()
        entries = np.array([[entry(snake, i, j) for j in range(n)] for i in range(n)])
        assert np.max(np.abs(dense - entries)) <= 1e-15
        assert np.max(np.abs(dense - materialize_window(snake, n - 1)[:n, :n])) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 17, 96])
    @pytest.mark.parametrize("kind", ["hessenberg", "cmv", "random"])
    def test_cold_and_warm_layouts_give_the_same_bytes(self, kind, n):
        gen = {"hessenberg": hessenberg_shape(96), "cmv": cmv_shape(96),
               "random": GeneratingSequence(random_bits(np.random.default_rng(n), 96))}[kind]
        snake = SnakeFactorization(random_schur(np.random.default_rng(30 + n), 97), gen)
        expand._memo.clear()
        cold = expand_dense(snake, n)
        assert len(expand._memo) == 1
        assert cold.tobytes() == expand_dense(snake, n).tobytes()

    def test_shapes_that_share_the_first_bits_share_a_layout(self):
        # n = 5 reads s_1 .. s_4 alone
        short, long = GeneratingSequence([0, 1, 1, 0]), GeneratingSequence([0, 1, 1, 0, 1, 0, 0])
        assert expand._layout(short, 5) is expand._layout(long, 5)
        assert expand._layout(hessenberg_shape(4), 5) is expand._layout(hessenberg_shape(30), 5)
        assert expand._layout(short, 4) is not expand._layout(short, 5)

    def test_layout_is_read_only(self):
        at, _ = expand._layout(cmv_shape(9), 10)
        with pytest.raises(ValueError, match="read-only"):
            at[1, 0] = 0

    def test_threads_expanding_the_same_snakes_agree(self):
        # 36 keys against a memo of 8: the threads build, find and evict
        # layouts at once
        rng = np.random.default_rng(40)
        schur = random_schur(rng, 65)
        shapes = [hessenberg_shape(64), cmv_shape(64)]
        shapes += [GeneratingSequence(random_bits(rng, 64)) for _ in range(10)]
        snakes = [SnakeFactorization(schur, gen) for gen in shapes]

        def expand_all():
            return [expand_dense(snake, n).tobytes() for _ in range(3) for snake in snakes
                    for n in (17, 40, 65)]

        want = expand_all()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(expand_all) for _ in range(4)]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(g == want for g in got)
        assert len(expand._memo) <= 8

    def test_memo_retains_at_most_32_mib(self, monkeypatch):
        # Six distinct 1024 x 1024 shapes, one 1 among 1023 zero bits, have
        # layouts of 8.5 to 16.1 MB, 67 MB in all: the memo keeps the most
        # recent that fit in 32 MiB.
        n = 1024
        schur = random_schur(np.random.default_rng(41), n)
        schur._blocks
        expand._memo.clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            retained = []
            for k in (1000, 900, 800, 700, 600, 511):
                bits = [0] * (n - 1)
                bits[k] = 1
                expand_dense(SnakeFactorization(schur, GeneratingSequence(bits)), n)
                retained.append(tracemalloc.get_traced_memory()[0] - base)
        finally:
            tracemalloc.stop()
        assert max(retained) <= 32 * 2**20
        assert max(retained) > 24 * 2**20
        # a layout larger than the whole memo is built and used, and evicts nothing
        monkeypatch.setattr(expand, "_MEMO_BYTES", 100_000)
        expand._memo.clear()
        kept = expand._layout(cmv_shape(96), 96)
        snake = SnakeFactorization(random_schur(np.random.default_rng(42), 97), hessenberg_shape(96))
        want = materialize_window(snake, 96)[:96, :96]
        assert np.max(np.abs(expand_dense(snake, 96) - want)) <= 1e-13
        assert len(expand._memo) == 1 and expand._layout(cmv_shape(96), 96) is kept


class TestUnitNorms:
    def test_interior_rows_and_columns_normalized(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            m = 12
            gen = GeneratingSequence(random_bits(rng, m))
            snake = SnakeFactorization(random_schur(rng, m + 1), gen)
            lower, upper = bandwidths(gen)
            dense = expand_dense(snake, m + 1)
            for i in range(m + 1 - upper):
                assert np.linalg.norm(dense[i, :]) == pytest.approx(1.0, abs=1e-10)
            for j in range(m + 1 - lower):
                assert np.linalg.norm(dense[:, j]) == pytest.approx(1.0, abs=1e-10)


def test_expand_dense_out_of_range():
    snake = SnakeFactorization(SchurSequence([0.1] * 3), hessenberg_shape(2))
    with pytest.raises(IndexError):
        expand_dense(snake, 5)


@pytest.mark.parametrize("n", [0, -1])
def test_expand_dense_size_below_one(n):
    snake = SnakeFactorization(SchurSequence([0.1] * 3), hessenberg_shape(2))
    with pytest.raises(ValueError, match=f"n = {n}"):
        expand_dense(snake, n)
