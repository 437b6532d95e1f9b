import numpy as np
import pytest
from scipy.integrate import quad

from helpers import MIXED_BITS, random_bits, random_schur
from snakefact.errors import MomentError, NumericalError, ShapeError
from snakefact.expand import entry, expand_dense, path
from snakefact.oracle import (
    BernsteinSzego,
    Geronimus,
    GridMeasure,
    Lebesgue,
    MomentTable,
    gram_schmidt_laurent,
    inner_product,
    matrix_entry_oracle,
    moments,
    multiplication_matrix,
    schur_from_moments,
    schur_parameters,
)
from snakefact.schur import PolynomialPair, SchurSequence, szego_step
from snakefact.snake import (
    GeneratingSequence,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
)


SIX_PARAMETERS = [0.5, -0.3j, 0.4 + 0.2j, 0.1, -0.6, 0.25j]


def szego_coefficients(schur, n):
    """phi_0 .. phi_n as PolynomialPair list built by the recursion."""
    pairs = [PolynomialPair.initial()]
    for k in range(n):
        pairs.append(szego_step(pairs[-1], schur.alpha(k)))
    return pairs


def chained_moments(alphas, jmax):
    """mu_0 .. mu_jmax by the inverse recursion over chained public szego_step pairs."""
    vals = np.zeros(jmax + 1, dtype=complex)
    vals[0] = 1.0
    for k, pair in enumerate(szego_coefficients(SchurSequence(alphas), jmax)[1:]):
        c = np.conj(pair.phi)
        vals[k + 1] = -(c[: k + 1] @ vals[: k + 1]) / c[k + 1]
    return vals


def psi_coefficients(schur, gen, n):
    """Laurent coefficient dict of the nth basis element, via the recursion."""
    pair = szego_coefficients(schur, n)[n]
    s_n = gen.s(n) if n >= 1 else 0
    coeffs = pair.phi_star if s_n == 1 else pair.phi
    return {k - gen.p[n]: c for k, c in enumerate(coeffs)}


class TestMoments:
    def test_lebesgue(self):
        table = moments(Lebesgue(), 3)
        for j in range(-3, 4):
            assert table.mu(j) == (1.0 if j == 0 else 0.0)

    def test_bernstein_szego_vs_adaptive_quadrature(self):
        # independent oracle: adaptive quadrature of the density against
        # cos/sin, rather than the Schur-parameter recursion used by moments()
        prefix = SchurSequence([0.6])
        measure = BernsteinSzego(prefix)
        table = moments(measure, 3)

        def density(theta):
            return float(measure.density(np.array([theta]))[0])

        for j in range(4):
            re = quad(lambda t: density(t) * np.cos(j * t), -np.pi, np.pi, limit=200)[0]
            im = quad(lambda t: -density(t) * np.sin(j * t), -np.pi, np.pi, limit=200)[0]
            assert table.mu(j) == pytest.approx(re + 1j * im, abs=1e-9)
        # mu_1 for this measure equals alpha_0
        assert table.mu(1) == pytest.approx(0.6, abs=1e-10)
        assert schur_from_moments(table, 1).alpha(0) == pytest.approx(0.6, abs=1e-9)

    @pytest.mark.parametrize(
        "measure, jmax, prefix",
        [
            (BernsteinSzego(SIX_PARAMETERS), 12, SIX_PARAMETERS),
            # the zeros of phi for the prefix [a] * (jmax + 1) approach the
            # circle as it grows, so a fixed grid resolves only short ranges
            (Geronimus(0.3 - 0.2j), 5, [0.3 - 0.2j] * 6),
        ],
    )
    def test_exact_moments_vs_fixed_trapezoid(self, measure, jmax, prefix):
        # second route to the moments: a 4096-point trapezoid sum of the
        # Bernstein-Szego density, spectrally accurate for these prefixes
        density = BernsteinSzego(prefix).density
        npoints = 4096
        thetas = 2.0 * np.pi * np.arange(npoints) / npoints
        want = (2.0 * np.pi / npoints) * np.fft.fft(density(thetas))[: jmax + 1]
        table = moments(measure, jmax)
        got = np.array([table.mu(j) for j in range(jmax + 1)])
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_geronimus_past_float64_is_numerical(self):
        # the moments are exact, but their Toeplitz matrix is singular to
        # working precision: a numerical limit, not an invalid measure
        with pytest.raises(NumericalError, match="numerically singular at jmax=60"):
            moments(Geronimus(0.5), 60)

    def test_geronimus_overflow_is_numerical(self):
        # the coefficients of phi_k grow at least like rho^-k = 22^k and leave
        # float64 before k = 299; pytest turns any RuntimeWarning into an error
        with pytest.raises(NumericalError, match="^moment recursion overflows at jmax=299;.*beyond float64"):
            moments(Geronimus(0.999), 299)

    @pytest.mark.parametrize("seed", range(5))
    def test_schur_families_match_chained_szego_steps(self, seed):
        rng = np.random.default_rng(seed)
        prefix = list(random_schur(rng, 6, lo=0.0, hi=0.7).alphas)
        a = complex(random_schur(rng, 1, lo=0.0, hi=0.6).alpha(0))
        for measure, alphas, jmax in [
            (BernsteinSzego(prefix), prefix + [0j] * 12, 18),
            (Geronimus(a), [a] * 12, 12),
        ]:
            table = moments(measure, jmax)
            assert np.array_equal(table._mu[jmax:], chained_moments(alphas, jmax))

    def test_mass_is_one(self):
        for measure in (BernsteinSzego([0.5, -0.4j, 0.2]), Geronimus(0.3 - 0.2j)):
            assert moments(measure, 4).mu(0) == 1.0

    def test_conjugate_symmetry_exact(self):
        table = moments(BernsteinSzego([0.5, -0.4j, 0.2]), 6)
        for j in range(7):
            assert table.mu(-j) == np.conj(table.mu(j))

    def test_toeplitz_positive_definite(self):
        for measure in (Lebesgue(), BernsteinSzego([0.6]), BernsteinSzego([0.5, -0.4j, 0.2])):
            table = moments(measure, 16)
            for n in (4, 8, 16):
                gram = np.array([[table.mu(i - j) for j in range(n + 1)] for i in range(n + 1)])
                assert np.min(np.linalg.eigvalsh(gram)) > 0

    def test_grid_measure_roots_of_unity(self):
        # uniform atoms at the N-th roots of unity reproduce Lebesgue moments
        # for |j| < N
        n_atoms = 32
        thetas = -np.pi + 2 * np.pi * np.arange(n_atoms) / n_atoms
        grid = GridMeasure(thetas, np.full(n_atoms, 1.0 / n_atoms))
        table = moments(grid, 8)
        for j in range(1, 9):
            assert abs(table.mu(j)) <= 1e-13

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GridMeasure([0.0, 1.0], [0.5, -0.5])
        with pytest.raises(ValueError, match="pi"):
            GridMeasure([0.0, 4.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="mass"):
            GridMeasure([0.0, 1.0], [0.5, 0.6])

    def test_table_validation(self):
        with pytest.raises(MomentError, match="mass"):
            MomentTable([0.5, 0.1])
        with pytest.raises(MomentError, match="positive definite"):
            MomentTable([1.0, 1.5])

    def test_grid_with_jmax_atoms_named(self):
        # a measure of k atoms has a singular Toeplitz matrix from jmax = k
        # on, though roundoff can hide it for the first few sizes
        grid = GridMeasure([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        with pytest.raises(MomentError, match="at most 8 atoms"):
            moments(grid, 8)

    def test_negative_jmax_rejected(self):
        with pytest.raises(ValueError):
            moments(Lebesgue(), -1)

    def test_unsupported_measure(self):
        with pytest.raises(TypeError):
            moments(object(), 3)


class TestInnerProduct:
    def test_normalization(self):
        table = moments(BernsteinSzego([0.6]), 4)
        assert inner_product(table, {0: 1.0}, {0: 1.0}) == pytest.approx(1.0)

    def test_lebesgue_monomials(self):
        table = moments(Lebesgue(), 6)
        for a in range(-3, 4):
            for b in range(-3, 4):
                want = 1.0 if a == b else 0.0
                assert inner_product(table, {a: 1.0}, {b: 1.0}) == pytest.approx(want)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(12)
        table = moments(BernsteinSzego([0.5, -0.4j, 0.2]), 8)
        for _ in range(10):
            f = {int(e): complex(*rng.normal(size=2)) for e in rng.integers(-3, 4, size=3)}
            g = {int(e): complex(*rng.normal(size=2)) for e in rng.integers(-3, 4, size=3)}
            assert inner_product(table, f, g) == pytest.approx(
                np.conj(inner_product(table, g, f))
            )

    def test_conjugate_linear_first_argument(self):
        table = moments(BernsteinSzego([0.6]), 4)
        f, g = {1: 1.0 + 0.5j}, {0: 0.3, 1: -0.2j}
        c = 0.7 - 0.4j
        scaled = {e: c * v for e, v in f.items()}
        assert inner_product(table, scaled, g) == pytest.approx(
            np.conj(c) * inner_product(table, f, g)
        )

    def test_range_exceeded(self):
        table = moments(Lebesgue(), 2)
        with pytest.raises(MomentError, match="moments up to"):
            inner_product(table, {3: 1.0}, {-3: 1.0})


class TestGramSchmidt:
    def test_lebesgue_keeps_monomials(self):
        rng = np.random.default_rng(13)
        gen = GeneratingSequence(random_bits(rng, 6))
        table = moments(Lebesgue(), 16)
        basis = gram_schmidt_laurent(table, gen, 6)
        for n, psi in enumerate(basis):
            exponent = -gen.p[n] if (n >= 1 and gen.s(n) == 1) else n - gen.p[n]
            assert psi[exponent] == pytest.approx(1.0, abs=1e-12)
            others = sum(abs(c) for e, c in psi.items() if e != exponent)
            assert others <= 1e-12

    def test_bernstein_szego_degree_one(self):
        table = moments(BernsteinSzego([0.6]), 6)
        basis = gram_schmidt_laurent(table, hessenberg_shape(1), 1)
        assert basis[1][0] == pytest.approx(-0.75, abs=1e-10)
        assert basis[1][1] == pytest.approx(1.25, abs=1e-10)

    def test_orthonormality(self):
        table = moments(BernsteinSzego([0.5, -0.4j, 0.2]), 20)
        for gen in (hessenberg_shape(8), cmv_shape(8)):
            basis = gram_schmidt_laurent(table, gen, 8)
            for a in range(9):
                for b in range(9):
                    want = 1.0 if a == b else 0.0
                    got = inner_product(table, basis[a], basis[b])
                    assert got == pytest.approx(want, abs=1e-10)

    def test_matches_recursion_form(self):
        # Gram-Schmidt output must be the power-shifted Szego polynomial or
        # its dual, with the parameters recovered from the same moments.
        table = moments(BernsteinSzego([0.5, -0.4j, 0.2]), 20)
        schur = schur_from_moments(table, 8)
        for gen in (cmv_shape(8), GeneratingSequence(MIXED_BITS[:8])):
            basis = gram_schmidt_laurent(table, gen, 8)
            for n in range(9):
                want = psi_coefficients(schur, gen, n)
                got = basis[n]
                for e in set(want) | set(got):
                    assert got.get(e, 0j) == pytest.approx(want.get(e, 0j), abs=1e-9)

    def test_moment_range_precondition(self):
        table = moments(Lebesgue(), 4)
        with pytest.raises(MomentError, match="jmax"):
            gram_schmidt_laurent(table, hessenberg_shape(4), 4)


class TestSchurFromMoments:
    def test_lebesgue_gives_zeros(self):
        table = moments(Lebesgue(), 8)
        seq = schur_from_moments(table, 6)
        assert np.max(np.abs(seq.alphas)) <= 1e-12

    def test_two_parameter_round_trip(self):
        prefix = [0.6, -0.3j]
        table = moments(BernsteinSzego(prefix), 4)
        seq = schur_from_moments(table, 2)
        assert np.allclose(seq.alphas, prefix, atol=1e-8)

    def test_geronimus_constant(self):
        a = 0.35 - 0.2j
        table = moments(Geronimus(a), 10)
        seq = schur_from_moments(table, 9)
        assert np.max(np.abs(np.array(seq.alphas) - a)) <= 1e-8

    def test_geronimus_loss_of_orthonormality_raises(self):
        table = moments(Geronimus(0.5), 31)
        with pytest.raises(NumericalError, match="defect"):
            schur_from_moments(table, 30)

    def test_round_trip_length_12(self):
        rng = np.random.default_rng(14)
        alphas = random_schur(rng, 12, lo=0.1, hi=0.9)
        table = moments(BernsteinSzego(alphas), 13)
        recovered = schur_from_moments(table, 12)
        assert np.max(np.abs(np.array(recovered.alphas) - np.array(alphas.alphas))) <= 1e-8

    def test_needs_enough_moments(self):
        table = moments(Lebesgue(), 3)
        with pytest.raises(MomentError):
            schur_from_moments(table, 4)


class TestSchurParameters:
    def test_lebesgue_zeros(self):
        assert schur_parameters(Lebesgue(), 4).alphas == (0j,) * 4

    def test_bernstein_szego_prefix_then_zeros(self):
        measure = BernsteinSzego([0.6, -0.3j, 0.2])
        assert schur_parameters(measure, 5).alphas == (0.6, -0.3j, 0.2, 0j, 0j)
        assert schur_parameters(measure, 2).alphas == (0.6, -0.3j)

    def test_geronimus_constant(self):
        a = 0.35 - 0.2j
        assert schur_parameters(Geronimus(a), 6).alphas == (a,) * 6

    @pytest.mark.parametrize("atoms", [3, 6])
    def test_grid_recovered_from_moments(self, atoms):
        thetas = -np.pi + 2 * np.pi * (np.arange(atoms) + 0.3) / atoms
        grid = GridMeasure(thetas, np.arange(1, atoms + 1) / (atoms * (atoms + 1) / 2))
        want = schur_from_moments(moments(grid, atoms - 1), atoms - 1)
        assert schur_parameters(grid, atoms - 1).alphas == want.alphas
        with pytest.raises(ValueError, match=f"{atoms} distinct atoms"):
            schur_parameters(grid, atoms)

    def test_unsupported_measure(self):
        with pytest.raises(TypeError, match="unsupported measure"):
            schur_parameters(object(), 3)


class TestMatrixEntryOracle:
    def test_lebesgue_shift(self):
        table = moments(Lebesgue(), 4)
        assert matrix_entry_oracle(table, hessenberg_shape(2), 1, 0) == pytest.approx(1.0)

    def test_corner_entry(self):
        table = moments(BernsteinSzego([0.6]), 4)
        got = matrix_entry_oracle(table, hessenberg_shape(2), 0, 0)
        assert got == pytest.approx(0.6, abs=1e-9)

    def test_non_monotone_entries_vanish(self):
        rng = np.random.default_rng(15)
        gen = GeneratingSequence(random_bits(rng, 6))
        table = moments(BernsteinSzego(random_schur(rng, 3)), 10)
        found = 0
        for i in range(7):
            for j in range(7):
                if not path(gen, i, j).monotone:
                    found += 1
                    assert abs(matrix_entry_oracle(table, gen, i, j)) <= 1e-10
        assert found > 0

    def test_matches_closed_form_small(self):
        measures = (BernsteinSzego([0.6]), BernsteinSzego([0.5, -0.4j, 0.2]))
        rng = np.random.default_rng(16)
        shapes = (hessenberg_shape(6), cmv_shape(6), GeneratingSequence(random_bits(rng, 6)))
        for measure in measures:
            table = moments(measure, 8)
            schur = schur_from_moments(table, 7)
            for gen in shapes:
                snake = SnakeFactorization(schur, gen)
                want = multiplication_matrix(table, gen, 7)
                got = expand_dense(snake, 7)
                assert np.max(np.abs(want - got)) <= 1e-9

    def test_orthonormal_laurent_basis_under_measure(self):
        # inner products of the recursion-built basis elements, evaluated
        # against the moment table, form the identity
        prefix = SchurSequence([0.5, -0.4j, 0.2])
        table = moments(BernsteinSzego(prefix), 28)
        padded = SchurSequence(list(prefix.alphas) + [0.0] * 9)
        gen = cmv_shape(12)
        psis = [psi_coefficients(padded, gen, n) for n in range(13)]
        for a in range(13):
            for b in range(13):
                want = 1.0 if a == b else 0.0
                assert inner_product(table, psis[a], psis[b]) == pytest.approx(
                    want, abs=1e-10
                )
