import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_schur
from snakefact.cli import main
from snakefact.errors import InvalidSchurParameter
from snakefact.oracle import Geronimus
from snakefact.schur import (
    PolynomialPair,
    SchurSequence,
    dual,
    evaluate_phi,
    laurent_basis,
    polynomial_pair,
    szego_step,
)
from snakefact.snake import cmv_shape, hessenberg_shape

EPS = np.finfo(float).eps

disk_alphas = st.complex_numbers(max_magnitude=0.95, allow_infinity=False, allow_nan=False)
coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=10.0, allow_infinity=False, allow_nan=False),
    min_size=1,
    max_size=12,
)


class TestSchurSequence:
    def test_free_case(self):
        seq = SchurSequence([0, 0, 0])
        assert np.allclose(seq.rhos, [1.0, 1.0, 1.0])

    def test_three_four_five(self):
        seq = SchurSequence([0.6])
        assert seq.rho(0) == pytest.approx(0.8, abs=1e-15)

    def test_boundary_rejected(self):
        with pytest.raises(InvalidSchurParameter) as err:
            SchurSequence([1.0])
        assert err.value.index == 0

    def test_offending_index_reported(self):
        with pytest.raises(InvalidSchurParameter) as err:
            SchurSequence([0.1, 0.2, 0.8 + 0.6j])
        assert err.value.index == 2

    def test_blocks_are_read_only(self):
        seq = SchurSequence([0.6, 0.3j])
        with pytest.raises(ValueError, match="read-only"):
            seq._blocks[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            seq.rhos[0] = 0.0
        np.testing.assert_array_equal(seq._blocks[0], [[0.6, 0.8], [0.8, -0.6]])

    @pytest.mark.parametrize("bad", ["0.1", None, [0.1], True, np.array([0.1])], ids=repr)
    def test_non_number_named_by_index(self, bad):
        with pytest.raises(TypeError, match="^parameter 1 must be a number"):
            SchurSequence([0.1, bad])
        with pytest.raises(TypeError, match="^alpha_k must be a number"):
            szego_step(PolynomialPair.initial(), bad)
        with pytest.raises(TypeError, match="^a must be a number"):
            Geronimus(bad)

    def test_number_types_accepted(self):
        seq = SchurSequence([np.float32(0.5), np.complex64(0.25j), np.int8(0), 0.1])
        assert seq.alphas == (0.5, 0.25j, 0j, 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SchurSequence([])

    @pytest.mark.parametrize(
        "bad", [float("nan"), complex(0.1, float("nan")), float("inf"), complex(0.0, -float("inf"))]
    )
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidSchurParameter, match="not finite") as err:
            SchurSequence([0.1, bad])
        assert err.value.index == 1

    @settings(deadline=None)
    @given(st.lists(disk_alphas, min_size=1, max_size=8))
    def test_rho_alpha_identity(self, alphas):
        seq = SchurSequence(alphas)
        for k in range(len(seq)):
            assert abs(seq.rho(k) ** 2 + abs(seq.alpha(k)) ** 2 - 1.0) <= 4 * EPS


class TestDual:
    @settings(deadline=None)
    @given(coeff_lists)
    def test_involution(self, coeffs):
        c = np.asarray(coeffs, dtype=complex)
        assert np.array_equal(dual(dual(c)), c)

    def test_explicit(self):
        assert np.allclose(dual([1j, 2.0, 3.0]), [3.0, 2.0, -1j])


class TestSzegoStep:
    def test_free_step(self):
        nxt = szego_step(PolynomialPair.initial(), 0.0)
        assert np.allclose(nxt.phi, [0.0, 1.0])
        assert np.allclose(nxt.phi_star, [1.0, 0.0])

    def test_step_alpha_06(self):
        # (z - 0.6) / 0.8 and (1 - 0.6 z) / 0.8
        nxt = szego_step(PolynomialPair.initial(), 0.6)
        assert np.allclose(nxt.phi, [-0.75, 1.25], atol=1e-15)
        assert np.allclose(nxt.phi_star, [1.25, -0.75], atol=1e-15)

    def test_recursion_rows_hold_identically(self):
        # Substituting the output back must satisfy, as coefficient identities,
        #   z phi_k        = conj(a_k) phi_k* + rho_k phi_{k+1}
        #   phi_{k+1}*     = rho_k phi_k*     - a_k  phi_{k+1}
        rng = np.random.default_rng(5)
        pair = PolynomialPair.initial()
        for k in range(12):
            a = complex(rng.uniform(0, 0.85) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
            rho = np.sqrt(1 - abs(a) ** 2)
            nxt = szego_step(pair, a)
            z_phi = np.concatenate(([0], pair.phi))
            star_pad = np.concatenate((pair.phi_star, [0]))
            assert np.allclose(z_phi, np.conj(a) * star_pad + rho * nxt.phi, atol=1e-13)
            assert np.allclose(nxt.phi_star, rho * star_pad - a * nxt.phi, atol=1e-13)
            pair = nxt

    @settings(deadline=None, max_examples=50)
    @given(st.lists(disk_alphas, min_size=1, max_size=6))
    def test_duality_preserved(self, alphas):
        pair = PolynomialPair.initial()
        for a in alphas:
            pair = szego_step(pair, a)
        scale = max(1.0, np.max(np.abs(pair.phi)))
        assert np.allclose(pair.phi_star, dual(pair.phi), atol=1e-10 * scale)

    @pytest.mark.parametrize("n", [0, 1, 9, 40])
    def test_polynomial_pair_matches_chained_steps(self, n):
        seq = random_schur(np.random.default_rng(n), max(n, 1), lo=0.0, hi=0.9)
        chained = PolynomialPair.initial()
        for k in range(n):
            chained = szego_step(chained, seq.alpha(k))
        pair = polynomial_pair(seq, n)
        assert np.array_equal(pair.phi, chained.phi)
        assert np.array_equal(pair.phi_star, chained.phi_star)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(InvalidSchurParameter):
            szego_step(PolynomialPair.initial(), 1.0 + 0j)

    def test_nan_alpha_rejected(self):
        with pytest.raises(InvalidSchurParameter, match="not finite"):
            szego_step(PolynomialPair.initial(), complex(float("nan"), 0.0))


class TestPolynomialPair:
    def test_rejects_non_dual(self):
        with pytest.raises(ValueError, match="dual"):
            PolynomialPair([1.0, 2.0], [5.0, 1.0])

    def test_rejects_nonpositive_leading(self):
        with pytest.raises(ValueError, match="leading"):
            PolynomialPair([1.0, -2.0], [-2.0, 1.0])

    def test_degree(self):
        assert PolynomialPair.initial().degree == 0


class TestEvaluatePhi:
    def test_free_case_powers(self):
        seq = SchurSequence([0.0] * 5)
        phi, star = evaluate_phi(seq, 5, 1j)
        assert phi == pytest.approx(1j)
        assert star == pytest.approx(1.0)

    def test_degree_one_at_one(self):
        phi, star = evaluate_phi(SchurSequence([0.6]), 1, 1.0)
        assert phi == pytest.approx(0.5)
        assert star == pytest.approx(0.5)

    def test_equal_modulus_on_circle(self):
        rng = np.random.default_rng(11)
        seq = random_schur(rng, 16)
        z = np.exp(1j * rng.uniform(-np.pi, np.pi, size=64))
        for n in (1, 7, 16):
            phi, star = evaluate_phi(seq, n, z)
            assert np.max(np.abs(np.abs(phi) - np.abs(star))) <= 1e-12 * np.max(np.abs(phi))

    @pytest.mark.parametrize("n,hi", [(8, 0.8), (32, 0.8), (64, 0.5)])
    def test_matches_coefficient_evaluation(self, n, hi):
        rng = np.random.default_rng(n)
        seq = random_schur(rng, n, lo=0.0, hi=hi)
        pair = polynomial_pair(seq, n)
        z = np.exp(1j * rng.uniform(-np.pi, np.pi, size=32))
        phi, star = evaluate_phi(seq, n, z)
        phi_c = np.polyval(pair.phi[::-1], z)
        star_c = np.polyval(pair.phi_star[::-1], z)
        assert np.max(np.abs(phi - phi_c) / np.maximum(1.0, np.abs(phi))) <= 1e-12
        assert np.max(np.abs(star - star_c) / np.maximum(1.0, np.abs(star))) <= 1e-12

    def test_requires_enough_parameters(self):
        with pytest.raises(ValueError):
            evaluate_phi(SchurSequence([0.1]), 2, 1.0)


class TestLaurentBasis:
    def test_all_positive_order_gives_phi(self):
        rng = np.random.default_rng(3)
        seq = random_schur(rng, 6)
        gen = hessenberg_shape(6)
        z = np.exp(0.3j)
        for n in range(7):
            phi, _ = evaluate_phi(seq, n, z)
            assert laurent_basis(seq, gen, n, z) == pytest.approx(phi)

    def test_alternating_free_case(self):
        seq = SchurSequence([0.0] * 4)
        gen = cmv_shape(4)
        z = 0.8 * np.exp(0.4j)
        assert laurent_basis(seq, gen, 2, z) == pytest.approx(1.0 / z)

    def test_index_zero_is_one(self):
        seq = SchurSequence([0.3, 0.1j])
        assert laurent_basis(seq, cmv_shape(2), 0, 1j) == pytest.approx(1.0)

    def test_rejects_zero(self):
        seq = SchurSequence([0.3, 0.1])
        with pytest.raises(ValueError, match="z = 0"):
            laurent_basis(seq, cmv_shape(2), 1, 0.0)


# No decimal digit, comma or white space, so no such string parses as a
# complex number inside the unit disk, nor is dropped from an --alphas list.
NO_NUMBER_TEXT = st.text(
    st.characters(blacklist_categories=("Nd", "Zs", "Zl", "Zp", "Cc", "Cs"),
                  blacklist_characters=","),
    min_size=1, max_size=4,
)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
ILL_TYPED = st.one_of(
    NO_NUMBER_TEXT,
    st.none(),
    st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=2),
    NON_FINITE,
    st.builds(complex, st.floats(-0.5, 0.5), NON_FINITE),
    st.builds(complex, NON_FINITE, st.floats(allow_nan=True)),
)


@settings(max_examples=50, deadline=None)
@given(ILL_TYPED, st.integers(1, 3))
def test_property_ill_typed_schur_input_is_refused(bad, index):
    with pytest.raises((TypeError, ValueError), match=f"^parameter {index} "):
        SchurSequence([0.1] * index + [bad])
    with pytest.raises((TypeError, ValueError)):
        Geronimus(bad)
    alphas = ",".join(["0.1"] * index + [str(bad)])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["expand", f"--alphas={alphas}", "--n", "2"])
    assert code == 2 and err.getvalue().startswith("error: "), alphas
