"""End-to-end acceptance checks, each with its stated tolerance and runtime
budget.  Run ``pytest -s tests/test_acceptance.py -v`` to see one pass/fail
line per criterion."""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    MIXED_BITS,
    cmv_entry,
    hessenberg_entry,
    mixed_block_entries,
    random_bits,
    random_schur,
)
from snakefact.expand import bandwidths, entry, expand_dense
from snakefact.oracle import (
    BernsteinSzego,
    Lebesgue,
    moments,
    multiplication_matrix,
    schur_from_moments,
)
from snakefact.quadrature import apply_rule, szego_quadrature
from snakefact.schur import SchurSequence, evaluate_phi
from snakefact.snake import (
    GeneratingSequence,
    SnakeFactorization,
    cmv_shape,
    hessenberg_shape,
    materialize_window,
)
from snakefact.verify import measured_bandwidths

MEASURES = {
    "lebesgue": Lebesgue(),
    "bernstein-szego([0.6])": BernsteinSzego([0.6]),
    "bernstein-szego([0.5,-0.4i,0.2])": BernsteinSzego([0.5, -0.4j, 0.2]),
}


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"{label} exceeded its runtime budget: {elapsed:.2f}s >= {budget_seconds}s"
    )
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s)")


def mixed_alpha(k: int) -> complex:
    value = (0.3 + 0.05 * k) * np.exp(1j * k)
    return value * min(1.0, 0.9 / abs(value))


def test_criterion_1_mixed_shape_expansion():
    with criterion("criterion 1 (mixed-shape expansion)", 1.0):
        schur = SchurSequence([mixed_alpha(k) for k in range(10)])
        snake = SnakeFactorization(schur, GeneratingSequence(MIXED_BITS))
        dense = expand_dense(snake, 8)
        window = materialize_window(snake, 8)
        assert np.max(np.abs(dense - window[:8, :8])) <= 1e-13

        expected = mixed_block_entries(schur.alphas)
        for i in range(8):
            for j in range(8):
                if (i, j) in expected:
                    assert dense[i, j] != 0
                else:
                    assert dense[i, j] == 0
        for spot in ((7, 4), (3, 0), (5, 2)):
            assert dense[spot] == 0
        want_75 = schur.rho(5) * schur.rho(6) * np.conj(schur.alpha(7))
        assert abs(dense[7, 5] - want_75) <= 1e-14


def test_criterion_2_named_shape_blocks():
    with criterion("criterion 2 (five-diagonal and Hessenberg blocks)", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(5):
            hess = SnakeFactorization(random_schur(rng, 6), hessenberg_shape(5))
            for i in range(6):
                for j in range(6):
                    want = hessenberg_entry(hess.schur.alphas, i, j)
                    assert abs(entry(hess, i, j) - want) <= 1e-13
            cmv = SnakeFactorization(random_schur(rng, 8), cmv_shape(7))
            for i in range(7):
                for j in range(8):
                    want = cmv_entry(cmv.schur.alphas, i, j)
                    assert abs(entry(cmv, i, j) - want) <= 1e-13


def test_criterion_3_oracle_equivalence():
    with criterion("criterion 3 (moment oracle equivalence)", 30.0):
        rng = np.random.default_rng(102)
        nmax = 10
        shapes = {
            "hessenberg": hessenberg_shape(nmax),
            "cmv": cmv_shape(nmax),
            # natural continuation of the mixed shape by one positive power
            "mixed": GeneratingSequence(MIXED_BITS + (0,)),
        }
        for k in range(3):
            shapes[f"random-{k}"] = GeneratingSequence(random_bits(rng, nmax))
        for measure in MEASURES.values():
            table = moments(measure, nmax + 2)
            schur = schur_from_moments(table, nmax + 1)
            for gen in shapes.values():
                snake = SnakeFactorization(schur, gen)
                want = multiplication_matrix(table, gen, nmax + 1)
                got = expand_dense(snake, nmax + 1)
                assert np.max(np.abs(want - got)) <= 1e-9


def test_criterion_4_bandwidth_law():
    with criterion("criterion 4 (bandwidth law, all length-10 shapes)", 60.0):
        rng = np.random.default_rng(103)
        schur = random_schur(rng, 11, lo=0.2, hi=0.8)
        for bits in itertools.product((0, 1), repeat=10):
            gen = GeneratingSequence(bits)
            assert measured_bandwidths(gen, schur) == bandwidths(gen)


def test_criterion_5_quadrature_exactness():
    with criterion("criterion 5 (quadrature exactness)", 30.0):
        for measure in MEASURES.values():
            table = moments(measure, 17)
            for n in (4, 8, 16):
                schur = schur_from_moments(table, n)
                snake = SnakeFactorization(schur, hessenberg_shape(n - 1))
                for theta in (0.0, 0.7):
                    rule = szego_quadrature(snake, n, theta)
                    assert np.max(np.abs(np.abs(rule.nodes) - 1.0)) <= 1e-10
                    assert np.all(rule.weights > 0)
                    assert abs(rule.weights.sum() - 1.0) <= 1e-10
                    defect = max(
                        abs(apply_rule(rule, {j: 1.0}) - table.mu(-j))
                        for j in range(-(n - 1), n)
                    )
                    assert defect <= 1e-9


def test_criterion_6_shape_invariance():
    with criterion("criterion 6 (shape invariance of rules)", 10.0):
        rng = np.random.default_rng(104)
        schur = random_schur(rng, 12)
        theta = 0.7
        shapes = [hessenberg_shape(11), cmv_shape(11)]
        shapes += [GeneratingSequence(random_bits(rng, 11)) for _ in range(5)]
        reference = None
        for gen in shapes:
            rule = szego_quadrature(SnakeFactorization(schur, gen), 12, theta)
            if reference is None:
                reference = rule
                continue
            assert np.max(np.abs(rule.nodes - reference.nodes)) <= 1e-10
            assert np.max(np.abs(rule.weights - reference.weights)) <= 1e-10


def test_criterion_7_principal_truncation_spectrum():
    with criterion("criterion 7 (principal truncation spectra)", 10.0):
        rng = np.random.default_rng(105)
        shapes = {
            "hessenberg": hessenberg_shape(9),
            "cmv": cmv_shape(9),
            "mixed": GeneratingSequence(MIXED_BITS),
        }
        for _ in range(5):
            schur = random_schur(rng, 10, lo=0.1, hi=0.85)
            for gen in shapes.values():
                snake = SnakeFactorization(schur, gen)
                for n in (4, 8):
                    values = np.linalg.eigvals(materialize_window(snake, n - 1)[:n, :n])
                    assert np.max(np.abs(values)) < 1.0
                    phi, _ = evaluate_phi(schur, n, values)
                    assert np.max(np.abs(phi)) <= 1e-8


def test_criterion_8_schur_round_trip():
    with criterion("criterion 8 (Schur parameter round trip)", 20.0):
        rng = np.random.default_rng(106)
        for length in (1, 3, 6, 9, 12):
            mods = rng.uniform(0.1, 0.9, size=length)
            mods[length // 2] = 0.9  # include the extreme modulus
            args = rng.uniform(-np.pi, np.pi, size=length)
            alphas = mods * np.exp(1j * args)
            table = moments(BernsteinSzego(alphas), length + 1)
            recovered = schur_from_moments(table, length)
            assert np.max(np.abs(np.array(recovered.alphas) - alphas)) <= 1e-8


def test_criterion_9_lebesgue_closed_form():
    with criterion("criterion 9 (Lebesgue closed form)", 1.0):
        snake = SnakeFactorization(SchurSequence([0.0] * 8), hessenberg_shape(7))
        rule = szego_quadrature(snake, 8, 0.0)
        angles = -np.pi + 2 * np.pi * np.arange(8) / 8
        assert np.max(np.abs(rule.nodes - np.exp(1j * angles))) <= 1e-12
        assert np.max(np.abs(rule.weights - 0.125)) <= 1e-12
