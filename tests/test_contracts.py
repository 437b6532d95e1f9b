"""The numerical-contract check and every library site that applies it.

A contract holds when its measured defect is ``<= bound``, so a NaN defect
fails it; each site must reject NaN and +-inf input with its documented
exception type and a message that names the contract.
"""

import numpy as np
import pytest

from helpers import count_eig_calls
from snakefact import quadrature, verify
from snakefact.errors import (
    CaseResult,
    MomentError,
    NumericalError,
    ShapeError,
    check,
    unitarity_defect,
)
from snakefact.oracle import GridMeasure, Lebesgue, MomentTable, _gram_schmidt, moments
from snakefact.quadrature import (
    ParaUnitaryTruncation,
    QuadratureRule,
    eigen_unitary,
    szego_quadrature,
    truncate_para_unitary,
)
from snakefact.schur import PolynomialPair, SchurSequence
from snakefact.snake import GivensFactor, SnakeFactorization, hessenberg_shape, shape_from_monomials


class TestCheck:
    def test_value_equal_to_bound_passes(self):
        assert check("contract", 1e-10, 1e-10) == 1e-10

    def test_value_above_bound_fails(self):
        with pytest.raises(NumericalError):
            check("contract", 2e-10, 1e-10)

    def test_nan_fails(self):
        with pytest.raises(NumericalError, match="nan"):
            check("contract", float("nan"), 1e-10)

    def test_message_carries_value_and_bound(self):
        with pytest.raises(ValueError) as err:
            check("block is not unitary", 3.25e-7, 1e-14, ValueError)
        assert str(err.value) == "block is not unitary (defect 3.250e-07 > 1e-14)"

    def test_case_result_uses_the_same_predicate(self):
        assert verify.CaseResult is CaseResult
        assert CaseResult("s", "c", 1e-9, 1e-9).passed
        assert not CaseResult("s", "c", 2e-9, 1e-9).passed
        assert not CaseResult("s", "c", float("nan"), 1e-9).passed

    def test_case_result_is_an_immutable_record(self):
        result = CaseResult("s", "c", 1e-9, 1e-9)
        with pytest.raises(AttributeError):
            result.defect = 0.0
        with pytest.raises(AttributeError):
            result.extra = 1
        assert result._asdict() == {"suite": "s", "case": "c", "defect": 1e-9, "tolerance": 1e-9}
        assert repr(result) == "CaseResult(suite='s', case='c', defect=1e-09, tolerance=1e-09)"


class TestUnitarityDefect:
    def test_matches_the_formula(self):
        m = np.array([[0.6, 0.8], [0.8, -0.6 + 1e-6]], dtype=complex)
        want = np.max(np.abs(m @ m.conj().T - np.eye(2)))
        assert unitarity_defect(m) == want

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_is_nan(self, value):
        assert np.isnan(unitarity_defect(np.array([[value, 0], [0, 1]], dtype=complex)))


def _gram_schmidt_site(value, monkeypatch):
    # A MomentTable rejects non-finite moments, so the value is planted in a
    # valid table to reach the orthonormality check behind it.
    table = moments(Lebesgue(), 4)
    table._mu[table.jmax + 1] = value
    table._mu[table.jmax - 1] = np.conj(value)
    _gram_schmidt(table, np.arange(3))


def _eigen_residual_site(value, monkeypatch):
    # The input check passes a finite unitary matrix, so the value reaches
    # the residual check through a faulty general eigensolver, the only one
    # that eigen_unitary runs: a NaN eigenvalue fails the residual of its
    # eigenpairs.  Only NaN is planted: an infinite eigenvalue makes the
    # residual arithmetic itself compute 0 * inf, whose RuntimeWarning the
    # test settings turn into an error before the check can run.
    vecs = np.exp(0.25j * np.pi) * np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    values = np.array([value, 1.0], dtype=complex)
    monkeypatch.setattr(quadrature.np.linalg, "eig", lambda m: (values, vecs))
    eigen_unitary(np.eye(2, dtype=complex))


def _rule_blocks_site(value, monkeypatch):
    # Canonical blocks of validated parameters are unitary by construction,
    # so the value is planted in the blocks that the rule builds.
    build = quadrature._corner_blocks

    def planted(schur, n, theta):
        theta, blocks = build(schur, n, theta)
        blocks[0, 0, 0] = value
        return theta, blocks

    monkeypatch.setattr(quadrature, "_corner_blocks", planted)
    snake = SnakeFactorization(SchurSequence([0.3, 0.2, 0.1]), hessenberg_shape(2))
    szego_quadrature(snake, 3, 0.0)


def _truncation_theta_site(value, monkeypatch):
    snake = SnakeFactorization(SchurSequence([0.3, 0.2, 0.1]), hessenberg_shape(2))
    truncate_para_unitary(snake, 3, value)


# (site, call(value, monkeypatch), exception, keyword or {value id: keyword})
SITES = [
    ("PolynomialPair.phi", lambda v, mp: PolynomialPair([v, 1.0], [1.0, 0.0]),
     ValueError, "finite"),
    ("PolynomialPair.phi_star", lambda v, mp: PolynomialPair([0.5, 1.0], [1.0, v]),
     ValueError, "dual"),
    ("GivensFactor", lambda v, mp: GivensFactor(0, np.array([[v, 0], [0, 1]], dtype=complex)),
     ValueError, "unitary"),
    ("GridMeasure.weights", lambda v, mp: GridMeasure([0.0, 1.0], [0.5, v]),
     ValueError, {"nan": "positive", "inf": "mass", "-inf": "positive"}),
    ("GridMeasure.angles", lambda v, mp: GridMeasure([0.0, v], [0.5, 0.5]),
     ValueError, "pi"),
    ("MomentTable.mu_0", lambda v, mp: MomentTable([v, 0.1]), MomentError, "finite"),
    ("MomentTable.mu_1", lambda v, mp: MomentTable([1.0, v]), MomentError, "finite"),
    ("_gram_schmidt", _gram_schmidt_site, NumericalError, "defect"),
    ("ParaUnitaryTruncation",
     lambda v, mp: ParaUnitaryTruncation(2, 0.0, np.array([[v, 0], [0, 1]], dtype=complex)),
     NumericalError, "unitary"),
    ("truncate_para_unitary.theta", _truncation_theta_site, ValueError, "theta"),
    ("szego_quadrature.blocks", _rule_blocks_site, NumericalError, "blocks are not unitary"),
    ("eigen_unitary.input",
     lambda v, mp: eigen_unitary(np.array([[v, 0], [0, 1]], dtype=complex)),
     ValueError, "unitary"),
    ("eigen_unitary.residual", _eigen_residual_site, NumericalError, "residual"),
    ("QuadratureRule.nodes", lambda v, mp: QuadratureRule([1.0, v], [0.5, 0.5]),
     NumericalError, "circle"),
    ("QuadratureRule.weights", lambda v, mp: QuadratureRule([1.0, -1.0], [0.5, v]),
     NumericalError, {"nan": "positive", "inf": "sum", "-inf": "positive"}),
]


VALUES = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


@pytest.mark.parametrize(
    "call, exc, keyword, value",
    [
        pytest.param(call, exc, kw if isinstance(kw, str) else kw[vid], value, id=f"{site}-{vid}")
        for site, call, exc, kw in SITES
        for vid, value in VALUES.items()
        if site != "eigen_unitary.residual" or vid == "nan"
    ],
)
def test_non_finite_input_fails_the_contract(call, exc, keyword, value, monkeypatch):
    with pytest.raises(exc, match=keyword):
        call(value, monkeypatch)


def test_rule_blocks_not_unitary(monkeypatch):
    # a finite defect above the bound, not only a non-finite one, fails the rule
    with pytest.raises(NumericalError) as err:
        _rule_blocks_site(0.5, monkeypatch)
    assert str(err.value) == "truncation blocks are not unitary (defect 1.600e-01 > 1e-12)"


def test_eigenvectors_not_orthonormal(monkeypatch):
    # Any vectors are eigenvectors of the identity, so the residual check
    # passes and only the orthonormality check can catch vectors that the
    # orthonormalizing QR step failed to fix.
    vecs = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    monkeypatch.setattr(quadrature.np.linalg, "qr", lambda m: (vecs, np.eye(2)))
    with pytest.raises(NumericalError, match="orthonormal"):
        eigen_unitary(np.eye(2, dtype=complex))


def test_cayley_residual_selects_the_fallback(monkeypatch):
    # A NaN eigenvector fails the residual of the rule's Cayley pass; the
    # general eigensolver then gives the 2-point rule of U = L M =
    # [[0.6, 0.8], [0.8, -0.6]], which passes every check.
    calls = count_eig_calls(monkeypatch)
    monkeypatch.setattr(
        quadrature.np.linalg, "eigh", lambda m, UPLO: (np.zeros(2), np.full((2, 2), np.nan))
    )
    rule = szego_quadrature(SchurSequence([0.6]), 2, 0.0)
    assert calls == [(2, 2)]
    assert np.allclose(rule.nodes, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(rule.weights, [0.2, 0.8], atol=1e-12)


# Each public constructor's refusal of a malformed input: (call, exception, message)
MALFORMED = {
    "QuadratureRule lengths": (lambda: QuadratureRule([1.0, -1.0], [1.0]), ValueError,
                               "nodes and weights must be 1-d arrays of equal length"),
    "PolynomialPair lengths": (lambda: PolynomialPair([0.5, 1.0], [1.0]), ValueError,
                               "phi and phi_star must be 1-d arrays of equal length"),
    "GivensFactor 3x3": (lambda: GivensFactor(0, np.eye(3)), ValueError,
                         "a Givens block is a 2x2 matrix"),
    "shape_from_monomials empty": (lambda: shape_from_monomials([]), ShapeError,
                                   "empty monomial order"),
    "MomentTable empty": (lambda: MomentTable([]), ValueError,
                          "need moments for j = 0..jmax as a 1-d array"),
    "MomentTable 2-d": (lambda: MomentTable([[1.0, 0.1]]), ValueError,
                        "need moments for j = 0..jmax as a 1-d array"),
    "run_suites unknown": (lambda: verify.run_suites(["bogus"]), ValueError,
                           "unknown suite 'bogus'; choose from ['bandwidth', 'exactness', "
                           "'oracle-equivalence', 'round-trip', 'unitarity']"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_is_refused(name):
    call, exc, message = MALFORMED[name]
    with pytest.raises(exc) as err:
        call()
    assert type(err.value) is exc
    assert str(err.value) == message
