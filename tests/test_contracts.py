"""The numerical-contract check, and the routes a rule takes when one of its contracts fails.

A contract holds when its measured defect is ``<= bound``, so a NaN defect
fails it.  A pencil pass of the Szego rule that fails its residual or
orthonormality bound, or refuses, falls back to the general eigensolver,
and a failed fallback keeps the pencil's reason as its context.  Each
site's own refusal is a row of the refusal table, ``refusals.ROWS``; the
cases that were tests of this module before the table run here under
those tests' ids, by ``keep_earlier_ids`` at the end.
"""

import numpy as np
import pytest

from helpers import count_eig_calls, parameter_family
from refusals import keep_earlier_ids
from snakefact import quadrature, verify
from snakefact.errors import CaseResult, ConvergenceError, NumericalError, check, unitarity_defect
from snakefact.quadrature import szego_quadrature
from snakefact.schur import SchurSequence


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


def test_cayley_orthonormality_selects_the_fallback(monkeypatch):
    # The pencil's orthonormality bound is compared where the general
    # route's is, in _checked_pairs, so a pencil pass that fails only that
    # bound falls back too, to the same rule as above.
    calls = count_eig_calls(monkeypatch)
    monkeypatch.setattr(quadrature, "_factor_defect", lambda q, conj: 1.0)
    rule = szego_quadrature(SchurSequence([0.6]), 2, 0.0)
    assert calls == [(2, 2)]
    assert np.allclose(rule.nodes, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(rule.weights, [0.2, 0.8], atol=1e-12)


def _singular_pencil(monkeypatch):
    monkeypatch.setattr(quadrature, "_pencil_pivots", lambda diag, off: None)


def _eigh_fails(monkeypatch):
    def fail(m, UPLO):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(quadrature.np.linalg, "eigh", fail)


@pytest.mark.parametrize("refuse, exc, reason", [
    (_singular_pencil, NumericalError, "the Cayley pencil is singular"),
    (_eigh_fails, ConvergenceError, "the Cayley pencil's eigh did not converge"),
], ids=["singular", "eigh"])
def test_pencil_refusal_names_its_reason_and_falls_back(monkeypatch, refuse, exc, reason):
    # the rule is then the general eigensolver's on the dense L M, bit for bit
    schur, n = SchurSequence(np.linspace(-0.7, 0.7, 15) * np.exp(0.3j)), 16
    _, blocks = quadrature._corner_blocks(schur, n, 0.4)
    eye = np.eye(n, dtype=complex)
    dense = quadrature._half_product(blocks, 1, quadrature._half_product(blocks, 0, eye))
    values, vecs = quadrature._general_pairs(dense)[:2]
    order = np.argsort(quadrature._principal_argument(values), kind="stable")
    refuse(monkeypatch)
    with pytest.raises(exc, match=f"^{reason}") as err:
        quadrature._pencil_pairs(blocks)
    assert type(err.value) is exc
    calls = count_eig_calls(monkeypatch)
    rule = szego_quadrature(schur, n, 0.4)
    assert calls == [(n, n)]
    assert np.array_equal(rule.nodes, values[order])
    assert np.array_equal(rule.weights, np.abs(vecs[0, order]) ** 2)


def test_a_failed_fallback_carries_the_pencil_reason():
    # |alpha| near 1 at n = 192: some weights lie below the smallest float64,
    # so the pencil pass refuses and the general route's zero weights fail
    # the rule; its error keeps the pencil's refusal as its context.
    rng = np.random.default_rng([192, 0])
    alphas = parameter_family(rng, "complex", 192, 0.99, 0.999)
    with pytest.raises(NumericalError) as err:
        szego_quadrature(SchurSequence(alphas), 192, 0.3)
    assert str(err.value).startswith("quadrature weights must be strictly positive (")
    reason = err.value.__context__
    assert type(reason) is NumericalError
    assert str(reason).startswith("weights of the Cayley pass underflow to 0 (defect ")


keep_earlier_ids(globals())
