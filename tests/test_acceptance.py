"""Property-suite acceptance gate: one test per criterion, default seed."""

import pytest

from symbidisc import suite
from symbidisc.suite import CRITERIA, DEFAULT_CONFIG


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion(DEFAULT_CONFIG)
    assert result.passed, f"criterion {result.number} ({result.name}): {result.detail}"


def test_fundamental_criterion_gates_on_the_upper_bound(monkeypatch):
    # a lower bound on w(A) never licenses a pass: criterion 4 fails when
    # only the upper bounds exceed 1 + 1e-8, whatever the reported kinds
    classify = suite.is_gamma_contraction

    def loose_upper(pair, *args):
        rep = classify(pair, *args)
        rep.wA_upper = max(rep.wA_upper, 1 + 2e-8)
        return rep

    monkeypatch.setattr(suite, "is_gamma_contraction", loose_upper)
    result = suite.criterion_fundamental_equation(DEFAULT_CONFIG)
    assert not result.passed and "0 misclassified" in result.detail
