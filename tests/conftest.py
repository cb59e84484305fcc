import numpy as np
import pytest

from etaforge.asymptotics import RadiusLadder
from etaforge.experiments import BUDGETS


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def quick():
    return BUDGETS["quick"]


@pytest.fixture
def standard():
    return BUDGETS["standard"]


@pytest.fixture
def short_ladder():
    # plenty for single-term models; keeps unit tests fast
    return RadiusLadder(4.0, 4096.0, 16)


def _run_or_raise(fn):
    """fn()'s result, or the raised exception as the string 'Type: message'."""
    try:
        return fn()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _match_columns(run, columns, pick):
    """run() of the (M, K) integrand of ``columns`` against one run per
    column: where a column's own run raises, the K-column run raises the
    same; otherwise ``pick(result, k)`` of the K-column run is bit for bit
    the column's own result, the list of arrays ``pick(result, None)``.
    Returns the K-column outcome."""
    together = _run_or_raise(lambda: run(lambda x: np.stack([c(x) for c in columns], axis=1)))
    alone = [_run_or_raise(lambda c=c: run(c)) for c in columns]
    raised = [a for a in alone if isinstance(a, str)]
    if raised:
        assert together == raised[0]
        return together
    assert not isinstance(together, str), together
    for k, one in enumerate(alone):
        for got, want in zip(pick(together, k), pick(one, None)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    return together


@pytest.fixture
def match_columns():
    """The check that an (M, K) integrand's run is K one-column runs."""
    return _match_columns
