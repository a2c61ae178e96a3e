"""The t-interval quantile is bit-identical to ``scipy.stats.t.ppf``.

:func:`repro.stats.mean_confidence_interval` takes its critical value
from ``scipy.special.stdtrit`` so that importing :mod:`repro` does not
import ``scipy.stats``.  Pooled half-widths are cached, so the swap
must not move a single ulp: every comparison here is on ``float.hex``
against a reference built on ``t.ppf`` itself.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import t

from repro.stats import mean_confidence_interval

MAX_DF = 5000
GRID = (0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0)


def _samples(n: int) -> np.ndarray:
    return np.linspace(-1.0, 2.0, n) ** 2


def _se(x: np.ndarray) -> float:
    return float(x.std(ddof=1)) / math.sqrt(x.shape[0])


def _same(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


def _check(n: int, confidence: float) -> None:
    x = _samples(n)
    want = float(t.ppf(0.5 + confidence / 2.0, df=n - 1)) * _se(x)
    ci = mean_confidence_interval(x, confidence)
    assert _same(ci.halfwidth, want), (n, confidence, ci.halfwidth, want)
    assert ci.mean == float(x.mean()) and ci.num_samples == n


@pytest.mark.parametrize("confidence", GRID)
def test_halfwidth_bit_identical_on_df_grid(confidence):
    q = 0.5 + confidence / 2.0
    tcrit = t.ppf(q, df=np.arange(1, MAX_DF + 1))
    for df in range(1, MAX_DF + 1):
        x = _samples(df + 1)
        want = float(tcrit[df - 1]) * _se(x)
        got = mean_confidence_interval(x, confidence).halfwidth
        assert _same(got, want), (df, confidence, got, want)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=MAX_DF + 1),
    confidence=st.floats(min_value=0.0, max_value=1.0),
)
def test_halfwidth_bit_identical_for_drawn_confidence(n, confidence):
    _check(n, confidence)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    confidence=st.one_of(
        st.floats(min_value=1.0, max_value=1e6, exclude_min=True),
        st.floats(min_value=-1e6, max_value=0.0, exclude_max=True),
        st.sampled_from([math.inf, -math.inf, math.nan]),
    ),
)
def test_confidence_beyond_the_unit_interval_matches_t_ppf(n, confidence):
    _check(n, confidence)
    q = 0.5 + confidence / 2.0
    if not 0.0 <= q <= 1.0:  # rounding can still land q on 1.0 or 0.0
        assert math.isnan(mean_confidence_interval(_samples(n), confidence).halfwidth)


@pytest.mark.parametrize("confidence", [-1.0, 1.5, 3.0, -3.0])
def test_confidence_edges(confidence):
    # q == 0 is the support's lower end, where stdtrit alone answers
    # +inf; q > 1 and q < 0 are nan
    for n in (2, 3, 30, 1001):
        _check(n, confidence)


def test_single_sample_keeps_infinite_halfwidth():
    ci = mean_confidence_interval(np.array([3.5]), 0.95)
    assert ci.mean == 3.5 and ci.halfwidth == math.inf and ci.num_samples == 1
