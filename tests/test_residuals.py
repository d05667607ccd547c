"""The stacked residual helpers and the row reduction, bit for bit against the per-row forms.

``identities._scalar_residuals`` and ``_sized_residuals`` compute every
residual of an evaluator as one array expression, and ``suite._worst``
reduces a row's residuals with one C-level pass; ``oracles`` keeps the
per-row formulas they replace.  The rows mix NaN, infinities, terms below 1,
signed zeros and subnormals, where ``max`` and ``fmax`` could part ways.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, strategies as st

from bicausal.identities import _scalar_residuals, _sized_residuals
from bicausal.suite import _worst

from conftest import same_bits
from oracles import scalar_residual_row, sized_residual_row, worst_row

SPECIAL = (math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308)

values = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _rows():
    """Lists of 1 to 8 rows of one width, 1 to 5 values: lhs and up to 4 terms."""
    return st.integers(1, 5).flatmap(
        lambda width: st.lists(
            st.lists(values, min_size=width, max_size=width), min_size=1, max_size=8
        )
    )


@given(_rows())
def test_scalar_residuals_give_the_bits_of_the_per_row_formula(rows):
    lhs, *terms = np.array(rows).T
    got = _scalar_residuals(lhs, *terms).tolist()
    for row, value in zip(rows, got):
        assert same_bits(value, scalar_residual_row(*row)), row


@given(_rows())
def test_scalar_residuals_of_terms_below_one_divide_by_one(rows):
    lhs, *terms = np.array(rows).T
    small = [np.clip(t, -0.5, 0.5) for t in terms]
    assert same_bits(_scalar_residuals(lhs, *small), np.abs(lhs))


@given(_rows())
def test_sized_residuals_give_the_bits_of_the_per_row_formula(rows):
    got = _sized_residuals(np.array(rows)).tolist()
    for row, value in zip(rows, got):
        assert same_bits(value, sized_residual_row(row)), row


def test_sized_residuals_keep_the_leading_axes():
    sizes = np.array([[[3.0, 2.0, 0.5], [1.0, math.nan, 4.0]]])
    assert same_bits(_sized_residuals(sizes), np.array([[1.5, 0.25]]))


@given(st.lists(values, max_size=12))
def test_worst_gives_the_bits_of_the_scan(residuals):
    assert same_bits(_worst(residuals), worst_row(residuals))


def test_worst_takes_the_first_non_finite_residual_in_sample_order():
    assert same_bits(_worst([1.0, math.nan, math.inf]), math.nan)
    assert _worst([1.0, math.inf, math.nan]) == math.inf
    assert _worst([2.0, -math.inf, 3.0]) == -math.inf
    assert _worst([]) == 0.0


def test_worst_of_finite_residuals_whose_sum_overflows_is_their_maximum():
    assert _worst([1e308, 1e308]) == 1e308
    assert _worst([1e308, 5e307, 1e308, 0.0]) == 1e308
