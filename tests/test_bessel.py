"""Special-function checks against independent power-series oracles and scipy."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from welldecay import bessel
from welldecay.bessel import bessel_ive, bessel_j, truncation_order


def series_j(n, x, terms=200):
    """Oracle: ascending series sum_k (-1)^k (x/2)^{n+2k} / (k! (n+k)!)."""
    half = 0.5 * x
    term = half**n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (n + k))
        total += term
    return total


def series_j_complex(n, z, terms=200):
    """Same series continued to complex argument (test-only)."""
    half = 0.5 * z
    term = half**n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= -(half * half) / (k * (n + k))
        total += term
    return total


def series_i(n, x, terms=400):
    """Oracle: ascending series sum_k (x/2)^{n+2k} / (k! (n+k)!)."""
    half = 0.5 * x
    term = half**n / math.factorial(n)
    total = term
    for k in range(1, terms):
        term *= (half * half) / (k * (n + k))
        total += term
    return total


def bits(values):
    """Raw float64 bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_j_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0


def test_j_series_oracle_value():
    # frozen from the series oracle summed to machine precision
    expected = series_j(1, 1.5)
    assert abs(expected - 0.5579365079100995) < 1e-15
    assert abs(bessel_j(1, 1.5) - expected) < 1e-13


def test_i_trivial_values():
    assert bessel_ive(0, 0.0) == 1.0
    assert bessel_ive(2, 0.0) == 0.0


def test_i_series_oracle_value():
    expected = series_i(1, 0.05)
    assert abs(expected - 0.02500781331384448) < 1e-16
    assert abs(bessel_ive(1, 0.05) - math.exp(-0.05) * expected) < 1e-13


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 40])
@pytest.mark.parametrize("x", [1e-3, 0.5, 2.0, 7.3, 25.0, 120.0, 9999.0])
def test_j_against_scipy(n, x):
    assert abs(bessel_j(n, x) - sp.jv(n, x)) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 40])
@pytest.mark.parametrize(
    "x", [1e-3, 0.5, 2.0, 7.3, 25.0, 120.0, 650.0, 699.0, 700.0, 701.0, 900.0, 9999.0]
)
def test_i_against_scipy(n, x):
    ref = sp.ive(n, x)
    assert abs(bessel_ive(n, x) - ref) < 1e-10 * abs(ref)


@pytest.mark.parametrize("x", [1e-9, 0.5, 7.3, 11.9, 200.0, 9999.0])
def test_order_tables_match_scipy(x):
    m = truncation_order(x, 1e-12) + 10
    n = np.arange(-m, m + 1)
    assert np.max(np.abs(bessel_j(n, x) - sp.jv(n, x))) < 1e-12
    ref = sp.ive(n, x)
    big = ref > 1e-280
    assert np.max(np.abs(bessel_ive(n, x)[big] - ref[big]) / ref[big]) < 1e-10


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-9])
def test_tiny_arguments_give_the_leading_term(x):
    # (x/2)^n / n!, rounded once from exact rationals; e^{-x} for I
    n = np.arange(6)
    lead = np.array([float(Fraction(x) ** k / (2**k * math.factorial(k))) for k in range(6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, scale in ((bessel_j, 1.0), (bessel_ive, math.exp(-x))):
            expected = scale * lead
            scalars = [fn(int(k), x) for k in n]
            for got in (fn(n, x), scalars):
                assert np.allclose(got, expected, rtol=1e-15, atol=1e-320)


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("x", [0.7, 3.2])
def test_parity_reductions(n, x):
    assert bessel_j(-n, x) == (-1.0) ** n * bessel_j(n, x)
    assert bessel_j(n, -x) == (-1.0) ** n * bessel_j(n, x)
    assert bessel_ive(-n, x) == bessel_ive(n, x)
    assert bessel_ive(n, -x) == (-1.0) ** n * bessel_ive(n, x)
    for fn in (bessel_j, bessel_ive):
        assert bits(fn(np.array([n, -n]), -x)) == bits([fn(n, -x), fn(-n, -x)])


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
def test_j_square_sum_identity(x):
    m = truncation_order(x, 1e-12)
    total = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(k, x) ** 2 for k in range(1, m + 1))
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize(
    "x", [0.05, 0.5, 2.0, 1e-3, 1.0, 10.0, 200.0, 699.0, 700.0, 701.0, 900.0, 9999.0]
)
def test_i_sum_identity(x):
    # e^{-x} sum_{|n|<=m} I_n(x) = 1, across the old e^x overflow at 700
    m = truncation_order(x, 1e-12)
    table = bessel_ive(np.arange(m + 1), x).tolist()
    assert abs(table[0] + 2.0 * sum(table[1:]) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_ive_is_continuous_across_700(n):
    below, at, above = np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, 800.0)
    values = [bessel_ive(n, v) for v in (below, at, above)]
    assert max(values) - min(values) < 1e-14 * values[1]


@settings(max_examples=10, derandomize=True, deadline=None)
@given(x=st.floats(0.0, 250.0))
def test_sideband_parseval_norms(x):
    m = truncation_order(x, 1e-12)
    j_sum = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(k, x) ** 2 for k in range(1, m + 1))
    i_sum = bessel_ive(0, x) + 2.0 * sum(bessel_ive(k, x) for k in range(1, m + 1))
    assert abs(j_sum - 1.0) < 1e-12
    assert abs(i_sum - 1.0) < 1e-12


@pytest.mark.parametrize("x", [0.05, 0.5])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_j_at_imaginary_argument_relates_to_i(n, x):
    # J_n(i x) = i^n I_n(x), with J continued through its power series
    left = series_j_complex(n, 1j * x)
    right = (1j) ** n * bessel_ive(n, x) * math.exp(x)
    assert abs(left - right) < 1e-14


@pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
def test_j_recurrence_consistency(x):
    for n in range(1, 21):
        lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
        rhs = 2.0 * n / x * bessel_j(n, x)
        assert abs(lhs - rhs) < 1e-10


def test_domain_guards():
    with pytest.raises(ValueError):
        bessel_j(0, 1.0e4)
    with pytest.raises(ValueError):
        bessel_ive(0, 1.0e4)
    with pytest.raises(ValueError):
        bessel_ive(1, -1.0e4 - 5.0)
    with pytest.raises(TypeError):
        bessel_j(np.arange(3), np.ones(2))
    with pytest.raises(TypeError):
        bessel_ive(np.array([0.5]), 1.0)
    for fn in (bessel_j, bessel_ive):  # one argument per call: no array of arguments
        for x in (np.ones(3), np.array([0.5]), [2.0, 3.0]):
            with pytest.raises(TypeError, match="needs a scalar argument"):
                fn(1, x)


def test_nan_raises_the_range_error():
    with pytest.raises(ValueError, match="bessel_j argument out of supported range"):
        bessel_j(1, math.nan)
    with pytest.raises(ValueError, match="bessel_ive argument out of supported range"):
        bessel_ive(1, math.nan)


def test_truncation_order_floor_applies_at_zero():
    assert truncation_order(0.0, 1e-10) == 10


def test_truncation_order_examples():
    # oracle: scan the J_n^2 tail with the series / scipy reference
    m = truncation_order(1.5, 1e-10)
    assert m >= 12
    tail = 1.0 - (sp.jv(0, 1.5) ** 2 + 2.0 * sum(sp.jv(k, 1.5) ** 2 for k in range(1, m + 1)))
    assert tail < 1e-10
    m = truncation_order(0.1, 1e-8)
    assert m >= 11


@pytest.mark.parametrize("x, m", [(0.0, 10), (1.5, 12), (10.0, 23), (200.0, 226)])
def test_truncation_order_pinned(x, m):
    # values of the version that re-summed both tails for every candidate m
    assert truncation_order(x, 1e-10) == m


def test_truncation_order_large_argument():
    # both tails at u/omega = 800, far past the old I_n overflow at 700
    m = truncation_order(800.0, 1e-10)
    k = np.arange(1, m + 1)
    assert 1.0 - (sp.jv(0, 800.0) ** 2 + 2.0 * np.sum(sp.jv(k, 800.0) ** 2)) < 1e-10
    assert 1.0 - (sp.ive(0, 800.0) + 2.0 * np.sum(sp.ive(k, 800.0))) < 1e-10


def test_truncation_order_validation():
    with pytest.raises(ValueError):
        truncation_order(-1.0, 1e-10)
    with pytest.raises(ValueError):
        truncation_order(1.0, 2.0)
    for x in (1.0e4, math.inf, math.nan):
        with pytest.raises(ValueError):
            truncation_order(x, 1e-10)
    with pytest.raises(ValueError, match="no sideband cutoff"):
        truncation_order(1.0, 1e-17)  # below what the summed tables resolve


def test_miller_start_is_an_int_pinned_to_the_array_rule():
    # the start order as it was computed on one-element arrays: the same integer
    # for every argument of a sweep over the supported range
    xs = np.linspace(0.0, 1.0e4, 20001, endpoint=False)
    xs = np.concatenate((xs, np.geomspace(1.0e-12, 9.0e3, 4001)))
    for n in (0, 7, 300, 12000):
        old = np.maximum(n, np.ceil(xs)) + 12.0 * np.maximum(1.0, xs) ** (1.0 / 3.0) + 18
        old = old.astype(np.int64)
        old += old % 2
        new = [bessel._miller_start(n, float(x)) for x in xs]
        assert all(type(m) is int for m in new)
        assert new == old.tolist()


def table_rescaling_every_value(top, x, modified):
    """The Miller pass of bessel._table as it was: every rescaling divided each value
    stored so far, at a cost of O(top) per rescaling."""
    s = 1.0 if modified else -1.0
    upper, cur, norm = 0.0, 1.0e-30, 0.0
    vals = [0.0] * (top + 1)
    for k in range(bessel._miller_start(top, x), 0, -1):
        upper, cur = cur, (2.0 * k / x) * cur + s * upper
        if modified or k % 2:
            norm += 2.0 * cur
        if k <= top + 1:
            vals[k - 1] = cur
        if abs(cur) > bessel._RESCALE_LIMIT:
            cur /= bessel._RESCALE_LIMIT
            upper /= bessel._RESCALE_LIMIT
            norm /= bessel._RESCALE_LIMIT
            vals = [v / bessel._RESCALE_LIMIT for v in vals]
    norm -= cur
    return [v / norm for v in vals]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(top=st.integers(0, 3000), x=st.floats(1.0e-7, 9999.0), modified=st.booleans())
@example(top=5000, x=1.0e-7, modified=False)  # 212 rescalings
@example(top=5000, x=1.0e-7, modified=True)
@example(top=3000, x=0.5, modified=False)  # 44 rescalings
@example(top=200, x=9999.0, modified=True)  # none
def test_table_rescales_once_at_the_end_bit_for_bit(top, x, modified):
    # each value divided by the rescalings after it was stored, at most three times,
    # against the loop that divided every stored value at every rescaling
    ref = np.array(table_rescaling_every_value(top, x, modified))
    assert bessel._table(top, x, modified).tobytes() == ref.tobytes()
