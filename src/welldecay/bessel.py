"""Bessel functions J_n(x) and modified Bessel functions I_n(x) for integer
order and real argument, plus tail control for Floquet sideband sums.

Algorithm: ascending power series for small argument, Miller's backward
recurrence with normalization otherwise. Upward recurrence in the order is
avoided for both families (it amplifies the dominant companion solution).
The J series is additionally restricted to x <= 12: for larger arguments the
alternating terms grow before they decay and the cancellation would eat the
1e-12 absolute-error budget; Miller covers that region instead.

bessel_j also takes an array of arguments and then runs both algorithms for
all of them at once; every element takes the path, the start order and the
operations of its scalar call, so the two agree bit for bit.

Normalizations used by the backward recurrences:

    J_0(x) + 2 J_2(x) + 2 J_4(x) + ... = 1
    I_0(x) + 2 I_1(x) + 2 I_2(x) + ... = e^x
"""

from __future__ import annotations

import math

import numpy as np

J_ARG_MAX = 1.0e4
I_ARG_MAX = 700.0

# series is exact-ish only while terms decay promptly; see module docstring
_J_SERIES_ARG_MAX = 12.0
_RESCALE_LIMIT = 1.0e250


def bessel_j(n: int, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the first kind, integer order.

    Supports |x| < 1e4. Negative order and argument reduce through
    J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x). A numpy array x
    gives an array of the same shape, equal element by element to the
    scalar calls.
    """
    n = int(n)
    if isinstance(x, np.ndarray) and x.ndim:
        return _bessel_j_array(n, x)
    x = float(x)
    if abs(x) >= J_ARG_MAX:
        raise ValueError(f"bessel_j argument out of supported range: |{x}| >= {J_ARG_MAX}")
    sign = 1.0
    if n < 0:
        n = -n
        if n % 2:
            sign = -sign
    if x < 0.0:
        x = -x
        if n % 2:
            sign = -sign
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x < min(2.0 * (n + 1), _J_SERIES_ARG_MAX):
        return sign * _series_j(n, x)
    return sign * _miller_j(n, x)


def bessel_i(n: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order.

    Supports |x| < 700 (e^x would overflow beyond). Reductions:
    I_{-n}(x) = I_n(x) and I_n(-x) = (-1)^n I_n(x).
    """
    n = int(n)
    x = float(x)
    if abs(x) >= I_ARG_MAX:
        raise OverflowError(f"bessel_i argument out of supported range: |{x}| >= {I_ARG_MAX}")
    n = abs(n)
    sign = 1.0
    if x < 0.0:
        x = -x
        if n % 2:
            sign = -sign
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x < 2.0 * (n + 1):
        return sign * _series_i(n, x)
    return sign * _miller_i(n, x)


def truncation_order(x: float, tolerance: float) -> int:
    """Smallest sideband cutoff n_max with both weight tails below tolerance.

    Controls truncation of the photon-sideband sums: returns the smallest m,
    subject to the floor m >= ceil(x) + 10, such that

        1 - sum_{|n|<=m} J_n(x)^2           < tolerance
        1 - e^{-x} sum_{|n|<=m} I_n(x)      < tolerance

    Both tails decay super-exponentially once the order passes x.
    """
    x = float(x)
    if x < 0.0:
        raise ValueError("truncation_order needs x >= 0")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    floor = int(math.ceil(x)) + 10
    j0, i0 = bessel_j(0, x), bessel_i(0, x)
    # sums over 1 <= k <= m, extended one order per candidate m, left to right
    j_part = i_part = 0.0
    m = 0
    while True:
        m += 1
        j_part += bessel_j(m, x) ** 2
        i_part += bessel_i(m, x)
        if m < floor:
            continue
        j_tail = max(1.0 - (j0 * j0 + 2.0 * j_part), 0.0)
        i_tail = max(1.0 - math.exp(-x) * (i0 + 2.0 * i_part), 0.0)
        if j_tail < tolerance and i_tail < tolerance:
            return m


def _leading_term(n: int, half_x: float) -> float:
    # (x/2)^n / n!, in log space once direct products could overflow
    if n <= 30:
        t = 1.0
        for k in range(1, n + 1):
            t *= half_x / k
        return t
    return math.exp(n * math.log(half_x) - math.lgamma(n + 1.0))


def _series_j(n: int, x: float) -> float:
    half = 0.5 * x
    term = _leading_term(n, half)
    total = term
    q = half * half
    for k in range(1, 400):
        term *= -q / (k * (n + k))
        total += term
        if abs(term) < 1.0e-17 * abs(total) + 1.0e-300:
            return total
    raise RuntimeError("J series failed to converge")  # unreachable for x <= 12


def _series_i(n: int, x: float) -> float:
    # all terms positive, no cancellation at any argument
    half = 0.5 * x
    term = _leading_term(n, half)
    total = term
    q = half * half
    for k in range(1, 2000):
        term *= q / (k * (n + k))
        total += term
        if term < 1.0e-17 * total + 1.0e-300:
            return total
    raise RuntimeError("I series failed to converge")


def _miller_start(n: int, x: float) -> int:
    # start far enough above max(n, x) that the seed contamination decays
    # below 1e-17 by the time the recurrence reaches the target order
    return int(max(n, math.ceil(x)) + 12.0 * max(1.0, x) ** (1.0 / 3.0) + 18)


def _miller_j(n: int, x: float) -> float:
    m = _miller_start(n, x)
    if m % 2:
        m += 1
    upper = 0.0
    cur = 1.0e-30
    norm = 0.0
    target = 0.0
    for k in range(m, 0, -1):
        prev = (2.0 * k / x) * cur - upper
        upper = cur
        cur = prev
        if k % 2 == 1:
            # after this step cur = J_{k-1}, an even order
            norm += 2.0 * cur
        if k - 1 == n:
            target = cur
        if abs(cur) > _RESCALE_LIMIT:
            cur /= _RESCALE_LIMIT
            upper /= _RESCALE_LIMIT
            norm /= _RESCALE_LIMIT
            target /= _RESCALE_LIMIT
    norm -= cur  # J_0 was added with weight 2
    return target / norm


def _bessel_j_array(n: int, x: np.ndarray) -> np.ndarray:
    # the scalar bessel_j, path by path, on every element of x at once
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    bad = ~(np.abs(flat) < J_ARG_MAX)
    if bad.any():
        v = float(flat[np.argmax(bad)])
        raise ValueError(f"bessel_j argument out of supported range: |{v}| >= {J_ARG_MAX}")
    sign = np.where(((flat < 0.0) != (n < 0)) & (n % 2 == 1), -1.0, 1.0)
    n = abs(n)
    ax = np.abs(flat)
    out = np.full(flat.shape, 1.0 if n == 0 else 0.0)
    miller = ax >= min(2.0 * (n + 1), _J_SERIES_ARG_MAX)
    series = (ax > 0.0) & ~miller
    if series.any():
        out[series] = sign[series] * _series_j_array(n, ax[series])
    if miller.any():
        out[miller] = sign[miller] * _miller_j_array(n, ax[miller])
    return out.reshape(x.shape)


def _series_j_array(n: int, x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    if n <= 30:
        term = np.ones_like(half)
        for k in range(1, n + 1):
            term *= half / k
    else:
        term = np.array([_leading_term(n, h) for h in half.tolist()])
    total = term.copy()
    q = half * half
    out = np.empty_like(x)
    idx = np.arange(x.size)  # elements still summing
    for k in range(1, 400):
        term *= -q / (k * (n + k))
        total += term
        done = np.abs(term) < 1.0e-17 * np.abs(total) + 1.0e-300
        if done.any():
            out[idx[done]] = total[done]
            keep = ~done
            idx, term, total, q = idx[keep], term[keep], total[keep], q[keep]
            if not idx.size:
                return out
    raise RuntimeError("J series failed to converge")  # unreachable for x <= 12


def _miller_j_array(n: int, x: np.ndarray) -> np.ndarray:
    starts = np.fromiter((_miller_start(n, float(v)) for v in x), dtype=np.int64, count=x.size)
    starts += starts % 2
    # sorted by descending start, the elements already recurring form a prefix
    order = np.argsort(-starts, kind="stable")
    xs, seeds = x[order], starts[order]
    size = xs.size
    upper, cur = np.empty(size), np.empty(size)
    norm, target = np.zeros(size), np.zeros(size)
    a = 0
    for k in range(int(seeds[0]), 0, -1):
        enter = a
        while enter < size and seeds[enter] == k:
            enter += 1
        if enter > a:  # these elements start here, with the scalar seed
            upper[a:enter] = 0.0
            cur[a:enter] = 1.0e-30
            a = enter
        prev = (2.0 * k / xs[:a]) * cur[:a] - upper[:a]
        upper[:a] = cur[:a]
        cur[:a] = prev
        c = cur[:a]
        if k % 2 == 1:
            norm[:a] += 2.0 * c
        if k - 1 == n:
            target[:a] = c
        if np.abs(c).max() > _RESCALE_LIMIT:
            big = np.abs(c) > _RESCALE_LIMIT
            for arr in (cur, upper, norm, target):
                arr[:a][big] /= _RESCALE_LIMIT
    out = np.empty(size)
    out[order] = target / (norm - cur)  # J_0 was added with weight 2
    return out


def _miller_i(n: int, x: float) -> float:
    m = _miller_start(n, x)
    upper = 0.0
    cur = 1.0e-30
    norm = 0.0
    target = 0.0
    for k in range(m, 0, -1):
        prev = (2.0 * k / x) * cur + upper
        upper = cur
        cur = prev
        norm += 2.0 * upper
        if k - 1 == n:
            target = cur
        if abs(cur) > _RESCALE_LIMIT:
            cur /= _RESCALE_LIMIT
            upper /= _RESCALE_LIMIT
            norm /= _RESCALE_LIMIT
            target /= _RESCALE_LIMIT
    norm += cur  # I_0 enters with weight 1
    # target/norm = I_n e^{-x}, bounded by 1; scale back up afterwards
    return (target / norm) * math.exp(x)
