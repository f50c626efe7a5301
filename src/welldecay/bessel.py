"""Bessel functions J_n(x) and scaled modified Bessel functions e^{-|x|} I_n(x)
for integer order and real argument, plus tail control for Floquet sideband
sums.

One algorithm serves both families at every argument: Miller's backward
recurrence with normalization (Gautschi, SIAM Rev. 9:24, 1967). Started
above max(n, x), f_{k-1} = (2k/x) f_k -+ f_{k+1} (- for J, + for I) runs
down to order 0 and is normalized by

    J_0(x) + 2 J_2(x) + 2 J_4(x) + ...              = 1
    e^{-x} (I_0(x) + 2 I_1(x) + 2 I_2(x) + ...)     = 1

so one pass yields every lower order, and I comes out scaled by e^{-x}
without forming an exponential that could overflow. Upward recurrence in
the order is avoided (it amplifies the dominant companion solution). Below
x = 1e-8 the leading term (x/2)^n / n! (times e^{-x} for I) is exact to
rounding and replaces the pass, whose ratio 2k/x overflows at subnormal x.

Two loops run the recurrence, chosen by the shape of the input: a scalar
argument runs one pass on Python floats and reads any array of orders from
its table; an array of arguments at one order runs all passes in lockstep,
each element with the start and the operations of its scalar call, so the
two agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

J_ARG_MAX = 1.0e4

_RESCALE_LIMIT = 1.0e250
_TINY_ARG = 1.0e-8  # below, the leading term is exact to rounding


def bessel_j(n: int | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
    """Bessel function of the first kind J_n(x), integer order.

    Supports |x| < 1e4. Negative order and argument reduce through
    J_{-n}(x) = (-1)^n J_n(x) and J_n(-x) = (-1)^n J_n(x). Either n is an
    integer array at scalar x (one recurrence gives the whole table), or x
    is a numpy array at integer n (equal element by element to the scalar
    calls); the result has the shape of the array.
    """
    return _bessel("bessel_j", n, x, False)


def bessel_ive(n: int | np.ndarray, x: float | np.ndarray) -> float | np.ndarray:
    """Scaled modified Bessel function e^{-|x|} I_n(x), integer order.

    Supports |x| < 1e4 and matches scipy.special.ive. Reductions:
    I_{-n}(x) = I_n(x) and I_n(-x) = (-1)^n I_n(x). Array arguments as for
    bessel_j.
    """
    return _bessel("bessel_ive", n, x, True)


def truncation_order(x: float, tolerance: float) -> int:
    """Smallest sideband cutoff n_max with both weight tails below tolerance.

    Controls truncation of the photon-sideband sums: returns the smallest m,
    subject to the floor m >= ceil(x) + 10, such that

        1 - sum_{|n|<=m} J_n(x)^2           < tolerance
        1 - e^{-x} sum_{|n|<=m} I_n(x)      < tolerance

    Both tails decay super-exponentially once the order passes x; one table
    of each family, up to the Miller start above the floor, holds the cutoff
    for any tolerance the summed tables resolve. A smaller tolerance raises
    ValueError.
    """
    x = float(x)
    if not 0.0 <= x < J_ARG_MAX:
        raise ValueError(f"truncation_order needs 0 <= x < {J_ARG_MAX}, got {x}")
    if not 0.0 < tolerance < 1.0:
        raise ValueError("tolerance must lie in (0, 1)")
    floor = int(math.ceil(x)) + 10
    top = _miller_start(floor, x)
    j = np.array(_table(top, x, False))
    i = np.array(_table(top, x, True))
    # entry m - 1 holds the tails of the cutoff m; sums run left to right
    j_tail = 1.0 - (j[0] * j[0] + 2.0 * np.cumsum(j[1:] ** 2))
    i_tail = 1.0 - (i[0] + 2.0 * np.cumsum(i[1:]))
    ok = (j_tail < tolerance) & (i_tail < tolerance)
    ok[: floor - 1] = False
    if not ok.any():
        raise ValueError(f"no sideband cutoff has both tails below {tolerance} at x = {x}")
    return int(np.argmax(ok)) + 1


def _bessel(name: str, n, x, modified: bool):
    orders, x = np.asarray(n), np.asarray(x, dtype=float)
    if orders.ndim and orders.dtype.kind not in "iu":
        raise TypeError(f"{name} needs integer orders, got dtype {orders.dtype}")
    if orders.ndim and x.ndim:
        raise TypeError(f"{name} takes an array of orders or of arguments, not both")
    bad = ~(np.abs(x) < J_ARG_MAX)
    if bad.any():
        v = float(x.ravel()[np.argmax(bad)])
        raise ValueError(f"{name} argument out of supported range: |{v}| >= {J_ARG_MAX}")
    if x.ndim:
        n = int(n)
        values = _lockstep(abs(n), np.abs(x).ravel(), modified).reshape(x.shape)
        return _sign(n, x, modified) * values
    if not orders.ndim:
        orders = np.asarray(int(n))
    table = np.array(_table(int(np.abs(orders).max(initial=0)), abs(float(x)), modified))
    values = _sign(orders, x, modified) * table[np.abs(orders)]
    return values if orders.ndim else float(values)


def _sign(n, x, modified: bool):
    # (-1)^n where the parity rules flip the sign: negative x for both
    # families, and negative n for J only
    flip = np.less(x, 0.0) if modified else np.less(x, 0.0) != np.less(n, 0)
    return np.where(flip & (np.asarray(n) % 2 == 1), -1.0, 1.0)


def _miller_start(n: int, x: float) -> int:
    # start far enough above max(n, x) that the seed contamination decays
    # below 1e-17 by the time the recurrence reaches the target order; even,
    # so that the J norm collects J_0 on the last step
    m = int(max(n, math.ceil(x)) + 12.0 * max(1.0, x) ** (1.0 / 3.0) + 18)
    return m + m % 2


def _table(top: int, x: float, modified: bool) -> list:
    """[f_0, ..., f_top] at x >= 0, f_k = J_k(x), or e^{-x} I_k(x) if modified."""
    if x < _TINY_ARG:
        scale = math.exp(-x) if modified else 1.0
        term, out = 1.0, [scale]
        for k in range(1, top + 1):
            term *= 0.5 * x / k
            out.append(scale * term)
        return out
    s = 1.0 if modified else -1.0
    upper, cur, norm = 0.0, 1.0e-30, 0.0
    vals = [0.0] * (top + 1)
    for k in range(_miller_start(top, x), 0, -1):
        upper, cur = cur, (2.0 * k / x) * cur + s * upper
        if modified or k % 2:  # cur = f_{k-1}; J weights only the even orders
            norm += 2.0 * cur
        if k <= top + 1:
            vals[k - 1] = cur
        if abs(cur) > _RESCALE_LIMIT:
            cur /= _RESCALE_LIMIT
            upper /= _RESCALE_LIMIT
            norm /= _RESCALE_LIMIT
            vals = [v / _RESCALE_LIMIT for v in vals]
    norm -= cur  # f_0 was added with weight 2
    return [v / norm for v in vals]


def _lockstep(n: int, x: np.ndarray, modified: bool) -> np.ndarray:
    """_table(n, v, modified)[n] for every element v >= 0 of x, the passes in lockstep."""
    out = np.empty(x.size)
    tiny = x < _TINY_ARG
    out[tiny] = [_table(n, v, modified)[n] for v in x[tiny].tolist()]
    x = x[~tiny]
    if not x.size:
        return out
    starts = np.fromiter((_miller_start(n, v) for v in x.tolist()), dtype=np.int64, count=x.size)
    # sorted by descending start, the elements already recurring form a prefix
    order = np.argsort(-starts, kind="stable")
    xs, seeds = x[order], starts[order]
    size = xs.size
    s = 1.0 if modified else -1.0
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
        prev = (2.0 * k / xs[:a]) * cur[:a] + s * upper[:a]
        upper[:a] = cur[:a]
        cur[:a] = prev
        c = cur[:a]
        if modified or k % 2:
            norm[:a] += 2.0 * c
        if k - 1 == n:
            target[:a] = c
        if np.abs(c).max() > _RESCALE_LIMIT:
            big = np.abs(c) > _RESCALE_LIMIT
            for arr in (cur, upper, norm, target):
                arr[:a][big] /= _RESCALE_LIMIT
    out[np.flatnonzero(~tiny)[order]] = target / (norm - cur)
    return out
