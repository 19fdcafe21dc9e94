"""Numerical evaluation of the twisted integrals and decay-rate verification.

The integral

    L(a, lambda) = int_{b_1 >= ... >= b_p >= 1}
                   prod_i [ prod_k (a_k^2 + b_i^2)^{-1/2} ] b_i^{lambda_i} db

is computed after the simplex-to-orthant substitution r_i = b_i / b_{i+1}
followed by t_i = log r_i, which turns the domain into [0, inf)^p.  The
integrand is then bounded by exp(sum_j m_j t_j) with margins

    m_j = sum_{i<=j} (lambda_i - n + 1) < 0,

which yields the convergence criterion.  For every p the integral is then
taken in s_i = log b_i, as an iterated one-dimensional integral evaluated in
log space on Gauss-Legendre panels graded toward the knots s = log a_k, up to
S = max log a_k + W; past S it is a sum in closed form.  Exponents lambda are
exact rationals; evaluation is floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from collections.abc import Sequence

from .lpn import lpn
from .vectors import DomainError, ExponentVector, _normal_exp, _record, _size

MAX_PANELS = 100_000  # bounds the memory of the panel recursion
_DIVERGES = "integral diverges: lambda - (n-1)*1 is not < 0"


class RaySpec(_record("RaySpec", "direction t_values")):
    """A probe path a(t) = (e^{t s_1}, ..., e^{t s_n}) inside the positive chamber."""

    __slots__ = ()

    def __new__(cls, direction: Sequence[float], t_values: Sequence[float]):
        d = tuple(float(x) for x in direction)
        t = tuple(float(x) for x in t_values)
        if not all(map(math.isfinite, d + t)):
            raise DomainError("direction and t_values must be finite")
        if not d or any(x < 0 for x in d) or all(x == 0 for x in d):
            raise DomainError("direction must be nonnegative and nonzero")
        if any(d[i] < d[i + 1] for i in range(len(d) - 1)):
            raise DomainError("direction must be non-increasing")
        if any(x < 0 for x in t) or any(u >= v for u, v in zip(t, t[1:])):
            raise DomainError("t_values must be nonnegative and increasing")
        return tuple.__new__(cls, (d, t))

    def point(self, t: float) -> tuple[float, ...]:
        if not 0.0 <= t < math.inf:
            raise DomainError("t must be finite and nonnegative")
        return tuple(_normal_exp(t * s, "a(t)") for s in self.direction)


class IntegralEstimate(_record("IntegralEstimate", "value abs_error node_count")):
    """The value of L(a, lambda) and its error figure.

    value: always a positive normal double; where L lies below that range
    `evaluate` raises OverflowError instead (`fit_decay` and `check_gr2`
    work on log L and need no such value).
    abs_error: the gap between two Gauss-Legendre orders on s_1 <= S, a
    rounding term for each summand of the closed-form tail past S, and
    the bound eps L / 2, eps the double's epsilon, on what taking h = 1
    past S moves (see `evaluate`).
    node_count: the number of evaluations of the factors g_i.
    """

    __slots__ = ()


class RayCheck(_record("RayCheck", "direction max_ratio trend_slope bounded ratios",
                       defaults=((),))):
    """One ray of check_gr2: direction, max_ratio, trend_slope, bounded, ratios."""

    __slots__ = ()


class Gr2Report(_record("Gr2Report", "lam mu_bound delta rays")):
    """mu_bound is L(p,n)(lambda), a nonpositive vector."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.bounded for r in self.rays)


def converges(lam: ExponentVector, p: int | None, n: int) -> bool:
    """Exact convergence test: all prefix sums of lambda - (n-1)*1 are negative."""
    n = _size(n)
    if p is not None and _size(p) != len(lam):
        raise DomainError(f"lambda has length {len(lam)}, expected p={p}")
    if n < 1:
        raise DomainError("n must be >= 1")
    return all(m < 0 for m in _rates(lam, n)[2])


def _rates(lam: ExponentVector, n: int):
    """D, and on ints D (lambda - (n-1)*1) and its prefix sums."""
    D, scaled = lam.scaled()
    rates = [x + (1 - n) * D for x in scaled]
    return D, rates, list(itertools.accumulate(rates))


def evaluate(a: Sequence[float], lam: ExponentVector) -> IntegralEstimate:
    """Numerically evaluate L(a, lambda) with an error figure.

    One method serves every p: `_iterated` integrates on s_1 <= S, S =
    max log a_k + W, W = log(p n / eps) / 2, eps the double's epsilon, and
    the rest of L is a sum in closed form.  Past S each factor is
    g_i(s) = e^{r_i s} h(s), r_i = lambda_i + 1 - n, where
    h = prod_k (1 + a_k^2 e^{-2s})^{-1/2} lies between 1 - n e^{-2W} / 2
    and 1.  With h taken as 1 there, the part of L where
    s_1, ..., s_{j-1} > S >= s_j is F_j(S) e^{m_{j-1} S} / prod_{l<j} |m_l|
    (t_l = s_l - s_{l+1} leaves only the margins, all < 0), with m_0 = 0
    and F_{p+1} = 1: L is the sum of these p + 1 positive terms.  The term
    j has j - 1 <= p factors past S, so dropping h moves L by a relative
    p n e^{-2W} / 2 = eps / 2 at most, one-sided; abs_error adds that
    bound, taken at the distance from max log a_k to S as rounded.  Raises
    OverflowError where L lies below the normal double range; DomainError
    where the grid would exceed MAX_PANELS, where doubles at max log a_k
    lie wider apart than a panel, where a margin floats to 0, where
    p S / h0 passes the double range (an entry of lambda - (n-1)*1 above
    about 1e307 in size), and where an entry or prefix sum of
    lambda - (n-1)*1 lies beyond the double range.
    """
    a = tuple(float(x) for x in a)
    if not a or any(x < 1.0 for x in a):
        raise DomainError("a entries must be >= 1")
    if not all(map(math.isfinite, a)):
        raise DomainError("a entries must be finite")
    [log_value], [rel_error], [nodes] = _log_estimate([[*map(math.log, a)]], lam)
    value = _normal_exp(log_value, f"L(a, lambda) = e^{log_value:.6g}")
    return IntegralEstimate(value, value * rel_error, nodes)


def _log_estimate(log_a, lam: ExponentVector):
    """`evaluate` without the exp, at each row of log a (the points of a ray,
    in one pass), so L and a may lie outside the double range: lists of
    log L, its relative error and the node count.  Plain loops run the
    lambda side, the tail's margins and the width caps once per call; S,
    the refusals, the `_knots` table, the edges (one list, one
    sorted(set(...))) and, after the recursion, the tail sum once per row."""
    p, n = len(lam), len(log_a[0])
    D, ints, sums = _rates(lam, n)
    if not all(m < 0 for m in sums):
        raise DomainError(_DIVERGES)
    rates, margins, top = [], [0.0], 1.0  # top: the steepest slope, see `_knots`
    try:
        for r, m in zip(ints, sums):  # = float(Fraction(r, D)); margins[j] is m_j
            r = r / D
            rates.append(r)
            margins.append(m / D)
            top = max(top, abs(r), abs(r + n))
    except OverflowError:
        raise DomainError("lambda - (n-1)*1 lies beyond the double range") from None
    h0, eps = 1.0 / top, sys.float_info.epsilon
    if 0.0 in margins[1:]:  # a margin floats to 0: the float form of the integrand diverges
        raise DomainError(f"the least margin 0 of lambda - (n-1)*1 is too small for panels "
                          f"{h0:.3g} wide")
    # norms[j] = log prod_{l<=j} |m_l| from the exact margins, each scaled by 2^e
    # into the normal range first (a subnormal margin keeps its digits)
    norms, sizes = [0.0], [0.0]
    for m in sums:
        e = max(0, D.bit_length() - (-m).bit_length() - 1021)
        x = math.log((-m << e) / D)
        norms.append(norms[-1] + (x - e * math.log(2.0)))
        sizes.append(sizes[-1] + (1.0 + abs(x) + e))
    caps = []  # caps[c]: 2 / G above a knot with c of the log a_k at or past it
    for c in range(n + 1):
        G = 0.0  # summed left to right, as by _lsum
        for r in rates[1:]:
            if r + c > 0:
                G += r + c
        caps.append(2.0 / G if G else math.inf)
    Ss, W = [], math.log(p * n / eps) / 2
    for row in log_a:
        S = max(row) + W
        # grading toward max log a_k needs doubles h0 apart there; p S / h0
        # bounds every r_i s on the grid, S / h0 and each S / cap (G <=
        # (p - 1) / h0), which must lie in the double range
        if not math.ulp(max(row)) <= h0:
            raise DomainError(f"log a is too large: panels {h0:.3g} wide are not resolved")
        if not p * S / h0 < math.inf:
            raise DomainError(f"lambda - (n-1)*1 is too steep: panels {h0:.3g} wide "
                              f"up to S = {S:.3g} pass the double range")
        Ss.append(S)
    tables = [_knots(row, S, caps, h0) for row, S in zip(log_a, Ss)]  # after every refusal
    panels = len(tables) * max([len(t) + sum([e[3] + e[4] for e in t]) for t in tables])
    if panels > MAX_PANELS:  # rows padded to the widest: refused before any edge
        raise DomainError(f"the integral needs about {panels:.3g} panels")
    edges, counts = [], []
    for table, S in zip(tables, Ss):  # {S} U {knot + sign w : w a side's offsets}
        row = [S]
        for knot, sign, cap, j, k in table:
            row.append(knot)
            w = sign * h0
            for _ in range(j):  # w = sign h0 2^i: doubling is exact
                row.append(knot + w)
                w += w
            if k:
                w = sign * cap
                row += [knot + w * i for i in range(1, k + 1)]
        edges.append(sorted(set(row)))
        counts.append(len(edges[-1]) - 1)  # panels per row
    widest = max(counts)
    for row, count in zip(edges, counts):  # padded to the widest with copies of the last edge
        if count < widest:
            row += row[-1:] * (widest - count)
    logs, errors = [], []
    for row, S, totals in zip(log_a, Ss, _iterated(log_a, rates, edges, counts)):
        # the terms F_j(S) e^{m_{j-1} S} / prod_{l<j} |m_l| of `evaluate` for
        # j = p + 1, p, ..., 1 in logs, log F_j(S) the running sum of the
        # level totals, with the gap between the rules' log F_j(S) and the
        # sizes of the parts, each good to about eps; each term's share w of
        # L carries both to L: L_10 / L_20 - 1 = sum w expm1(gap)
        terms, f10, f20, f_size = [], 0.0, 0.0, 0.0
        for j, (v10, v20) in zip(range(p, -1, -1), [(0.0, 0.0), *totals]):  # log F_{p+1} = 0
            f10, f20, f_size = f10 + v10, f20 + v20, f_size + (1.0 + abs(v20))
            terms.append((f20 + margins[j] * S - norms[j], f10 - f20,
                          f_size + (abs(margins[j] * S) + sizes[j])))
        terms.sort()  # the largest last, taken out of the log1p, which keeps the rest's digits
        top, rule, rounding = terms[-1][0], 0.0, 0.0
        log_L = top + math.log1p(_lsum(math.exp(t - top) for t, _, _ in terms[:-1]))
        for t, gap, size in terms:
            w = math.exp(t - log_L)
            rule, rounding = rule + w * math.expm1(min(gap, 709.0)), rounding + w * size
        logs.append(log_L)
        errors.append(abs(rule) + 8.0 * eps * rounding + p * n * math.exp(2.0 * (max(row) - S)) / 2)
    return logs, errors, [p * 30 * count for count in counts]


def _knots(row, end, caps, h0):
    """One row's grid as a table: an entry (knot, sign, cap, j, k) for each
    graded side of a gap between the knots {0} U {log a_k}, all below end;
    the last gap runs up to end, which grades nothing.  From its knot,
    toward sign, a side's panels are h0, h0, 2 h0, ... wide up to the gap's
    middle (the last gap: up to end) and at most the cap: j doublings, then
    k cap widths.  So no panel is wider than its gap's cap but the one
    across the middle, where two sides meet: 2 cap.

    Each g_i of `_iterated` is analytic in |Im s| < pi/2, its singularities
    lie above the knots s = log a_k, and between knots log g_i is nearly
    linear.  So a panel as wide as its distance to the nearest knot, but at
    least h0 = 1 / max(1, steepest slope of log g_i), keeps the error
    falling geometrically in q (Trefethen, SIAM Review 2008; Babuska-Guo,
    Comput. Mech. 1986) with O(log end) panels per knot.  Above a knot lo
    the inner F grow at most like e^{G s}, G = sum_{i >= 2} (lambda_i + 1 -
    #{k : log a_k < lo})_+, and caps[c], c the log a_k at or past lo, is
    2 / G: so the inner F inside a panel, which the next level reads, stay
    good to the q = 10 collocation order.  In the last gap, W wide, G still
    counts the log a_k at its knot as not passed.  A knot less than
    sys.float_info.min above the last kept knot merges into it (no gap
    halves to 0, 5e-324 next to 0): log g_i moves by at most 1 across h0,
    so the dropped sliver panel would hold less than about e gap / h0 of L.
    """
    row, knots, below, table = sorted(row), [0.0], [0], []  # below: the log a_k < a knot
    for i, k in enumerate(row):  # one pass over the sorted row (log a_k >= 0)
        if k - knots[-1] >= sys.float_info.min:
            knots.append(k)
            below.append(i)
    for lo, hi, c in zip(knots, knots[1:] + [end], below):
        last, cap = hi == end, caps[len(row) - c]
        j, k = _side((hi - lo) / (1 if last else 2), cap, h0)
        table.append((lo, 1.0, cap, j, k))
        if not last:
            table.append((hi, -1.0, cap, j, k))
    return table


def _side(reach, cap, h0):
    """j and k of a side of `_knots` that reaches `reach` from its knot."""
    return max(0, math.ceil(math.log2(min(reach, cap) / h0))), max(0, math.ceil(reach / cap) - 1)


def _lsum(terms):
    """Float sum left to right on every Python (3.12's `sum` compensates)."""
    return functools.reduce(operator.add, terms, 0.0)


def _slope(x, y):
    """The least-squares slope of y on x, in closed form about the means."""
    xm, ym = _lsum(x) / len(x), _lsum(y) / len(y)
    # the deviations scaled by 2^-e, exactly, so that their squares stay finite
    e = max(0, math.frexp(max(abs(u - xm) for u in x))[1] - 500)
    dx = [math.ldexp(u - xm, -e) for u in x]
    return math.ldexp(_lsum(d * (v - ym) for d, v in zip(dx, y)) / _lsum(d ** 2 for d in dx), -e)


@functools.cache
def _panel_rule():
    """The q = 10 and q = 20 Gauss-Legendre rules on [-1, 1] side by side:
    30 nodes as 1 + x, a weight matrix W with one column per rule, [C^T W] with
    the block-diagonal C[j, k] = int_{-1}^{x_j} l_k of each rule's Lagrange
    basis l_k, and the rule (column of W) of each node.

    Built from the definitions in +, -, *, / on numpy arrays in a fixed
    order, with no BLAS, LAPACK or transcendental function, so the bytes are
    the same on every CPU: P_0, ..., P_q by the three-term recurrence; each
    root of P_q bracketed by a sign change on the grid k / (2 q^2) and
    refined from the bracket's midpoint by five Newton steps, a fixed count
    since Newton may end in a 2-cycle between neighbouring doubles; the
    weights 2 / ((1 - x^2) P_q'(x)^2), scaled to sum 2 by `math.fsum`; C
    summed over n from l_k = w_k sum_{n<q} (n + 1/2) P_n(x_k) P_n and
    int_{-1}^x P_n = (P_{n+1} - P_{n-1}) / (2n + 1).  The grid and the
    recurrence are odd or even in x, so the rule is symmetric exactly.
    Against a 50-digit rule the nodes lie within 1.8e-16, the weights
    within 8.1e-15 relative and C within 2.3e-16; numpy's `leggauss` rule
    reads 1.4e-16, 7.0e-14 and 1.3e-15.
    """
    import numpy as np

    def legendre(x, q):  # [P_0(x), ..., P_q(x)]
        P = [np.ones_like(x), x]
        for n in range(1, q):
            P.append(((2 * n + 1) * x * P[n] - n * P[n - 1]) / (n + 1))
        return P

    x, W, C = np.zeros(30), np.zeros((30, 2)), np.zeros((30, 30))
    for rule, (q, block) in enumerate([(10, slice(0, 10)), (20, slice(10, 30))]):
        grid = np.arange(-2 * q * q, 2 * q * q + 1) / (2 * q * q)
        p0, p1 = np.ones_like(grid), grid  # only P_q's sign is read on the grid
        for n in range(1, q):
            p0, p1 = p1, ((2 * n + 1) * grid * p1 - n * p0) / (n + 1)
        sign = np.signbit(p1)
        k = np.flatnonzero(sign[1:] != sign[:-1])
        r = (grid[k] + grid[k + 1]) / 2
        for step in range(6):  # five Newton steps, then P and P_q' at the nodes
            P = legendre(r, q)
            dP = q * (r * P[q] - P[q - 1]) / (r * r - 1)
            if step < 5:
                r = r - P[q] / dP
        w = 2 / ((1 - r * r) * dP * dP)
        w *= 2 / math.fsum(w)
        x[block], W[block, rule] = r, w
        integral = [r + 1] + [(P[n + 1] - P[n - 1]) / (2 * n + 1) for n in range(1, q)]
        for n in range(q):
            C[block, block] += integral[n][:, None] * ((n + 0.5) * P[n] * w)
    return 1.0 + x, W, np.hstack((C.T, W)), np.array([0] * 10 + [1] * 20)


def _iterated(log_a, rates, edges, counts):
    """The level totals at each row of log_a: an iterated 1-d integral on
    the row's edges from 0 to S, counts[row] panels, then padding.

    In s_i = t_i + ... + t_p = log b_i the integrand is prod_i g_i(s_i),
    g_i(s) = e^{(lambda_i + 1) s} prod_k (a_k^2 + e^{2s})^{-1/2}, on
    S >= s_1 >= ... >= s_p >= 0: F_p(s) = int_0^s g_p,
    F_i(s) = int_0^s g_i F_{i+1}; rates[i] = lambda_i + 1 - n is the slope
    of log g_i beyond the last knot max log a_k.  With F_i at the nodes of
    Gauss-Legendre panels from `_panel_rule`'s matrix, this is Gauss
    collocation for F_i' = g_i F_{i+1}, of order 2q at panel ends; the
    outermost level needs only the panel totals.  Per row, a pair
    [log_10, log_20] per level, innermost first: log(F_i(S) / F_{i+1}(S))
    (log F_p(S) first) by the q = 10 and q = 20 rules, which run on the same
    nodes in one pass; their running sums are the log F_i(S) of the tail
    sum in `_log_estimate`.  The rows share one recursion on a leading axis,
    each grid padded to the widest with copies of its last edge: zero-width
    panels, which add exactly -inf.  No level underflows, yet only panel
    quantities are logs: the totals and F_i(right end) / F_i(S); F_i at the
    nodes is a fraction of F_i(right end).  The node log hypot(e^d, 1) is
    (max(2d, 0) + log1p(e^-|2d|)) / 2, e^-|2d| clamped at e^-700, below
    every ulp of the sum, to keep np.exp off its slow subnormal path.  log L
    so rests on numpy's exp, log and log1p, which may move it by an ulp with
    numpy's SIMD dispatch; S and the grid stay in `math`, where numpy's
    rounding cannot move them.
    """
    import numpy as np
    edges = np.array(edges, dtype=float)
    half = (edges[:, 1:, None] - edges[:, :-1, None]) / 2.0
    x1, W, CW, rule = _panel_rule()
    s = edges[:, :-1, None] + half * x1
    # sum_k log(a_k^2 + e^{2s}) / 2 - n s, as log(1 + e^u) / 2 at u = 2 (log a_k - s)
    u = np.array(log_a).T[:, :, None, None] * 2 - (s + s)
    e = np.log1p(np.exp(-np.minimum(abs(u), 700.0)))
    log_hyp = (np.maximum(u, 0.0, out=u) + e).sum(0) / 2
    sums = np.zeros(s.shape[:2] + CW.shape[1:])  # padding left 0
    cum = np.full((len(s), max(counts) + 1, 2), -np.inf)  # log F_i at panel ends, F_i(0) = 0
    log_tot, levels = cum[:, 1:], []  # levels: log(F_i(S) / F_{i+1}(S)) per level and row
    with np.errstate(divide="ignore"):  # log 0: zero-width panels
        log_half = scale = np.log(half)
        for i, r in reversed(list(enumerate(rates))):
            lh = r * s - log_hyp
            top = np.maximum.reduce(lh, axis=2, keepdims=True)
            h = np.exp(np.subtract(lh, top, out=lh), out=lh)
            if levels:  # not the innermost level: times F_{i+1} / F_{i+1}(right end)
                h *= F
            # h @ [C^T W] (the outermost level: W) by one BLAS call per row on
            # its own panels, padding left 0: BLAS rounds a row differently
            # with the matrix height
            M, out = (CW, sums) if i else (W, np.zeros(s.shape[:2] + W.shape[1:]))
            for row, count in enumerate(counts):
                np.dot(h[row, :count], M, out=out[row, :count])
            scale = scale + top  # log of the unit of out, per panel and rule
            np.add(np.log(out[..., -2:], out=log_tot), scale, out=log_tot)
            if i == 0:
                levels.append(np.logaddexp.reduce(log_tot, axis=1).tolist())
                break
            np.logaddexp.accumulate(cum, axis=1, out=cum)  # log F_i at panel ends
            # F_i at the nodes, in place: out's unit and F_i(left end) over
            # F_i(right end), each taken to its rule's nodes
            F = np.maximum(sums[..., :30], 0.0, out=h)
            F *= np.exp(scale - log_tot).take(rule, 2)
            F += np.exp(cum[:, :-1] - log_tot).take(rule, 2)
            scale = log_half + (log_tot - cum[:, -1:])  # + log(F_i(right end) / F_i(S))
            levels.append(cum[:, -1].tolist())
    return list(zip(*levels))


def _ray_logs(ray: RaySpec, lam: ExponentVector):
    """The t-values of a ray and log L(a(t), lambda) at each: one
    `_log_estimate` pass over log a(t) = t s, so e^{t s} may overflow."""
    if len(ray.t_values) < 3:
        raise DomainError("need at least 3 t_values")
    if len(ray.t_values) > MAX_PANELS:  # a panel per point at least: refused first
        raise DomainError(f"{len(ray.t_values)} points need more than {MAX_PANELS} panels")
    log_a = [[t * s for s in ray.direction] for t in ray.t_values]
    if not all(math.isfinite(k) for row in log_a for k in row):
        raise DomainError("t * s overflows")
    return ray.t_values, _log_estimate(log_a, lam)[0]


def fit_decay(ray: RaySpec, lam: ExponentVector) -> float:
    """Empirical decay rate of log L(a(t), lambda) along a ray.

    The sequence of local slopes is accelerated with one Aitken
    delta-squared step, which removes the leading geometric finite-window
    correction; with fewer than four samples, or if the acceleration is
    ill-conditioned, the raw tail slope is returned.  Only the last four
    points, which that step reads, are evaluated and count against
    MAX_PANELS.  It works on log L, so L may lie below the double range; a
    divergent lambda raises DomainError.
    """
    ts, logs = _ray_logs(RaySpec(ray.direction, ray.t_values[-4:]), lam)
    slopes = [(y1 - y0) / (t1 - t0) for t0, t1, y0, y1 in zip(ts, ts[1:], logs, logs[1:])]
    if len(slopes) < 3:
        return slopes[-1]
    s0, s1, s2 = slopes[-3:]
    denom = (s2 - s1) - (s1 - s0)
    if denom == 0.0:
        return s2
    return s2 - (s2 - s1) ** 2 / denom


def check_gr2(
    lam: ExponentVector,
    p: int | None,
    n: int,
    rays: Sequence[RaySpec],
    delta: float = 0.05,
) -> Gr2Report:
    """Bounded-ratio surrogate for the weak bound L(a(t), lambda) <~ a(t)^mu.

    mu = L(p,n)(lambda).  Along each ray the ratio of the integral to
    exp((1-delta) (mu . s) t) must stay bounded with a non-increasing trend.
    The trend is fitted to log L - (1-delta) (mu . s) t, and the ratios are
    its exp; the report carries the per-ray maxima and fitted trend slopes.
    """
    if not (0.0 < delta < 1.0):
        raise DomainError("delta must be in (0, 1)")
    if not rays:
        raise DomainError("need at least one ray")
    if not converges(lam, p, n):  # lpn would refuse it too, as not lambda < 0
        raise DomainError(_DIVERGES)
    mu_bound = lpn(lam, p, n).output
    rate_coeffs = mu_bound.floats()
    checks: list[RayCheck] = []
    for ray in rays:
        if len(ray.direction) != n:
            raise DomainError("ray dimension must equal n")
        rate = _lsum(m * s for m, s in zip(rate_coeffs, ray.direction))
        ts, logs = _ray_logs(ray, lam)
        c = (1.0 - delta) * rate
        log_ratios = [v - c * t for v, t in zip(logs, ts)]
        # trend of the tail half, at least three points: the surrogate asks
        # for eventual non-increase, and the pre-asymptotic rise is harmless
        k = max(3, len(ts) // 2)
        trend = _slope(ts[-k:], log_ratios[-k:])
        ratios = tuple(_normal_exp(x, "a ratio") for x in log_ratios)
        checks.append(RayCheck(ray.direction, max(ratios), trend, trend <= 1e-3, ratios))
    return Gr2Report(lam=lam, mu_bound=mu_bound, delta=delta, rays=checks)
