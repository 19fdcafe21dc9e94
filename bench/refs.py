"""Independent references the benchmark checks quantind's outputs against.

Nothing here calls into quantind: the exact helpers re-derive the prefix-sum
orders, the Weyl vectors and the L(p,n) output from the block totals, and the
numerical helpers integrate the twisted integral in b-space (with b = e^u so
that large torus entries cannot overflow), which is a different route from
the t-space integrand `quantind.twisted.evaluate` uses.  The module imports
only the standard library at load time.
"""

from __future__ import annotations

import math
from fractions import Fraction


def prefix_sums(xs):
    out, acc = [], Fraction(0)
    for x in xs:
        acc += x
        out.append(acc)
    return out


def strictly_neg(xs) -> bool:
    return all(s < 0 for s in prefix_sums(xs))


def weakly_neg(xs) -> bool:
    return all(s <= 0 for s in prefix_sums(xs))


def rho_O(p: int, q: int) -> list[Fraction]:
    return [Fraction(p + q - 2 * i, 2) for i in range(1, p + 1)]


def rho_Sp(n: int) -> list[Fraction]:
    return [Fraction(n - i) for i in range(n)]


def lpn_output(lam, n: int) -> list[Fraction]:
    """L(p,n)(lam) from the greedy block totals, without building eta.

    Breakpoints are the greatest minimizers of the running caps; each block
    takes its whole width n*w when that stays strictly under the remaining
    budget (the saturated case) and the remaining budget otherwise; row k of
    the output takes min(w, what is left) from every block in turn.
    """
    p = len(lam)
    caps = [-s for s in prefix_sums(lam)]
    widths, totals = [], []
    assigned, lo = Fraction(0), 0
    while lo < p:
        best = min(caps[lo:])
        j = max(i for i in range(lo, p) if caps[i] == best) + 1
        w, remaining = j - lo, caps[j - 1] - assigned
        total = Fraction(n * w) if n * w < remaining else remaining
        widths.append(w)
        totals.append(total)
        assigned += total
        lo = j
    mu = []
    for _ in range(n):
        row = Fraction(0)
        for s, w in enumerate(widths):
            take = min(Fraction(w), totals[s])
            totals[s] -= take
            row += take
        mu.append(row)
    return [-m for m in mu]


def bound_o2sp(lam, p: int, q: int, n: int) -> list[Fraction] | None:
    """O(p,q) -> Sp(2n) bound, or None outside the transfer's domain."""
    shifted = [x + 2 * r - n for x, r in zip(lam, rho_O(p, q))]
    if not strictly_neg(shifted):
        return None
    return [x - Fraction(q - p, 2) for x in lpn_output(shifted, n)]


def bound_sp2o(lam, n: int, p: int, q: int) -> list[Fraction] | None:
    """Sp(2n) -> O(p,q) bound, or None outside the transfer's domain."""
    half = Fraction(p + q, 2)
    shifted = [x + 2 * r - half for x, r in zip(lam, rho_Sp(n))]
    return lpn_output(shifted, p) if strictly_neg(shifted) else None


def fmt_vec(xs) -> str:
    return "(" + ",".join(str(Fraction(x)) for x in xs) + ")"


# ---------------------------------------------------------------------------
# twisted-integral references in b-space, b = e^u

_QUAD = {"epsabs": 0.0, "epsrel": 1e-11, "limit": 400}


def _logaddexp(x: float, y: float) -> float:
    hi = max(x, y)
    return hi + math.log1p(math.exp(-abs(x - y)))


def _log_kernel(u: float, log_a: list[float], lam: float) -> float:
    # log of prod_k (a_k^2 + b^2)^{-1/2} * b^lam * b (the db = b du factor)
    return (lam + 1.0) * u - 0.5 * sum(
        _logaddexp(2.0 * la, 2.0 * u) for la in log_a
    )


def _integrate_from(f, lo: float, kinks: list[float]) -> float:
    """int_lo^inf f, split at the kinks of the kernel so quad sees them."""
    # imported here so that importing this module loads no scipy: the
    # set-up probes must not pay for the benchmark's own references
    from scipy.integrate import quad

    hi = max([lo] + kinks) + 12.0
    pts = sorted(k for k in kinks if lo < k < hi)
    head, _ = quad(f, lo, hi, points=pts or None, **_QUAD)
    tail, _ = quad(f, hi, math.inf, **_QUAD)
    return head + tail


def twisted_p1(a, lam: float) -> float:
    """L(a, (lam,)), via the scaling identity when n = 1.

    n = 1: L(a, lam) = a^lam * int_{b >= 1/a} (1+b^2)^{-1/2} b^lam db.
    n > 1: the same one-dimensional integral with the full kernel.
    """
    log_a = [math.log(x) for x in a]
    if len(a) == 1:
        la = log_a[0]
        inner = _integrate_from(
            lambda v: math.exp(_log_kernel(v, [0.0], lam)), -la, [0.0]
        )
        return math.exp(lam * la + math.log(inner))
    return _integrate_from(
        lambda u: math.exp(_log_kernel(u, log_a, lam)), 0.0, log_a
    )


def twisted_p2(a, lam: tuple[float, float]) -> float:
    """L(a, lam) for p = 2 by nested quadrature over 1 <= b_2 <= b_1."""
    log_a = [math.log(x) for x in a]
    l1, l2 = lam

    def outer(u2: float) -> float:
        # the inner integral over b_1 >= b_2, scaled by its integrand at
        # b_1 = b_2 so that neither factor overflows on its own
        k1 = _log_kernel(u2, log_a, l1)
        inner = _integrate_from(
            lambda v: math.exp(_log_kernel(u2 + v, log_a, l1) - k1),
            0.0, [la - u2 for la in log_a],
        )
        return math.exp(_log_kernel(u2, log_a, l2) + k1) * inner

    return _integrate_from(outer, 0.0, log_a)


P2_RELIABLE_LOG_A = 12.0  # b-space nested quad is trusted for a_k <= e^12
