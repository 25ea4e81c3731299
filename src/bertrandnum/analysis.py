"""Numeric verification of the asymptotic claims about Bertrand systems.

Every pass/fail quantity here is exact: ratios of values are rationals,
and limits involving the base are enclosed in intervals with rational
endpoints refined from the base's isolating interval.  Floating point
appears only in human-readable summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import DEFAULT_DEPTH
from .automata import Dfa
from .errors import NumerationError
from .intervals import Interval
from .numsys import NumSys
from .realbase import RealBase, generating_word, quasi_greedy_of
from .words import _integer

_MAX_REFINEMENTS = 512
_TARGET_WIDTH = Fraction(1, 10**8)  # renewal_target
_EMPIRICAL_WIDTH = Fraction(1, 10**6)  # the last entry of renewal_empirical


def dominant_root_ratios(s: NumSys, i_max: int) -> list:
    """Exact consecutive ratios U(i+1)/U(i) for i < i_max.

    For a Bertrand system these converge to the base; the last entry is
    the estimate.
    """
    return [Fraction(s.u(i + 1), s.u(i)) for i in range(_integer(i_max, "i_max", 2))]


def _enclosure_above_one(base: RealBase, width: Fraction) -> Interval:
    enc = base.enclosure(width)
    shrink = width
    for _ in range(_MAX_REFINEMENTS):
        if enc.lo > 1:
            return enc
        shrink /= 2
        enc = base.enclosure(shrink)
    raise NumerationError("could not separate the base from 1")


def _refine(base: RealBase, width: Fraction, enclose) -> tuple:
    """Refine the base enclosure, from 2^-8 and fourfold per round, until
    `enclose(beta)` is narrower than `width`; returns (beta, enclosure)."""
    shrink = Fraction(1, 2**8)
    for _ in range(_MAX_REFINEMENTS):
        beta = _enclosure_above_one(base, shrink)
        result = enclose(beta)
        if result.width < width:
            return beta, result
        shrink /= 4
    raise NumerationError("enclosure did not reach the requested width")


def renewal_target(base: RealBase, variant: str) -> Interval:
    """Rigorous enclosure of beta / ((beta - 1) * sum_{i>=1} i a_i beta^-i),
    the limit of U(i)/beta^i for the system generated by the word a.

    The series has a closed form because a is eventually periodic: with
    x = 1/beta, y = x^n, preperiod p_1..p_m and period q_1..q_n,

        sum i a_i x^i = sum_{i<=m} i p_i x^i
                      + sum_{j<=n} q_j x^(m+j) ((m+j)(1-y) + n y) / (1-y)^2.

    The enclosure is narrower than 10^-8.
    """
    word = generating_word(base, variant)
    pre, per = word.pre, word.per
    m, n = len(pre), len(per)

    def target(beta):
        x = beta.recip()
        y = x**n
        one_minus_y = Interval.point(1) - y
        total = Interval.point(0)
        for i in range(1, m + 1):
            total = total + (i * pre[i - 1]) * x**i
        for j in range(1, n + 1):
            if per[j - 1]:
                num = (m + j) * one_minus_y + Interval.point(n) * y
                total = total + per[j - 1] * x ** (m + j) * num / (one_minus_y**2)
        return beta / ((beta - Interval.point(1)) * total)

    return _refine(base, _TARGET_WIDTH, target)[1]


def renewal_empirical(s: NumSys, base: RealBase, i_max: int) -> list:
    """Interval enclosures of U(i)/beta^i for 0 <= i <= i_max.

    The base enclosure is refined until the final entry is narrower than
    10^-6; the same enclosure then produces the whole sequence.
    """
    last = Interval.point(s.u(_integer(i_max, "i_max", 1)))
    beta, _ = _refine(base, _EMPIRICAL_WIDTH, lambda beta: last / beta**i_max)
    return [Interval.point(s.u(i)) / beta**i for i in range(i_max + 1)]


def _ln(n: int) -> float:
    if n <= 0:
        raise NumerationError("log of a nonpositive count")
    if n.bit_length() <= 512:
        return math.log(n)
    k = n.bit_length() - 512
    return math.log(n >> k) + k * math.log(2)


@dataclass
class EntropyReport:
    i_max: int
    count_last: int
    count_prev: int
    growth_estimate: float  # log(count(i_max)) / i_max
    ratio_estimate: float  # log(count(i_max) / count(i_max - 1))

    @property
    def ratio(self) -> Fraction:
        """Exact count ratio; for counts growing like beta^i it converges to
        beta much faster than the per-symbol estimate, and since log is
        1-Lipschitz above 1 a rational comparison of this ratio against an
        enclosure of beta certifies the entropy estimate exactly."""
        return Fraction(self.count_last, self.count_prev)


def entropy_estimates(obj, i_max: int) -> EntropyReport:
    """Entropy of the factor language behind `obj` (a Dfa or NumSys).

    Returns both the defining estimator log(count(i))/i and the ratio
    estimator log(count(i)/count(i-1)); both tend to the same limit (the
    log of the growth rate) and the ratio form converges much faster.
    Counts come from one pass of exact vector steps for automata, which
    gives count(i_max - 1) on its way to count(i_max), and from the value
    sequence for numeration systems (the number of length-i words in the
    language equals U(i)).
    """
    _integer(i_max, "i_max", 2)
    if isinstance(obj, Dfa):
        c_last = obj.count_accepted(i_max)
        short, c_prev = obj._short  # count(i_max - 1), kept by that pass
        assert short == i_max - 1
    elif isinstance(obj, NumSys):
        c_last, c_prev = obj.u(i_max), obj.u(i_max - 1)
    else:
        raise NumerationError(f"cannot count words of {obj!r}")
    return EntropyReport(
        i_max,
        c_last,
        c_prev,
        growth_estimate=_ln(c_last) / i_max,
        ratio_estimate=_ln(c_last) - _ln(c_prev),
    )


# -- convergence of the greatest words ------------------------------------------


@dataclass
class LexMaxConvergenceReport:
    """Behaviour of the greatest length-i words against the base's expansions.

    For a simple Parry base (finite expansion t1..tn), rows map each i to
    the smallest k such that the length-`ell` prefix of the greatest
    length-i word matches the prefix of
    (t1..t_{n-1}(t_n-1))^k t1..tn 0^w, or None if no k fits.  Otherwise
    rows map i to the length of the longest common prefix with the
    (infinite) expansion of 1.  `stabilized` only speaks about the probed
    window ell <= i <= i_max; `limit` is "quasi-greedy" or "greedy" when
    the stable prefix matches that expansion of 1.
    """

    mode: str  # "simple" | "nonsimple"
    ell: int
    i_max: int
    rows: list  # (i, k or lcp)
    stabilized: bool
    limit: str | None


def lexmax_convergence_probe(
    s: NumSys, base: RealBase, ell: int, i_max: int
) -> LexMaxConvergenceReport:
    """The rows of `LexMaxConvergenceReport` for i = 1..i_max.  Each
    greatest word is read only as far as it is compared, so past the
    system's failing index no word of length i is built or kept."""
    _integer(i_max, "i_max", _integer(ell, "ell", 1))
    d = base.require_parry(max(DEFAULT_DEPTH, ell + i_max))
    dstar = quasi_greedy_of(d)
    if d.zero_tail:
        t = d.support
        stem = dstar.per
        prefixes = []
        for k in range(ell + 2):
            w = stem * k + t
            prefixes.append((w + (0,) * ell)[:ell])
        rows = []
        for i in range(1, i_max + 1):
            x = tuple(islice(s._greatest(i), ell))
            x += (0,) * (ell - len(x))
            k = next((k for k, p in enumerate(prefixes) if p == x), None)
            rows.append((i, k))
        window = [k for i, k in rows if i >= ell]
        stabilized = bool(window) and None not in window and len(set(window)) == 1
        limit = None
        if stabilized:
            stable = prefixes[window[0]]
            if stable == dstar.prefix(ell):
                limit = "quasi-greedy"
            elif stable == d.prefix(ell):
                limit = "greedy"
            else:
                limit = "other"
        return LexMaxConvergenceReport("simple", ell, i_max, rows, stabilized, limit)
    rows = []
    for i in range(1, i_max + 1):
        lcp = 0
        for x in s._greatest(i):
            if x != d.digit(lcp):
                break
            lcp += 1
        rows.append((i, lcp))
    window_ok = all(lcp >= ell for i, lcp in rows if i >= ell)
    return LexMaxConvergenceReport(
        "nonsimple", ell, i_max, rows, window_ok, "greedy" if window_ok else None
    )
