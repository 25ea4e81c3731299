"""Exactly represented real bases beta > 1 and the greedy expansion of 1.

A base is the unique root > 1 of a primitive integer polynomial p of
degree n inside an isolating interval; an integer or rational base b/c is
the linear polynomial cX - b with the degenerate interval [b/c, b/c].
Digits of the expansion of 1 come from one exact engine for every base.

- **Remainders.**  The remainder r_k = beta r_{k-1} - d_k is an element of
  Q(beta), stored as one integer tuple (c_0, ..., c_{n-1}, D) that stands
  for (c_0 + c_1 beta + ... + c_{n-1} beta^{n-1}) / D, with D > 0 and
  gcd(c_0, ..., c_{n-1}, D) = 1.  D divides a power of the leading
  coefficient of p, so it is 1 for every monic p.  This form is
  canonical, so tuple equality is equality in Q(beta).
- **Floors.**  Each floor is certified by a Horner evaluation over the
  enclosure of beta, which is bisected until both ends of the value's
  enclosure share their integer part, or until the upper one is exactly
  the value (a gcd with p locates the common root).  That exact-zero test
  is asked at most once per floor: its answer is the same on every cell
  that isolates beta (`_is_exactly`), and once the two floors are
  adjacent the upper one stays the only candidate.  The evaluation is in
  integers: the accumulator's ends are integers over den^j, the signs of
  the accumulator pick the ends of each product with beta, and the floors
  are integer floor divisions.  Its ends are the rationals a `Fraction`
  interval Horner loop reaches.  A remainder with no beta terms is the
  rational c_0 / D and needs no interval.  No floating point ever enters
  the digit path.
- **Enclosure.**  The base keeps beta's cell as integers, a / den and
  b / den, with the number of bisections that led to it.  Dyadic
  bisection updates them in place: den doubles per level, and each level
  is one exact sign test at the midpoint against the stored sign of p at
  the lower end; no midpoint is a root, since beta is irrational whenever
  the polynomial is not linear.  Neither bisection nor the Horner loop
  builds a `Fraction`; `RealBase.enclosure(width)` builds an `Interval`
  only when asked.  It returns the deepest dyadic cell reached so far, by
  digits or by earlier requests, so the printed ends of an enclosure
  depend on what was refined before; each cell is the one the plain
  Fraction bisection reaches at the same level.
- **Repeats.**  An open-addressing table of 64-bit fingerprints (hash)
  records which remainders have been seen, and nothing else: no index,
  no remainder.  It is at most half full and doubles when it fills, so
  it costs 16 to 32 bytes per digit.  A hit is only a hint: it is
  confirmed by recomputing r_0, r_1, ... from the digits until one equals
  the new remainder, so a collision never resolves a base, and it never
  hides a later repeat, since every later hit on that fingerprint is
  confirmed against all earlier remainders.

The base owns its expansion of 1 and keeps whatever it has resolved.
`RealBase.parry_class(depth)` is the one reader: its `word` is the greedy
expansion and its `quasi_greedy` the quasi-greedy one (or the digit
prefix while unresolved); `digits_prefix` and `require_parry` read
through it.  Everything built from a base (its systems, automata and
enclosures) asks for the expansion at the default depth, so resolving a
base deeper once with `require_parry(depth)` serves every later builder.
A base recovered from its expansion (`base_from_expansion`, a "parry:"
spec) starts resolved to that word.

Whether beta is rational is decided once, when the base is built: a
polynomial of any degree whose isolated root is rational gives the
linear base `RealBase.rational` gives, so every later reader may take
"not linear" as "irrational".  A non-integer rational base is "not
Parry" at every depth, since a Parry number is an algebraic integer
(Parry 1960).
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from . import DEFAULT_DEPTH, VARIANTS
from . import polynomials as pl
from .errors import NumerationError, RefinementBudgetError, UnresolvedBaseError
from .intervals import Interval
from .words import (
    DigitWord,
    EPWord,
    _as_epword,
    _integer,
    _is_integer,
    epword,
    expansion_polynomial,
    format_epword,
    is_parry_valid,
    parse_epword,
)

REFINEMENT_BUDGET = 256  # bisections allowed per floor extraction

# The key of a remainder in the repeat table.  Only a hint: equal keys are
# confirmed exactly, so any function of the remainder to a signed 64-bit
# int would be correct.
_fingerprint = hash
_TABLE_SIZE = 8  # initial slots of the repeat table, a power of two


@dataclass(frozen=True)
class ParryClass:
    """Resolution status of the expansion of 1.

    kind is "simple" (finite expansion t1..tn, witness holds the full
    word, n = len of support), "nonsimple" (infinite ultimately periodic,
    m/n are the canonical preperiod/period lengths), "not_parry" (a
    non-integer rational base, whose expansion is never ultimately
    periodic; witness is the prefix of `depth` digits) or "unresolved"
    (no repetition seen within `depth` digits; witness is the prefix).
    """

    kind: str
    word: object  # EPWord when resolved, digit tuple when unresolved
    n: int | None = None
    m: int | None = None
    depth: int | None = None

    @property
    def resolved(self) -> bool:
        """True when the word is the whole expansion, an EPWord."""
        return self.kind in ("simple", "nonsimple")

    @property
    def quasi_greedy(self):
        """The quasi-greedy expansion of 1.

        Equals the greedy expansion unless that expansion is finite,
        t1..tn followed by zeros, in which case it is the purely periodic
        word (t1..t_{n-1}(t_n - 1))^w.  For an unresolved base it is the
        digit prefix, a correct prefix of the quasi-greedy word in either
        outcome; a base that is not Parry has no finite expansion, so its
        greedy and quasi-greedy words coincide.
        """
        return quasi_greedy_of(self.word) if self.resolved else self.word

    def describe(self) -> str:
        if self.kind == "simple":
            return f"simple Parry, n={self.n}"
        if self.kind == "nonsimple":
            return f"non-simple Parry, m={self.m}, n={self.n}"
        if self.kind == "not_parry":
            return "not Parry (non-integer rational base)"
        return f"unresolved at depth {self.depth}"


class RealBase:
    """A real base beta > 1 with a lazily extended expansion of 1.

    Build one with `integer`, `rational`, `algebraic`, `base_from_expansion`
    or `parse_base`, which validate their input; `RealBase(coeffs,
    interval)` checks nothing, and takes a rational beta only as the
    point interval [beta, beta].
    """

    def __init__(self, coeffs, interval, source=None):
        self.poly = coeffs  # low-first primitive int tuple, leading coefficient > 0
        # the enclosure [a / den, b / den], bisected `_level` times from the
        # isolating interval; a == b for a rational beta
        lo, hi = interval
        den = math.lcm(lo.denominator, hi.denominator)
        self._a = lo.numerator * (den // lo.denominator)
        self._b = hi.numerator * (den // hi.denominator)
        self._den = den
        self._level = 0
        # the sign of p at the lower end, which bisection never changes
        self._lo_sign = pl.sign_at(coeffs, lo)
        self.source = source  # textual spec this base was parsed from
        self._digits: list[int] = []
        self._rem = None  # remainder after the digits computed so far
        # the repeat table: fingerprints of r_0..r_k, 0 marking an empty slot
        self._seen = array("q", [0]) * _TABLE_SIZE
        self._nseen = 0  # the occupied slots of _seen
        self._resolved: EPWord | None = None

    @property
    def kind(self) -> str:
        """Read off the polynomial: "integer" or "rational" for degree 1,
        "algebraic" (an irrational beta) above."""
        if pl.degree(self.poly) > 1:
            return "algebraic"
        return "integer" if self.poly[1] == 1 else "rational"

    @property
    def value(self) -> Fraction | None:
        """Beta as an exact Fraction for a degree-1 base, else None."""
        if pl.degree(self.poly) > 1:
            return None
        return Fraction(-self.poly[0], self.poly[1])

    # -- constructors --------------------------------------------------------

    @classmethod
    def integer(cls, b: int) -> "RealBase":
        _integer(b, "integer base", 2)
        return cls((-b, 1), (Fraction(b), Fraction(b)), f"int:{b}")

    @classmethod
    def rational(cls, q) -> "RealBase":
        """The base q > 1 for an int or a Fraction q.  A float is refused:
        its binary value is rarely the rational meant."""
        q = _fraction(q, "rational base")
        if q <= 1:
            raise NumerationError(f"base must be > 1, got {q}")
        if q.denominator == 1:
            return cls.integer(q.numerator)
        return cls((-q.numerator, q.denominator), (q, q), f"rat:{q.numerator}/{q.denominator}")

    @classmethod
    def algebraic(cls, coeffs, interval) -> "RealBase":
        """Root > 1 of the polynomial (low-first coeffs) isolated by `interval`.

        The polynomial is replaced by its primitive square-free part; the
        interval must contain exactly one of its roots, and that root must
        exceed 1.  Each end of the interval is an int or a Fraction; a float
        is refused, as by `rational`.

        A rational root gives `rational(root)`, whatever the degree.  By the
        rational root theorem it is k / lead for the leading coefficient
        lead of the primitive p, so a scratch copy of the cell, bisected
        below 1 / lead, holds at most one candidate, which is tested
        exactly.  The base's own cell is left at the given interval.
        """
        p, chain = pl.squarefree_chain(pl.poly(_integer(c, "a coefficient") for c in coeffs))
        if pl.degree(p) < 1:
            raise NumerationError("polynomial must be nonconstant")
        lo, hi, *_ = [_fraction(end, "an interval end") for end in interval]
        if lo >= hi:
            raise NumerationError(f"bad isolating interval ({lo}, {hi})")
        s_lo, s_hi = pl.sign_at(p, lo), pl.sign_at(p, hi)
        if s_lo == 0 or s_hi == 0:
            raise NumerationError("isolating interval endpoints must not be roots")
        # one root and no other, counted on the chain of the given polynomial
        if pl.count_roots(chain, lo, hi) != 1:
            raise NumerationError("interval does not isolate exactly one root")
        # push the lower endpoint above 1
        if hi <= 1:
            raise NumerationError("isolated root is not > 1")
        if lo < 1:
            s1 = pl.sign_at(p, 1)
            if s1 == 0 or s1 == s_hi:
                raise NumerationError("isolated root is not > 1")
            lo = Fraction(1)
        text = ",".join(str(c) for c in pl.high_first(p))
        base = cls(p, (lo, hi), f"poly:{text}@({lo},{hi})")
        lead = p[-1]
        levels = base._levels_below(Fraction(1, lead))
        a, b, den = _halve(p, base._lo_sign, base._a, base._b, base._den, levels)
        k = -(-a * lead // den)  # the least k with k / lead >= a / den
        if k * den <= b * lead and pl.sign_at_ratio(p, k, lead) == 0:
            return cls.rational(Fraction(k, lead))
        return base

    # -- enclosure -------------------------------------------------------------

    def enclosure(self, width=None) -> Interval:
        """A rigorous interval containing beta, refined below `width` if given.

        The interval is the deepest cell of the dyadic bisection of the
        isolating interval reached so far, by this call or by any earlier
        refinement (a digit's floor, an earlier and narrower request).  A
        request that the enclosure already meets bisects nothing, so the
        ends returned depend on what was asked of the base before.  A
        rational base is the point beta at every width.  `width` must be
        a positive int or Fraction; a float, a bool or a string is refused,
        as by `rational`.
        """
        if width is not None:
            width = _fraction(width, "enclosure width")
            if width <= 0:
                raise NumerationError(f"enclosure width must be > 0, got {width}")
            self._bisect(self._levels_below(width))
        return Interval(Fraction(self._a, self._den), Fraction(self._b, self._den))

    def _levels_below(self, width: Fraction) -> int:
        """The number of halvings that take the enclosure below `width`:
        the least k with (b - a) / (den 2^k) < width, and 0 for a point."""
        x = (self._b - self._a) * width.denominator
        y = width.numerator * self._den
        if x < y:
            return 0
        k = x.bit_length() - y.bit_length()  # x < y * 2^(k+1), x >= y * 2^(k-1)
        return k if x < y << k else k + 1

    def _bisect(self, levels: int):
        """Halve the enclosure `levels` times, keeping the half that holds
        beta."""
        self._a, self._b, self._den = _halve(
            self.poly, self._lo_sign, self._a, self._b, self._den, levels
        )
        self._level += levels

    def approx(self) -> float:
        return float(self.enclosure(Fraction(1, 10**12)).mid)

    # -- the greedy expansion of 1 ---------------------------------------------

    def _start(self) -> tuple:
        """The first remainder, 1."""
        return (1,) + (0,) * (pl.degree(self.poly) - 1) + (1,)

    def _mul_beta(self, rem) -> tuple:
        """beta * rem, reduced via lead * beta^n = -(p_0 + ... + p_{n-1} beta^{n-1})
        and brought back to lowest terms."""
        p = self.poly
        n = len(p) - 1
        den = rem[n]
        top = rem[n - 1]
        if not top:
            return (0,) + rem[: n - 1] + (den,)
        lead = p[n]
        if lead == 1:
            return (-top * p[0], *[r - top * c for r, c in zip(rem, p[1:n])], den)
        out = [-top * p[0]] + [lead * r - top * c for r, c in zip(rem, p[1:n])]
        den *= lead
        g = math.gcd(den, *out)
        if g > 1:
            out = [c // g for c in out]
            den //= g
        return tuple(out) + (den,)

    @staticmethod
    def _minus(s, d: int) -> tuple:
        """s - d for an integer d; s stays in lowest terms."""
        return (s[0] - d * s[-1],) + s[1:]

    def _eval_ends(self, s) -> tuple[int, int, int]:
        """An enclosure of the numerator of s at beta, by Horner's rule over
        the enclosure [a / den, b / den]: integers (p, q, scale) for the
        interval [p / scale, q / scale].

        The accumulator's ends stay integers over scale = den^j.  As
        0 < a <= b, the signs of p and q pick the ends of its product with
        beta, the min and max of the four end products; so the ends are
        exactly those of the same Horner loop in `Fraction` intervals.
        """
        a, b, den = self._a, self._b, self._den
        p = q = s[-2]
        scale = 1
        for c in reversed(s[:-2]):
            scale *= den
            if p >= 0:
                p, q = p * a, q * b
            elif q <= 0:
                p, q = p * b, q * a
            else:
                p, q = p * b, q * b
            c *= scale
            p, q = p + c, q + c
        return p, q, scale

    def _is_exactly(self, s, m: int) -> bool:
        """Whether s(beta) == m, by locating a common root of the defining
        polynomial p and the numerator of s - m inside the enclosure.

        g = gcd(p, c) divides the square-free p, and every cell isolates
        beta alone among the roots of p, so g changes sign across a cell
        exactly when g(beta) = 0: the answer is the same on every cell.
        """
        g = pl.gcd(self.poly, self._minus(s, m)[:-1])
        if pl.degree(g) < 1:
            return False
        den = self._den
        return pl.sign_at_ratio(g, self._a, den) * pl.sign_at_ratio(g, self._b, den) < 0

    def _floor_vec(self, s) -> tuple[int, bool]:
        """Floor of an element of Q(beta); returns (floor, is_exact_integer).

        The enclosures of s(beta) are nested, so once the floors of their
        ends are adjacent, the upper one is the only candidate for an exact
        integer until they meet; `_is_exactly` gives the same answer on
        every cell, so it is asked once per floor.
        """
        den = s[-1]
        if not any(s[1:-1]):
            q, r = divmod(s[0], den)
            return q, r == 0
        tested = False
        for _ in range(REFINEMENT_BUDGET):
            p, q, scale = self._eval_ends(s)
            flo, fhi = p // (scale * den), q // (scale * den)
            if flo == fhi:
                return flo, False
            if fhi == flo + 1 and not tested:
                if self._is_exactly(s, fhi):
                    return fhi, True
                tested = True
            self._bisect(1)
        raise RefinementBudgetError(
            "interval refinement did not separate a floor boundary"
        )

    def _first_equal(self, rem) -> int | None:
        """The first j with r_j == rem among the remainders so far, or None.

        The remainders are recomputed from r_0 and the digits, so a
        fingerprint match is only ever taken as a hint."""
        r = self._start()
        for j, d in enumerate(self._digits):
            if r == rem:
                return j
            r = self._minus(self._mul_beta(r), d)
        return None

    def _grow(self):
        """Double the repeat table and reinsert its fingerprints."""
        table = array("q", [0]) * (2 * len(self._seen))
        mask = len(table) - 1
        for key in self._seen:
            if key:
                i = key & mask
                while table[i]:
                    i = (i + 1) & mask
                table[i] = key
        self._seen = table

    def _step(self):
        """Compute one more digit of the expansion of 1."""
        if self._rem is None:
            self._rem = self._start()
            key = _fingerprint(self._rem) or 1
            self._seen[key & (len(self._seen) - 1)] = key
            self._nseen = 1
        s = self._mul_beta(self._rem)
        e, exact = self._floor_vec(s)
        if e < 0:
            raise NumerationError("negative digit; base is not > 1")
        self._digits.append(e)
        if exact:  # the remainder is exactly zero
            self._resolved = epword(tuple(self._digits), (0,))
            return
        rem = self._minus(s, e)
        # probe the repeat table by linear probing; 0 marks an empty slot,
        # so a fingerprint of 0 is stored as 1
        key = _fingerprint(rem) or 1
        table = self._seen
        mask = len(table) - 1
        i = key & mask
        while t := table[i]:
            if t == key:
                j = self._first_equal(rem)
                if j is not None:
                    self._resolved = epword(tuple(self._digits[:j]), tuple(self._digits[j:]))
                    return
                break  # a collision: the fingerprint is already recorded
            i = (i + 1) & mask
        else:
            table[i] = key
            self._nseen += 1
            if 2 * self._nseen > len(table):
                self._grow()
        self._rem = rem

    def parry_class(self, depth: int = DEFAULT_DEPTH) -> ParryClass:
        """Resolve the expansion of 1 within `depth` digits, if possible.

        A repeated exact remainder proves ultimate periodicity; a zero
        remainder proves finiteness.  A non-integer rational base is never
        Parry, because a Parry number is an algebraic integer (Parry 1960):
        it gets "not_parry" with its digit prefix, however its polynomial
        was written, since `algebraic` builds a rational root as a rational
        base.  Otherwise absence of both within `depth` only yields
        "unresolved" (never a claim that beta is not Parry).  A base
        resolved once stays resolved at every depth.
        """
        _integer(depth, "depth", 1)
        while self._resolved is None and len(self._digits) < depth:
            self._step()
        w = self._resolved
        if w is None:
            kind = "not_parry" if self.kind == "rational" else "unresolved"
            return ParryClass(kind, tuple(islice(self._digits, depth)), depth=depth)
        if w.zero_tail:
            return ParryClass("simple", w, n=len(w.support))
        return ParryClass("nonsimple", w, m=len(w.pre), n=len(w.per))

    def digits_prefix(self, depth: int) -> DigitWord:
        """The first `depth` digits of the greedy expansion of 1."""
        cls = self.parry_class(depth)
        return cls.word.prefix(depth) if cls.resolved else cls.word

    def require_parry(self, depth: int = DEFAULT_DEPTH) -> EPWord:
        """The greedy expansion of 1, resolved within `depth` digits."""
        cls = self.parry_class(depth)
        if cls.kind == "not_parry":
            raise NumerationError(
                f"{self} is not a Parry number: a non-integer rational base "
                "is not an algebraic integer, so its expansion of 1 is not "
                "eventually periodic"
            )
        if not cls.resolved:
            raise UnresolvedBaseError(
                f"expansion of 1 for {self} not resolved within depth {depth}"
            )
        return cls.word

    def __repr__(self):
        return f"RealBase({self.source or self.kind})"


def _fraction(value, what: str) -> Fraction:
    """The one rule for a rational argument: an int but no bool, or a Fraction."""
    if not (_is_integer(value) or isinstance(value, Fraction)):
        raise NumerationError(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def _halve(poly, lo_sign: int, a: int, b: int, den: int, levels: int) -> tuple[int, int, int]:
    """The cell [a / den, b / den] of a root of poly, halved `levels` times.

    The ends stay integers over one denominator that doubles per level,
    and each level is one exact sign test at the midpoint, compared with
    lo_sign, the sign of poly at the lower end.  A midpoint that is the
    root becomes the upper end, so the closed cell always holds it; for
    an irrational root every cell is the one the plain Fraction bisection
    reaches at the same level.
    """
    for _ in range(levels):
        mid, a, b, den = a + b, a << 1, b << 1, den << 1
        if pl.sign_at_ratio(poly, mid, den) == lo_sign:
            a = mid
        else:
            b = mid
    return a, b, den


def quasi_greedy_of(d: EPWord) -> EPWord:
    """The quasi-greedy companion of a resolved greedy expansion of 1."""
    if not d.zero_tail:
        return d
    t = d.support
    if not t:
        raise NumerationError("expansion of 1 cannot be all zeros")
    return epword((), t[:-1] + (t[-1] - 1,))


def base_from_expansion(d: EPWord) -> RealBase:
    """Recover the unique base beta > 1 whose greedy expansion of 1 is d.

    d must be strictly shift-dominated, distinct from 10^w, and start
    with a nonzero digit.  Its polynomial char_poly(d, "canonical") has
    exactly one root > 1, which is beta, and
    beta < d_1 + 1, so (1, d_1 + 2) isolates it.  By Parry's theorem d is
    then beta's greedy expansion of 1, so the base starts resolved to d,
    at every depth, and the engine never finds it again.
    """
    d = _as_epword(d)
    if d.digit(0) < 1:
        raise NumerationError(f"expansion must start with a nonzero digit: {d}")
    if d == epword((1,), (0,)):
        raise NumerationError("10^w corresponds to the degenerate base 1")
    if not is_parry_valid(d, strict=True):
        raise NumerationError(f"{d} is not a valid greedy expansion of 1")
    base = RealBase.algebraic(char_poly(d, "canonical"), (1, d.digit(0) + 2))
    base._resolved = d  # an EPWord is canonical, as the engine's words are
    return base


def char_poly(word: EPWord, variant: str) -> pl.IntPoly:
    """Characteristic polynomial of the recurrence satisfied by the system.

    canonical: `expansion_polynomial(word)`, for a finite expansion
    t1..tn divided by X - 1, which leaves X^n - sum t_j X^{n-j}.
    noncanonical: requires a finite expansion and yields
    `expansion_polynomial(word)` itself.  A word whose first letter is 0
    generates no system and is rejected.
    """
    _check_variant(variant)
    word = _as_epword(word)
    if word.digit(0) < 1:
        raise NumerationError("the generating word must start with a nonzero digit")
    p = expansion_polynomial(word)
    if variant == "canonical":
        return pl.exact_div(p, (-1, 1)) if word.zero_tail else p
    if not word.zero_tail:
        raise NumerationError(
            "noncanonical recurrences require a finite expansion of 1"
        )
    return p


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise NumerationError(f"unknown variant {variant!r}")


def generating_word(base: RealBase, variant: str) -> EPWord:
    """The word generating the variant's system and shift: the quasi-greedy
    expansion of 1 for "canonical", the greedy one for "noncanonical"."""
    _check_variant(variant)
    d = base.require_parry()
    return quasi_greedy_of(d) if variant == "canonical" else d


# -- textual base specs -------------------------------------------------------

_POLY_SPEC = re.compile(r"^poly:([-\d,]+)@\(([^,]+),([^)]+)\)$")


def parse_base(text: str) -> RealBase:
    """Parse "int:3", "rat:5/2", "poly:1,-1,-1@(1,2)" or "parry:11(0)"."""
    text = text.strip()
    if text.startswith("int:"):
        try:
            return RealBase.integer(int(text[4:]))
        except ValueError:
            raise NumerationError(f"bad integer base: {text!r}") from None
    if text.startswith("rat:"):
        try:
            return RealBase.rational(Fraction(text[4:]))
        except (ValueError, ZeroDivisionError):
            raise NumerationError(f"bad rational base: {text!r}") from None
    if text.startswith("poly:"):
        m = _POLY_SPEC.match(text)
        if not m:
            raise NumerationError(f"bad polynomial base syntax: {text!r}")
        coeffs = pl.parse_poly_high_first(m.group(1))
        try:
            lo, hi = Fraction(m.group(2)), Fraction(m.group(3))
        except (ValueError, ZeroDivisionError):
            raise NumerationError(f"bad isolating interval in {text!r}") from None
        return RealBase.algebraic(coeffs, (lo, hi))
    if text.startswith("parry:"):
        word = parse_epword(text[6:])
        base = base_from_expansion(word)
        base.source = f"parry:{format_epword(word)}"
        return base
    raise NumerationError(f"unknown base syntax: {text!r}")
