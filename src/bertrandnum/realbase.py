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
  isolating interval, which is bisected until both ends of the enclosure
  share their integer part, or until the upper one is exactly the value (a
  gcd with p locates the common root).  A remainder with no beta terms is
  the rational c_0 / D and needs no interval.  No floating point ever
  enters the digit path.
- **Repeats.**  An index maps the fingerprint (hash) of each remainder to
  the indices k that have it.  A hit is only a hint: it is confirmed by
  recomputing those r_j from r_0 and the digits, so a collision never
  resolves a base and never hides a later repeat.  The index costs a key
  and an index per digit, not a remainder.

The base owns its expansion of 1 and keeps whatever it has resolved.
`RealBase.parry_class(depth)` is the one reader: its `word` is the greedy
expansion and its `quasi_greedy` the quasi-greedy one (or the digit
prefix while unresolved); `digits_prefix` and `require_parry` read
through it.  Everything built from a base (its systems, automata and
enclosures) asks for the expansion at the default depth, so resolving a
base deeper once with `require_parry(depth)` serves every later builder.
A non-integer rational base is decided "not Parry" at any depth, however
its polynomial is written: a Parry number is an algebraic integer (Parry
1960).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import DEFAULT_DEPTH, VARIANTS
from . import polynomials as pl
from .errors import NumerationError, RefinementBudgetError, UnresolvedBaseError
from .intervals import Interval
from .words import (
    DigitWord,
    EPWord,
    _as_epword,
    epword,
    format_epword,
    is_parry_valid,
    parse_epword,
)

REFINEMENT_BUDGET = 256  # bisections allowed per floor extraction

# The key of a remainder in the repeat index.  Only a hint: equal keys are
# confirmed exactly, so any function of the remainder would be correct.
_fingerprint = hash


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
    """A real base beta > 1 with a lazily extended expansion of 1."""

    def __init__(self, coeffs, interval, source=None):
        self.poly = coeffs  # low-first primitive int tuple, leading coefficient > 0
        self._ival = list(interval)  # mutable enclosure; [q, q] for a rational q
        self.source = source  # textual spec this base was parsed from
        self._digits: list[int] = []
        self._rem = None  # remainder after the digits computed so far
        self._seen: dict = {}  # fingerprint -> index k, or a list of them
        self._resolved: EPWord | None = None

    @property
    def kind(self) -> str:
        """Read off the polynomial: "integer" or "rational" for degree 1,
        "algebraic" above."""
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
        b = int(b)
        if b < 2:
            raise NumerationError(f"integer base must be >= 2, got {b}")
        return cls((-b, 1), (Fraction(b), Fraction(b)), f"int:{b}")

    @classmethod
    def rational(cls, q) -> "RealBase":
        q = Fraction(q)
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
        exceed 1.
        """
        p = pl.squarefree_part(pl.poly(coeffs))
        if pl.degree(p) < 1:
            raise NumerationError("polynomial must be nonconstant")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if lo >= hi:
            raise NumerationError(f"bad isolating interval ({lo}, {hi})")
        if pl.sign_at(p, lo) == 0 or pl.sign_at(p, hi) == 0:
            raise NumerationError("isolating interval endpoints must not be roots")
        if pl.count_roots(p, lo, hi) != 1:
            raise NumerationError("interval does not isolate exactly one root")
        if pl.sign_at(p, lo) * pl.sign_at(p, hi) > 0:
            # one root of the square-free part always flips the sign
            raise NumerationError("interval does not isolate exactly one root")
        # push the lower endpoint above 1
        if hi <= 1:
            raise NumerationError("isolated root is not > 1")
        if lo < 1:
            s1 = pl.sign_at(p, Fraction(1))
            if s1 == 0 or s1 == pl.sign_at(p, hi):
                raise NumerationError("isolated root is not > 1")
            lo = Fraction(1)
        if pl.degree(p) == 1:
            # linear polynomial: the root is exactly rational
            root = Fraction(-p[0], p[1])
            if root <= 1:
                raise NumerationError("isolated root is not > 1")
            return cls.rational(root)
        text = ",".join(str(c) for c in pl.high_first(p))
        return cls(p, (lo, hi), f"poly:{text}@({lo},{hi})")

    # -- enclosure -------------------------------------------------------------

    def enclosure(self, width=None) -> Interval:
        """A rigorous interval containing beta, refined below `width` if given."""
        if width is not None:
            width = Fraction(width)
            while 0 < self._ival[1] - self._ival[0] >= width:
                self._bisect()
        return Interval(self._ival[0], self._ival[1])

    def _bisect(self):
        lo, hi = self._ival
        mid = (lo + hi) / 2
        s = pl.sign_at(self.poly, mid)
        if s == 0:
            # the root is exactly rational: collapse to a degenerate enclosure
            self._ival[0] = self._ival[1] = mid
            return
        if s == pl.sign_at(self.poly, lo):
            self._ival[0] = mid
        else:
            self._ival[1] = mid

    def _is_non_integer_rational(self) -> bool:
        """Whether beta is a rational number that is not an integer,
        whatever the degree of its polynomial.

        By the rational root theorem a rational root of the primitive p
        has a denominator dividing the leading coefficient: a monic p has
        none, and otherwise, once the enclosure is narrower than 1/lead,
        the one candidate k/lead is tested exactly.
        """
        lead = self.poly[-1]
        if lead == 1:
            return False
        self.enclosure(Fraction(1, lead))
        lo, hi = self._ival
        q = Fraction(math.ceil(lo * lead), lead)
        return q <= hi and q.denominator > 1 and pl.sign_at(self.poly, q) == 0

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
            return (-top * p[0],) + tuple(rem[j - 1] - top * p[j] for j in range(1, n)) + (den,)
        out = [-top * p[0]] + [lead * rem[j - 1] - top * p[j] for j in range(1, n)]
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

    def _eval_interval(self, s) -> Interval:
        # an enclosure of the numerator of s at beta, by Horner's rule
        acc = Interval.point(0)
        beta = Interval(self._ival[0], self._ival[1])
        for c in reversed(s[:-1]):
            acc = acc * beta + c
        return acc

    def _is_exactly(self, s, m: int) -> bool:
        # decide s(beta) == m by locating a common root of the defining
        # polynomial and the numerator of s - m inside the isolating interval
        c = pl.primitive(self._minus(s, m)[:-1])
        if not c:
            return True
        g = pl.gcd(self.poly, c)
        if pl.degree(g) < 1:
            return False
        lo, hi = self._ival
        return pl.sign_at(g, lo) * pl.sign_at(g, hi) < 0

    def _floor_vec(self, s) -> tuple[int, bool]:
        """Floor of an element of Q(beta); returns (floor, is_exact_integer)."""
        den = s[-1]
        if not any(s[1:-1]):
            q, r = divmod(s[0], den)
            return q, r == 0
        for _ in range(REFINEMENT_BUDGET):
            enc = self._eval_interval(s)
            flo, fhi = enc.lo // den, enc.hi // den
            if flo == fhi:
                return flo, False
            if fhi == flo + 1 and self._is_exactly(s, fhi):
                return fhi, True
            self._bisect()
        raise RefinementBudgetError(
            "interval refinement did not separate a floor boundary"
        )

    def _first_equal(self, rem, indices) -> int | None:
        """The first of the ascending `indices` j with r_j == rem, or None.

        The remainders are recomputed from r_0 and the digits, so a
        fingerprint match is only ever taken as a hint."""
        r, i = self._start(), 0
        for j in indices:
            while i < j:
                r = self._minus(self._mul_beta(r), self._digits[i])
                i += 1
            if r == rem:
                return j
        return None

    def _step(self):
        """Compute one more digit of the expansion of 1."""
        if self._rem is None:
            self._rem = self._start()
            self._seen[_fingerprint(self._rem)] = 0
        s = self._mul_beta(self._rem)
        e, exact = self._floor_vec(s)
        if e < 0:
            raise NumerationError("negative digit; base is not > 1")
        self._digits.append(e)
        if exact:  # the remainder is exactly zero
            self._resolved = epword(tuple(self._digits), (0,))
            return
        rem = self._minus(s, e)
        k = len(self._digits)
        key = _fingerprint(rem)
        hits = self._seen.get(key)
        if hits is None:
            self._seen[key] = k
        else:
            if isinstance(hits, int):
                hits = [hits]
            j = self._first_equal(rem, hits)
            if j is not None:
                self._resolved = epword(tuple(self._digits[:j]), tuple(self._digits[j:]))
                return
            self._seen[key] = hits + [k]
        self._rem = rem

    def parry_class(self, depth: int = DEFAULT_DEPTH) -> ParryClass:
        """Resolve the expansion of 1 within `depth` digits, if possible.

        A repeated exact remainder proves ultimate periodicity; a zero
        remainder proves finiteness.  A non-integer rational base is never
        Parry, because a Parry number is an algebraic integer (Parry 1960):
        it gets "not_parry" with its digit prefix, also when its polynomial
        is not minimal (see `_is_non_integer_rational`).  Otherwise absence
        of both within `depth` only yields "unresolved" (never a claim that
        beta is not Parry).  A base resolved once stays resolved at every
        depth.
        """
        if depth < 1:
            raise NumerationError("depth must be >= 1")
        while self._resolved is None and len(self._digits) < depth:
            self._step()
        w = self._resolved
        if w is None:
            kind = "not_parry" if self._is_non_integer_rational() else "unresolved"
            return ParryClass(kind, tuple(self._digits[:depth]), depth=depth)
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
    with a nonzero digit.  The defining polynomial is X^n - sum t_j
    X^{n-j} when d = t1..tn followed by zeros, and otherwise, writing d
    with preperiod length m and period length n,
    (X^{m+n} - sum_{j<=m+n} d_j X^{m+n-j}) - (X^m - sum_{j<=m} d_j X^{m-j}).
    That polynomial has exactly one root > 1, which is beta.
    """
    d = _as_epword(d)
    if d.digit(0) < 1:
        raise NumerationError(f"expansion must start with a nonzero digit: {d}")
    if d == epword((1,), (0,)):
        raise NumerationError("10^w corresponds to the degenerate base 1")
    if not is_parry_valid(d, strict=True):
        raise NumerationError(f"{d} is not a valid greedy expansion of 1")
    p = char_poly(d, "canonical")
    if pl.degree(p) == 1:
        return RealBase.rational(Fraction(-p[0], p[1]))
    # isolate the unique root > 1: the polynomial is negative at 1 and
    # eventually positive
    lo = Fraction(1)
    if pl.sign_at(p, lo) >= 0:
        raise NumerationError(f"no base > 1 realizes {d}")
    hi = Fraction(d.digit(0) + 2)
    while pl.sign_at(p, hi) <= 0:
        hi *= 2
    base = RealBase.algebraic(p, (lo, hi))
    return base


def expansion_polynomial(d: EPWord) -> pl.IntPoly:
    """The recurrence polynomial attached to the decomposition of d; for a
    finite word t1..tn it is (X - 1)(X^n - sum t_j X^{n-j})."""
    m, n = len(d.pre), len(d.per)
    digits = d.pre + d.per
    coeffs = [0] * (m + n + 1)
    coeffs[m + n] += 1
    for j in range(1, m + n + 1):
        coeffs[m + n - j] -= digits[j - 1]
    coeffs[m] -= 1
    for j in range(1, m + 1):
        coeffs[m - j] += digits[j - 1]
    return pl.poly(coeffs)


def char_poly(word: EPWord, variant: str) -> pl.IntPoly:
    """Characteristic polynomial of the recurrence satisfied by the system.

    canonical: for a finite expansion t1..tn the polynomial is
    X^n - sum t_j X^{n-j}; for an ultimately periodic quasi-greedy word
    with preperiod m and period n it is
    (X^{m+n} - sum_{j<=m+n} d_j X^{m+n-j}) - (X^m - sum_{j<=m} d_j X^{m-j}).
    noncanonical: requires a finite expansion t1..tn and yields
    (X^{n+1} - sum t_j X^{n+1-j}) - (X^n - sum t_j X^{n-j}).
    A word whose first letter is 0 generates no system and is rejected.
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
