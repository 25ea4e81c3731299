"""Finite and eventually periodic words over digit alphabets.

Finite digit words are plain tuples of nonnegative ints.  Eventually
periodic infinite words pair a finite preperiod with a repeating period
(:class:`EPWord`) and are normalized so that structural equality
coincides with equality of the underlying infinite sequences.

Text syntax (used by the CLI and JSON formats): the letters, then for an
infinite word its period in parentheses.  Each of the two groups of
letters is either bare digits or a bracketed list of integers:
``"110"`` is the finite word 1.1.0, ``"11(0)"`` is preperiod 11 followed
by 0 forever, and ``"[10,0,1]([2])"``, ``"[10](0)"`` and ``"1([10])"``
have letters above 9.  The printers use bare digits unless a letter is
above 9, and then bracket both groups.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import NumerationError, WordError

#: A finite word over a digit alphabet: just a tuple of nonnegative ints.
DigitWord = tuple


def _is_integer(value) -> bool:
    # a bool or a float is not an integer input, even when it equals one
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, what: str, least: int | None = None) -> int:
    """The one rule for an integer argument: an int that is not a bool,
    and at least `least` when one is given."""
    if not _is_integer(value):
        raise NumerationError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise NumerationError(f"{what} must be >= {least}, got {value}")
    return value


def _letter(d) -> int:
    if not _is_integer(d) or d < 0:
        raise WordError(f"digits must be nonnegative integers, got {d!r}")
    return d


def digit_word(digits) -> DigitWord:
    """A validated digit tuple from an iterable of nonnegative ints."""
    return tuple(map(_letter, digits))


def _primitive_root(p: tuple) -> tuple:
    n = len(p)
    for d in range(1, n):
        if n % d == 0 and p == p[:d] * (n // d):
            return p[:d]
    return p


@dataclass(frozen=True)
class EPWord:
    """Eventually periodic infinite word ``pre . per per per ...``.

    Canonical form: the period is primitive, and the preperiod is as
    short as possible (a trailing preperiod letter equal to the last
    period letter is absorbed by rotating the period).  A word that is
    eventually zero has period ``(0,)``; in particular the finite word
    t1..tn (with tn != 0) is stored as preperiod t1..tn, period ``(0,)``.
    """

    pre: tuple
    per: tuple

    def __post_init__(self):
        pre = tuple(map(_letter, self.pre))
        per = _primitive_root(tuple(map(_letter, self.per)) or (0,))
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "pre", pre)
        object.__setattr__(self, "per", per)

    # -- accessors ---------------------------------------------------------

    def digit(self, i: int) -> int:
        """The letter at (0-based) position i."""
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def prefix(self, k: int) -> DigitWord:
        pre, per = self.pre, self.per
        if k <= len(pre):
            return pre[: max(k, 0)]
        return (pre + per * -(-(k - len(pre)) // len(per)))[:k]

    @property
    def purely_periodic(self) -> bool:
        return not self.pre

    @property
    def zero_tail(self) -> bool:
        """True when the word is eventually 0 (i.e. has finite support)."""
        return self.per == (0,)

    @property
    def support(self) -> DigitWord:
        """The digits before the all-zero tail (canonical preperiod)."""
        if not self.zero_tail:
            raise WordError(f"{self} does not end in zeros")
        return self.pre

    def __str__(self) -> str:
        return format_epword(self)

    # max digit occurring anywhere (pre may be shadowed but never exceeds
    # per once canonical, so scan both)
    @property
    def max_digit(self) -> int:
        return max(self.pre + self.per)


def epword(pre, per=(0,)) -> EPWord:
    """Convenience constructor from any digit iterables."""
    return EPWord(tuple(pre), tuple(per))


# -- shift domination ---------------------------------------------------------


def _as_epword(w) -> EPWord:
    # A finite word is read as padded with 0^w, as a finite expansion
    # t1..tn is identified with the infinite word t1..tn 0 0 0 ...
    return w if isinstance(w, EPWord) else EPWord(tuple(w), (0,))


def walk_step(a, q: int, x: int) -> int | None:
    """One step of Parry's automaton for the prefixes of a: in state q
    the walk has matched a[:q]; a letter above a[q] stops it (None), the
    letter a[q] moves it to q + 1 and a smaller letter back to 0.

    This is the one comparison of a letter with a bound behind the
    domination tests.  When every factor of a is at most the prefix of a
    of the same length, the walk from 0 accepts a word w with |w| <= |a|
    exactly when suffixes_at_most(w, lambda j: a[:j]): a smaller letter
    ends every match, since each border a[:r] of a[:q] is followed in a
    by a letter at least a[q] (Parry 1960).
    """
    b = a[q]
    if x > b:
        return None
    return q + 1 if x == b else 0


def walk(a, w) -> list:
    """The states of the walk of w against a from state 0: the state
    before each letter, then the state after the last one.  A letter that
    stops the walk ends the list, so it is shorter than |w| + 1 exactly
    when the walk rejects w."""
    states = [0]
    for x in w:
        q = walk_step(a, states[-1], x)
        if q is None:
            break
        states.append(q)
    return states


def is_parry_valid(d: EPWord, strict: bool = True) -> bool:
    """Check whether every shifted copy of d stays lexicographically below d.

    ``strict=True`` demands shift(d, i) < d for all i >= 1 (the condition
    satisfied by greedy expansions of 1); ``strict=False`` allows equality
    (the condition satisfied by quasi-greedy expansions).  With preperiod
    m and period n, shift(d, i) for 1 <= i <= m + n are all the shifts,
    and each first differs from d within m + n letters, so the walk of
    d_2 d_3 ... against d decides the non-strict condition within the
    first 2(m + n) letters.  Equality shift(d, i) = d for some i means d
    is purely periodic.
    """
    d = _as_epword(d)
    head = d.prefix(2 * (len(d.pre) + len(d.per)))
    return len(walk(head, head[1:])) == len(head) and not (strict and d.purely_periodic)


def suffixes_at_most(w: DigitWord, greatest) -> bool:
    """Every suffix s of w has s <= greatest(len(s)).

    The suffix criterion (Parry 1960): with the greatest members of each
    length it decides a numeration language, with the prefixes of an
    expansion of 1 the factors of a beta-shift.  Longer suffixes are
    tried first: when a greedy search appends a letter that is too
    large, the suffix that fails is usually the whole word.
    """
    w = tuple(w)
    n = len(w)
    for i in range(n, 0, -1):
        if w[n - i :] > greatest(i):
            return False
    return True


def quasi_to_greedy(a: EPWord) -> EPWord:
    """Map a shift-dominated word to its strictly dominated companion.

    A purely periodic a = (a1..an)^w (n minimal) becomes
    a1..a_{n-1}(a_n + 1) followed by zeros; any other word is returned
    unchanged.  The input must satisfy is_parry_valid(a, strict=False);
    the output then satisfies the strict condition.
    """
    a = _as_epword(a)
    if not is_parry_valid(a, strict=False):
        raise WordError(f"{a} has a shifted copy lexicographically above itself")
    if not a.purely_periodic:
        return a
    p = a.per
    return EPWord(p[:-1] + (p[-1] + 1,), (0,))


def expansion_polynomial(d: EPWord) -> tuple:
    """The recurrence polynomial of d with preperiod m and period n, low first:
    (X^{m+n} - sum_{j<=m+n} d_j X^{m+n-j}) - (X^m - sum_{j<=m} d_j X^{m-j}),
    (X - 1)(X^n - sum t_j X^{n-j}) for a finite word t1..tn.  Its reciprocal
    is (1 - x^n)(1 - A(x)), A the generating function of d."""
    m, n = len(d.pre), len(d.per)
    digits = d.pre + d.per
    coeffs = [0] * (m + n + 1)
    coeffs[m + n] += 1
    for j in range(1, m + n + 1):
        coeffs[m + n - j] -= digits[j - 1]
    coeffs[m] -= 1
    for j in range(1, m + 1):
        coeffs[m - j] += digits[j - 1]
    return tuple(coeffs)


# -- text syntax -------------------------------------------------------------

# letters, then an optional nonempty period in parentheses; each group of
# letters is bare digits or a bracketed list of integers
_WORD_TEXT = re.compile(r"(\d*|\[[^\[\]]*\])(?:\((\d+|\[[^\[\]]*\])\))?")


def _read_letters(group: str, text: str) -> DigitWord:
    if not group.startswith("["):
        return digit_word(int(c) for c in group)
    inner = group[1:-1]
    try:
        letters = [int(t) for t in inner.split(",")] if inner.strip() else []
    except ValueError:
        raise WordError(f"bad word syntax: {text!r}") from None
    return digit_word(letters)


def _read_word_text(text: str) -> tuple:
    """The letters before the period, and those of the period or None."""
    m = _WORD_TEXT.fullmatch(text)
    if not m:
        raise WordError(f"bad word syntax: {text!r}")
    pre, per = m.groups()
    return _read_letters(pre, text), None if per is None else _read_letters(per, text)


def parse_word(text: str) -> DigitWord:
    """Parse a finite digit word ("110", "[10,0,1]", or "ε" for empty)."""
    text = text.strip()
    if text in ("ε", "eps"):
        return ()
    pre, per = _read_word_text(text)
    if per is not None:
        raise WordError(f"bad word syntax: {text!r}")
    return pre


def parse_epword(text: str) -> EPWord:
    """Parse an eventually periodic word ("11(0)", "(10)", "[10]([2])",
    "1([10])").  A plain finite word like "110" denotes that word
    followed by zeros."""
    pre, per = _read_word_text(text.strip())
    return EPWord(pre, (0,) if per is None else per)


def _letters_text(w: tuple, bracketed: bool) -> str:
    if bracketed:
        return "[" + ",".join(str(d) for d in w) + "]"
    return "".join(str(d) for d in w)


def format_word(w) -> str:
    """A finite word as text ("ε" when empty); an EPWord as format_epword."""
    if isinstance(w, EPWord):
        return format_epword(w)
    return _letters_text(w, max(w) > 9) if w else "ε"


def format_epword(w: EPWord) -> str:
    """The period always in parentheses; when any letter is above 9, both
    parts as bracketed lists: "[10]([0])"."""
    big = w.max_digit > 9
    pre = _letters_text(w.pre, big) if w.pre else ""
    return f"{pre}({_letters_text(w.per, big)})"
