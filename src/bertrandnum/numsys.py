"""Positional numeration systems and their numeration languages.

A system is a strictly increasing integer sequence U with U(0) = 1.
Values are materialized lazily from one of two generators: an explicit
list of initial values plus an integer linear recurrence (with an
optional constant addend), or the Bertrand-style rule
U(i) = a1 U(i-1) + ... + ai U(0) + 1 driven by any eventually periodic
word a with a nonzero first letter.  U fixes the alphabet: the members
of length at most n use the letters 0..d, where d is the greatest first
letter of the greatest members of those lengths.  A recurrence may
declare a bound on the letters (alphabet_max); each materialized
quotient U(i)/U(i-1) is checked against it.

The numeration language contains all greedy representations padded with
leading zeros.  Membership is decided by the suffix criterion: a word
belongs to the language exactly when each of its suffixes is
lexicographically at most the greatest word of the same length,
rep(U(i) - 1).

The Bertrand condition (w is a member exactly when w0 is) is decided
from the generating word a of U, a_i = U(i) - 1 - sum_{j<i} a_j U(i-j),
read one letter at a time: it holds for every word of length at most n
exactly when a_1..a_{n+1} has no negative letter and none of its factors
is above the prefix of a of the same length: Parry's automaton walk of
a_2 a_3 ... against a (words.walk_step), whose states also give the
first violation.  The letters follow one linear recurrence, so they are
eventually periodic or eventually break that test (Fatou 1906), and the
scan always ends.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass

from .errors import NumerationError
from .words import (
    DigitWord,
    EPWord,
    epword,
    format_epword,
    is_parry_valid,
    parse_epword,
    suffixes_at_most,
    walk,
    walk_step,
)


@dataclass(frozen=True)
class Recurrence:
    initial: tuple
    coeffs: tuple
    addend: int = 0


@dataclass(frozen=True)
class BertrandRule:
    word: EPWord


@dataclass(frozen=True)
class Violation:
    word: DigitWord
    kind: str  # "prolongability" | "prefix-closure"


@dataclass
class BertrandReport:
    max_len: int
    holds_up_to: int
    first_violation: Violation | None

    @property
    def holds(self) -> bool:
        return self.first_violation is None


class NumSys:
    """A positional numeration system with lazily materialized values.

    alphabet_max, when given, is a declared bound on the digits: every
    materialized U(i) must satisfy ceil(U(i)/U(i-1)) - 1 <= alphabet_max,
    or NumerationError is raised.  Nothing is inferred when it is absent.
    """

    def __init__(self, generator, alphabet_max: int | None = None):
        """Each number of a Recurrence and the alphabet bound must be an
        integer (a bool or a float is not one), the initial values and
        coefficients lists or tuples of them; a BertrandRule's word must
        start with a nonzero letter."""
        if isinstance(generator, Recurrence):
            g = generator
            generator = Recurrence(
                _integers(g.initial, "initial"), _integers(g.coeffs, "coeffs"), _integer(g.addend, "addend")
            )
            init = list(generator.initial)
        elif isinstance(generator, BertrandRule):
            if generator.word.digit(0) < 1:
                raise NumerationError("the generating word must start with a nonzero digit")
            init = [1]
        else:
            raise NumerationError(f"unknown generator {generator!r}")
        if alphabet_max is not None:
            _integer(alphabet_max, "alphabet_max")
        if not init or init[0] != 1:
            raise NumerationError("U(0) must equal 1")
        if isinstance(generator, Recurrence) and len(init) < len(generator.coeffs):
            raise NumerationError("initial values must cover the recurrence order")
        self.generator = generator
        self._alphabet_max = alphabet_max
        self._u = init
        self._lexmax: dict[int, tuple] = {}
        for i in range(1, len(self._u)):
            self._check_materialized(i)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_recurrence(cls, initial, coeffs, addend: int = 0, alphabet_max=None):
        return cls(Recurrence(initial, coeffs, addend), alphabet_max)

    @classmethod
    def from_word(cls, word: EPWord | str):
        return cls(BertrandRule(parse_epword(word) if isinstance(word, str) else word))

    # -- values ---------------------------------------------------------------

    def u(self, i: int) -> int:
        if i < 0:
            raise NumerationError("U is indexed from 0")
        while len(self._u) <= i:
            self._extend()
        return self._u[i]

    def values(self, count: int) -> list:
        if count < 0:
            raise NumerationError("count must be >= 0")
        return [self.u(i) for i in range(count)]

    def _extend(self):
        i = len(self._u)
        g = self.generator
        if isinstance(g, Recurrence):
            v = g.addend
            for j, c in enumerate(g.coeffs):
                v += c * self._u[i - 1 - j]
        else:
            w = g.word
            v = 1
            for j in range(1, i + 1):
                v += w.digit(j - 1) * self._u[i - j]
        self._u.append(v)
        self._check_materialized(i)

    def _check_materialized(self, i: int):
        prev, cur = self._u[i - 1], self._u[i]
        if cur <= prev:
            raise NumerationError(
                f"sequence is not strictly increasing at U({i}) = {cur}"
            )
        bound = self._alphabet_max
        if bound is not None and -(-cur // prev) - 1 > bound:  # ceil(cur/prev) - 1
            raise NumerationError(
                f"declared alphabet bound {bound} contradicted at U({i})/U({i - 1})"
            )

    # -- representations -------------------------------------------------------

    def rep(self, n: int) -> DigitWord:
        """The greedy representation of n; rep(0) is the empty word."""
        n = int(n)
        if n < 0:
            raise NumerationError("only nonnegative integers have representations")
        if n == 0:
            return ()
        length = 1
        while self.u(length) <= n:
            length += 1
        digits = []
        for j in range(length - 1, -1, -1):
            d, n = divmod(n, self.u(j))
            digits.append(d)
        return tuple(digits)

    def val(self, w: DigitWord) -> int:
        """Value of a digit word: sum of w_i U(|w| - i)."""
        total = 0
        for i, d in enumerate(w):
            total += d * self.u(len(w) - 1 - i)
        return total

    def lex_max(self, i: int) -> DigitWord:
        """rep(U(i) - 1): the lexicographically greatest member of length i."""
        if i < 0:
            raise NumerationError("length must be nonnegative")
        cached = self._lexmax.get(i)
        if cached is None:
            w = self.rep(self.u(i) - 1)
            cached = (0,) * (i - len(w)) + w
            self._lexmax[i] = cached
        return cached

    def member(self, w) -> bool:
        """Membership of w in the numeration language 0* rep(N).

        Decided by the suffix criterion: every suffix of w must be at
        most, lexicographically, the greatest member of its length.
        """
        return suffixes_at_most(w, self.lex_max)

    # -- the Bertrand condition ----------------------------------------------------

    def check_bertrand(self, max_len: int) -> BertrandReport:
        """Decide w in language <=> w0 in language for all |w| <= max_len.

        Write M_j = lex_max(j) and a for the generating word of U (see
        scan_generating_word).  The condition holds for every |w| <= k
        exactly when a_1..a_{k+1} passes the scan: no letter is negative
        and no factor is above the prefix of a of the same length.

        Proof.  (1) The scan passes a_1..a_n exactly when M_j = a_1..a_j
        for every j <= n.  If it passes, induct on j: the letters are
        nonnegative, a_1..a_j has value U(j) - 1 by the definition of
        a, and each proper suffix s of it is a member, because s and its
        own suffixes are at most the prefixes a_1..a_i = M_i of their
        lengths; so every suffix of a_1..a_j has value below U(its
        length), which makes a_1..a_j greedy: it is M_j.  Conversely a
        factor of a_1..a_n is a suffix of a member M_t, hence a member,
        hence at most the greatest member M_r = a_1..a_r of its length.
        (2) The condition holds for |w| <= k exactly when M_j = a_1..a_j
        for every j <= k + 1.  If so and |w| <= k, each suffix s0 of w0
        has s0 <= a_1..a_{|s|+1} exactly when s <= a_1..a_{|s|}, since
        a_{|s|+1} >= 0, and 0 is a member: w0 is a member exactly when w
        is.  Conversely M_1 = a_1, and if M_i = a_1..a_i for i <= j <= k,
        write M_{j+1} = p d.  Each suffix of p0 is at most the matching
        suffix of p d, so p0 is a member, then p is, and p <= M_j; M_j
        is a member, then so is M_j 0 <= M_{j+1}, and M_j <= p.  So
        p = a_1..a_j, and the value U(j+1) - 1 of M_{j+1} makes
        d = a_{j+1}.

        So holds_up_to is one less than the first index where the scan
        fails, or max_len.  (3) At the failing length k, let N_k be the
        first k letters of M_{k+1}.  The scan passes a_1..a_k = M_k, so
        the members of length k are the words the walk against M_k
        accepts (words.walk_step), and by the argument of (2) w0 is a
        member exactly when w <= N_k and w_2..w_k is a member.  So the
        violations of length k + 1 are w0 for a member w above N_k
        ("prolongability": w is a member, w0 is not) and for a word w
        above M_k and at most N_k with w_2..w_k a member
        ("prefix-closure": w0 is a member, w is not).  The least word of
        each kind keeps the longest prefix it can of N_k or of M_k,
        raises the next letter by one and pads with zeros; the states of
        the walk along N_k, or along M_k from its second letter, show
        which letters can be raised.  The least word c above M_k with
        c_2..c_k a member may exceed N_k only when M_k > N_k, as some
        violation of length k + 1 exists; then the least member above
        N_k is at most M_k < c.  So first_violation is the smaller of the
        two, with 0 appended.

        (4) Values are built only where the scan fails.  If it passes
        a_1..a_n and U(1) > U(0), then for j <= n, inductively,
        U(j) = a_1 U(j-1) + val(a_2..a_j) + 1 with a_1 = U(1) - 1 >= 1, so
        U(j) > U(j-1); by (1) a_2..a_j is a member of length j - 1, so
        val(a_2..a_j) < U(j-1) and ceil(U(j)/U(j-1)) - 1 <= a_1 =
        ceil(U(1)/U(0)) - 1.  Neither the increasing check nor a declared
        alphabet bound can fail past U(1).
        """
        if max_len < 1:
            raise NumerationError("max_len must be >= 1")
        _, fails_at = self.scan_generating_word(max_len + 1)
        if fails_at is None:
            self.u(1)  # by (4), the only value that can still break
            return BertrandReport(max_len, max_len, None)
        # a system whose values break anywhere up to max_len + 1 is
        # rejected, whatever length its first violation has
        self.u(max_len + 1)
        k = fails_at - 1
        m, n = self.lex_max(k), self.lex_max(k + 1)[:k]  # M_k = a_1..a_k, N_k
        prolonged, closed = _least_above(n, m, 0), _least_above(m, m, 1)
        if prolonged is not None and prolonged < closed:
            w, kind = prolonged, "prolongability"
        else:
            w, kind = closed, "prefix-closure"
        return BertrandReport(max_len, k, Violation(w + (0,), kind))

    def scan_generating_word(self, limit: int | None = None):
        """Read the generating word a of U until it decides the Bertrand
        condition: a_i = U(i) - 1 - sum_{j<i} a_j U(i-j).

        Returns (word, None) when a is an eventually periodic word every
        shift of which is at most a itself (then U is Bertrand: a is
        10^w or an expansion of 1), (None, i) when a_1..a_i is the
        shortest prefix with a negative letter or a factor above the
        prefix of a of the same length, and (None, None) when the first
        `limit` letters decide neither.

        The factor test is the walk of a_2 a_3 ... against a
        (words.walk_step), Duval's (1983) test with the order reversed:
        one step per letter.  Brent's (1980) cycle detection watches
        the windows of letters that determine the next one; a repeated
        window proves a eventually periodic.  The letters are integers
        with a rational generating function, so if a is not eventually
        periodic it is unbounded (Fatou 1906) and some letter leaves
        0..a_1: the scan ends without a limit.
        """
        letters, order, start = self._letters()
        a = []
        q = 0  # the state of the walk of a_2 a_3 ... against a
        saved, saved_at, power = None, start - 1, 1
        for i, x in enumerate(itertools.islice(letters, limit), 1):
            if a:
                q = walk_step(a, q, x)
            if x < 0 or q is None:
                return None, i
            a.append(x)
            if i < start:
                continue
            window = tuple(a[i - order :])
            if window == saved:
                # the windows repeat from saved_at on, so the letters do
                # from the first letter of the saved window on
                word = epword(a[: saved_at - order], a[saved_at - order : i - order])
                if is_parry_valid(word, strict=False):
                    return word, None
                start = float("inf")  # a shift exceeds a: scan on to the index
            elif i - saved_at == power:
                saved, saved_at, power = window, i, 2 * power
        return None, None

    def _letters(self):
        """The letters a_1, a_2, ... of the generating word, with `order`
        and `start`: past index start, each letter is a fixed function of
        the order letters before it."""
        g = self.generator
        if isinstance(g, BertrandRule):
            w = g.word
            return map(w.digit, itertools.count()), len(w.per), len(w.pre) + len(w.per)
        # 1 / ((1 - x) U(x)) = C(x) / R(x) with C = 1 - sum c_j x^j and
        # R = (1 - x) C(x) U(x), a polynomial of degree <= len(initial):
        # past the initial values, C(x) U(x) has every coefficient equal
        # to the addend.  A = 1 - C/R gives R(x) A(x) = R(x) - C(x).
        c, u = (0,) + g.coeffs, g.initial
        p = [
            u[i] - sum(c[j] * u[i - j] for j in range(1, min(i + 1, len(c))))
            for i in range(len(u))
        ]
        r = [1] + [p[i] - p[i - 1] for i in range(1, len(u))] + [g.addend - p[-1]]
        while len(r) > 1 and r[-1] == 0:
            r.pop()
        return _recurrent_letters(c, r), len(r) - 1, max(len(c), len(r)) - 1

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        g = self.generator
        if isinstance(g, BertrandRule):
            return {"bertrand": {"word": format_epword(g.word)}}
        out = {
            "initial": list(g.initial),
            "recurrence": {"coeffs": list(g.coeffs), "addend": g.addend},
        }
        if self._alphabet_max is not None:
            out["alphabet_max"] = self._alphabet_max
        return out

    @classmethod
    def from_json(cls, data: dict) -> "NumSys":
        """{"bertrand": {"word": "<word>"}}, or {"initial": [...],
        "recurrence": {"coeffs": [...], "addend": n}, "alphabet_max": n}
        with the addend and the alphabet bound optional."""
        if isinstance(data, dict):
            rule, rec = data.get("bertrand"), data.get("recurrence")
            if "bertrand" in data:
                if isinstance(rule, dict) and isinstance(rule.get("word"), str):
                    return cls.from_word(parse_epword(rule["word"]))
            elif "initial" in data and isinstance(rec, dict) and "coeffs" in rec:
                return cls.from_recurrence(
                    data["initial"], rec["coeffs"], rec.get("addend", 0), data.get("alphabet_max")
                )
        raise NumerationError(f"bad numeration system JSON: {data!r}")

    def __repr__(self):
        g = self.generator
        if isinstance(g, BertrandRule):
            return f"NumSys(word={format_epword(g.word)})"
        return f"NumSys(initial={list(g.initial)}, coeffs={list(g.coeffs)}, addend={g.addend})"


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    if not _is_integer(value):
        raise NumerationError(f"{what} must be an integer, got {value!r}")
    return value


def _integers(values, what: str) -> tuple:
    if not isinstance(values, (list, tuple)) or not all(map(_is_integer, values)):
        raise NumerationError(f"{what} must be a list of integers, got {values!r}")
    return tuple(values)


def _least_above(v: DigitWord, a: DigitWord, skip: int) -> DigitWord | None:
    """The least word of length |v| above v whose letters after the first
    `skip` the walk against a accepts; None when there is none.  It raises
    v[p] by one at the last p where the walk allows it, and pads with
    zeros, which the walk always accepts."""
    states = walk(a, v[skip:])
    for p in range(min(len(v), skip + len(states)) - 1, -1, -1):
        if p < skip or walk_step(a, states[p - skip], v[p] + 1) is not None:
            return v[:p] + (v[p] + 1,) + (0,) * (len(v) - p - 1)
    return None


def _recurrent_letters(c, r):
    """a_i = c_i + r_i - sum_{1 <= j < i} r_j a_{i-j}, the coefficients of
    R - C over R (c_0 = 0, r_0 = 1, both zero past their ends)."""
    last = deque(maxlen=len(r) - 1)
    for i in itertools.count(1):
        x = (c[i] if i < len(c) else 0) + (r[i] if i < len(r) else 0)
        x -= sum(r[j] * last[-j] for j in range(1, min(i, len(r))))
        last.append(x)
        yield x


def parse_system(text: str) -> NumSys:
    """Load a system from a JSON file path or an inline "bertrand:..." spec."""
    text = text.strip()
    if text.startswith("bertrand:"):
        word = text[len("bertrand:") :]
        if word.startswith("parry:"):
            word = word[len("parry:") :]
        return NumSys.from_word(parse_epword(word))
    try:
        with open(text) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise NumerationError(f"cannot read system file {text!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise NumerationError(f"bad JSON in {text!r}: {exc}") from None
    return NumSys.from_json(data)
