"""Positional numeration systems and their numeration languages.

A system is a strictly increasing integer sequence U with U(0) = 1 and
bounded consecutive quotients.  Values are materialized lazily from one
of two generators: an explicit list of initial values plus an integer
linear recurrence (with an optional constant addend), or the
Bertrand-style rule U(i) = a1 U(i-1) + ... + ai U(0) + 1 driven by an
eventually periodic word a.

The numeration language contains all greedy representations padded with
leading zeros.  Membership is decided by the suffix criterion: a word
belongs to the language exactly when each of its suffixes is
lexicographically at most the greatest word of the same length,
rep(U(i) - 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import NumerationError
from .words import DigitWord, EPWord, format_epword, parse_epword, suffixes_at_most

_ALPHABET_PROBE = 32  # indices used when the alphabet bound must be inferred


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
    violations: list = field(default_factory=list)

    @property
    def holds(self) -> bool:
        return self.first_violation is None


class NumSys:
    """A positional numeration system with lazily materialized values."""

    def __init__(self, generator, alphabet_max: int | None = None):
        self.generator = generator
        self._declared_alphabet_max = alphabet_max
        self._observed_alphabet_max = 0
        if isinstance(generator, Recurrence):
            init = [int(v) for v in generator.initial]
            if not init or init[0] != 1:
                raise NumerationError("U(0) must equal 1")
            if len(init) < len(generator.coeffs):
                raise NumerationError(
                    "initial values must cover the recurrence order"
                )
            self._u = init
        elif isinstance(generator, BertrandRule):
            self._u = [1]
        else:
            raise NumerationError(f"unknown generator {generator!r}")
        self._lexmax: dict[int, tuple] = {}
        self.note: str | None = None
        for i in range(1, len(self._u)):
            self._check_materialized(i)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_recurrence(cls, initial, coeffs, addend: int = 0, alphabet_max=None):
        return cls(
            Recurrence(tuple(int(v) for v in initial), tuple(int(c) for c in coeffs), int(addend)),
            alphabet_max,
        )

    @classmethod
    def from_word(cls, word: EPWord | str):
        if isinstance(word, str):
            word = parse_epword(word)
        if word.digit(0) < 1:
            raise NumerationError("the generating word must start with a nonzero digit")
        # for these systems the alphabet bound is the leading digit
        return cls(BertrandRule(word), alphabet_max=word.digit(0))

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
        q = -(-cur // prev) - 1  # ceil(cur/prev) - 1
        if q > self._observed_alphabet_max:
            self._observed_alphabet_max = q
        if (
            self._declared_alphabet_max is not None
            and q > self._declared_alphabet_max
        ):
            raise NumerationError(
                f"declared alphabet bound {self._declared_alphabet_max} "
                f"contradicted at U({i})/U({i - 1})"
            )

    @property
    def alphabet_max(self) -> int:
        """Largest digit of the alphabet.

        Taken from the declared bound when one was supplied (it is
        validated against every materialized quotient); otherwise the
        bound observed on the materialized range, probing a few dozen
        indices first.
        """
        if self._declared_alphabet_max is not None:
            return self._declared_alphabet_max
        self.u(max(_ALPHABET_PROBE, len(self._u) - 1))
        return self._observed_alphabet_max

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

    # -- language-level operations ----------------------------------------------

    def members_by_length(self, max_len: int) -> list:
        """Level sets of the numeration language up to max_len.

        Built by prepending letters: the language is closed under taking
        suffixes, so a word belongs to level L+1 exactly when its tail
        lies in level L and the whole word is at most lex_max(L+1).
        """
        alphabet = range(self.alphabet_max + 1)
        levels = [{()}]
        for length in range(1, max_len + 1):
            bound = self.lex_max(length)
            level = set()
            for tail in levels[-1]:
                for c in alphabet:
                    w = (c,) + tail
                    if w <= bound:
                        level.add(w)
            levels.append(level)
        return levels

    def check_bertrand(self, max_len: int) -> BertrandReport:
        """Verify w in language <=> w0 in language for all |w| <= max_len.

        Reports violating words: "prolongability" names a member w whose
        extension w0 is missing (the reported word is w0), and
        "prefix-closure" names a member ending in 0 whose prefix is not a
        member.  holds_up_to is one less than the length of the first
        violating word (max_len when the condition holds throughout).
        """
        if max_len < 1:
            raise NumerationError("max_len must be >= 1")
        levels = self.members_by_length(max_len + 1)
        violations = []
        first = None
        holds_up_to = max_len
        for length in range(1, max_len + 2):
            found = []
            for w in levels[length]:
                if w[-1] == 0 and w[:-1] not in levels[length - 1]:
                    found.append(Violation(w, "prefix-closure"))
            for w in levels[length - 1]:
                if length - 1 <= max_len and w + (0,) not in levels[length]:
                    found.append(Violation(w + (0,), "prolongability"))
            if found:
                found.sort(key=lambda v: v.word)
                violations.extend(found)
                if first is None:
                    first = found[0]
                    holds_up_to = length - 1
        return BertrandReport(max_len, holds_up_to, first, violations)

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        g = self.generator
        if isinstance(g, BertrandRule):
            return {"bertrand": {"word": format_epword(g.word)}}
        out = {
            "initial": list(g.initial),
            "recurrence": {"coeffs": list(g.coeffs), "addend": g.addend},
        }
        if self._declared_alphabet_max is not None:
            out["alphabet_max"] = self._declared_alphabet_max
        return out

    @classmethod
    def from_json(cls, data: dict) -> "NumSys":
        if "bertrand" in data:
            return cls.from_word(parse_epword(data["bertrand"]["word"]))
        try:
            initial = data["initial"]
            rec = data["recurrence"]
            coeffs = rec["coeffs"]
            addend = rec.get("addend", 0)
        except (KeyError, TypeError):
            raise NumerationError(f"bad numeration system JSON: {data!r}") from None
        return cls.from_recurrence(initial, coeffs, addend, data.get("alphabet_max"))

    def __repr__(self):
        g = self.generator
        if isinstance(g, BertrandRule):
            return f"NumSys(word={format_epword(g.word)})"
        return f"NumSys(initial={list(g.initial)}, coeffs={list(g.coeffs)}, addend={g.addend})"


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
