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

The Bertrand condition (w is a member exactly when w0 is) is decided
from the greatest words as well, without listing the language.  With
M_k = rep(U(k) - 1) and N_k the first k letters of M_{k+1}, it holds for
every word of length at most n exactly when, for every k <= n, M_k <= N_k
and the greatest length-k word whose every suffix s has s <= N_{|s|} is
at most M_k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import NumerationError
from .words import (
    DigitWord,
    EPWord,
    format_epword,
    greatest_word,
    least_word_above,
    parse_epword,
    suffixes_at_most,
)

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

    # -- the Bertrand condition ----------------------------------------------------

    def check_bertrand(self, max_len: int) -> BertrandReport:
        """Decide w in language <=> w0 in language for all |w| <= max_len.

        Decided from the greatest words, without listing the language.
        Write L_k for the members of length k, M_k = lex_max(k), N_k for
        the first k letters of M_{k+1}, and G_k for the length-k words
        whose every suffix s has s <= N_{|s|}; w0 is a member exactly
        when w lies in G_k, so the condition at length k is L_k = G_k.
        Given it at every shorter length, it holds at k exactly when
        M_k <= N_k and max G_k <= M_k.

        At the first length k where it fails, holds_up_to is k and
        first_violation is the least word of L_k above N_k
        ("prolongability": w is a member, w0 is not) or of G_k above M_k
        ("prefix-closure": w0 is a member, w is not), whichever is
        smaller, with 0 appended.  holds_up_to is max_len when the
        condition holds throughout.
        """
        if max_len < 1:
            raise NumerationError("max_len must be >= 1")
        top = self.alphabet_max
        # a system whose values break anywhere up to max_len + 1 is
        # rejected, whatever length its first violation has
        self.u(max_len + 1)

        greatest = [self.lex_max(0), self.lex_max(1)]  # M_j at index j
        prolonged = [()]  # N_j at index j
        for k in range(1, max_len + 1):
            greatest.append(self.lex_max(k + 1))
            prolonged.append(greatest[k + 1][:k])
            m, n = greatest[k], prolonged[k]
            if m <= n and greatest_word(k, top, prolonged.__getitem__) <= m:
                continue
            w, kind = min(
                (w, kind)
                for w, kind in (
                    (least_word_above(n, top, greatest.__getitem__), "prolongability"),
                    (least_word_above(m, top, prolonged.__getitem__), "prefix-closure"),
                )
                if w is not None
            )
            return BertrandReport(max_len, k, Violation(w + (0,), kind))
        return BertrandReport(max_len, max_len, None)

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
