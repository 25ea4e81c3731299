"""Construction and classification of Bertrand numeration systems.

A positional numeration system is Bertrand exactly when it is one of:
the trivial system U(i) = i + 1; the system generated from the
quasi-greedy expansion of 1 of some base beta > 1 (the canonical
system); or the system generated from the greedy expansion itself (the
non-canonical system, distinct from the canonical one exactly when the
greedy expansion of 1 is finite).  Both generated families obey
U(i) = a1 U(i-1) + ... + ai U(0) + 1 for the generating word a.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import polynomials as pl
from .errors import NumerationError
from .numsys import BertrandRule, NumSys, Recurrence, Violation
from .realbase import (
    RealBase,
    _check_variant,
    base_from_expansion,
    expansion_polynomial,
    generating_word,
    simple_expansion_polynomial,
)
from .words import EPWord, epword, is_parry_valid, quasi_to_greedy


def build_bertrand(base: RealBase, variant: str) -> NumSys:
    """The Bertrand numeration system associated with a Parry base.

    variant "canonical" seeds the recurrence with the quasi-greedy
    expansion of 1, "noncanonical" with the greedy expansion.  When the
    greedy expansion is infinite the two coincide; the returned system
    then carries ``note`` saying so.
    """
    word = generating_word(base, variant)
    s = NumSys.from_word(word)
    if variant == "noncanonical" and not word.zero_tail:
        s.note = "coincides with the canonical system (expansion of 1 is infinite)"
    return s


def char_poly(word: EPWord, variant: str) -> pl.IntPoly:
    """Characteristic polynomial of the recurrence satisfied by the system.

    canonical: for a finite expansion t1..tn the polynomial is
    X^n - sum t_j X^{n-j}; for an ultimately periodic quasi-greedy word
    with preperiod m and period n it is
    (X^{m+n} - sum_{j<=m+n} d_j X^{m+n-j}) - (X^m - sum_{j<=m} d_j X^{m-j}).
    noncanonical: requires a finite expansion t1..tn and yields
    (X^{n+1} - sum t_j X^{n+1-j}) - (X^n - sum t_j X^{n-j}).
    """
    _check_variant(variant)
    if not isinstance(word, EPWord):
        word = epword(tuple(word), (0,))
    if variant == "canonical":
        if word.zero_tail:
            return simple_expansion_polynomial(word.support)
        return expansion_polynomial(word)
    if not word.zero_tail:
        raise NumerationError(
            "noncanonical recurrences require a finite expansion of 1"
        )
    return expansion_polynomial(word)


def recurrence_from_char_poly(p: pl.IntPoly):
    """Turn a monic characteristic polynomial into recurrence coefficients.

    X^D + c_{D-1} X^{D-1} + ... + c_0 maps to
    u(i) = -c_{D-1} u(i-1) - ... - c_0 u(i-D).
    """
    d = pl.degree(p)
    if d < 1 or p[d] != 1:
        raise NumerationError("characteristic polynomial must be monic")
    return [-p[d - 1 - j] for j in range(d)]


# -- classification ------------------------------------------------------------


@dataclass
class ClassifyResult:
    """Outcome of classifying a positional system against the trichotomy.

    case is "case1" (U(i) = i + 1), "case2" (language of the canonical
    shift of `base`), "case3" (language of the non-canonical shift),
    "not_bertrand" (with the violating word as witness) or
    "undetermined" (Bertrand so far, but no eventual periodicity was
    detected in the extracted word).  `certified` marks verdicts backed
    by an exact argument: a violating word, or agreement of the system
    with the word-generated recurrence on enough terms to pin both
    solutions of a common linear recurrence.  Uncertified verdicts are
    only consistent up to `probe_len`.
    """

    case: str
    base: RealBase | None
    word: EPWord | None
    certified: bool
    probe_len: int
    witness: Violation | None = None
    note: str = ""


def _system_char_poly(s: NumSys):
    """A characteristic polynomial annihilating U, and the index it holds from."""
    g = s.generator
    if isinstance(g, BertrandRule):
        p = expansion_polynomial(g.word)
        return p, pl.degree(p)
    assert isinstance(g, Recurrence)
    k = len(g.coeffs)
    p = pl.poly([-c for c in reversed(g.coeffs)] + [1])
    start = len(g.initial)
    if g.addend:
        p = pl.mul(p, (-1, 1))  # (X - 1) absorbs the constant term
        start += 1
    return p, start


def certify_generating_word(s: NumSys, word: EPWord) -> bool:
    """Exactly decide whether U equals the system generated by `word`.

    Both sequences eventually satisfy linear recurrences, hence both
    satisfy the product recurrence; agreement on the finitely many
    indices below the common validity point plus one full window of the
    product recurrence forces agreement everywhere.
    """
    try:
        candidate = NumSys.from_word(word)
    except NumerationError:
        return False
    c_w = expansion_polynomial(word)
    p_s, s_start = _system_char_poly(s)
    deg_q = pl.degree(c_w) + pl.degree(p_s)
    i1 = max(s_start + pl.degree(c_w), deg_q)
    try:
        return all(s.u(i) == candidate.u(i) for i in range(i1 + deg_q + 1))
    except NumerationError:
        return False


def _periodicity_candidates(prefix: tuple):
    """Plausible (preperiod, period) splits of an eventually periodic prefix.

    Yields canonical words, smallest period first, requiring at least two
    full periods to be visible.
    """
    length = len(prefix)
    seen = set()
    for n in range(1, length // 2 + 1):
        for m in range(0, length - 2 * n + 1):
            if all(prefix[i] == prefix[i + n] for i in range(m, length - n)):
                w = epword(prefix[:m], prefix[m : m + n])
                if w not in seen:
                    seen.add(w)
                    yield w
                break  # larger m with the same n adds nothing new


def classify_bertrand(s: NumSys, probe_len: int) -> ClassifyResult:
    """Decide which arm of the Bertrand trichotomy a system falls in.

    Checks the Bertrand condition up to probe_len, extracts the limit of
    the greatest words of each length, detects eventual periodicity in
    it, and certifies the detected word against the system's recurrence.
    """
    if probe_len < 2:
        raise NumerationError("probe_len must be >= 2")
    report = s.check_bertrand(probe_len)
    if not report.holds:
        return ClassifyResult(
            "not_bertrand",
            None,
            None,
            certified=True,
            probe_len=probe_len,
            witness=report.first_violation,
        )
    prefix = s.lex_max(probe_len)
    candidates = []
    if isinstance(s.generator, BertrandRule):
        candidates.append(s.generator.word)
    candidates.extend(_periodicity_candidates(prefix))
    tried = []
    for word in candidates:
        if word in tried:
            continue
        tried.append(word)
        if word.prefix(probe_len) != prefix:
            continue
        if not is_parry_valid(word, strict=False):
            continue
        certified = certify_generating_word(s, word)
        result = _dispatch_case(word, probe_len, certified)
        if certified:
            return result
    if tried:
        result = _dispatch_case(tried[0], probe_len, certified=False)
        result.note = f"consistent up to probe_len={probe_len}, not certified"
        return result
    return ClassifyResult(
        "undetermined",
        None,
        None,
        certified=False,
        probe_len=probe_len,
        note=f"no eventual periodicity detected within probe_len={probe_len}",
    )


def _dispatch_case(word: EPWord, probe_len: int, certified: bool) -> ClassifyResult:
    if word == epword((1,), (0,)):
        return ClassifyResult("case1", None, word, certified, probe_len)
    try:
        if word.purely_periodic:
            base = base_from_expansion(quasi_to_greedy(word))
            return ClassifyResult("case2", base, word, certified, probe_len)
        base = base_from_expansion(word)
        return ClassifyResult("case3", base, word, certified, probe_len)
    except NumerationError as exc:
        return ClassifyResult(
            "undetermined",
            None,
            word,
            certified=False,
            probe_len=probe_len,
            note=f"could not recover a base from {word}: {exc}",
        )


# -- the canonical / non-canonical counting identity ----------------------------


@dataclass
class CountingIdentityReport:
    n: int
    range_max: int
    first_failure: int | None

    @property
    def holds(self) -> bool:
        return self.first_failure is None


def verify_counting_identity(base: RealBase, range_max: int) -> CountingIdentityReport:
    """Check U'(i + n) = U(i + n) + U'(i) for 0 <= i <= range_max.

    U and U' are the canonical and non-canonical systems of a simple
    Parry base whose expansion of 1 has n digits.
    """
    if range_max < 0:
        raise NumerationError("range must be >= 0")
    d = base.require_parry()
    if not d.zero_tail:
        raise NumerationError(
            "the counting identity requires a simple Parry base "
            "(finite expansion of 1)"
        )
    n = len(d.support)
    u = build_bertrand(base, "canonical")
    u_prime = build_bertrand(base, "noncanonical")
    first_failure = None
    for i in range(range_max + 1):
        if u_prime.u(i + n) != u.u(i + n) + u_prime.u(i):
            first_failure = i
            break
    return CountingIdentityReport(n, range_max, first_failure)
