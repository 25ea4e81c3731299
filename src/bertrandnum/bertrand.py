"""Construction and classification of Bertrand numeration systems.

A positional numeration system is Bertrand exactly when it is one of:
the trivial system U(i) = i + 1; the system generated from the
quasi-greedy expansion of 1 of some base beta > 1 (the canonical
system); or the system generated from the greedy expansion itself (the
non-canonical system, distinct from the canonical one exactly when the
greedy expansion of 1 is finite).  Both generated families obey
U(i) = a1 U(i-1) + ... + ai U(0) + 1 for the generating word a, and
every system has a unique generating word for which it obeys that rule;
classification reads it with NumSys.scan_generating_word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NumerationError
from .numsys import NumSys, Violation
from .realbase import RealBase, base_from_expansion, generating_word
from .words import EPWord, _integer, epword, quasi_to_greedy


def build_bertrand(base: RealBase, variant: str) -> NumSys:
    """The Bertrand numeration system associated with a Parry base.

    variant "canonical" seeds the recurrence with the quasi-greedy
    expansion of 1, "noncanonical" with the greedy expansion.  When the
    greedy expansion is infinite the two coincide.
    """
    return NumSys.from_word(generating_word(base, variant))


# -- classification ------------------------------------------------------------


@dataclass
class ClassifyResult:
    """Outcome of classifying a positional system against the trichotomy.

    case is "case1" (U(i) = i + 1), "case2" (language of the canonical
    shift of `base`), "case3" (language of the non-canonical shift) or
    "not_bertrand" (with the first violating word as witness).  Every
    verdict is exact: `word` is the generating word of U, read until it
    repeats or fails, and does not depend on `probe_len`, the length
    through which the values of U are checked when the word fails.
    """

    case: str
    base: RealBase | None
    word: EPWord | None
    probe_len: int
    witness: Violation | None = None
    certified = True  # every verdict is exact; kept for readers of the old field


def classify_bertrand(s: NumSys, probe_len: int) -> ClassifyResult:
    """Decide which arm of the Bertrand trichotomy a system falls in.

    The generating word of U decides it (NumSys.scan_generating_word).
    A system that is not Bertrand gets the first violation of
    check_bertrand at the length where the word fails, and its values of
    U through probe_len + 1 are checked, so bad values there are
    rejected.  A word that passes leaves only U(1) to check
    (check_bertrand, part 4), so a Case verdict builds no other value.

    A Case 1, 2 or 3 verdict does not depend on probe_len: U is then the
    system of its own generating word, whose values always increase.  A
    "not_bertrand" verdict can.  A recurrence whose values stop increasing
    beyond probe_len + 1 gets it at a small probe_len and a
    NumerationError at a larger one: initial values 1, 2, 3, 7 with
    coefficients 0, 2, 0 and addend 1 give U(4) = 7, so probe_len 2 finds
    the violation 110 and probe_len 3 raises.  No finite check removes
    this in general: deciding whether a linear recurrence stays
    increasing is the Positivity Problem.
    """
    _integer(probe_len, "probe_len", 2)
    word, fails_at = s.scan_generating_word()
    if word is None:
        # checks the values through probe_len + 1 and finds the witness
        witness = s.check_bertrand(max(probe_len, fails_at - 1)).first_violation
        return ClassifyResult("not_bertrand", None, None, probe_len, witness)
    s.u(1)  # the only value a passing scan leaves to check (check_bertrand, part 4)
    if word == epword((1,), (0,)):
        return ClassifyResult("case1", None, word, probe_len)
    if word.purely_periodic:
        return ClassifyResult("case2", base_from_expansion(quasi_to_greedy(word)), word, probe_len)
    return ClassifyResult("case3", base_from_expansion(word), word, probe_len)


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
    _integer(range_max, "range", 0)
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
