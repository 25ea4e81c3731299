"""Independent reference implementations that the tests compare the
library against.  None of them is on a path the library itself uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from bertrandnum import (
    DigitWord,
    Dfa,
    EPWord,
    NumerationError,
    NumSys,
    RealBase,
    Violation,
    WordError,
    epword,
    expansion_polynomial,
    generating_word,
    quasi_greedy_of,
    suffixes_at_most,
)
from bertrandnum import polynomials as pl
from bertrandnum.intervals import Interval
from bertrandnum.numsys import BertrandRule, Recurrence


def member_direct(s: NumSys, w) -> bool:
    """Membership without the suffix criterion: strip leading zeros, then
    compare with the greedy representation of the value."""
    w = tuple(w)
    k = 0
    while k < len(w) and w[k] == 0:
        k += 1
    stripped = w[k:]
    return stripped == s.rep(s.val(stripped))


def letter_bound(s: NumSys, length: int) -> int:
    """The largest letter of a member of length at most `length`.

    Each letter of a member starts a suffix, itself a member, so it is at
    most the first letter of the greatest member of that suffix's length;
    and that first letter occurs.  So the bound is exact.
    """
    return max((s.lex_max(j)[0] for j in range(1, length + 1)), default=0)


def count_length(s: NumSys, i: int) -> int:
    """Number of length-i words in the language, by a digit DP.

    Scanning left to right, the state is the set of suffix start
    positions that still match the corresponding greatest word
    exactly; suffixes that have fallen strictly below are satisfied
    forever, and one that rises above kills the branch.  The result
    always equals U(i), which tests assert rather than assume.
    """
    if i < 0:
        raise NumerationError("length must be nonnegative")
    if i == 0:
        return 1
    alphabet = range(letter_bound(s, i) + 1)
    bounds = {length: s.lex_max(length) for length in range(1, i + 1)}
    # states: frozenset of matched lengths (ages) of still-tight suffixes
    states = {frozenset(): 1}
    for p in range(1, i + 1):
        nxt: dict = {}
        for ages, cnt in states.items():
            for c in alphabet:
                dead = False
                out = []
                for a in ages:
                    # suffix started at position p - a, compared against
                    # the greatest word of its final length
                    letter = bounds[i - (p - a) + 1][a]
                    if c > letter:
                        dead = True
                        break
                    if c == letter:
                        out.append(a + 1)
                if dead:
                    continue
                letter = bounds[i - p + 1][0]
                if c > letter:
                    continue
                if c == letter:
                    out.append(1)
                key = frozenset(out)
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return sum(states.values())


def members_by_length(s: NumSys, max_len: int) -> list:
    """Level sets of the numeration language up to max_len.

    Built by prepending letters: the language is closed under taking
    suffixes, so a word belongs to level L+1 exactly when its tail
    lies in level L and the whole word is at most lex_max(L+1).
    """
    alphabet = range(letter_bound(s, max_len) + 1)
    levels = [{()}]
    for length in range(1, max_len + 1):
        bound = s.lex_max(length)
        level = set()
        for tail in levels[-1]:
            for c in alphabet:
                w = (c,) + tail
                if w <= bound:
                    level.add(w)
        levels.append(level)
    return levels


def bertrand_violations(s: NumSys, max_len: int) -> tuple[int, list]:
    """The Bertrand condition w in L <=> w0 in L by listing the language
    through length max_len + 1.

    Returns holds_up_to (one less than the length of the first violating
    word, max_len when there is none) and every violation, sorted within
    each length: "prolongability" names w0 for a member w whose
    extension is missing, "prefix-closure" a member w0 whose prefix w is
    not a member.
    """
    if max_len < 1:
        raise NumerationError("max_len must be >= 1")
    levels = members_by_length(s, max_len + 1)
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
    return holds_up_to, violations


def _completable(prefix: DigitWord, length: int, greatest) -> bool:
    # zeros are the least completion, and s 0^r <= g exactly when s <= g[:|s|]
    r = length - len(prefix)
    return suffixes_at_most(prefix, lambda i: greatest(i + r)[:i])


def least_word_above(v: DigitWord, greatest) -> DigitWord | None:
    """The least word of length |v| that is above v and whose every
    suffix s has s <= greatest(|s|); None when there is none.

    The answer keeps the longest completable prefix of v it can, raises
    the next letter as little as possible (at most greatest(|v| - p)[0]
    at position p, the one-letter suffix's bound) and pads with zeros.
    """
    v = tuple(v)
    n = len(v)
    p = 0
    while p < n and _completable(v[: p + 1], n, greatest):
        p += 1
    for p in range(min(p, n - 1), -1, -1):
        for d in range(v[p] + 1, greatest(n - p)[0] + 1):
            if _completable(v[:p] + (d,), n, greatest):
                return v[:p] + (d,) + (0,) * (n - p - 1)
    return None


def first_violation_by_search(s: NumSys, max_len: int):
    """check_bertrand's (holds_up_to, first_violation) from the
    definitions.  The letters a_i = U(i) - 1 - sum_{j<i} a_j U(i-j) come
    from the values, the condition first fails at the length k before the
    first i where a_i < 0 or a factor of a_1..a_i is above the prefix of a
    of its length, and the witness is found by least_word_above on the
    suffix criterion: the least member above N_k or the least word above
    M_k whose suffixes s have s <= N_{|s|}, whichever is smaller."""
    s.u(max_len + 1)
    a = []
    for i in range(1, max_len + 2):
        a.append(s.u(i) - 1 - sum(a[j - 1] * s.u(i - j) for j in range(1, i)))
        if a[-1] < 0 or any(a[j:] > a[: i - j] for j in range(1, i)):
            break
    else:
        return max_len, None
    k = i - 1
    m, n = s.lex_max(k), s.lex_max(k + 1)[:k]
    w, kind = min(
        (w, kind)
        for w, kind in (
            (least_word_above(n, lambda j: m[:j]), "prolongability"),
            (least_word_above(m, lambda j: n if j == k else m[:j]), "prefix-closure"),
        )
        if w is not None
    )
    return k, Violation(w + (0,), kind)


def greatest_word(length: int, top: int, greatest) -> DigitWord:
    """The greatest word of the given length over 0..top whose every
    suffix s has s <= greatest(|s|), by one greedy pass from the left:
    each letter is the largest one that leaves a completable prefix."""
    w = ()
    for _ in range(length):
        d = next(d for d in range(top, -1, -1) if _completable(w + (d,), length, greatest))
        w += (d,)
    return w


def bertrand_holds_up_to(s: NumSys, max_len: int) -> int:
    """holds_up_to of the Bertrand condition from the greatest words,
    length by length, without the generating word.

    With M_k = lex_max(k), N_k the first k letters of M_{k+1} and G_k the
    length-k words whose every suffix s has s <= N_{|s|} (w0 is a member
    exactly when w lies in G_k), the condition holds at length k, given
    it at every shorter length, exactly when M_k <= N_k and
    max G_k <= M_k.
    """
    if max_len < 1:
        raise NumerationError("max_len must be >= 1")
    top = letter_bound(s, max_len + 1)  # the letters of every N_k
    prolonged = [()]  # N_j at index j
    for k in range(1, max_len + 1):
        prolonged.append(s.lex_max(k + 1)[:k])
        m = s.lex_max(k)
        if not (m <= prolonged[k] and greatest_word(k, top, prolonged.__getitem__) <= m):
            return k
    return max_len


def _cmp_epwords(u: EPWord, v: EPWord) -> int:
    horizon = max(len(u.pre), len(v.pre)) + lcm(len(u.per), len(v.per)) + 1
    for i in range(horizon):
        a, b = u.digit(i), v.digit(i)
        if a != b:
            return -1 if a < b else 1
    return 0


def lex_cmp(u, v) -> int:
    """Three-way lexicographic comparison; returns -1, 0 or 1.

    Finite words may only be compared with finite words of the same
    length.  Comparisons between infinite words (and the mixed case,
    where the finite word is padded with zeros) are decided exactly from
    the preperiod/period structure.
    """
    u_fin = not isinstance(u, EPWord)
    v_fin = not isinstance(v, EPWord)
    if u_fin and v_fin:
        if len(u) != len(v):
            raise WordError(
                f"cannot compare finite words of different lengths ({len(u)} vs {len(v)})"
            )
        if u == v:
            return 0
        return -1 if tuple(u) < tuple(v) else 1
    # a finite word is padded with zeros
    return _cmp_epwords(*(w if isinstance(w, EPWord) else epword(w) for w in (u, v)))


def shift_dominated(d: EPWord, strict: bool) -> bool:
    """is_parry_valid by comparing d with each of its distinct shifts,
    i up to |preperiod| + |period|, each comparison exact."""
    for i in range(1, len(d.pre) + len(d.per) + 1):
        c = _cmp_epwords(d.shift(i), d)
        if c > 0 or (strict and c == 0):
            return False
    return True


def _system_char_poly(s: NumSys):
    """A characteristic polynomial annihilating U, and the index it holds from."""
    g = s.generator
    if isinstance(g, BertrandRule):
        p = expansion_polynomial(g.word)
        return p, pl.degree(p)
    assert isinstance(g, Recurrence)
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


def recurrence_from_char_poly(p: pl.IntPoly):
    """Turn a monic characteristic polynomial into recurrence coefficients.

    X^D + c_{D-1} X^{D-1} + ... + c_0 maps to
    u(i) = -c_{D-1} u(i-1) - ... - c_0 u(i-D).
    """
    d = pl.degree(p)
    if d < 1 or p[d] != 1:
        raise NumerationError("characteristic polynomial must be monic")
    return [-p[d - 1 - j] for j in range(d)]


@dataclass
class EquivReport:
    max_len: int
    first_disagreement: DigitWord | None

    @property
    def agree(self) -> bool:
        return self.first_disagreement is None


def dfa_alphabet(dfa: Dfa) -> tuple:
    """The letters on the edges of an automaton, ascending."""
    return tuple(sorted({c for (_, c) in dfa.transitions}))


def dfa_equiv_language(dfa: Dfa, s: NumSys, max_len: int) -> EquivReport:
    """Exhaustively compare DFA acceptance with the numeration language,
    level by level, for all words up to max_len over the union alphabet."""
    alphabet = sorted(set(dfa_alphabet(dfa)) | set(range(letter_bound(s, max_len) + 1)))
    levels = members_by_length(s, max_len)
    # survivors of the DFA walk, word -> state
    walk = {(): dfa.initial}
    for length in range(max_len + 1):
        if length:
            walk = {
                w + (c,): dfa.transitions[(q, c)]
                for w, q in walk.items()
                for c in alphabet
                if (q, c) in dfa.transitions
            }
        accepted = {w for w, q in walk.items() if q in dfa.finals}
        if accepted != levels[length]:
            return EquivReport(max_len, min(accepted ^ levels[length]))
    return EquivReport(max_len, None)


def minimized(dfa: Dfa) -> Dfa:
    """Language-equivalent minimal DFA by Moore's partition refinement,
    keeping the partial-transition convention (no explicit sink in the
    result), in canonical form."""
    alphabet = dfa_alphabet(dfa)
    sink = dfa.num_states
    states = range(dfa.num_states + 1)

    def target(q, c):
        if q == sink:
            return sink
        return dfa.transitions.get((q, c), sink)

    color = {q: (1 if q in dfa.finals else 0) for q in states}
    while True:
        sig = {
            q: (color[q],) + tuple(color[target(q, c)] for c in alphabet)
            for q in states
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new_color = {q: palette[sig[q]] for q in states}
        done = len(set(new_color.values())) == len(set(color.values()))
        color = new_color
        if done:
            break

    classes = sorted(set(color.values()))
    index = {c: i for i, c in enumerate(classes)}
    init = index[color[dfa.initial]]
    finals = frozenset(index[color[q]] for q in dfa.finals)
    trans = {}
    for (q, c), t in dfa.transitions.items():
        trans[(index[color[q]], c)] = index[color[t]]
    # drop classes whose language is empty (cannot reach a final class)
    reach_final = set(finals)
    changed = True
    while changed:
        changed = False
        for (q, _), t in trans.items():
            if t in reach_final and q not in reach_final:
                reach_final.add(q)
                changed = True
    if init not in reach_final:
        return Dfa(1, 0, {}, frozenset())
    trans = {
        (q, c): t
        for (q, c), t in trans.items()
        if q in reach_final and t in reach_final
    }
    return Dfa(len(classes), init, trans, finals).canonical()


def shift_dfa_reference(base: RealBase, variant: str) -> Dfa:
    """The shift automaton as first built: each spine edge compares the
    letter with the spine digit, and the non-canonical extra state hangs
    off the state the walk of t_1..t_{n-1} reaches."""
    word = generating_word(base, variant)
    dstar = quasi_greedy_of(word)
    m, n = len(dstar.pre), len(dstar.per)
    size = m + n
    digits = dstar.pre + dstar.per
    trans = {}
    for i in range(size):
        upper = i + 1 if i + 1 < size else m
        trans[(i, digits[i])] = upper
        for c in range(digits[i]):
            trans[(i, c)] = 0
    if variant == "noncanonical" and word.zero_tail:
        t = word.support
        q = 0
        for c in t[:-1]:
            q = trans[(q, c)]
        if (q, t[-1]) in trans:
            raise NumerationError("construction clash; expansion is not greedy")
        trans[(q, t[-1])] = size
        trans[(size, 0)] = size
        size += 1
    return Dfa(size, 0, trans, frozenset(range(size)))


def shift_member(base: RealBase, w: DigitWord, variant: str) -> bool:
    """Membership of a finite word in the factor language of the base's
    shift, straight from the suffix criterion: each suffix of w is at
    most the same-length prefix of the quasi-greedy expansion of 1
    ("canonical") or of the greedy one ("noncanonical")."""
    cls = base.parry_class(max(len(w), 1))
    if variant == "canonical":
        ref = cls.quasi_greedy
    elif variant == "noncanonical":
        ref = cls.word
    else:
        raise NumerationError(f"unknown variant {variant!r}")
    w = tuple(w)
    ref = ref.prefix(len(w)) if cls.resolved else ref
    return all(w[i:] <= ref[: len(w) - i] for i in range(len(w)))


def isomorphic_to(a: Dfa, b: Dfa) -> bool:
    """Equal canonical forms: the same automaton up to state names."""
    a, b = a.canonical(), b.canonical()
    return (
        a.num_states == b.num_states
        and a.transitions == b.transitions
        and a.finals == b.finals
    )


def floor_of(base: RealBase) -> int:
    """floor(beta) from the isolating enclosure alone, without the digit
    path: an integer inside the enclosure that is a root of the defining
    polynomial is beta itself; otherwise the enclosure is narrowed until
    both ends share their integer part."""
    width = Fraction(1)
    while True:
        enc = base.enclosure(width)
        f = math.floor(enc.hi)
        if math.floor(enc.lo) == f or pl.sign_at(base.poly, Fraction(f)) == 0:
            return f
        width /= 2


def ceil_minus_one(base: RealBase) -> int:
    """ceil(beta) - 1, the largest digit of the canonical alphabet."""
    fl = floor_of(base)
    enc = base.enclosure()
    if enc.lo == enc.hi == fl:
        return fl - 1
    return fl  # beta is not an integer, so ceil(beta) - 1 == floor(beta)


def rational_digits(q, depth: int) -> tuple[DigitWord, str]:
    """The first `depth` digits of the greedy expansion of 1 in a rational
    base q, by the plain remainder loop r <- qr - floor(qr), and the
    ParryClass kind the loop proves within them: "simple" once a remainder
    is 0, "nonsimple" once one repeats, else "unresolved"."""
    q = Fraction(q)
    digits, r, seen, kind = [], Fraction(1), {Fraction(1)}, "unresolved"
    while len(digits) < depth:
        s = q * r
        digits.append(math.floor(s))
        r = s - digits[-1]
        if kind == "unresolved":
            if r == 0:
                kind = "simple"
            elif r in seen:
                kind = "nonsimple"
            seen.add(r)
    return tuple(digits), kind


def fraction_expansion(poly: pl.IntPoly, interval, depth: int):
    """The greedy expansion of 1 of the root > 1 of `poly` in `interval`,
    by the remainder loop over Q(beta) with `Fraction` coefficients.

    Each remainder is a tuple of Fractions reduced modulo `poly`, a repeat
    is found by keying every exact remainder in a dict, and each floor is
    separated by Horner's rule over a bisected copy of the interval (a
    rational root is its degenerate interval [q, q]).  Returns (word,
    kind) in the shape of `ParryClass`: once a remainder vanishes or
    repeats, the EPWord with "simple" when it ends in zeros and
    "nonsimple" otherwise; else the first `depth` digits and
    "unresolved".
    """
    n = pl.degree(poly)
    lo, hi = Fraction(interval[0]), Fraction(interval[1])

    def bisect():
        nonlocal lo, hi
        mid = (lo + hi) / 2
        s = pl.sign_at(poly, mid)
        if s == 0:
            lo = hi = mid
        elif s == pl.sign_at(poly, lo):
            lo = mid
        else:
            hi = mid

    def times_beta(vec):
        top = vec[n - 1]
        shifted = (Fraction(0),) + vec[:-1]
        return tuple(c - top * Fraction(poly[j], poly[n]) for j, c in enumerate(shifted))

    def is_exactly(vec, m):
        c = pl.primitive((vec[0] - m,) + vec[1:])
        if not c:
            return True
        g = pl.gcd(poly, c)
        return pl.degree(g) >= 1 and pl.sign_at(g, lo) * pl.sign_at(g, hi) < 0

    def floor(vec):
        if not any(vec[1:]):
            return math.floor(vec[0]), vec[0].denominator == 1
        for _ in range(256):
            acc = Interval.point(0)
            for c in reversed(vec):
                acc = acc * Interval(lo, hi) + c
            flo, fhi = math.floor(acc.lo), math.floor(acc.hi)
            if flo == fhi:
                return flo, False
            if fhi == flo + 1 and is_exactly(vec, fhi):
                return fhi, True
            bisect()
        raise NumerationError("256 bisections did not separate a floor boundary")

    rem = (Fraction(1),) + (Fraction(0),) * (n - 1)
    seen = {rem: 0}
    digits = []
    while len(digits) < depth:
        s = times_beta(rem)
        e, exact = floor(s)
        digits.append(e)
        if exact:
            return epword(tuple(digits), (0,)), "simple"
        rem = (s[0] - e,) + s[1:]
        if rem in seen:
            j = seen[rem]
            word = epword(tuple(digits[:j]), tuple(digits[j:]))
            # a zero value with a nonzero vector (a non-minimal polynomial)
            # repeats with period 0: the expansion is finite
            return word, "simple" if word.zero_tail else "nonsimple"
        seen[rem] = len(digits)
    return tuple(digits), "unresolved"
