import itertools
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from bertrandnum import (
    NumerationError,
    RealBase,
    UnresolvedBaseError,
    base_from_expansion,
    char_poly,
    epword,
    expansion_polynomial,
    format_epword,
    is_parry_valid,
    parse_base,
    quasi_greedy_of,
)
from bertrandnum import polynomials as pl
from bertrandnum.intervals import Interval

from conftest import (
    census_sextics,
    golden_ratio,
    golden_ratio_squared,
    small_valid_expansions,
    tribonacci,
)
from oracles import (
    FractionBisection,
    ceil_minus_one,
    eval_at,
    floor_of,
    fraction_expansion,
    horner_interval,
    lex_cmp,
    poly_mul,
    rational_digits,
    shift_member,
    sturm_count,
)


def value_identity_holds(word, base) -> bool:
    """Exact oracle: sum of word_i * beta^-i equals 1.

    Clearing denominators turns the identity into "beta is a root of the
    word's recurrence polynomial", decided by locating a common root of
    that polynomial and the base's defining polynomial in the isolating
    interval.
    """
    p = expansion_polynomial(word)
    if word.zero_tail:
        p = pl.exact_div(p, (-1, 1))
    enc = base.enclosure()
    if enc.lo == enc.hi:
        # beta is exactly the rational enc.lo; no sign changes inside [q, q]
        return eval_at(p, enc.lo) == 0
    g = pl.gcd(base.poly, p)
    if pl.degree(g) < 1:
        return False
    return pl.sign_at(g, enc.lo) * pl.sign_at(g, enc.hi) < 0


# ---------------------------------------------------------------------------
# greedy expansion of 1


def test_integer_base_three():
    b = RealBase.integer(3)
    assert b.parry_class(5).word == epword((3,), (0,))
    cls = b.parry_class()
    assert cls.kind == "simple" and cls.n == 1


def test_golden_ratio_expansion():
    b = golden_ratio()
    assert b.parry_class(5).word == epword((1, 1), (0,))
    cls = b.parry_class()
    assert cls.kind == "simple" and cls.n == 2


def test_phi_squared_expansion():
    b = golden_ratio_squared()
    assert b.parry_class(5).word == epword((2,), (1,))
    cls = b.parry_class()
    assert cls.kind == "nonsimple" and (cls.m, cls.n) == (1, 1)


def test_tribonacci_expansion():
    b = tribonacci()
    assert b.parry_class(8).word == epword((1, 1, 1), (0,))


@pytest.mark.parametrize("spec", ["rat:5/2", "poly:2,-5@(1,3)"])
def test_rational_base_is_not_parry(spec):
    # a Parry number is an algebraic integer, so a non-integer rational
    # base is decided at once; the digit prefix is kept
    b = parse_base(spec)
    cls = b.parry_class(40)
    assert cls.kind == "not_parry" and not cls.resolved
    assert cls.describe() == "not Parry (non-integer rational base)"
    assert cls.word == rational_digits(Fraction(5, 2), 40)[0]
    assert cls.word[:4] == (2, 1, 0, 1)
    with pytest.raises(NumerationError, match="not a Parry number") as err:
        b.require_parry(40)
    assert not isinstance(err.value, UnresolvedBaseError)


def test_digits_prefix_extends_monotonically():
    b = RealBase.rational(Fraction(5, 2))
    first = b.digits_prefix(10)
    longer = b.digits_prefix(25)
    assert longer[:10] == first


# ---------------------------------------------------------------------------
# quasi-greedy expansion


def test_quasi_greedy_base_three():
    assert RealBase.integer(3).parry_class(5).quasi_greedy == epword((), (2,))


def test_quasi_greedy_golden_ratio():
    assert golden_ratio().parry_class(5).quasi_greedy == epword((), (1, 0))


def test_quasi_greedy_phi_squared_unchanged():
    assert golden_ratio_squared().parry_class(5).quasi_greedy == epword((2,), (1,))


@pytest.mark.parametrize(
    "base",
    [RealBase.integer(2), RealBase.integer(3), golden_ratio(), golden_ratio_squared(), tribonacci()],
    ids=["2", "3", "phi", "phi2", "tribonacci"],
)
def test_quasi_greedy_is_the_other_expansion_of_one(base):
    # the quasi-greedy word is pinned down by three exact facts: it has no
    # zero tail, all its shifts are dominated non-strictly, and it also
    # represents 1
    dstar = base.parry_class().quasi_greedy
    assert not dstar.zero_tail
    assert is_parry_valid(dstar, strict=False)
    assert value_identity_holds(dstar, base)


def test_quasi_greedy_unresolved_returns_prefix():
    b = RealBase.rational(Fraction(5, 2))
    assert b.parry_class(10).quasi_greedy == b.digits_prefix(10)


def test_parry_class_quasi_greedy_property():
    # resolved: the quasi-greedy companion of the greedy word
    cls = RealBase.integer(3).parry_class(5)
    assert cls.word == epword((3,), (0,))
    assert cls.quasi_greedy == epword((), (2,)) == quasi_greedy_of(cls.word)
    # non-simple: the greedy word itself
    cls = golden_ratio_squared().parry_class()
    assert cls.quasi_greedy == cls.word == epword((2,), (1,))
    # unresolved: the digit prefix, exactly `depth` long
    cls = RealBase.rational(Fraction(5, 2)).parry_class(12)
    assert not cls.resolved
    assert cls.quasi_greedy == cls.word == rational_digits(Fraction(5, 2), 12)[0]


@pytest.mark.parametrize("depth", [0, -2])
def test_depth_out_of_range_rejected(depth):
    # an unresolved base must not slice from the end of its digit list
    b = RealBase.rational(Fraction(5, 2))
    b.digits_prefix(10)
    for read in (b.parry_class, b.digits_prefix, b.require_parry):
        with pytest.raises(NumerationError, match="depth must be >= 1"):
            read(depth)


# ---------------------------------------------------------------------------
# recovering the base from its expansion


def test_base_from_expansion_integer():
    b = base_from_expansion(epword((3,), (0,)))
    assert b.kind == "integer" and b.value == 3


def test_base_from_expansion_golden():
    b = base_from_expansion(epword((1, 1), (0,)))
    assert b.poly == (-1, -1, 1)
    assert b.parry_class().word == epword((1, 1), (0,))


def test_base_from_expansion_phi_squared():
    b = base_from_expansion(epword((2,), (1,)))
    assert b.poly == (1, -3, 1)
    enc = b.enclosure(Fraction(1, 100))
    assert enc.lo > 2 and enc.hi < 3
    assert b.parry_class().word == epword((2,), (1,))


def test_base_from_expansion_rejects_degenerate():
    with pytest.raises(NumerationError):
        base_from_expansion(epword((1,), (0,)))  # would be base 1
    with pytest.raises(NumerationError):
        base_from_expansion(epword((0, 1), (0,)))  # leading zero
    with pytest.raises(NumerationError):
        base_from_expansion(epword((1, 0), (1,)))  # not shift-dominated


def fresh_engine(base: RealBase) -> RealBase:
    """The same base on its current enclosure with no digits and nothing
    resolved: its engine must find the expansion of 1 itself."""
    enc = base.enclosure()
    return RealBase(base.poly, (enc.lo, enc.hi))


def test_base_from_expansion_roundtrip_enumerated():
    # every strict Parry word of up to 6 letters over 0..3: a fresh engine
    # finds it within m + n digits, and the base recovered from the word
    # starts with that answer, at every depth
    words = list(small_valid_expansions(max_total=6))
    assert len(words) > 3000
    for w in words:
        seeded = base_from_expansion(w)
        want = fresh_engine(seeded).parry_class(len(w.pre) + len(w.per) + 1)
        assert want.word == w, w
        assert seeded.parry_class(1) == want == seeded.parry_class(), w
        assert seeded._digits == []  # the engine never ran


@st.composite
def longer_parry_words(draw):
    """A strict Parry word of 7 to 14 letters over 0..4 whose later letters
    are at most its first."""
    first = draw(st.integers(1, 4))
    letters = (first,) + tuple(draw(st.lists(st.integers(0, first), min_size=6, max_size=13)))
    m = draw(st.integers(1, len(letters) - 1))
    w = epword(letters[:m], letters[m:])
    assume(len(w.pre) + len(w.per) >= 7 and is_parry_valid(w, True))
    return w


@settings(deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(longer_parry_words())
def test_engine_finds_a_longer_parry_word(w):
    # the unseeded engine on the interval `base_from_expansion` uses finds
    # w within m + n + 1 digits, as does the Fraction loop
    base = RealBase.algebraic(char_poly(w, "canonical"), (1, w.digit(0) + 2))
    enc = base.enclosure()
    depth = len(w.pre) + len(w.per) + 1
    cls = base.parry_class(depth)
    assert cls.word == w
    assert fraction_expansion(base.poly, (enc.lo, enc.hi), depth) == (w, cls.kind)


def test_a_long_parry_word_needs_no_depth():
    # the engine finds 2 1^70 (0) only at digit 71, past the default depth 64
    w = epword((2,) + (1,) * 70, (0,))
    base = parse_base(f"parry:{format_epword(w)}")
    assert fresh_engine(base).parry_class().kind == "unresolved"
    assert base.require_parry() == w
    assert base.digits_prefix(100) == w.prefix(100)


# ---------------------------------------------------------------------------
# invariants of the digit path


@pytest.mark.parametrize(
    "base",
    [RealBase.integer(2), RealBase.integer(5), golden_ratio(), golden_ratio_squared(), tribonacci(), RealBase.rational(Fraction(7, 3))],
    ids=["2", "5", "phi", "phi2", "tribonacci", "7/3"],
)
def test_digit_bounds(base):
    digits = base.digits_prefix(40)
    assert digits[0] == floor_of(base)
    assert all(0 <= d <= floor_of(base) for d in digits)


@pytest.mark.parametrize(
    "base",
    [RealBase.integer(2), RealBase.integer(3), golden_ratio(), golden_ratio_squared(), tribonacci()],
    ids=["2", "3", "phi", "phi2", "tribonacci"],
)
def test_resolved_expansions_are_valid(base):
    d = base.require_parry()
    dstar = base.parry_class().quasi_greedy
    assert is_parry_valid(d, strict=True)
    assert is_parry_valid(dstar, strict=False)
    # the quasi-greedy word never exceeds the greedy one, with equality
    # exactly when the expansion of 1 is infinite
    assert lex_cmp(dstar, d) <= 0
    assert (lex_cmp(dstar, d) == 0) == (not d.zero_tail)


def test_floor_and_ceil_helpers():
    # the integer part of beta is the first greedy digit
    assert RealBase.integer(3).digits_prefix(1) == (3,)
    assert floor_of(RealBase.integer(3)) == 3
    assert ceil_minus_one(RealBase.integer(3)) == 2
    assert golden_ratio().digits_prefix(1) == (1,)
    assert floor_of(golden_ratio()) == 1
    assert ceil_minus_one(golden_ratio()) == 1
    assert ceil_minus_one(golden_ratio_squared()) == 2
    assert ceil_minus_one(RealBase.rational(Fraction(5, 2))) == 2


# ---------------------------------------------------------------------------
# membership in the factor languages of the shifts


def test_shift_member_base_three():
    b = RealBase.integer(3)
    assert shift_member(b, (2, 3), "canonical") is False
    assert shift_member(b, (2, 2), "canonical") is True
    assert shift_member(b, (3, 0), "noncanonical") is True


def test_shift_member_golden():
    b = golden_ratio()
    assert shift_member(b, (1, 1), "canonical") is False
    assert shift_member(b, (1, 1), "noncanonical") is True


def test_shift_member_bruteforce_cross_check():
    # factors of the canonical shift of base 3 up to length 2 via brute force
    b = RealBase.integer(3)
    dstar = (2, 2)
    expected = {w for w in itertools.product(range(4), repeat=2) if all(
        w[i:] <= dstar[: 2 - i] for i in range(2)
    )}
    got = {w for w in itertools.product(range(4), repeat=2) if shift_member(b, w, "canonical")}
    assert got == expected


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_base_forms():
    assert parse_base("int:3").value == 3
    assert parse_base("rat:5/2").value == Fraction(5, 2)
    assert parse_base("rat:6/2").kind == "integer"
    b = parse_base("poly:1,-1,-1@(1,2)")
    assert b.poly == (-1, -1, 1)
    assert parse_base("parry:11(0)").parry_class().word == epword((1, 1), (0,))


def test_parse_base_bad_tokens():
    for text in ["unknown:1", "int:x", "rat:0/1", "poly:1,-1,-1@(1;2)", "poly:1,0@(0,2)"]:
        with pytest.raises(NumerationError):
            parse_base(text)


@pytest.mark.parametrize(
    "coeffs,interval,message",
    [
        ((5,), (1, 2), "polynomial must be nonconstant"),
        ((-1, -1, 1), (2, 1), "bad isolating interval"),
        ((2, -3, 1), (1, 3), "endpoints must not be roots"),
        ((-1, -1, 1), (2, 3), "does not isolate exactly one root"),
        ((2, -3, 1), (Fraction(1, 2), Fraction(5, 2)), "does not isolate exactly one root"),
        # x^3 - 5x^2 + 7x - 2 has roots ~0.35, 2 and ~2.65
        ((-2, 7, -5, 1), (Fraction(1, 4), 3), "does not isolate exactly one root"),
        ((1, -3, 1), (0, 1), "isolated root is not > 1"),
        ((1, -3, 1), (0, Fraction(3, 2)), "isolated root is not > 1"),
        ((3, -4, 1), (0, 2), "isolated root is not > 1"),
        ((-1, 1), (Fraction(1, 2), 2), "isolated root is not > 1"),
    ],
)
def test_algebraic_rejects_bad_intervals(coeffs, interval, message):
    with pytest.raises(NumerationError, match=message):
        RealBase.algebraic(coeffs, interval)


def _counted_intervals(monkeypatch, build) -> list:
    """(p, lo, hi, count) for every Sturm count that `build()` makes, p
    the first member of the chain counted on."""
    calls, count = [], pl.count_roots

    def spy(chain, lo, hi):
        calls.append((chain[0], lo, hi, count(chain, lo, hi)))
        return calls[-1][-1]

    monkeypatch.setattr(pl, "count_roots", spy)
    build()
    return calls


def test_census_isolating_intervals_count_one_root(monkeypatch):
    specs = census_sextics()
    calls = _counted_intervals(monkeypatch, lambda: [parse_base(s) for s in specs])
    assert len(calls) == len(specs) == 1080
    assert all(n == 1 == sturm_count(p, lo, hi) for p, lo, hi, n in calls)


def test_parry_word_isolating_intervals_count_one_root(monkeypatch):
    # every word of up to 5 letters over 0..3, finite or with a period
    words = {
        epword(w[:k], w[k:] or (0,))
        for n in range(1, 6)
        for w in itertools.product(range(4), repeat=n)
        for k in range(n + 1)
    }
    bases = []

    def build():
        for w in words:
            try:
                bases.append(parse_base(f"parry:{format_epword(w)}"))
            except NumerationError:
                pass

    # every base goes through `RealBase.algebraic`, the integer words
    # 2(0) and 3(0) too
    calls = _counted_intervals(monkeypatch, build)
    assert len(calls) == len(bases) > 100
    assert sorted(b.source for b in bases if b.kind != "algebraic") == ["parry:2(0)", "parry:3(0)"]
    assert all(n == 1 == sturm_count(p, lo, hi) for p, lo, hi, n in calls)


def test_algebraic_validation():
    # non-square-free input is normalized and still works
    sq = poly_mul((-1, -1, 1), (-1, -1, 1))
    b = RealBase.algebraic(sq, (1, 2))
    assert b.parry_class().word == epword((1, 1), (0,))


@pytest.mark.parametrize("b", [2.5, 3.0, True, "3"])
def test_integer_base_rejects_a_non_integer(b):
    with pytest.raises(NumerationError, match="integer base must be an integer"):
        RealBase.integer(b)


def test_integer_detected_through_polynomial():
    # x^2 - 3x + 2 has roots 1 and 2; the isolating interval picks out 2,
    # and the expansion machinery must identify the exact integer
    b = RealBase.algebraic((2, -3, 1), (Fraction(3, 2), 3))
    assert b.parry_class(5).word == epword((2,), (0,))


def test_reducible_polynomial_with_algebraic_root():
    # (x-2)(x^2-x-1): isolate the golden ratio between the rational roots
    p = poly_mul((-2, 1), (-1, -1, 1))
    b = RealBase.algebraic(p, (Fraction(3, 2), Fraction(7, 4)))
    assert b.parry_class().word == epword((1, 1), (0,))


def test_rational_root_through_polynomial_matches_fraction_path():
    # (2x-3)(x-2): the isolated root is exactly 3/2, found by the rational
    # root probe although no bisection midpoint is 3/2, so the base is
    # rat:3/2 and its digits are the plain Fraction remainder loop's
    a = RealBase.algebraic((6, -7, 2), (Fraction(7, 5), Fraction(8, 5)))
    assert (a.kind, a.value, a.source) == ("rational", Fraction(3, 2), "rat:3/2")
    expected, _ = rational_digits(Fraction(3, 2), 30)
    assert a.digits_prefix(30) == expected
    assert a.digits_prefix(30)[:4] == (1, 0, 1, 0)
    assert a.parry_class(30).kind == "not_parry"
    c = parse_base("poly:2,-7,6@(7/5,8/5)")
    assert c.digits_prefix(15) == expected[:15]


@pytest.mark.parametrize(
    "q",
    [2, 3, 4, 5, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3), Fraction(10, 3)],
    ids=str,
)
def test_exact_base_matches_fraction_loop(q):
    # integer and rational bases run through the Q(beta) engine as
    # degree-1 elements; the plain Fraction loop is the oracle
    base = RealBase.rational(q)
    digits, kind = rational_digits(q, 40)
    assert base.digits_prefix(40) == digits
    if base.kind == "rational":
        # the loop never sees a repeat, and the base is certified not Parry
        assert kind == "unresolved"
        kind = "not_parry"
    assert base.parry_class(40).kind == kind


def test_refinement_budget_is_an_explicit_error(monkeypatch):
    import bertrandnum.realbase as rb

    monkeypatch.setattr(rb, "REFINEMENT_BUDGET", 0)
    base = RealBase.algebraic((-1, -1, 1), (1, 2))
    with pytest.raises(rb.RefinementBudgetError):
        base.digits_prefix(4)
    # exact bases have a degenerate enclosure and never refine
    assert RealBase.integer(3).digits_prefix(1) == (3,)
    assert RealBase.integer(3).digits_prefix(4) == (3, 0, 0, 0)
    assert RealBase.rational(Fraction(5, 2)).digits_prefix(1) == (2,)
    assert RealBase.rational(Fraction(5, 2)).digits_prefix(4) == (2, 1, 0, 1)


# ---------------------------------------------------------------------------
# the remainder engine against the Fraction loop, and its repeat index


def rational_roots_in(poly, lo: Fraction, hi: Fraction):
    """Every rational root of poly in [lo, hi], by trying each k/d with d
    dividing the leading coefficient (the rational root theorem)."""
    lead = poly[-1]
    roots = set()
    for d in range(1, abs(lead) + 1):
        if lead % d == 0:
            for k in range(math.ceil(lo * d), math.floor(hi * d) + 1):
                if pl.sign_at(poly, Fraction(k, d)) == 0:
                    roots.add(Fraction(k, d))
    return roots


def oracle_class(base: RealBase, depth: int):
    """(word, kind) of the Fraction loop, with the certificate a
    non-integer rational base gets, whatever the degree of its polynomial."""
    enc = base.enclosure()
    word, kind = fraction_expansion(base.poly, (enc.lo, enc.hi), depth)
    rational = rational_roots_in(base.poly, enc.lo, enc.hi)
    if kind == "unresolved" and any(q.denominator > 1 for q in rational):
        kind = "not_parry"
    return word, kind


@st.composite
def isolated_roots(draw):
    """A primitive quadratic or cubic, mostly non-monic, and an interval
    isolating its greatest root, which exceeds 1; or a rational > 1."""
    if draw(st.integers(0, 4)) == 0:
        q = Fraction(draw(st.integers(2, 40)), draw(st.integers(1, 9)))
        assume(q > 1)
        return (-q.numerator, q.denominator), (q, q)
    deg = draw(st.integers(2, 3))
    low = draw(st.lists(st.integers(-6, 6), min_size=deg, max_size=deg))
    p = pl.squarefree_chain(tuple(low) + (draw(st.integers(1, 5)),))[0]
    assume(pl.degree(p) >= 1 and pl.sign_at(p, 1) != 0)
    lo, hi = Fraction(1), Fraction(1 + sum(abs(c) for c in p))
    chain = pl.sturm_chain(p)
    assume(pl.count_roots(chain, lo, hi) >= 1)
    while pl.count_roots(chain, lo, hi) > 1:
        mid = (lo + hi) / 2
        while pl.sign_at(p, mid) == 0:
            mid += (hi - mid) / 3
        if pl.count_roots(chain, mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return p, (lo, hi)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(isolated_roots(), st.integers(1, 120))
# 3/2 as a root of (2X - 3)(X + 1): rational, though its polynomial is not linear
@example(((-3, -1, 2), (Fraction(1), Fraction(7))), 1)
def test_engine_matches_fraction_loop(root, depth):
    # a non-monic p gives remainders with a denominator > 1
    p, (lo, hi) = root
    base = RealBase.rational(lo) if lo == hi else RealBase.algebraic(p, (lo, hi))
    cls = base.parry_class(depth)
    assert (cls.word, cls.kind) == oracle_class(base, depth)


def test_non_monic_example_matches_fraction_loop():
    # 2X^2 - 5X + 1: beta = (5 + sqrt 17)/4 is not an algebraic integer
    base = parse_base("poly:2,-5,1@(1,3)")
    cls = base.parry_class(200)
    assert cls.kind == "unresolved"
    assert base._rem[-1] > 1  # the remainders carry a denominator
    assert (cls.word, cls.kind) == oracle_class(base, 200)


def test_census_matches_fraction_loop():
    specs = census_sextics()[::27]
    assert len(specs) == 40
    for spec in specs:
        cls = parse_base(spec).parry_class(2000)
        assert (cls.word, cls.kind) == oracle_class(parse_base(spec), 2000), spec


CENSUS_SEED = Path(__file__).resolve().parent.parent / "bench" / "census_seed.json"


def test_census_keeps_the_seed_record():
    # every sextic of the census keeps the kind, m and n recorded in
    # bench/census_seed.json at its depth 11000
    record = json.loads(CENSUS_SEED.read_text())
    rows, specs = record["rows"], census_sextics()
    assert record["depth"] == 11000 and len(rows) == len(specs) == 1080
    for row, spec in zip(rows, specs):
        a, b, c = row["abc"]
        assert spec.startswith(f"poly:1,{a},{b},{c},{b},{a},1@"), (row, spec)
        cls = parse_base(spec).parry_class(11000)
        assert (cls.kind, cls.m, cls.n) == (row["kind"], row["m"], row["n"]), spec


UNRESOLVED_SEXTIC = "poly:1,-3,-1,-7,-1,-3,1@(1,8)"


def collision_cases():
    yield "phi", golden_ratio, 64
    yield "phi2", golden_ratio_squared, 64
    yield "tribonacci", tribonacci, 64
    yield "7/3", lambda: parse_base("rat:7/3"), 64
    for w in small_valid_expansions(max_total=4):
        yield str(w), lambda w=w: fresh_engine(base_from_expansion(w)), 64
    for spec in (census_sextics()[0], "poly:1,-6,-2,7,-2,-6,1@(1,8)", UNRESOLVED_SEXTIC):
        yield spec, lambda spec=spec: parse_base(spec), 300


def test_constant_fingerprint_changes_no_answer(monkeypatch):
    # every remainder then shares one key, so each step is confirmed
    # against all earlier ones; a false match would resolve early, and a
    # dropped index would hide a later repeat
    import bertrandnum.realbase as rb

    cases = list(collision_cases())
    assert len(cases) > 40
    expected = [make().parry_class(depth) for _, make, depth in cases]
    assert {c.kind for c in expected} == {"simple", "nonsimple", "unresolved", "not_parry"}
    monkeypatch.setattr(rb, "_fingerprint", lambda rem: 0)
    for (name, make, depth), want in zip(cases, expected):
        assert make().parry_class(depth) == want, name


def test_coarse_fingerprint_changes_no_answer(monkeypatch):
    # seven keys: 0, stored as 1, and six multiples of 256 that all start
    # their probe in slot 0, so a long case meets probe chains, collisions
    # and the table's doubling from 8 to 16 slots together
    import bertrandnum.realbase as rb

    cases = list(collision_cases())
    expected = [make().parry_class(depth) for _, make, depth in cases]
    monkeypatch.setattr(rb, "_fingerprint", lambda rem: hash(rem) % 7 << 8)
    for (name, make, depth), want in zip(cases, expected):
        assert make().parry_class(depth) == want, name


def test_one_exact_zero_test_per_floor(monkeypatch):
    # the answer of _is_exactly is the same on every cell, so a floor asks
    # it at most once however many bisections it takes
    import bertrandnum.realbase as rb

    floor_vec, is_exactly = rb.RealBase._floor_vec, rb.RealBase._is_exactly
    tests = []  # _is_exactly calls per _floor_vec

    def counted_floor(self, s):
        tests.append(0)
        return floor_vec(self, s)

    def counted_test(self, s, m):
        tests[-1] += 1
        return is_exactly(self, s, m)

    monkeypatch.setattr(rb.RealBase, "_floor_vec", counted_floor)
    monkeypatch.setattr(rb.RealBase, "_is_exactly", counted_test)
    for spec in census_sextics()[::27]:
        parse_base(spec).parry_class(2000)
    for _, make, depth in collision_cases():
        make().parry_class(depth)
    assert max(tests) == 1
    assert sum(tests) > 100


def test_repeat_table_doubles_at_half_full():
    base = parse_base(UNRESOLVED_SEXTIC)
    for depth in (1, 3, 4, 50, 300):
        base.parry_class(depth)
        filled = sum(1 for key in base._seen if key)
        assert filled == base._nseen == depth + 1  # r_0 .. r_depth
        # the least power of two from 8 up that is at least twice as large
        assert len(base._seen) == max(8, 1 << (2 * filled - 1).bit_length())


def test_true_fingerprint_collision_is_not_a_repeat():
    # 2X^3 - 4X^2 + 1: after 12 and 13 digits the remainders are
    # (-1 - 2 beta + 2 beta^2)/16 and (-1 - beta + 2 beta^2)/16, which
    # differ by beta/16 and, as hash(-1) == hash(-2), share a fingerprint
    base = parse_base("poly:2,-4,0,1@(1,8)")
    r12, r13 = (-1, -2, 2, 16), (-1, -1, 2, 16)
    assert hash(r12) == hash(r13) and r12 != r13
    cls = base.parry_class(120)
    assert base._seen.count(hash(r12)) == 1  # recorded once, for both
    assert cls.kind == "unresolved"
    assert (cls.word, cls.kind) == oracle_class(base, 120)


# ---------------------------------------------------------------------------
# the integer bisection of the enclosure against the Fraction bisection

# one-level steps (None) interleaved with refinements below a width; the
# 1/16 request is already met and bisects nothing
BISECTION_SCHEDULE = (
    None, Fraction(1, 2**8), None, None, Fraction(1, 10**12), Fraction(1, 16),
    None, Fraction(1, 2**60), None,
)


def assert_bisection_matches_reference(base: RealBase):
    enc = base.enclosure()
    ref = FractionBisection(base.poly, enc.lo, enc.hi)
    for step in BISECTION_SCHEDULE:
        if step is None:
            base._bisect(1)
            ref.bisect()
        else:
            base.enclosure(step)
            ref.enclosure(step)
        enc = base.enclosure()
        assert (enc.lo, enc.hi) == (ref.lo, ref.hi), (base, step)


def test_bisection_matches_fraction_reference_on_census():
    specs = census_sextics()[::27]
    for spec in specs:
        assert_bisection_matches_reference(parse_base(spec))


def test_bisection_matches_fraction_reference_on_small_words():
    words = list(small_valid_expansions(max_total=4))
    assert len(words) > 40
    for w in words:
        assert_bisection_matches_reference(base_from_expansion(w))
    assert_bisection_matches_reference(parse_base("poly:2,-3,-1@(1,2)"))


CELL_BASES = (
    *census_sextics()[::135],
    UNRESOLVED_SEXTIC,
    "poly:2,-5,1@(1,3)",  # non-monic, remainders over D > 1
    "poly:2,-4,0,1@(1,8)",  # non-monic and unresolved
    "poly:1,-8,16,-5@(4,6)",  # the root 5, an integer base
    "poly:2,-3,-1@(1,2)",
    "rat:7/3",
    "parry:2(1)",
    "parry:1(10)",
)

cell_requests = st.lists(
    st.tuples(st.just("depth"), st.integers(1, 400))
    | st.tuples(st.just("width"), st.integers(1, 90).map(lambda k: Fraction(1, 2**k)))
    | st.tuples(st.just("width"), st.integers(1, 25).map(lambda k: Fraction(1, 10**k))),
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(CELL_BASES), requests=cell_requests)
def test_integer_cell_is_the_fraction_bisection_at_its_level(spec, requests):
    # after any mix of digits and enclosure requests, the cell (a, b, den)
    # is the Fraction bisection's cell at the level reached, over a
    # denominator that doubled once per level; a "parry:" base's engine
    # runs from a fresh base on the same interval
    base = parse_base(spec)
    if spec.startswith("parry:"):
        base = fresh_engine(base)
    den0 = base._den
    enc = base.enclosure()
    ref, ref_level = FractionBisection(base.poly, enc.lo, enc.hi), 0
    for what, x in requests:
        if what == "depth":
            base.parry_class(x)
        else:
            base.enclosure(x)
        for _ in range(base._level - ref_level):
            ref.bisect()
        ref_level = base._level
        assert base._den == den0 << base._level
        assert (Fraction(base._a, base._den), Fraction(base._b, base._den)) == (ref.lo, ref.hi)
        assert base.enclosure() == Interval(ref.lo, ref.hi)


def test_rational_midpoint_collapses_the_enclosure():
    # (X - 5)(X^2 - 3X + 1): the first midpoint of (4, 6) is the root 5,
    # which the rational root probe finds, so the enclosure is the point 5
    base = parse_base("poly:1,-8,16,-5@(4,6)")
    assert base.source == "int:5"
    assert_bisection_matches_reference(base)
    enc = base.enclosure(Fraction(1, 10**12))
    assert enc.lo == enc.hi == 5


# ---------------------------------------------------------------------------
# the integer Horner ends against the Fraction interval Horner


@settings(max_examples=300, deadline=None)
@given(
    coeffs=st.lists(st.integers(-(10**6), 10**6) | st.just(0), min_size=1, max_size=8),
    a=st.integers(1, 2**40),
    width=st.integers(0, 2**40),
    level=st.integers(0, 60),
    den=st.integers(1, 50),
)
@example(coeffs=[1, 2, 3], a=1, width=2, level=0, den=1)  # nonnegative throughout
@example(coeffs=[-1, -2, -3], a=1, width=2, level=0, den=1)  # nonpositive throughout
@example(coeffs=[0, -2, 1], a=1, width=2, level=0, den=1)  # [-1, 1] straddles 0
def test_integer_ends_equal_the_fraction_horner(coeffs, a, width, level, den):
    base = parse_base("poly:1,-1,-1@(1,2)")
    base._a, base._b, base._den = a, a + width, 2**level
    p, q, scale = base._eval_ends(tuple(coeffs) + (den,))
    ref = horner_interval(coeffs, Interval(Fraction(a, 2**level), Fraction(a + width, 2**level)))
    assert (Fraction(p, scale), Fraction(q, scale)) == (ref.lo, ref.hi)
    assert (p // (scale * den), q // (scale * den)) == (ref.lo // den, ref.hi // den)


def test_fraction_horner_in_the_engine_changes_nothing(monkeypatch):
    # the engine with the reference in place of its integer ends finds the
    # same digits and bisects to the same final cell; the non-monic base
    # has remainders over a denominator D > 1
    import bertrandnum.realbase as rb

    specs = census_sextics()[::27] + ("poly:2,-5,1@(1,3)",)
    expected = []
    for spec in specs:
        base = parse_base(spec)
        expected.append((base.parry_class(2000), base.enclosure()))

    def reference_ends(self, s):
        enc = horner_interval(s[:-1], self.enclosure())
        scale = math.lcm(enc.lo.denominator, enc.hi.denominator)
        return int(enc.lo * scale), int(enc.hi * scale), scale

    monkeypatch.setattr(rb.RealBase, "_eval_ends", reference_ends)
    for spec, want in zip(specs, expected):
        base = parse_base(spec)
        assert (base.parry_class(2000), base.enclosure()) == want, spec


@pytest.mark.parametrize("width", [0, -1, Fraction(-1, 3)], ids=str)
@pytest.mark.parametrize("spec", ["poly:1,-1,-1@(1,2)", "int:3"])
def test_enclosure_rejects_nonpositive_width(spec, width):
    with pytest.raises(NumerationError, match="width must be > 0"):
        parse_base(spec).enclosure(width)


def test_expansion_memory_per_digit():
    # the repeat table keeps one 64-bit fingerprint per digit, not the
    # remainder itself (a dict of Fraction remainders took about 535 B)
    base = parse_base(UNRESOLVED_SEXTIC)
    tracemalloc.start()
    try:
        cls = base.parry_class(1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cls.kind == "unresolved"
    assert peak / 1000 < 300


def test_repeat_table_memory_per_digit():
    # what the base keeps per digit: the repeat table 16 to 32 bytes for a
    # 64-bit fingerprint, the digit list about 9; a dict from fingerprint
    # to index took about 129 B per digit over the same depths.  The
    # digit tuple each answer returns is dropped before it is measured.
    base = parse_base(UNRESOLVED_SEXTIC)
    tracemalloc.start()
    try:
        base.parry_class(2000)
        before, _ = tracemalloc.get_traced_memory()
        kind = base.parry_class(6000).kind
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kind == "unresolved"
    assert (after - before) / 4000 <= 48
