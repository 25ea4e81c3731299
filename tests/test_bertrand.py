import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bertrandnum import (
    NumSys,
    NumerationError,
    RealBase,
    UnresolvedBaseError,
    build_bertrand,
    build_shift_dfa,
    char_poly,
    classify_bertrand,
    epword,
    generating_word,
    parse_base,
    renewal_target,
    verify_counting_identity,
)
from bertrandnum.cli import main

from conftest import golden_ratio, golden_ratio_squared, load_system, system_jsons, tribonacci
from oracles import (
    bertrand_violations,
    ceil_minus_one,
    certify_generating_word,
    floor_of,
    letter_bound,
    poly_divides,
    recurrence_from_char_poly,
    shift_member,
)

PARRY_BASES = {
    "2": (RealBase.integer, (2,)),
    "3": (RealBase.integer, (3,)),
    "phi": (golden_ratio, ()),
    "phi2": (golden_ratio_squared, ()),
    "tribonacci": (tribonacci, ()),
}


def make_base(name):
    fn, args = PARRY_BASES[name]
    return fn(*args)


# ---------------------------------------------------------------------------
# building the systems


def test_build_golden_ratio_both_variants(phi):
    assert build_bertrand(phi, "canonical").values(6) == [1, 2, 3, 5, 8, 13]
    assert build_bertrand(phi, "noncanonical").values(6) == [1, 2, 4, 7, 12, 20]


def test_build_base3_noncanonical():
    s = build_bertrand(RealBase.integer(3), "noncanonical")
    assert s.values(4) == [1, 4, 13, 40]


def test_build_integer_canonical_is_powers():
    s = build_bertrand(RealBase.integer(3), "canonical")
    assert s.values(5) == [1, 3, 9, 27, 81]


def test_build_nonsimple_variants_coincide(phi2, capsys):
    u = build_bertrand(phi2, "canonical")
    v = build_bertrand(phi2, "noncanonical")
    assert u.values(20) == v.values(20)
    assert main(["build", "--beta", phi2.source, "--variant", "noncanonical"]) == 0
    assert "note: coincides with the canonical system" in capsys.readouterr().err
    # the variants coincide exactly when the expansion of 1 is infinite
    assert not phi2.require_parry().zero_tail
    assert golden_ratio().require_parry().zero_tail


def test_build_rejects_unresolved():
    from fractions import Fraction

    with pytest.raises(NumerationError):
        build_bertrand(RealBase.rational(Fraction(5, 2)), "canonical")


# a census Salem sextic whose expansion of 1 has m=1, n=67
SALEM_N67 = "poly:1,-6,-2,7,-2,-6,1@(1,8)"


def test_build_uses_the_resolution_the_base_keeps():
    base = parse_base(SALEM_N67)
    with pytest.raises(UnresolvedBaseError):
        build_bertrand(base, "canonical")
    base.require_parry(100)
    cls = base.parry_class()  # the default depth now reads the kept resolution
    assert (cls.kind, cls.m, cls.n) == ("nonsimple", 1, 67)
    for variant in ("canonical", "noncanonical"):
        assert build_bertrand(base, variant).values(5) == [1, 7, 43, 264, 1624]


@pytest.mark.parametrize("name", list(PARRY_BASES), ids=list(PARRY_BASES))
@pytest.mark.parametrize("variant", ["canonical", "noncanonical"])
def test_recurrence_residual_is_one(name, variant):
    # U(i) - sum a_j U(i-j) = 1 for the generating word a
    base = make_base(name)
    s = build_bertrand(base, variant)
    assert rule_residuals(s, 31) == [1] * 31


def rule_residuals(s: NumSys, count: int) -> list:
    """U(i) - sum_{1 <= j <= i} a_j U(i-j) for i < count, a the word of
    the system's BertrandRule, read from the values and the letters
    alone."""
    word, u = s.generator.word, s.values(count)
    return [u[i] - sum(word.digit(j - 1) * u[i - j] for j in range(1, i + 1))
            for i in range(count)]


@st.composite
def rule_words(draw):
    """Eventually periodic words with up to 8 preperiod and 8 period
    letters over 0..9 and a nonzero first letter, Parry-valid or not."""
    pre = draw(st.lists(st.integers(0, 9), max_size=8))
    per = draw(st.lists(st.integers(0, 9), min_size=1, max_size=8))
    assume((pre or per)[0] >= 1)
    return epword(pre, per)


@settings(max_examples=100, deadline=None)
@given(rule_words())
@example(epword((1, 2), (0,)))  # 12(0), whose shift 2(0) is above it
@example(epword((), (9, 0, 0, 0, 0, 0, 0, 9)))
def test_rule_residual_is_one(word):
    # the values the generating function gives obey the rule itself,
    # U(i) = a_1 U(i-1) + ... + a_i U(0) + 1, for 200 values
    assert rule_residuals(NumSys.from_word(word), 200) == [1] * 200


@st.composite
def recurrences(draw):
    """Recurrences of order 1 to 4 with an addend, at least as many
    strictly increasing initial values as the order, and values that
    increase."""
    order = draw(st.integers(1, 4))
    initial = [1]
    for _ in range(draw(st.integers(order, order + 3)) - 1):
        initial.append(initial[-1] + draw(st.integers(1, 20)))
    coeffs = [draw(st.integers(1, 3))] + draw(
        st.lists(st.integers(-1, 3), min_size=order - 1, max_size=order - 1))
    try:
        s = NumSys.from_recurrence(initial, coeffs, draw(st.integers(-2, 5)))
        s.u(200)
    except NumerationError:
        assume(False)
    return s


@settings(max_examples=100, deadline=None)
@given(recurrences())
def test_recurrence_residual_is_the_addend(s):
    # past the initial values, U(i) - sum c_j U(i-j) is the addend
    g = s.generator
    u = s.values(200)
    assert u[: len(g.initial)] == list(g.initial)
    for i in range(len(g.initial), 200):
        residual = u[i] - sum(c * u[i - j] for j, c in enumerate(g.coeffs, 1))
        assert residual == g.addend


@pytest.mark.parametrize("name", list(PARRY_BASES), ids=list(PARRY_BASES))
def test_alphabet_claims(name):
    base = make_base(name)
    canonical = build_bertrand(base, "canonical")
    noncanonical = build_bertrand(base, "noncanonical")
    # the members up to length 10 use exactly the letters 0..ceil(beta) - 1
    # (canonical) and 0..floor(beta) (non-canonical)
    assert letter_bound(canonical, 10) == ceil_minus_one(base)
    assert letter_bound(noncanonical, 10) == floor_of(base)
    assert max(canonical.lex_max(10)) == ceil_minus_one(base)
    assert max(noncanonical.lex_max(10)) == floor_of(base)


# ---------------------------------------------------------------------------
# characteristic polynomials


def test_char_poly_reference_values():
    assert char_poly(epword((), (1, 0)), "canonical") == (-1, -1, 1)  # X^2-X-1
    assert char_poly(epword((1, 1), (0,)), "canonical") == (-1, -1, 1)
    assert char_poly(epword((1, 1), (0,)), "noncanonical") == (1, 0, -2, 1)  # X^3-2X^2+1
    assert char_poly(epword((3,), (0,)), "noncanonical") == (3, -4, 1)  # X^2-4X+3
    assert char_poly(epword((2,), (1,)), "canonical") == (1, -3, 1)  # X^2-3X+1


def test_char_poly_shape_mismatch():
    with pytest.raises(NumerationError):
        char_poly(epword((2,), (1,)), "noncanonical")


# the Salem sextic x^6-3x^5-x^4-7x^3-x^2-3x+1 does not resolve within the
# default depth
SALEM_UNRESOLVED = "poly:1,-3,-1,-7,-1,-3,1@(3,4)"


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_bertrand(RealBase.integer(3), "bogus"),
        lambda: char_poly(epword((1, 1), (0,)), "bogus"),
        lambda: build_shift_dfa(RealBase.integer(3), "bogus"),
        lambda: renewal_target(RealBase.integer(3), "bogus"),
        lambda: renewal_target(parse_base(SALEM_UNRESOLVED), "bogus"),
        lambda: shift_member(RealBase.integer(3), (1, 0), "bogus"),
        lambda: generating_word(RealBase.integer(3), "bogus"),
    ],
    ids=[
        "build_bertrand",
        "char_poly",
        "build_shift_dfa",
        "renewal_target",
        "renewal_target_unresolved",
        "shift_member",
        "generating_word",
    ],
)
def test_unknown_variant_rejected(call):
    with pytest.raises(NumerationError, match="unknown variant"):
        call()


@pytest.mark.parametrize("name", list(PARRY_BASES), ids=list(PARRY_BASES))
@pytest.mark.parametrize("variant", ["canonical", "noncanonical"])
def test_char_poly_recurrence_reproduces_values(name, variant):
    base = make_base(name)
    d = base.require_parry()
    if variant == "noncanonical" and not d.zero_tail:
        pytest.skip("no separate noncanonical recurrence for non-simple bases")
    word = d if variant == "noncanonical" else base.parry_class().quasi_greedy
    p = char_poly(word if variant == "canonical" else d, variant)
    coeffs = recurrence_from_char_poly(p)
    s = build_bertrand(base, variant)
    deg = len(coeffs)
    for i in range(deg, 31):
        assert s.u(i) == sum(coeffs[j] * s.u(i - 1 - j) for j in range(deg)), (name, variant, i)


# ---------------------------------------------------------------------------
# classification


def test_classify_zeckendorf(zeckendorf):
    res = classify_bertrand(zeckendorf, 9)
    assert res.case == "case2"
    assert certify_generating_word(zeckendorf, res.word)
    assert res.base.poly == (-1, -1, 1)


def test_a_passing_scan_builds_no_values_past_u1(monkeypatch):
    # the zeckendorf word passes the scan, which leaves only U(1) to check,
    # so a length of three million builds no value (U(3000001) has about
    # two million bits, and the values through it O(N^2) bits)
    extended = []
    extend = NumSys._extend
    monkeypatch.setattr(NumSys, "_extend", lambda self: extended.append(1) or extend(self))
    res = classify_bertrand(load_system("zeckendorf"), 3_000_000)
    assert (res.case, res.word, res.base.poly) == ("case2", epword((), (1, 0)), (-1, -1, 1))
    report = load_system("zeckendorf").check_bertrand(3_000_000)
    assert (report.holds_up_to, report.first_violation) == (3_000_000, None)
    assert len(extended) <= 2


def test_classify_base3_noncanonical():
    s = NumSys.from_recurrence([1], [3], 1, 3)
    res = classify_bertrand(s, 9)
    assert res.case == "case3"
    assert certify_generating_word(s, res.word)
    assert res.base.kind == "integer" and res.base.value == 3


def test_classify_trivial_system():
    s = NumSys.from_recurrence([1, 2], [2, -1], 0, 1)  # U(i) = i + 1
    assert s.values(5) == [1, 2, 3, 4, 5]
    res = classify_bertrand(s, 9)
    assert res.case == "case1"
    assert certify_generating_word(s, res.word)


def test_classify_not_bertrand(ex31_not_prolongable, ex31_not_prefix_closed):
    res = classify_bertrand(ex31_not_prolongable, 6)
    assert res.case == "not_bertrand"
    assert res.witness.word == (2, 0) and res.witness.kind == "prolongability"
    res = classify_bertrand(ex31_not_prefix_closed, 6)
    assert res.case == "not_bertrand"
    assert res.witness.kind == "prefix-closure"


def test_classify_ex53_not_bertrand(ex53_oscillating):
    res = classify_bertrand(ex53_oscillating, 8)
    assert res.case == "not_bertrand"


def test_classify_phi_squared_system(phi_squared_system):
    # the expansion of 1 is infinite, so the canonical and non-canonical
    # shifts coincide; the classifier reports the greedy-word arm
    res = classify_bertrand(phi_squared_system, 9)
    assert res.case == "case3"
    assert certify_generating_word(phi_squared_system, res.word)
    assert res.base.poly == (1, -3, 1)
    assert res.word == epword((2,), (1,))


@pytest.mark.parametrize("name", list(PARRY_BASES), ids=list(PARRY_BASES))
@pytest.mark.parametrize("variant", ["canonical", "noncanonical"])
def test_classify_roundtrip(name, variant):
    base = make_base(name)
    s = build_bertrand(base, variant)
    res = classify_bertrand(s, 9)
    assert certify_generating_word(s, res.word)
    d = base.require_parry()
    if d.zero_tail:
        assert res.case == ("case2" if variant == "canonical" else "case3")
    else:
        assert res.case == "case3"
    # the recovered defining polynomial matches or divides the input one
    recovered, original = res.base.poly, base.poly
    assert poly_divides(original, recovered) or poly_divides(recovered, original)


def test_classify_uncertified_on_aperiodic_prefix():
    # U = 1, 3, 6, 10, 19, ...: its greatest words show no period within a
    # short probe, but its generating word 2, -1, ... fails at once
    s = NumSys.from_recurrence([1, 3, 6], [1, 1, 1], 0)
    res = classify_bertrand(s, 6)
    assert res.case == "not_bertrand"
    assert (res.witness.word, res.witness.kind) == ((2, 0), "prolongability")


def test_classify_word_with_a_long_preperiod():
    # U(i) = 3U(i-1) + 3U(i-2) - U(i-6) from six initial values is
    # generated by 3232(31); its greatest words up to length 5 are also
    # prefixes of (32)
    s = NumSys.from_json(
        {
            "initial": [1, 4, 15, 57, 216, 819],
            "recurrence": {"coeffs": [3, 3, 0, 0, 0, -1]},
            "alphabet_max": 3,
        }
    )
    res = classify_bertrand(s, 5)
    assert res.case == "case3"
    assert res.word == epword((3, 2, 3, 2), (3, 1))
    assert certify_generating_word(s, res.word)
    assert res.base.poly == (1, 0, 0, 0, -3, -3, 1)


@settings(max_examples=150, deadline=None)
@given(system_jsons(), st.integers(2, 9))
def test_classify_verdicts_match_oracles(data, probe):
    try:
        res = classify_bertrand(NumSys.from_json(data), probe)
    except NumerationError as exc:
        # the values stop increasing or break the declared alphabet
        assert "increasing" in str(exc) or "alphabet" in str(exc)
        return
    s = NumSys.from_json(data)
    if res.case != "not_bertrand":
        assert certify_generating_word(s, res.word)
        shape = "case2" if res.word.purely_periodic else "case3"
        assert res.case == ("case1" if res.word == epword((1,), (0,)) else shape)
        return
    k = len(res.witness.word) - 1
    holds_up_to, violations = bertrand_violations(s, min(k, 6))
    if k <= 6:
        assert holds_up_to == k and violations[0] == res.witness
    else:
        assert not violations


def test_certify_rejects_wrong_word(zeckendorf):
    assert certify_generating_word(zeckendorf, epword((1, 1), (0,))) is False
    assert certify_generating_word(zeckendorf, epword((), (1, 0))) is True


# ---------------------------------------------------------------------------
# the counting identity between the two variants


def test_counting_identity_golden(phi):
    report = verify_counting_identity(phi, 10)
    assert report.holds and report.n == 2
    u = build_bertrand(phi, "canonical")
    v = build_bertrand(phi, "noncanonical")
    assert v.u(4) == u.u(4) + v.u(2)  # 12 = 8 + 4


def test_counting_identity_base3():
    report = verify_counting_identity(RealBase.integer(3), 10)
    assert report.holds and report.n == 1
    u = build_bertrand(RealBase.integer(3), "canonical")
    v = build_bertrand(RealBase.integer(3), "noncanonical")
    assert v.u(3) == u.u(3) + v.u(2)  # 40 = 27 + 13


def test_counting_identity_rejects_nonsimple(phi2):
    with pytest.raises(NumerationError):
        verify_counting_identity(phi2, 5)
