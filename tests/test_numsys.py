import itertools
import json
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from bertrandnum import (
    NumSys,
    NumerationError,
    Violation,
    classify_bertrand,
    epword,
    format_epword,
    is_parry_valid,
    parse_system,
)
from bertrandnum.numsys import BertrandRule, Recurrence

from conftest import FIXTURES, load_system, system_jsons
from oracles import (
    bertrand_holds_up_to,
    bertrand_violations,
    count_length,
    first_violation_by_search,
    letter_bound,
    member_direct,
    members_by_length,
)

ALL_FIXTURES = [
    "zeckendorf",
    "phi_noncanonical",
    "base3_canonical",
    "base3_noncanonical",
    "ex31_not_prolongable",
    "ex31_not_prefix_closed",
    "ex53_oscillating",
    "phi_squared",
]

BERTRAND_FIXTURES = [
    "zeckendorf",
    "phi_noncanonical",
    "base3_canonical",
    "base3_noncanonical",
    "phi_squared",
]


# ---------------------------------------------------------------------------
# values and representations


def test_fixture_value_prefixes():
    assert load_system("zeckendorf").values(6) == [1, 2, 3, 5, 8, 13]
    assert load_system("phi_noncanonical").values(6) == [1, 2, 4, 7, 12, 20]
    assert load_system("base3_noncanonical").values(4) == [1, 4, 13, 40]
    assert load_system("ex31_not_prefix_closed").values(4) == [1, 2, 11, 57]
    assert load_system("ex53_oscillating").values(7) == [1, 2, 3, 5, 9, 15, 24]
    assert load_system("phi_squared").values(5) == [1, 3, 8, 21, 55]


def test_rep_examples(zeckendorf, phi_noncanonical):
    assert zeckendorf.rep(12) == (1, 0, 1, 0, 1)  # 8 + 3 + 1
    assert phi_noncanonical.rep(11) == (1, 1, 0, 0)  # 7 + 4
    assert zeckendorf.rep(0) == ()


def test_val_examples(zeckendorf, base3_canonical):
    assert zeckendorf.val((1, 0, 1, 0, 1)) == 12
    assert zeckendorf.val((0, 0, 0, 0)) == 0
    assert base3_canonical.val((2, 2)) == 8


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_val_rep_roundtrip(name):
    s = load_system(name)
    for n in range(10_001):
        assert s.val(s.rep(n)) == n


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_rep_of_powers(name):
    s = load_system(name)
    for i in range(12):
        assert s.rep(s.u(i)) == (1,) + (0,) * i


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_rep_is_greedy(name):
    # the defining inequalities of greedy representations
    s = load_system(name)
    for n in range(2000):
        w = s.rep(n)
        if n:
            assert w[0] != 0
        for j in range(len(w)):
            tail = sum(w[i] * s.u(len(w) - 1 - i) for i in range(j, len(w)))
            assert tail < s.u(len(w) - j)


# ---------------------------------------------------------------------------
# greatest words of each length


def test_lex_max_examples(ex53_oscillating, phi_squared_system):
    assert ex53_oscillating.lex_max(4) == (1, 1, 0, 0)
    assert ex53_oscillating.lex_max(6) == (1, 0, 1, 1, 0, 0)
    assert phi_squared_system.lex_max(3) == (2, 1, 1)


def test_lex_max_closed_forms(ex53_oscillating, zeckendorf):
    for i in range(4, 20):
        expected = (
            (1, 1) + (0,) * (i - 2)
            if i % 4 in (0, 1)
            else (1, 0, 1, 1) + (0,) * (i - 4)
        )
        assert ex53_oscillating.lex_max(i) == expected
    for i in range(1, 20):
        expected = ((1, 0) * i)[:i]
        assert zeckendorf.lex_max(i) == expected


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_lex_max_is_maximal(name):
    s = load_system(name)
    levels = members_by_length(s, 8)
    for i in range(9):
        assert s.lex_max(i) == max(levels[i])


# ---------------------------------------------------------------------------
# membership


def test_member_counterexample_systems(ex31_not_prolongable, ex31_not_prefix_closed, base3_noncanonical):
    assert ex31_not_prolongable.member((2,)) is True
    assert ex31_not_prolongable.member((2, 0)) is False
    assert ex31_not_prefix_closed.member((5, 0)) is True
    assert ex31_not_prefix_closed.member((5,)) is False
    assert base3_noncanonical.member((2, 3, 0)) is True


def test_member_accepts_leading_zeros(zeckendorf):
    assert zeckendorf.member((0, 0, 1, 0, 1)) is True
    assert zeckendorf.member(()) is True


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_levels_equal_padded_representations(name):
    # the suffix criterion and the greedy-representation definition carve
    # out the same language; comparing whole level sets proves agreement
    # for every word of each length at once
    s = load_system(name)
    max_len = 6 if name == "ex31_not_prefix_closed" else 8
    levels = members_by_length(s, max_len)
    for length in range(max_len + 1):
        padded = set()
        for n in range(s.u(length)):
            w = s.rep(n)
            padded.add((0,) * (length - len(w)) + w)
        assert levels[length] == padded, (name, length)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_member_agrees_with_direct_check_sampled(name):
    s = load_system(name)
    alphabet = range(letter_bound(s, 4) + 1)
    for w in itertools.product(alphabet, repeat=4):
        assert s.member(w) == member_direct(s, w), (name, w)


@pytest.mark.parametrize("name", BERTRAND_FIXTURES)
def test_factorial_language(name):
    s = load_system(name)
    for length, level in enumerate(members_by_length(s, 8)):
        for w in level:
            for i in range(length):
                for j in range(i, length + 1):
                    assert s.member(w[i:j]), (name, w, w[i:j])


@pytest.mark.parametrize("name", BERTRAND_FIXTURES)
def test_lex_max_prefix_chain_for_bertrand(name):
    s = load_system(name)
    for i in range(12):
        assert s.lex_max(i) == s.lex_max(i + 1)[:i]


@pytest.mark.parametrize("name", ["ex31_not_prolongable", "ex31_not_prefix_closed", "ex53_oscillating"])
def test_lex_max_prefix_chain_breaks_for_non_bertrand(name):
    s = load_system(name)
    assert any(s.lex_max(i) != s.lex_max(i + 1)[:i] for i in range(6))


# ---------------------------------------------------------------------------
# the Bertrand condition


def test_check_bertrand_zeckendorf(zeckendorf):
    report = zeckendorf.check_bertrand(8)
    assert report.holds
    assert report.holds_up_to == 8


def test_check_bertrand_not_prolongable(ex31_not_prolongable):
    report = ex31_not_prolongable.check_bertrand(4)
    assert not report.holds
    assert report.first_violation.word == (2, 0)
    assert report.first_violation.kind == "prolongability"
    assert report.holds_up_to == 1


def test_check_bertrand_not_prefix_closed(ex31_not_prefix_closed):
    report = ex31_not_prefix_closed.check_bertrand(4)
    assert not report.holds
    assert report.first_violation.kind == "prefix-closure"
    # the illustrative pair 50/5 is among the violations; the
    # lexicographically first violating word happens to be 20
    _, violations = bertrand_violations(ex31_not_prefix_closed, 4)
    assert ((5, 0), "prefix-closure") in [(v.word, v.kind) for v in violations]
    assert report.first_violation == violations[0]
    assert report.first_violation.word == (2, 0)


@pytest.mark.parametrize("name", BERTRAND_FIXTURES)
def test_check_bertrand_holds_on_bertrand_fixtures(name):
    assert load_system(name).check_bertrand(7).holds


def test_check_bertrand_rejects_values_that_break_after_the_first_violation():
    # 20 (prolongability) at length 1, while U = 1, 3, 4, 5, 3 stops increasing
    data = {"initial": [1, 3, 4], "recurrence": {"coeffs": [1, 1, -2]}, "alphabet_max": 2}
    report = NumSys.from_json(data).check_bertrand(2)
    assert report.first_violation == Violation((2, 0), "prolongability")
    for check in (NumSys.check_bertrand, bertrand_violations):
        with pytest.raises(NumerationError, match="not strictly increasing at U"):
            check(NumSys.from_json(data), 3)


def test_check_bertrand_scans_past_a_repeated_window():
    # the windows of 110(1) repeat from its fourth letter on, before its
    # factor 111 rises above the prefix 110 at the sixth
    s = parse_system("bertrand:110(1)")
    assert s.scan_generating_word() == (None, 6)
    holds_up_to, violations = bertrand_violations(s, 5)
    report = s.check_bertrand(40)
    assert report.holds_up_to == holds_up_to == 5
    assert report.first_violation == violations[0]


@st.composite
def recurrence_systems(draw):
    """Recurrences of order <= 3 with coefficients 0..3 and addend 0 or 1
    whose members of length at most 7 use the letters 0..4 at most, as
    system JSON."""
    order = draw(st.integers(1, 3))
    initial = [1]
    for _ in range(order - 1):
        initial.append(initial[-1] + draw(st.integers(1, 4)))
    data = {
        "initial": initial,
        "recurrence": {
            "coeffs": draw(st.lists(st.integers(0, 3), min_size=order, max_size=order)),
            "addend": draw(st.integers(0, 1)),
        },
    }
    try:
        assume(letter_bound(NumSys.from_json(data), 7) <= 4)
    except NumerationError:
        assume(False)
    return data


@st.composite
def generating_words(draw):
    """Eventually periodic words over 0..3 with a nonzero first letter."""
    pre = draw(st.lists(st.integers(0, 3), max_size=3))
    per = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    word = epword(pre, per)
    assume(word.digit(0) >= 1)
    return word


parry_words = generating_words().filter(is_parry_valid)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        recurrence_systems(),
        parry_words.map(lambda w: {"bertrand": {"word": format_epword(w)}}),
        generating_words().map(lambda w: {"bertrand": {"word": format_epword(w)}}),
    ),
    st.integers(1, 6),
)
def test_check_bertrand_matches_enumeration(data, max_len):
    try:
        holds_up_to, violations = bertrand_violations(NumSys.from_json(data), max_len)
    except NumerationError as exc:
        # the values stop increasing within max_len + 1
        with pytest.raises(NumerationError, match=re.escape(str(exc))):
            NumSys.from_json(data).check_bertrand(max_len)
        return
    report = NumSys.from_json(data).check_bertrand(max_len)
    assert report.holds_up_to == holds_up_to
    assert report.first_violation == (violations[0] if violations else None)


@settings(max_examples=150, deadline=None)
@given(system_jsons(), st.integers(1, 40))
def test_check_bertrand_matches_greatest_words(data, max_len):
    # both read U through max_len + 1 only, so they reject the same systems
    try:
        expected = bertrand_holds_up_to(NumSys.from_json(data), max_len)
    except NumerationError as exc:
        with pytest.raises(NumerationError, match=re.escape(str(exc))):
            NumSys.from_json(data).check_bertrand(max_len)
        return
    assert NumSys.from_json(data).check_bertrand(max_len).holds_up_to == expected


@settings(max_examples=150, deadline=None)
@given(generating_words())
def test_every_word_gets_the_enumerated_verdict(word):
    # no shift-dominance filter: a letter may exceed the first one, and the
    # system it generates still gets an exact verdict
    for max_len in range(1, 6):
        holds_up_to, violations = bertrand_violations(NumSys.from_word(word), max_len)
        report = NumSys.from_word(word).check_bertrand(max_len)
        assert report.holds_up_to == holds_up_to, max_len
        assert report.first_violation == (violations[0] if violations else None), max_len
    res = classify_bertrand(NumSys.from_word(word), 5)
    assert (res.case == "not_bertrand") == (not is_parry_valid(word, strict=False))


def check_bertrand_matches_search(s: NumSys, max_len: int):
    report = s.check_bertrand(max_len)
    assert (report.holds_up_to, report.first_violation) == first_violation_by_search(s, max_len)
    return report


def test_check_bertrand_witness_matches_search_on_short_words():
    for length in range(1, 7):
        for letters in itertools.product(range(4), repeat=length):
            if letters[0] == 0:
                continue
            text = "".join(map(str, letters))
            for spec in (text, f"({text})"):
                s = parse_system("bertrand:" + spec)
                for max_len in (length + 3, 2 * length + 3):
                    check_bertrand_matches_search(s, max_len)


def test_check_bertrand_witness_matches_search_on_random_recurrences():
    rng = random.Random(11)
    kinds = set()
    for _ in range(4000):
        order = rng.randint(1, 3)
        initial = [1]
        for _ in range(order - 1):
            initial.append(initial[-1] + rng.randint(1, 4))
        args = initial, [rng.randint(0, 3) for _ in range(order)], rng.randint(0, 1)
        try:
            report = check_bertrand_matches_search(NumSys.from_recurrence(*args), 12)
        except NumerationError as exc:
            with pytest.raises(NumerationError, match=re.escape(str(exc))):
                first_violation_by_search(NumSys.from_recurrence(*args), 12)
            continue
        kinds.add(report.first_violation and report.first_violation.kind)
    assert kinds == {None, "prolongability", "prefix-closure"}


def test_check_bertrand_finds_a_long_witness():
    # a witness of length 102, past the lengths bertrand_violations can list
    report = check_bertrand_matches_search(parse_system("bertrand:" + "21" * 50 + "22"), 105)
    assert report.holds_up_to == 101
    assert report.first_violation == Violation((2, 2) + (0,) * 100, "prefix-closure")


# ---------------------------------------------------------------------------
# counting


def brute_force_count(s, i):
    alphabet = range(letter_bound(s, i) + 1)
    return sum(1 for w in itertools.product(alphabet, repeat=i) if s.member(w))


def test_count_examples(base3_noncanonical, zeckendorf):
    assert count_length(base3_noncanonical, 2) == 13 == (3**3 - 1) // 2
    assert count_length(zeckendorf, 3) == 5
    # the five members of length 3, by brute force
    members = {w for w in itertools.product(range(2), repeat=3) if zeckendorf.member(w)}
    assert members == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)}
    assert count_length(zeckendorf, 0) == 1


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_count_matches_brute_force(name):
    s = load_system(name)
    top = 5 if letter_bound(s, 7) >= 4 else 7
    for i in range(top + 1):
        assert count_length(s, i) == brute_force_count(s, i), (name, i)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_count_equals_u(name):
    s = load_system(name)
    for i in range(21):
        assert count_length(s, i) == s.u(i), (name, i)


# ---------------------------------------------------------------------------
# construction and serialization


def test_u0_must_be_one():
    with pytest.raises(NumerationError):
        NumSys.from_recurrence([2, 3], [1, 1])


def test_initial_must_cover_order():
    with pytest.raises(NumerationError):
        NumSys.from_recurrence([1], [1, 1])


def test_initial_values_validated():
    with pytest.raises(NumerationError):
        NumSys.from_recurrence([1, 1], [1, 1])
    with pytest.raises(NumerationError):
        NumSys.from_recurrence([1, 3], [1, 1], alphabet_max=1)


def test_not_increasing_rejected():
    s = NumSys.from_recurrence([1, 2], [1, -2])
    with pytest.raises(NumerationError):
        s.u(5)


def test_declared_alphabet_mismatch_is_hard_error():
    s = NumSys.from_recurrence([1], [3], 1, alphabet_max=2)  # true bound is 3
    with pytest.raises(NumerationError):
        s.u(2)


def test_json_roundtrip(zeckendorf):
    data = zeckendorf.to_json()
    again = NumSys.from_json(data)
    assert again.values(10) == zeckendorf.values(10)
    word_sys = NumSys.from_word(epword((1, 1), (0,)))
    again = NumSys.from_json(word_sys.to_json())
    assert again.values(8) == word_sys.values(8)


def test_parse_system_inline_and_path():
    s = parse_system("bertrand:parry:11(0)")
    assert s.values(5) == [1, 2, 4, 7, 12]
    s2 = parse_system(str(FIXTURES / "zeckendorf.json"))
    assert s2.values(5) == [1, 2, 3, 5, 8]
    with pytest.raises(NumerationError):
        parse_system("no/such/file.json")


def test_from_word_requires_leading_digit():
    with pytest.raises(NumerationError):
        NumSys.from_word(epword((0, 1), (0,)))


@pytest.mark.parametrize(
    "generator,message",
    [
        (Recurrence((1, 2.7), (1, 1)), "initial must be a list of integers"),
        (Recurrence((1, 2), (1.5,)), "coeffs must be a list of integers"),
        (Recurrence((1, 2), (1,), True), "addend must be an integer"),
        (BertrandRule(epword((0, 1))), "must start with a nonzero digit"),
    ],
    ids=["float-initial", "float-coeff", "bool-addend", "zero-led-word"],
)
def test_raw_constructor_validates(generator, message):
    with pytest.raises(NumerationError, match=message):
        NumSys(generator)


def test_raw_constructor_validates_the_alphabet_bound():
    with pytest.raises(NumerationError, match="alphabet_max must be an integer"):
        NumSys(Recurrence((1, 2), (1, 1)), 2.0)
    s = NumSys(Recurrence([1, 2], [1, 1]))
    assert s.generator == Recurrence((1, 2), (1, 1)) and s.values(5) == [1, 2, 3, 5, 8]
