import itertools
import random

import pytest
from hypothesis import assume, given, strategies as st

from bertrandnum import (
    EPWord,
    WordError,
    digit_word,
    epword,
    format_epword,
    format_word,
    is_parry_valid,
    parse_epword,
    parse_word,
    quasi_to_greedy,
    suffixes_at_most,
)
from bertrandnum.words import walk

from oracles import greatest_word, least_word_above, lex_cmp, shift, shift_dominated

# ---------------------------------------------------------------------------
# brute-force oracle: compare digit streams position by position


def brute_parry_valid(d: EPWord, strict: bool, depth: int = 50) -> bool:
    head = [d.digit(j) for j in range(2 * depth)]
    for i in range(1, depth + 1):
        shifted = head[i : i + depth]
        original = head[:depth]
        if shifted > original:
            return False
        if strict and shifted == original:
            return False
    return True


def small_epwords(max_total=6, max_digit=2):
    """Every eventually periodic word with pre+per of total length <= max_total
    over the digits 0..max_digit."""
    digits = range(max_digit + 1)
    for total in range(1, max_total + 1):
        for per_len in range(1, total + 1):
            pre_len = total - per_len
            for pre in itertools.product(digits, repeat=pre_len):
                for per in itertools.product(digits, repeat=per_len):
                    yield epword(pre, per)


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_examples():
    assert epword((1, 1, 0), (0,)) == epword((1, 1), (0,))
    assert epword((1, 0, 1), (0, 1)) == epword((), (1, 0))
    assert epword((2, 1), (1,)) == epword((2,), (1,))
    assert epword((), (1, 0, 1, 0)) == epword((), (1, 0))
    assert epword((), ()) == epword((), (0,))


def test_canonical_idempotent_exhaustive():
    for w in small_epwords():
        again = epword(w.pre, w.per)
        assert again == w
        assert again.pre == w.pre and again.per == w.per


def test_negative_digit_rejected():
    with pytest.raises(WordError):
        epword((1, -1), (0,))


@pytest.mark.parametrize("pre,per", [((1.5, 1), (0,)), ((1,), (True,)), ((), ("1",))])
def test_epword_rejects_a_non_integer_letter(pre, per):
    with pytest.raises(WordError, match="must be nonnegative integers"):
        epword(pre, per)


@pytest.mark.parametrize("letters", [[2.9, True], [1, True], [2.0]])
def test_digit_word_rejects_a_non_integer_letter(letters):
    with pytest.raises(WordError, match="must be nonnegative integers"):
        digit_word(letters)


def test_digit_and_prefix():
    w = epword((2,), (1,))
    assert [w.digit(i) for i in range(5)] == [2, 1, 1, 1, 1]
    assert w.prefix(4) == (2, 1, 1, 1)
    assert epword((1, 1), (0,)).prefix(5) == (1, 1, 0, 0, 0)


# ---------------------------------------------------------------------------
# lexicographic comparison (the reference order of tests/oracles.py)


def test_lex_finite_first_differing_letter():
    assert lex_cmp((1, 1, 0), (1, 0, 1)) == 1
    assert lex_cmp((1, 0, 1), (1, 1, 0)) == -1


def test_lex_quasi_greedy_below_greedy():
    # (10)^w is lexicographically below 110^w
    assert lex_cmp(epword((), (1, 0)), epword((1, 1), (0,))) == -1


def test_lex_reflexive():
    w = epword((1, 0), (2, 1))
    assert lex_cmp(w, w) == 0
    assert lex_cmp((0, 1, 2), (0, 1, 2)) == 0


def test_lex_finite_length_mismatch_rejected():
    with pytest.raises(WordError):
        lex_cmp((1, 0), (1, 0, 0))


def test_lex_mixed_pads_with_zeros():
    # documented extension: a finite word is read as word . 0^w
    assert lex_cmp((1, 1), epword((1, 1), (0,))) == 0
    assert lex_cmp((1, 0), epword((), (1, 0))) == -1
    assert lex_cmp(epword((), (1,)), (1, 1)) == 1


def test_lex_agrees_with_long_prefixes():
    words = list(small_epwords(max_total=4, max_digit=2))
    for u in words[::7]:
        for v in words[::11]:
            expected = 0
            pu = u.prefix(60)
            pv = v.prefix(60)
            if pu != pv:
                expected = -1 if pu < pv else 1
            assert lex_cmp(u, v) == expected


@st.composite
def epwords(draw):
    pre = draw(st.lists(st.integers(0, 3), max_size=5))
    per = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    return epword(tuple(pre), tuple(per))


@given(epwords(), epwords(), epwords())
def test_lex_total_order(u, v, w):
    cuv, cvu = lex_cmp(u, v), lex_cmp(v, u)
    assert cuv == -cvu
    if cuv == 0:
        assert u == v  # canonical form makes equality structural
    if lex_cmp(u, v) <= 0 and lex_cmp(v, w) <= 0:
        assert lex_cmp(u, w) <= 0


# ---------------------------------------------------------------------------
# shift


def test_shift_examples():
    assert shift(epword((1, 1), (0,)), 1) == epword((1,), (0,))
    assert shift(epword((), (1, 0)), 2) == epword((), (1, 0))
    assert shift(epword((2,), (1,)), 1) == epword((), (1,))


def test_shift_matches_digit_streams():
    for w in small_epwords(max_total=4):
        for i in range(8):
            assert shift(w, i).prefix(20) == tuple(w.digit(i + j) for j in range(20))


# ---------------------------------------------------------------------------
# shift domination (Parry validity)


def test_parry_valid_constant_word():
    two = epword((), (2,))
    assert not is_parry_valid(two, strict=True)
    assert is_parry_valid(two, strict=False)


def test_parry_valid_golden_expansion():
    assert is_parry_valid(epword((1, 1), (0,)), strict=True)


def test_parry_invalid_10_then_ones():
    # sigma^2(101^w) = 1^w beats 101^w; confirmed by the depth-10 oracle
    w = epword((1, 0), (1,))
    assert brute_parry_valid(w, strict=True, depth=10) is False
    assert is_parry_valid(w, strict=True) is False


def test_parry_valid_agrees_with_depth50_oracle():
    for w in small_epwords():
        for strict in (False, True):
            assert is_parry_valid(w, strict) == brute_parry_valid(w, strict), (w, strict)


def long_near_dominated_words(count, seed=0):
    """Words with m + n up to 400: a preperiod and a period made of
    copies of the greatest rotation r of a random word, which alone would
    be shift-dominated, with one letter of the period (and sometimes one
    of the preperiod) moved by one, often the last letter of the first r.
    A shift and the word can then first differ hundreds of letters in."""
    rng = random.Random(seed)
    for _ in range(count):
        base = [rng.randint(0, 3) for _ in range(rng.randint(1, 5))]
        r = max(tuple(base[i:] + base[:i]) for i in range(len(base)))
        per = list(r * rng.randint(60 // len(r), 300 // len(r)))
        pre = list(r * rng.randint(0, 100 // len(r)))
        for part in (per, pre) if pre and rng.random() < 0.5 else (per,):
            i = rng.choice((rng.randrange(len(part)), len(r) - 1))
            part[i] = max(part[i] + rng.choice((-1, 1)), 0)
        yield epword(pre, per)


def test_parry_valid_agrees_with_shift_comparisons_on_long_words():
    # the words the depth-50 oracle gets wrong must be among them
    long_verdicts, beyond_depth_50 = set(), 0
    for w in long_near_dominated_words(120):
        for strict in (False, True):
            got = is_parry_valid(w, strict)
            assert got == shift_dominated(w, strict), (w, strict)
            if len(w.pre) + len(w.per) > 50:
                long_verdicts.add(got)
            beyond_depth_50 += got != brute_parry_valid(w, strict)
    assert long_verdicts == {False, True} and beyond_depth_50 > 0


@st.composite
def dominated_words_and_words(draw):
    """The first 30 letters a of a shift-dominated word, and a word w of
    at most 30 letters made of prefixes of a, each with its last letter
    moved by at most one."""
    pre = draw(st.lists(st.integers(0, 3), max_size=4))
    per = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    d = epword(pre, per)
    assume(shift_dominated(d, strict=False))
    a = d.prefix(30)
    w, length = (), draw(st.integers(0, 30))
    while len(w) < length:
        j = draw(st.integers(1, 30))
        last = max(a[j - 1] + draw(st.integers(-1, 1)), 0)
        w += a[: j - 1] + (last,)
    return a, w[:30]


@given(dominated_words_and_words())
def test_walk_accepts_exactly_the_suffix_criterion(case):
    a, w = case
    accepted = len(walk(a, w)) == len(w) + 1
    assert accepted == suffixes_at_most(w, lambda j: a[:j])


# ---------------------------------------------------------------------------
# the quasi-greedy -> greedy transform


def test_quasi_to_greedy_examples():
    assert quasi_to_greedy(epword((), (2,))) == epword((3,), (0,))
    assert quasi_to_greedy(epword((), (1, 0))) == epword((1, 1), (0,))
    assert quasi_to_greedy(epword((2,), (1,))) == epword((2,), (1,))


def test_quasi_to_greedy_rejects_invalid():
    with pytest.raises(WordError):
        quasi_to_greedy(epword((0, 1), (2,)))


def test_quasi_to_greedy_outputs_strictly_dominated():
    # exhaustive over the small enumeration: non-strict domination always
    # upgrades to strict domination under this transform
    for a in small_epwords(max_total=6, max_digit=2):
        if is_parry_valid(a, strict=False):
            d = quasi_to_greedy(a)
            assert is_parry_valid(d, strict=True), (a, d)


# ---------------------------------------------------------------------------
# extremal words under the suffix criterion


@st.composite
def suffix_bounds(draw):
    """A length and one arbitrary bound word per length."""
    length = draw(st.integers(0, 5))
    bounds = [()] + [
        tuple(draw(st.lists(st.integers(0, 3), min_size=i, max_size=i)))
        for i in range(1, length + 1)
    ]
    return length, bounds


@given(suffix_bounds(), st.data())
def test_extremal_words_match_brute_force(case, data):
    length, bounds = case
    # a letter above every bound's first letter fails as a one-letter
    # suffix, so words over 0..top are all the words there are
    top = max((b[0] for b in bounds[1:]), default=0)
    words = sorted(
        w
        for w in itertools.product(range(top + 1), repeat=length)
        if suffixes_at_most(w, bounds.__getitem__)
    )
    assert greatest_word(length, top, bounds.__getitem__) == words[-1]
    v = tuple(data.draw(st.lists(st.integers(0, top + 1), min_size=length, max_size=length)))
    above = [w for w in words if w > v]
    expected = above[0] if above else None
    assert least_word_above(v, bounds.__getitem__) == expected


# ---------------------------------------------------------------------------
# text syntax


def test_parse_format_roundtrip():
    for text, word in [
        ("11(0)", epword((1, 1), (0,))),
        ("110(0)", epword((1, 1), (0,))),
        ("(10)", epword((), (1, 0))),
        ("2(1)", epword((2,), (1,))),
        ("110", epword((1, 1), (0,))),
        ("[10,0,1]([2])", epword((10, 0, 1), (2,))),
    ]:
        assert parse_epword(text) == word
    w = epword((10, 0, 1), (2,))
    assert parse_epword(format_epword(w)) == w


def test_parse_word_finite():
    assert parse_word("110") == (1, 1, 0)
    assert parse_word("[10,0,1]") == (10, 0, 1)
    assert parse_word("ε") == ()
    assert format_word(()) == "ε"
    assert format_word((1, 1, 0)) == "110"
    assert format_word((10, 0)) == "[10,0]"


def test_parse_word_bad_syntax():
    with pytest.raises(WordError):
        parse_word("1a0")
    with pytest.raises(WordError):
        parse_epword("11(")
    for text in ["1(0)", "(10)", "[1]([2])", "1[2]", "[1", "()", "1()"]:
        with pytest.raises(WordError):
            parse_word(text)
    for text in ["1[2]", "[1", "()", "1()", "(1", "1(0)1", "1(0)(0)", "ε"]:
        with pytest.raises(WordError):
            parse_epword(text)


def test_mixed_forms():
    # each group of letters is bare digits or a bracketed list on its own
    assert parse_epword("[10](0)") == epword((10,), (0,))
    assert parse_epword("1([10])") == epword((1,), (10,))
    assert parse_epword("([10])") == epword((), (10,))
    assert parse_epword("[1,2](34)") == epword((1, 2), (3, 4))
    assert parse_epword("[]([])") == epword((), (0,))
    assert parse_word("[]") == parse_word("") == ()


@pytest.mark.parametrize("text", ["[10,x]", "[1,,2]", "[1,]", "[,1]", "[1.5]", "[1 2]"])
def test_malformed_bracket_letters_are_word_errors(text):
    for parse in (parse_word, parse_epword):
        with pytest.raises(WordError, match="bad word syntax"):
            parse(text)
    with pytest.raises(WordError, match="bad word syntax"):
        parse_epword(f"1({text})")


def test_negative_bracket_letters_are_rejected():
    for parse in (parse_word, parse_epword):
        with pytest.raises(WordError, match="nonnegative"):
            parse("[1,-2]")


letters = st.lists(st.integers(0, 120), max_size=6)


@given(letters, letters)
def test_epword_text_round_trip(pre, per):
    w = epword(pre, per)
    assert parse_epword(format_epword(w)) == w
    assert format_word(w) == format_epword(w)


@given(letters)
def test_word_text_round_trip(t):
    t = tuple(t)
    assert parse_word(format_word(t)) == t
