import copy
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bertrandnum import (
    Dfa,
    NumerationError,
    RealBase,
    base_from_expansion,
    build_bertrand,
    build_shift_dfa,
    entropy_estimates,
    epword,
    is_parry_valid,
    parse_base,
)
from bertrandnum.cli import main

from conftest import golden_ratio, golden_ratio_squared, load_system, tribonacci
from oracles import (
    count_by_enumeration,
    dfa_alphabet,
    dfa_equiv_language,
    isomorphic_to,
    minimized,
    shift_dfa_reference,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


# transcriptions of the four reference automata
def fig_1a():
    return Dfa(1, 0, {(0, 0): 0, (0, 1): 0, (0, 2): 0}, {0})


def fig_1b():
    return Dfa(
        2, 0, {(0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 1, (1, 0): 1}, {0, 1}
    )


def fig_2a():
    return Dfa(2, 0, {(0, 0): 0, (0, 1): 1, (1, 0): 0}, {0, 1})


def fig_2b():
    return Dfa(
        3, 0, {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2}, {0, 1, 2}
    )


# ---------------------------------------------------------------------------
# construction


def test_constructions_match_reference_automata(phi):
    b3 = RealBase.integer(3)
    cases = [
        (build_shift_dfa(b3, "canonical"), fig_1a(), 1),
        (build_shift_dfa(b3, "noncanonical"), fig_1b(), 2),
        (build_shift_dfa(phi, "canonical"), fig_2a(), 2),
        (build_shift_dfa(phi, "noncanonical"), fig_2b(), 3),
    ]
    for built, reference, count in cases:
        assert built.num_states == count
        assert isomorphic_to(built, reference)


def test_nonsimple_base_noncanonical_coincides(phi2, capsys):
    a = build_shift_dfa(phi2, "canonical")
    b = build_shift_dfa(phi2, "noncanonical")
    assert main(["automaton", "--beta", phi2.source, "--variant", "noncanonical"]) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith("(coincides with canonical)")
    assert isomorphic_to(a, b)


def greedy_words(max_len=4, top=3):
    """Every eventually periodic greedy expansion of 1 with preperiod and
    period of total length at most max_len over 0..top, 10^w excluded."""
    found = set()
    for total in range(1, max_len + 1):
        for letters in itertools.product(range(top + 1), repeat=total):
            for cut in range(total):
                w = epword(letters[:cut], letters[cut:])
                if w.digit(0) and w != epword((1,)) and is_parry_valid(w, strict=True):
                    found.add(w)
    return sorted(found, key=lambda w: (w.pre, w.per))


def test_shift_automata_match_the_reference_construction():
    words = greedy_words()
    assert any(w.zero_tail for w in words) and any(not w.zero_tail for w in words)
    for w in words:
        base = base_from_expansion(w)
        for variant in ("canonical", "noncanonical"):
            assert build_shift_dfa(base, variant) == shift_dfa_reference(base, variant), (w, variant)


def test_noncanonical_adds_exactly_one_state():
    for base in [RealBase.integer(2), RealBase.integer(3), golden_ratio(), tribonacci()]:
        a = build_shift_dfa(base, "canonical")
        b = build_shift_dfa(base, "noncanonical")
        assert b.num_states == a.num_states + 1


# ---------------------------------------------------------------------------
# acceptance


def test_accepts_examples():
    a = fig_1b()
    assert a.accepts((2, 3, 0)) is True
    assert a.accepts((3, 2)) is False
    assert a.accepts(()) is True
    empty = Dfa(1, 0, {}, set())
    assert empty.accepts(()) is False


def test_forbidden_factors_of_noncanonical_golden_shift():
    # words 11 0^k 1 are never factors, for any k
    a = fig_2b()
    for k in range(11):
        assert not a.accepts((1, 1) + (0,) * k + (1,))
    assert a.accepts((1, 1) + (0,) * 10)


# ---------------------------------------------------------------------------
# counting


def test_count_examples():
    assert fig_1b().count_accepted(2) == 13
    assert fig_2b().count_accepted(3) == 7
    assert fig_1a().count_accepted(0) == 1
    assert Dfa(1, 0, {}, set()).count_accepted(0) == 0


def test_count_matches_enumeration():
    a = fig_2b()
    for i in range(9):
        assert a.count_accepted(i) == count_by_enumeration(a, i)


@st.composite
def random_dfas(draw):
    n = draw(st.integers(1, 6))
    states, letters = st.integers(0, n - 1), st.integers(0, 3)
    trans = draw(st.dictionaries(st.tuples(states, letters), states, max_size=4 * n))
    return Dfa(n, draw(states), trans, draw(st.frozensets(states)))


def fresh_count(dfa, length):
    return Dfa(dfa.num_states, dfa.initial, dict(dfa.transitions), dfa.finals).count_accepted(length)


def fresh_counts(dfa, length, entropy):
    # entropy_estimates counts length and length - 1
    lengths = (length, length - 1) if entropy else (length,)
    return tuple(fresh_count(dfa, n) for n in lengths)


def counts_of(dfa, length, entropy):
    if not entropy:
        return (dfa.count_accepted(length),)
    try:
        report = entropy_estimates(dfa, length)
    except NumerationError:  # a count of 0 has no log
        return None
    return report.count_last, report.count_prev


@settings(max_examples=150, deadline=None)
@given(
    random_dfas(),
    st.integers(0, 60),
    st.lists(st.tuples(st.sampled_from((0, -1, 1, 3, -2)), st.booleans()), max_size=8),
)
def test_count_in_any_call_order(dfa, length, moves):
    # count_accepted and entropy_estimates, called in any order and at any
    # length, give the counts of a fresh automaton and, where the words are
    # few, the counts by enumeration; a longer pass before an entropy
    # estimate does not leave it a stale short count
    letters = max(len(dfa_alphabet(dfa)), 1)
    calls = [(0, False), (-1, False), (3, False), (0, False), (0, False)]
    calls += [(1, False), (0, True), (1, True), (0, True)] + moves
    for m, entropy in calls:
        n = length + m
        if n < (2 if entropy else 0):
            continue
        got, want = counts_of(dfa, n, entropy), fresh_counts(dfa, n, entropy)
        assert got == (None if entropy and 0 in want else want), (n, entropy)
        if got and letters**n <= 4096:
            assert got[0] == count_by_enumeration(dfa, n), n


def test_entropy_estimate_after_a_longer_pass():
    spec = parse_base("poly:1,-6,-2,9,-2,-6,1@(1,10)")
    want = tuple(fresh_count(build_shift_dfa(spec, "canonical"), n) for n in (10, 9))
    for before in (lambda d: d.count_accepted(11), lambda d: entropy_estimates(d, 11)):
        dfa = build_shift_dfa(spec, "canonical")
        before(dfa)
        report = entropy_estimates(dfa, 10)
        assert (report.count_last, report.count_prev) == want


class _CountedSteps(dict):
    """Transitions that count the passes over their edges: one per step."""

    steps = 0

    def items(self):
        self.steps += 1
        return super().items()


@pytest.mark.parametrize("spec", ["parry:2(1)", "poly:1,-6,-2,9,-2,-6,1@(1,10)"])
def test_entropy_estimate_is_one_pass(spec):
    # count(i_max - 1) is read on the way to count(i_max): i_max steps, not
    # the 2 i_max - 1 of two passes
    dfa = build_shift_dfa(parse_base(spec), "canonical")
    fresh = copy.copy(dfa)
    dfa.transitions = _CountedSteps(dfa.transitions)
    report = entropy_estimates(dfa, 300)
    assert dfa.transitions.steps == 300
    assert (report.count_last, report.count_prev) == (fresh.count_accepted(300), fresh_count(fresh, 299))


@pytest.mark.parametrize(
    "base_name,base",
    [
        ("2", RealBase.integer(2)),
        ("3", RealBase.integer(3)),
        ("phi", golden_ratio()),
        ("phi2", golden_ratio_squared()),
        ("tribonacci", tribonacci()),
    ],
)
@pytest.mark.parametrize("variant", ["canonical", "noncanonical"])
def test_counts_equal_system_values(base_name, base, variant):
    dfa = build_shift_dfa(base, variant)
    s = build_bertrand(base, variant)
    for i in range(26):
        assert dfa.count_accepted(i) == s.u(i), (base_name, variant, i)


# ---------------------------------------------------------------------------
# minimality: the shift automata against the minimization oracle, and the
# oracle itself on hand-made automata


def nerode_classes(dfa, prefix_depth=3, sig_depth=6):
    """Brute-force count of distinct nonempty left quotients of the language."""
    alphabet = sorted(set(dfa_alphabet(dfa)) | {0})
    sigs = set()
    for n in range(prefix_depth + 1):
        for u in itertools.product(alphabet, repeat=n):
            sig = frozenset(
                w
                for k in range(sig_depth + 1)
                for w in itertools.product(alphabet, repeat=k)
                if dfa.accepts(u + w)
            )
            if sig:
                sigs.add(sig)
    return len(sigs)


def test_minimize_reference_automaton_is_fixed_point():
    a = fig_2b()
    m = minimized(a)
    assert m.num_states == 3
    assert isomorphic_to(m, a)


def test_minimize_merges_duplicate_states():
    # two interchangeable states accepting 0*
    a = Dfa(2, 0, {(0, 0): 1, (1, 0): 0}, {0, 1})
    m = minimized(a)
    assert m.num_states == 1
    assert isomorphic_to(m, Dfa(1, 0, {(0, 0): 0}, {0}))


def test_minimize_phi_squared_canonical(phi2):
    a = build_shift_dfa(phi2, "canonical")
    m = minimized(a)
    assert m.num_states == 2 == nerode_classes(a)


@pytest.mark.parametrize(
    "base",
    [RealBase.integer(2), RealBase.integer(3), golden_ratio(), golden_ratio_squared(), tribonacci()],
    ids=["2", "3", "phi", "phi2", "tribonacci"],
)
@pytest.mark.parametrize("variant", ["canonical", "noncanonical"])
def test_minimize_preserves_language_and_counts(base, variant):
    a = build_shift_dfa(base, variant)
    m = minimized(a)
    assert m == a.canonical()
    assert m.num_states == nerode_classes(a, prefix_depth=4)
    for i in range(13):
        assert m.count_accepted(i) == a.count_accepted(i)
    alphabet = sorted(set(dfa_alphabet(a)) | {0})
    top = 8 if len(alphabet) <= 3 else 6
    for n in range(top + 1):
        for w in itertools.product(alphabet, repeat=n):
            assert m.accepts(w) == a.accepts(w)


def test_minimize_drops_dead_states():
    # state 1 is non-final and has no path to a final state
    a = Dfa(2, 0, {(0, 0): 0, (0, 1): 1, (1, 0): 1}, {0})
    m = minimized(a)
    assert m.num_states == 1
    assert m.accepts((0, 0)) and not m.accepts((1,))


def test_minimize_empty_language():
    a = Dfa(1, 0, {(0, 0): 0}, set())
    m = minimized(a)
    assert m.num_states == 1 and not m.finals


# ---------------------------------------------------------------------------
# language equivalence against numeration systems


def test_equiv_reference_pairs(zeckendorf, phi_noncanonical):
    assert dfa_equiv_language(fig_2a(), zeckendorf, 8).agree
    assert dfa_equiv_language(fig_2b(), phi_noncanonical, 8).agree
    report = dfa_equiv_language(fig_2a(), phi_noncanonical, 8)
    assert report.first_disagreement == (1, 1)


def test_equiv_base3_pairs(base3_canonical, base3_noncanonical):
    assert dfa_equiv_language(fig_1a(), base3_canonical, 8).agree
    assert dfa_equiv_language(fig_1b(), base3_noncanonical, 8).agree
    assert not dfa_equiv_language(fig_1b(), base3_canonical, 8).agree


# ---------------------------------------------------------------------------
# serialization


def test_dot_golden_files(phi):
    b3 = RealBase.integer(3)
    cases = {
        "base3_canonical": build_shift_dfa(b3, "canonical"),
        "base3_noncanonical": build_shift_dfa(b3, "noncanonical"),
        "phi_canonical": build_shift_dfa(phi, "canonical"),
        "phi_noncanonical": build_shift_dfa(phi, "noncanonical"),
    }
    for name, dfa in cases.items():
        expected = (GOLDEN / f"{name}.dot").read_text()
        assert dfa.to_dot() == expected, name


def test_dot_deterministic_under_relabeling():
    a = fig_2b()
    # permute state names; BFS canonicalization must normalize the output
    perm = {0: 2, 1: 0, 2: 1}
    b = Dfa(
        3,
        perm[0],
        {(perm[q], c): perm[t] for (q, c), t in a.transitions.items()},
        {perm[q] for q in a.finals},
    )
    assert b.to_dot() == a.to_dot()
