import itertools
from pathlib import Path

import pytest

from bertrandnum import (
    Dfa,
    RealBase,
    build_bertrand,
    build_shift_dfa,
)
from bertrandnum.cli import main

from conftest import golden_ratio, golden_ratio_squared, load_system, tribonacci
from oracles import dfa_equiv_language, isomorphic_to, minimized

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
        by_enum = sum(
            1 for w in itertools.product(range(2), repeat=i) if a.accepts(w)
        )
        assert a.count_accepted(i) == by_enum


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
    alphabet = sorted(set(dfa.alphabet) | {0})
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
    alphabet = sorted(set(a.alphabet) | {0})
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


def test_json_roundtrip():
    a = fig_2b()
    again = Dfa.from_json(a.to_json())
    assert isomorphic_to(again, a)
    assert again.to_json() == a.to_json()


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
