"""Cross-validation sweep over every small valid expansion of 1.

For each base recovered from a short strictly shift-dominated word, the
two generated systems, their automata (minimal as built), direct
shift-factor membership and the classifier must all tell the same
story.  A wider version of this sweep (supports up to length 5, digits
up to 4, 746 bases) is run before releases; this trimmed one guards the
same invariants.
"""

import itertools

import pytest

from bertrandnum import (
    base_from_expansion,
    build_bertrand,
    build_shift_dfa,
    classify_bertrand,
    epword,
    is_parry_valid,
)

from oracles import (
    certify_generating_word,
    dfa_equiv_language,
    letter_bound,
    minimized,
    shift_member,
)


def small_bases():
    seen = set()
    for total in range(1, 4):
        for per_len in range(0, total + 1):
            pre_len = total - per_len
            for pre in itertools.product(range(4), repeat=pre_len):
                for per in itertools.product(range(4), repeat=max(per_len, 1)):
                    w = epword(pre, per if per_len else (0,))
                    if w in seen:
                        continue
                    seen.add(w)
                    if w.digit(0) < 1 or w == epword((1,), (0,)):
                        continue
                    if not is_parry_valid(w, True):
                        continue
                    yield w


WORDS = list(small_bases())


def test_sweep_is_nontrivial():
    assert len(WORDS) > 25


@pytest.mark.parametrize("word", WORDS, ids=[str(w) for w in WORDS])
@pytest.mark.parametrize("variant", ["canonical", "noncanonical"])
def test_system_automaton_membership_classifier_agree(word, variant):
    base = base_from_expansion(word)
    s = build_bertrand(base, variant)
    dfa = build_shift_dfa(base, variant)
    assert minimized(dfa) == dfa.canonical()
    report = dfa_equiv_language(dfa, s, 5)
    assert report.agree, report.first_disagreement
    for i in range(13):
        assert dfa.count_accepted(i) == s.u(i), i
    for w in itertools.product(range(letter_bound(s, 3) + 2), repeat=3):
        assert shift_member(base, w, variant) == dfa.accepts(w), w
    res = classify_bertrand(s, 7)
    assert certify_generating_word(s, res.word)
    assert res.case in ("case2", "case3")
