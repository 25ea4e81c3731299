"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import itertools
import math
import re
import time
from fractions import Fraction

from bertrandnum import (
    Dfa,
    RealBase,
    build_bertrand,
    build_shift_dfa,
    char_poly,
    classify_bertrand,
    dominant_root_ratios,
    entropy_estimates,
    epword,
    lexmax_convergence_probe,
    renewal_empirical,
    renewal_target,
    verify_counting_identity,
)
from bertrandnum.intervals import Interval

from conftest import golden_ratio, golden_ratio_squared, load_system, tribonacci
from oracles import (
    bertrand_violations,
    ceil_minus_one,
    certify_generating_word,
    dfa_equiv_language,
    floor_of,
    gap,
    isomorphic_to,
    letter_bound,
    members_by_length,
    overlaps,
    poly_divides,
    recurrence_from_char_poly,
)


def parry_bases():
    return {
        "2": RealBase.integer(2),
        "3": RealBase.integer(3),
        "phi": golden_ratio(),
        "phi2": golden_ratio_squared(),
        "tribonacci": tribonacci(),
    }


def test_criterion_1_worked_examples():
    start = time.perf_counter()

    # expansions of 1
    assert RealBase.integer(3).parry_class(16).word == epword((3,), (0,))
    assert RealBase.integer(3).parry_class(16).quasi_greedy == epword((), (2,))
    assert golden_ratio().parry_class(16).word == epword((1, 1), (0,))
    assert golden_ratio_squared().parry_class(16).word == epword((2,), (1,))

    # language equalities, exhaustively to length 8
    b3nc = load_system("base3_noncanonical")
    levels = members_by_length(b3nc, 8)
    members = set().union(*levels)
    oracle = set()
    for length in range(9):
        for w in itertools.product(range(4), repeat=length):
            text = "".join(str(d) for d in w)
            if re.fullmatch(r"[012]*|[012]*30*", text):
                oracle.add(w)
    assert members == oracle

    phinc = load_system("phi_noncanonical")
    levels = members_by_length(phinc, 8)
    members = set().union(*levels)
    oracle = set()
    for length in range(9):
        for w in itertools.product(range(2), repeat=length):
            text = "".join(str(d) for d in w)
            if re.fullmatch(r"(0|10)*|(0|10)*1|(0|10)*110*", text):
                oracle.add(w)
    assert members == oracle

    # the stated Bertrand violations
    report = load_system("ex31_not_prolongable").check_bertrand(6)
    assert report.first_violation.word == (2, 0)
    assert report.first_violation.kind == "prolongability"

    ex31_closed = load_system("ex31_not_prefix_closed")
    report = ex31_closed.check_bertrand(6)
    assert report.first_violation.kind == "prefix-closure"
    _, violations = bertrand_violations(ex31_closed, 6)
    assert ((5, 0), "prefix-closure") in [(v.word, v.kind) for v in violations]
    assert report.first_violation == violations[0]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: worked-example suite (exact, {elapsed:.2f}s < 1s) PASS")


def test_criterion_2_trichotomy_roundtrip():
    start = time.perf_counter()
    for name, base in parry_bases().items():
        d = base.require_parry()
        for variant in ("canonical", "noncanonical"):
            s = build_bertrand(base, variant)
            res = classify_bertrand(s, 9)
            assert certify_generating_word(s, res.word), (name, variant)
            expected_case = (
                ("case2" if variant == "canonical" else "case3")
                if d.zero_tail
                else "case3"
            )
            assert res.case == expected_case, (name, variant, res.case)
            recovered, original = res.base.poly, base.poly
            assert poly_divides(original, recovered) or poly_divides(recovered, original), (
                name,
                variant,
            )
            # alphabet claims, on the letters of the members up to length 10
            expected_alphabet = (
                ceil_minus_one(base) if variant == "canonical" else floor_of(base)
            )
            assert letter_bound(s, 10) == expected_alphabet, (name, variant)
            # recurrence residual of the generating word
            word = s.generator.word
            for i in range(31):
                residual = s.u(i) - sum(
                    word.digit(j - 1) * s.u(i - j) for j in range(1, i + 1)
                )
                assert residual == 1, (name, variant, i)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2: trichotomy round trip on 5 bases x 2 variants ({elapsed:.2f}s < 5s) PASS")


def test_criterion_3_automata_golden():
    fig_1a = Dfa(1, 0, {(0, 0): 0, (0, 1): 0, (0, 2): 0}, {0})
    fig_1b = Dfa(2, 0, {(0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 1, (1, 0): 1}, {0, 1})
    fig_2a = Dfa(2, 0, {(0, 0): 0, (0, 1): 1, (1, 0): 0}, {0, 1})
    fig_2b = Dfa(
        3, 0, {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 2, (2, 0): 2}, {0, 1, 2}
    )
    pairs = [
        ("3-canonical", RealBase.integer(3), "canonical", fig_1a, 1, "base3_canonical"),
        ("3-noncanonical", RealBase.integer(3), "noncanonical", fig_1b, 2, "base3_noncanonical"),
        ("phi-canonical", golden_ratio(), "canonical", fig_2a, 2, "zeckendorf"),
        ("phi-noncanonical", golden_ratio(), "noncanonical", fig_2b, 3, "phi_noncanonical"),
    ]
    for label, base, variant, reference, count, system_name in pairs:
        dfa = build_shift_dfa(base, variant)
        assert dfa.num_states == count, label
        assert isomorphic_to(dfa, reference), label
        s = load_system(system_name)
        assert dfa_equiv_language(dfa, s, 8).agree, label
        for i in range(26):
            assert dfa.count_accepted(i) == s.u(i), (label, i)
    print("ACCEPTANCE 3: automata match the reference figures, languages and counts PASS")


def test_criterion_4_recurrence_extraction():
    cases = [
        ("zeckendorf", epword((), (1, 0)), "canonical", (-1, -1, 1)),
        ("phi_noncanonical", epword((1, 1), (0,)), "noncanonical", (1, 0, -2, 1)),
        ("base3_noncanonical", epword((3,), (0,)), "noncanonical", (3, -4, 1)),
        ("phi_squared", epword((2,), (1,)), "canonical", (1, -3, 1)),
    ]
    for system_name, word, variant, expected in cases:
        p = char_poly(word, variant)
        assert p == expected, system_name
        coeffs = recurrence_from_char_poly(p)
        s = load_system(system_name)
        for i in range(len(coeffs), 31):
            assert s.u(i) == sum(
                coeffs[j] * s.u(i - 1 - j) for j in range(len(coeffs))
            ), (system_name, i)
    print("ACCEPTANCE 4: characteristic polynomials and their recurrences PASS")


def test_criterion_5_counting_identity():
    for name, base in parry_bases().items():
        if name == "phi2":
            continue  # infinite expansion of 1: identity not applicable
        report = verify_counting_identity(base, 20)
        assert report.holds, name
    print("ACCEPTANCE 5: counting identity U'(i+n) = U(i+n) + U'(i), i <= 20 PASS")


def test_criterion_6_asymptotics():
    start = time.perf_counter()
    i_max = 60
    ratio_tol = Fraction(1, 10**8)
    width_tol = Fraction(1, 10**6)
    entropy_tol = Fraction(1, 10**6)
    for name, base in parry_bases().items():
        enc = base.enclosure(Fraction(1, 10**12))
        for variant in ("canonical", "noncanonical"):
            s = build_bertrand(base, variant)
            # dominant root within beta +- 1e-8, decided on exact rationals
            ratio = dominant_root_ratios(s, i_max)[-1]
            assert enc.hi - ratio_tol <= ratio <= enc.lo + ratio_tol, (name, variant)
            # renewal limit: the U(i)/beta^i enclosure meets the closed form
            # to within the tolerance (for integer bases both sides are exact
            # points still separated by the 2^-60-scale convergence tail, so
            # "overlap" is judged with the same 1e-6 window)
            target = renewal_target(base, variant)
            empirical = renewal_empirical(s, base, i_max)
            assert target.width < width_tol, (name, variant)
            assert empirical[-1].width < width_tol, (name, variant)
            assert gap(empirical[-1], target) < width_tol, (name, variant)
            if base.kind == "algebraic":
                assert overlaps(empirical[-1], target), (name, variant)
            # entropy ratio estimator within 1e-6 of log beta: since log is
            # 1-Lipschitz above 1, |count ratio - beta| < 1e-6 certifies it;
            # the float form is checked as well
            report = entropy_estimates(s, i_max)
            assert enc.hi - entropy_tol <= report.ratio <= enc.lo + entropy_tol, (
                name,
                variant,
            )
            assert abs(report.ratio_estimate - math.log(float(enc.mid))) < 1e-6

    # the three named closed-form targets
    assert renewal_target(RealBase.integer(2), "canonical") == Interval.point(1)
    assert renewal_target(RealBase.integer(3), "canonical") == Interval.point(1)
    assert renewal_target(RealBase.integer(3), "noncanonical") == Interval.point(
        Fraction(3, 2)
    )
    phi = golden_ratio()
    enc = phi.enclosure(Fraction(1, 10**12))
    binet = (enc * enc) / (enc * 2 - Interval.point(1))  # phi^2 / sqrt5
    assert overlaps(renewal_target(phi, "canonical"), binet)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.2f}s"
    print(f"ACCEPTANCE 6: asymptotics at i_max=60, interval-certified ({elapsed:.2f}s < 10s) PASS")


def test_criterion_7_convergence_behaviour():
    phi = golden_ratio()
    # the oscillating system: k follows 0,0,1,1 with period 4, never stabilizes
    report = lexmax_convergence_probe(load_system("ex53_oscillating"), phi, 6, 40)
    ks = dict(report.rows)
    for i in range(4, 41):
        assert ks[i] == (0 if i % 4 in (0, 1) else 1), i
    assert not report.stabilized

    # Zeckendorf stabilizes on the quasi-greedy expansion
    report = lexmax_convergence_probe(load_system("zeckendorf"), phi, 6, 40)
    assert report.stabilized and report.limit == "quasi-greedy"

    # greatest words are prefixes of the generating word, i <= 30,
    # for every Bertrand fixture; the chain breaks on the two others
    bertrand_cases = [
        ("zeckendorf", phi.parry_class().quasi_greedy),
        ("phi_noncanonical", phi.require_parry()),
        ("base3_canonical", RealBase.integer(3).parry_class().quasi_greedy),
        ("base3_noncanonical", RealBase.integer(3).require_parry()),
        ("phi_squared", golden_ratio_squared().require_parry()),
    ]
    for name, word in bertrand_cases:
        s = load_system(name)
        for i in range(31):
            assert s.lex_max(i) == word.prefix(i), (name, i)
    for name in ("ex31_not_prolongable", "ex31_not_prefix_closed"):
        s = load_system(name)
        assert any(s.lex_max(i) != s.lex_max(i + 1)[:i] for i in range(30)), name
    print("ACCEPTANCE 7: lex-max convergence behaviour and the prefix identity PASS")


def test_criterion_8_forbidden_factors():
    dfa = build_shift_dfa(golden_ratio(), "noncanonical")
    for k in range(11):
        assert not dfa.accepts((1, 1) + (0,) * k + (1,)), k
    print("ACCEPTANCE 8: words 11 0^k 1 rejected by the non-canonical automaton PASS")
