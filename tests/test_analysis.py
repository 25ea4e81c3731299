import math
from fractions import Fraction

import pytest

from bertrandnum import (
    Interval,
    NumSys,
    NumerationError,
    RealBase,
    build_bertrand,
    build_shift_dfa,
    dominant_root_ratios,
    entropy_estimates,
    lexmax_convergence_probe,
    renewal_empirical,
    renewal_target,
)

from conftest import golden_ratio, golden_ratio_squared, load_system, tribonacci
from oracles import greatest_by_rep, overlaps


# ---------------------------------------------------------------------------
# dominant root


def test_ratios_exact_for_integer_base():
    s = NumSys.from_recurrence([1], [2], 0, 1)
    assert dominant_root_ratios(s, 10) == [Fraction(2)] * 10


def test_ratios_converge_to_golden_ratio(zeckendorf, phi):
    ratios = dominant_root_ratios(zeckendorf, 30)
    enc = phi.enclosure(Fraction(1, 10**12))
    assert abs(ratios[-1] - enc.mid) < Fraction(1, 10**10)


def test_ratios_converge_for_base3_noncanonical(base3_noncanonical):
    ratios = dominant_root_ratios(base3_noncanonical, 30)
    # U(i) = (3^(i+1) - 1)/2 exactly, so the ratio is known in closed form
    assert ratios[-1] == Fraction(3**31 - 1, 3**30 - 1)
    assert abs(ratios[-1] - 3) < Fraction(1, 10**10)


# ---------------------------------------------------------------------------
# renewal limit


def test_renewal_target_integer_canonical_is_one():
    for b in (2, 3, 7):
        t = renewal_target(RealBase.integer(b), "canonical")
        assert t.lo == t.hi == 1


def test_renewal_target_base3_noncanonical_is_three_halves():
    t = renewal_target(RealBase.integer(3), "noncanonical")
    assert t.lo == t.hi == Fraction(3, 2)


def test_renewal_target_zeckendorf_encloses_binet_constant(phi):
    # Binet: U(i) = F(i+2) ~ phi^(i+2)/sqrt(5), so the limit is
    # phi^2/sqrt5 = phi^2/(2 phi - 1); build an independent enclosure
    t = renewal_target(phi, "canonical")
    enc = phi.enclosure(Fraction(1, 10**12))
    oracle = (enc * enc) / (enc * 2 - Interval.point(1))
    assert overlaps(t, oracle)
    assert t.width < Fraction(1, 10**8)
    assert t.contains(Fraction(1170820393, 10**9))  # ~1.170820393


def test_renewal_empirical_exact_for_base2():
    s = NumSys.from_recurrence([1], [2], 0, 1)
    vals = renewal_empirical(s, RealBase.integer(2), 10)
    assert all(v.lo == v.hi == 1 for v in vals)


def test_renewal_empirical_matches_target(zeckendorf, phi):
    emp = renewal_empirical(zeckendorf, phi, 40)
    target = renewal_target(phi, "canonical")
    assert emp[-1].width < Fraction(1, 10**6)
    assert overlaps(emp[-1], target)


def test_renewal_empirical_halves_the_width_near_one(zeckendorf):
    # beta ~ 1.000999, the root of 1000X^2 - 1000X - 1, is within 2^-8 of
    # 1, so the first enclosure must be halved until its lower end is > 1
    base = RealBase.algebraic((-1, -1000, 1000), (1, 2))
    widths, enclosure = [], base.enclosure

    def spy(width=None):
        widths.append(width)
        return enclosure(width)

    base.enclosure = spy
    emp = renewal_empirical(zeckendorf, base, 10)
    assert widths[:2] == [Fraction(1, 2**8), Fraction(1, 2**9)]
    enc = enclosure()
    assert enc.lo > 1
    # U(10) = 144, so the last entry holds 144 / beta^10
    assert emp[-1].lo <= 144 / enc.hi**10 and 144 / enc.lo**10 <= emp[-1].hi


def test_renewal_empirical_noncanonical_phi(phi, phi_noncanonical):
    emp = renewal_empirical(phi_noncanonical, phi, 40)
    target = renewal_target(phi, "noncanonical")
    assert overlaps(emp[-1], target)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_of_single_loop_is_zero():
    from bertrandnum import Dfa

    one_letter = Dfa(1, 0, {(0, 0): 0}, {0})
    report = entropy_estimates(one_letter, 20)
    assert report.growth_estimate == 0.0
    assert report.ratio_estimate == 0.0


def test_entropy_base3_noncanonical_automaton():
    dfa = build_shift_dfa(RealBase.integer(3), "noncanonical")
    report = entropy_estimates(dfa, 30)
    assert abs(report.ratio_estimate - math.log(3)) < 1e-8
    assert abs(report.growth_estimate - math.log(3)) > 1e-8  # much slower


def test_entropy_zeckendorf_automaton(phi):
    dfa = build_shift_dfa(phi, "canonical")
    report = entropy_estimates(dfa, 40)
    assert abs(report.ratio_estimate - math.log((1 + 5**0.5) / 2)) < 1e-8


def test_entropy_ratio_certified_exactly(phi):
    # |ratio - beta| < eps certifies |log ratio - log beta| < eps, since
    # log is 1-Lipschitz above 1; everything on the left is exact
    report = entropy_estimates(build_bertrand(phi, "canonical"), 40)
    enc = phi.enclosure(Fraction(1, 10**12))
    eps = Fraction(1, 10**8)
    assert enc.lo - eps < report.ratio < enc.hi + eps


def test_entropy_accepts_numsys(zeckendorf):
    dfa_counts = entropy_estimates(build_shift_dfa(golden_ratio(), "canonical"), 25)
    sys_counts = entropy_estimates(zeckendorf, 25)
    assert dfa_counts.count_last == sys_counts.count_last


# ---------------------------------------------------------------------------
# convergence of the greatest words


def test_lexmax_probe_zeckendorf_stabilizes(zeckendorf, phi):
    report = lexmax_convergence_probe(zeckendorf, phi, 6, 20)
    assert report.mode == "simple"
    ks = dict(report.rows)
    assert all(ks[i] == 3 for i in range(6, 21))  # k = floor(ell/2)
    assert report.stabilized
    assert report.limit == "quasi-greedy"


def test_lexmax_probe_example_system_oscillates(ex53_oscillating, phi):
    report = lexmax_convergence_probe(ex53_oscillating, phi, 6, 40)
    ks = dict(report.rows)
    for i in range(4, 41):
        assert ks[i] == (0 if i % 4 in (0, 1) else 1), i
    assert not report.stabilized
    assert report.limit is None


def test_lexmax_probe_noncanonical_system_tracks_greedy_word(phi, phi_noncanonical):
    report = lexmax_convergence_probe(phi_noncanonical, phi, 6, 20)
    assert report.stabilized
    assert report.limit == "greedy"
    assert all(k == 0 for i, k in report.rows if i >= 6)


def test_lexmax_probe_nonsimple_base(phi2, phi_squared_system):
    report = lexmax_convergence_probe(phi_squared_system, phi2, 5, 20)
    assert report.mode == "nonsimple"
    lcps = dict(report.rows)
    assert all(lcps[i] >= 5 for i in range(5, 21))
    assert report.stabilized and report.limit == "greedy"


def test_lexmax_probe_requires_ell_at_most_imax(zeckendorf, phi):
    with pytest.raises(NumerationError):
        lexmax_convergence_probe(zeckendorf, phi, 10, 5)


# ---------------------------------------------------------------------------
# the greatest-word/prefix identity across fixtures


def test_lexmax_identity_for_bertrand_fixtures(phi, phi2):
    cases = [
        (load_system("zeckendorf"), golden_ratio().parry_class().quasi_greedy),
        (load_system("phi_noncanonical"), golden_ratio().require_parry()),
        (load_system("base3_canonical"), RealBase.integer(3).parry_class().quasi_greedy),
        (load_system("base3_noncanonical"), RealBase.integer(3).require_parry()),
        (load_system("phi_squared"), golden_ratio_squared().require_parry()),
    ]
    for s, word in cases:
        for i in range(31):
            # rep(U(i) - 1) itself, not the generating word lex_max walks
            assert greatest_by_rep(s, i) == word.prefix(i)
            assert s.lex_max(i) == word.prefix(i)


def test_lexmax_identity_fails_for_non_bertrand():
    for name in ("ex31_not_prolongable", "ex31_not_prefix_closed"):
        s = load_system(name)
        assert any(s.lex_max(i) != s.lex_max(i + 1)[:i] for i in range(30))
