"""One rule for the integer arguments of every public entry point.

An index, a length, a size, a depth or a digit letter must be an int
that is not a bool, at or above the entry point's least value; anything
else raises NumerationError, with "must be an integer" or "must be >=".
"""

from fractions import Fraction

import pytest

from bertrandnum import (
    Dfa,
    NumerationError,
    RealBase,
    build_shift_dfa,
    classify_bertrand,
    dominant_root_ratios,
    entropy_estimates,
    lexmax_convergence_probe,
    renewal_empirical,
    verify_counting_identity,
)

from conftest import golden_ratio, load_system


def zeck():
    return load_system("zeckendorf")


def three():
    return RealBase.integer(3)


# entry point -> (a call on the argument, the least value it accepts)
ENTRY_POINTS = {
    "NumSys.u": (lambda x: zeck().u(x), 0),
    "NumSys.values": (lambda x: zeck().values(x), 0),
    "NumSys.rep": (lambda x: zeck().rep(x), 0),
    "NumSys.lex_max": (lambda x: zeck().lex_max(x), 0),
    "NumSys.check_bertrand": (lambda x: zeck().check_bertrand(x), 1),
    "NumSys.scan_generating_word": (lambda x: zeck().scan_generating_word(x), 0),
    "NumSys.val-letter": (lambda x: zeck().val((1, x)), 0),
    "NumSys.member-letter": (lambda x: zeck().member((1, x)), 0),
    "RealBase.integer": (RealBase.integer, 2),
    "RealBase.parry_class": (lambda x: three().parry_class(x), 1),
    "RealBase.digits_prefix": (lambda x: three().digits_prefix(x), 1),
    "RealBase.require_parry": (lambda x: three().require_parry(x), 1),
    "classify_bertrand": (lambda x: classify_bertrand(zeck(), x), 2),
    "verify_counting_identity": (lambda x: verify_counting_identity(three(), x), 0),
    "dominant_root_ratios": (lambda x: dominant_root_ratios(zeck(), x), 2),
    "renewal_empirical": (lambda x: renewal_empirical(zeck(), golden_ratio(), x), 1),
    "entropy_estimates": (lambda x: entropy_estimates(zeck(), x), 2),
    "lexmax_convergence_probe-ell": (
        lambda x: lexmax_convergence_probe(zeck(), golden_ratio(), x, 6), 1
    ),
    "lexmax_convergence_probe-i_max": (
        lambda x: lexmax_convergence_probe(zeck(), golden_ratio(), 3, x), 3
    ),
    "Dfa.count_accepted": (
        lambda x: build_shift_dfa(golden_ratio(), "canonical").count_accepted(x), 0
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_each_entry_point_takes_only_an_int_at_or_above_its_bound(name):
    call, least = ENTRY_POINTS[name]
    call(least)  # the least value is accepted
    for bad in (2.0, True, "2"):
        with pytest.raises(NumerationError, match=f"must be an integer, got {bad!r}"):
            call(bad)
    with pytest.raises(NumerationError, match=f"must be >= {least}, got {least - 1}"):
        call(least - 1)


@pytest.mark.parametrize("w", [(1, -1), (1.0,), (True, 0), ("1",)])
def test_member_and_val_reject_a_bad_letter(zeckendorf, w):
    with pytest.raises(NumerationError):
        zeckendorf.member(w)
    with pytest.raises(NumerationError):
        zeckendorf.val(w)


def test_lexmax_probe_reports_i_max_below_ell():
    with pytest.raises(NumerationError, match="i_max must be >= 4, got 3"):
        lexmax_convergence_probe(zeck(), golden_ratio(), 4, 3)


@pytest.mark.parametrize("q", [1.1, 2.5, 3.0, True, "5/2"])
def test_rational_base_takes_only_an_int_or_a_fraction(q):
    with pytest.raises(NumerationError, match="must be an int or a Fraction"):
        RealBase.rational(q)


def test_rational_base_from_an_int_or_a_fraction():
    assert RealBase.rational(3).source == "int:3"
    assert RealBase.rational(Fraction(11, 10)).source == "rat:11/10"


@pytest.mark.parametrize("width", ["1/1000", True, 0.1, 1.0, [1]], ids=repr)
def test_enclosure_width_takes_only_an_int_or_a_fraction(width):
    with pytest.raises(NumerationError, match="width must be an int or a Fraction"):
        golden_ratio().enclosure(width)


def test_enclosure_width_from_an_int_or_a_fraction():
    base = golden_ratio()
    assert base.enclosure(1).width < 1
    assert base.enclosure(Fraction(1, 1000)).width < Fraction(1, 1000)


@pytest.mark.parametrize(
    "coeffs", [(-1.0, -1, 1), (-1, -1, True), (-1, "-1", 1), (Fraction(-1), -1, 1)]
)
def test_algebraic_coefficients_must_be_integers(coeffs):
    with pytest.raises(NumerationError, match="a coefficient must be an integer"):
        RealBase.algebraic(coeffs, (1, 2))


@pytest.mark.parametrize("interval", [(1.1, 2), (1, 2.0), (True, 2), ("1", 2), (1, None)])
def test_algebraic_interval_ends_must_be_ints_or_fractions(interval):
    with pytest.raises(NumerationError, match="an interval end must be an int or a Fraction"):
        RealBase.algebraic((-1, -1, 1), interval)


def test_algebraic_interval_from_ints_and_fractions():
    assert RealBase.algebraic((-1, -1, 1), (Fraction(11, 10), 2)).source == "poly:1,-1,-1@(11/10,2)"
    assert RealBase.algebraic((-1, -1, 1), (1, Fraction(2))).source == "poly:1,-1,-1@(1,2)"


# a Dfa with one bad state or letter -> the message it raises
BAD_DFAS = {
    "num_states-float": ((2.0, 0, {}, {0}), "num_states must be an integer, got 2.0"),
    "num_states-bool": ((True, 0, {}, {0}), "num_states must be an integer, got True"),
    "num_states-zero": ((0, 0, {}, set()), "num_states must be >= 1, got 0"),
    "initial-float": ((2, 0.0, {}, {0}), "a state must be an integer, got 0.0"),
    "initial-bool": ((2, False, {}, {0}), "a state must be an integer, got False"),
    "final-float": ((2, 0, {}, {1.0}), "a state must be an integer, got 1.0"),
    "final-string": ((2, 0, {}, {"1"}), "a state must be an integer, got '1'"),
    "source-float": ((2, 0, {(0.0, 0): 1}, {0}), "a state must be an integer, got 0.0"),
    "target-float": ((2, 0, {(0, 0): 1.0}, {0}), "a state must be an integer, got 1.0"),
    "target-bool": ((2, 0, {(0, 0): True}, {0}), "a state must be an integer, got True"),
    "letter-half": ((2, 0, {(0, 0.5): 1}, {0}), "a letter must be an integer, got 0.5"),
    "letter-bool": ((2, 0, {(0, True): 1}, {0}), "a letter must be an integer, got True"),
    "letter-negative": ((2, 0, {(0, -1): 1}, {0}), "a letter must be >= 0, got -1"),
}


@pytest.mark.parametrize("name", sorted(BAD_DFAS))
def test_dfa_states_and_letters_must_be_integers(name):
    args, message = BAD_DFAS[name]
    with pytest.raises(NumerationError, match=f"^{message}$"):
        Dfa(*args)


@pytest.mark.parametrize(
    "args",
    [(1, 5, {}, {0}), (1, -1, {}, {0}), (1, 0, {}, {7}), (2, 0, {(0, 1): 1}, {0, -1})],
    ids=["initial-above", "initial-negative", "final-above", "final-negative"],
)
def test_dfa_states_must_be_in_range(args):
    with pytest.raises(NumerationError, match="out of range"):
        Dfa(*args)


def test_dfa_with_states_in_range_counts():
    assert Dfa(1, 0, {(0, 0): 0, (0, 1): 0}, {0}).count_accepted(3) == 8
    assert Dfa(2, 1, {(1, 0): 0}, {0}).count_accepted(1) == 1
