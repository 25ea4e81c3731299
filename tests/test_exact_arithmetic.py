from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from bertrandnum import NumerationError
from bertrandnum import polynomials as pl
from bertrandnum.intervals import Interval

from oracles import (
    eval_at,
    fraction_gcd,
    fraction_primitive,
    fraction_sturm_chain,
    gap,
    overlaps,
    poly_add,
    poly_divides,
    poly_mul,
    poly_sub,
    sturm_count,
)


def test_poly_normalization_and_eval():
    assert pl.poly([1, 2, 0, 0]) == (1, 2)
    assert pl.poly([0, 0]) == ()
    p = pl.from_high_first([1, -1, -1])  # x^2 - x - 1
    assert p == (-1, -1, 1)
    assert eval_at(p, 2) == 1
    assert eval_at(p, Fraction(1, 2)) == Fraction(-5, 4)
    assert pl.sign_at(p, 1) == -1 and pl.sign_at(p, 2) == 1


@st.composite
def points_and_polys(draw):
    """A rational point a/b (b > 0, not always in lowest terms) and an
    integer polynomial, which half the time has a/b as a root."""
    a = draw(st.integers(-10**6, 10**6))
    b = draw(st.integers(1, 10**6))
    p = pl.poly(draw(st.lists(st.integers(-60, 60), max_size=8)))
    if draw(st.booleans()):
        p = poly_mul(p, (-a, b))
    return p, a, b


@given(points_and_polys())
@example(((), 3, 7))
@example(((-2, 3), 2, 3))  # a root
@example(((-2, 3), 4, 6))  # the same root, unreduced
@example(((0, 0, 1), 0, 5))  # a double root at zero
@example(((5, 0, -1, 1), -3, 2))  # a negative point
def test_sign_kernel_matches_fraction_horner(case):
    p, a, b = case
    v = eval_at(p, Fraction(a, b))
    want = (v > 0) - (v < 0)
    assert pl.sign_at_ratio(p, a, b) == want
    assert pl.sign_at(p, Fraction(a, b)) == want
    if b == 1:
        assert pl.sign_at(p, a) == want


def test_poly_arithmetic():
    p, q = (1, 1), (-1, 1)  # x+1, x-1
    assert poly_mul(p, q) == (-1, 0, 1)
    assert poly_add(p, q) == (0, 2)
    assert poly_sub(p, p) == ()
    assert pl.derivative((-1, 0, 1)) == (0, 2)


def test_gcd_and_squarefree():
    p = poly_mul((-1, -1, 1), (-1, -1, 1))
    assert pl.squarefree_chain(p)[0] == (-1, -1, 1)
    assert pl.gcd(poly_mul((-2, 1), (-1, 1)), poly_mul((-2, 1), (3, 1))) == (-2, 1)
    assert poly_divides((-1, 1), (-1, 0, 0, 1))  # x-1 | x^3-1
    assert not poly_divides((1, 1), (-1, -1, 1))


@given(st.lists(st.integers(-9, 9), max_size=5), st.lists(st.integers(-9, 9), max_size=5),
       st.lists(st.integers(-9, 9), max_size=3))
def test_poly_divides_oracle_matches_gcd_degree(p, q, r):
    """p divides q over Q exactly when gcd(p, q) has the degree of p; a
    multiple of p is divided by it.  The gcd is Euclid's over Q, zero
    polynomials included."""
    p, q, r = pl.poly(p), pl.poly(q), pl.poly(r)
    assert pl.gcd(p, q) == fraction_gcd(p, q)
    if p:
        assert poly_divides(p, q) == (pl.degree(pl.gcd(p, q)) == pl.degree(p))
        assert poly_divides(p, poly_mul(poly_add(q, r), p))
    else:
        assert poly_divides(p, q) == (not q)


def test_exact_div_raises_on_remainder():
    with pytest.raises(NumerationError):
        pl.exact_div((-1, -1, 1), (1, 1))
    # 2X + 1 does not divide X: the first step is inexact, with nothing left below it
    with pytest.raises(NumerationError):
        pl.exact_div((0, 1), (1, 2))
    assert pl.exact_div((-4, 0, 4), (2, 2)) == (-1, 1)


def signs_at(chain, x) -> list:
    """The sign of each member of a chain at x, by Horner's rule in Fractions."""
    return [(v > 0) - (v < 0) for v in (eval_at(q, Fraction(x)) for q in chain)]


@st.composite
def common_factor_products(draw):
    """k f^2 g, f h and f for integer polynomials f, g, h of degree 0 to 3
    and a nonzero integer k: forced common and repeated factors,
    non-primitive multiples, negative leading coefficients and constants."""
    def factor():
        return pl.poly(draw(st.lists(st.integers(-6, 6), max_size=3))
                       + [draw(st.integers(-4, 4).filter(bool))])

    f, g, h, k = factor(), factor(), factor(), draw(st.integers(-6, 6).filter(bool))
    return poly_mul((k,), poly_mul(poly_mul(f, f), g)), poly_mul(f, h), f


@given(common_factor_products(),
       st.lists(st.fractions(-20, 20, max_denominator=12), min_size=1, max_size=4))
@example(((-2, 0, 2), (-1, 1), (-1, 1)), [Fraction(1)])  # 2(X - 1)(X + 1) and X - 1
@example(((-6,), (3,), (1,)), [Fraction(0)])  # constants
def test_remainder_sequence_matches_fraction_euclid(products, points):
    """gcd, square-free part, exact quotient and Sturm chain from the
    integer remainder sequence against Euclid's algorithm in Fractions.

    A quotient is pinned by the product: a primitive polynomial with a
    positive leading coefficient whose product with the divisor is a
    rational multiple of the dividend."""
    p, q, f = products
    assert pl.gcd(p, q) == fraction_gcd(p, q) == pl.gcd(q, p)
    sqf = pl.squarefree_chain(p)[0]
    assert sqf == fraction_primitive(sqf)
    assert fraction_primitive(poly_mul(sqf, fraction_gcd(p, pl.derivative(p)))) == (
        fraction_primitive(p))
    for a, b in ((p, q), (q, p), (p, poly_mul(f, f)), (q, f)):
        if poly_divides(b, a):
            quot = pl.exact_div(a, b)
            assert quot == fraction_primitive(quot)
            assert fraction_primitive(poly_mul(quot, b)) == fraction_primitive(a)
        else:
            with pytest.raises(NumerationError, match="not exact"):
                pl.exact_div(a, b)
    for r in (p, sqf):
        chain, reference = pl.sturm_chain(r), fraction_sturm_chain(r)
        assert len(chain) == len(reference)
        for x in points:
            assert signs_at(chain, x) == signs_at(reference, x)


@given(common_factor_products(), st.fractions(-20, 20, max_denominator=12),
       st.fractions(-20, 20, max_denominator=12))
@example(((-2, 0, 2, 0, -2, 0, 2), (-1, 1), (-1, 1)), Fraction(0), Fraction(2))  # 2(X^2 - 1)^3
def test_chain_with_repeated_factors_counts_distinct_roots(products, a, b):
    """The chain of k f^2 g counts the distinct roots of its square-free
    part, and its last member is the gcd that square-free part divides
    out."""
    p = products[0]
    lo, hi = sorted((a, b))
    assume(pl.degree(p) >= 1 and lo < hi and pl.sign_at(p, lo) and pl.sign_at(p, hi))
    sqf, chain = pl.squarefree_chain(p)
    assert sqf == pl.squarefree_chain(p)[0]
    assert pl.gcd(p, pl.derivative(p)) == pl.primitive(chain[-1])
    assert pl.count_roots(chain, lo, hi) == sturm_count(sqf, lo, hi)


def test_sturm_count():
    p = (-1, -1, 1)  # roots ~ -0.618, 1.618
    assert pl.count_roots(pl.sturm_chain(p), Fraction(0), Fraction(2)) == 1
    assert pl.count_roots(pl.sturm_chain(p), Fraction(-1), Fraction(2)) == 2
    assert pl.count_roots(pl.sturm_chain(p), Fraction(2), Fraction(3)) == 0
    wilkinsonish = poly_mul(poly_mul((-1, 1), (-2, 1)), (-3, 1))
    assert pl.count_roots(pl.sturm_chain(wilkinsonish), Fraction(1, 2), Fraction(7, 2)) == 3


@st.composite
def sturm_cases(draw):
    """A square-free integer polynomial of degree 1 to 8 and a rational
    interval (lo, hi] with p(lo) != 0.  Half the time p is built as
    (bX - a)^2 h + c, so that a/b is a root of p'; an end may then sit on
    a/b, or on the root of the linear member of the Sturm chain."""
    if draw(st.booleans()):
        a, b = draw(st.integers(-12, 12)), draw(st.integers(1, 4))
        h = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=7))
        p = poly_add(poly_mul(poly_mul((-a, b), (-a, b)), pl.poly(h)), (draw(st.integers(1, 30)),))
        critical = [Fraction(a, b)]
    else:
        p, critical = pl.poly(draw(st.lists(st.integers(-20, 20), min_size=2, max_size=9))), []
    assume(1 <= pl.degree(p) <= 8 and pl.degree(pl.gcd(p, pl.derivative(p))) == 0)
    critical += [Fraction(-q[0], q[1]) for q in fraction_sturm_chain(p)[1:] if pl.degree(q) == 1]
    ends = [Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 12))) for _ in range(2)]
    for i in range(2):
        if critical and draw(st.booleans()):
            ends[i] = draw(st.sampled_from(critical))
    lo, hi = sorted(ends)
    assume(lo < hi and eval_at(p, lo) != 0)
    return p, lo, hi


@given(sturm_cases())
@example(((0, -3, 0, 1), Fraction(-1), Fraction(1)))  # both ends are roots of p'
@example(((0, -3, 0, 1), Fraction(-2), Fraction(0)))  # hi is a root of p and of 2X
@example(((-1, -1, 1), Fraction(1, 2), Fraction(2)))  # the root of the linear p'
@example(((1, 1, 0, 0, 1), Fraction(-2), Fraction(0)))  # a degree gap of 2 at a negative lead
def test_count_roots_matches_fraction_sturm_count(case):
    p, lo, hi = case
    chain, reference = pl.sturm_chain(p), fraction_sturm_chain(p)
    assert pl.count_roots(chain, lo, hi) == sturm_count(p, lo, hi)
    for x in (lo, hi):
        assert signs_at(chain, x) == signs_at(reference, x)


def test_format_and_parse():
    assert pl.format_poly((-1, -1, 1)) == "X^2 - X - 1"
    assert pl.format_poly((3, -4, 1)) == "X^2 - 4X + 3"
    assert pl.format_poly(()) == "0"
    assert pl.parse_poly_high_first("1,-3,1") == (1, -3, 1)
    with pytest.raises(NumerationError):
        pl.parse_poly_high_first("1,x")


def test_interval_arithmetic():
    a = Interval(Fraction(1), Fraction(2))
    b = Interval(Fraction(-1), Fraction(3))
    assert (a + b) == Interval(0, 5)
    assert (a * b) == Interval(-2, 6)
    assert (a - 1) == Interval(0, 1)
    assert (b**2) == Interval(0, 9)
    assert a.recip() == Interval(Fraction(1, 2), 1)
    assert (a**3) == Interval(1, 8)
    assert a.contains(Fraction(3, 2)) and not a.contains(3)


def test_interval_gap_and_overlap():
    a = Interval(0, 1)
    b = Interval(2, 3)
    assert not overlaps(a, b)
    assert gap(a, b) == 1
    assert gap(a, Interval(Fraction(1, 2), 4)) == 0


def test_interval_division_by_zero_straddling():
    with pytest.raises(NumerationError):
        Interval(-1, 1).recip()


def test_interval_empty_rejected():
    with pytest.raises(NumerationError):
        Interval(2, 1)
