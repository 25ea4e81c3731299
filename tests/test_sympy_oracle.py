"""sympy as an independent oracle for the polynomial substrate.

gcd, square-free part and root counts of `bertrandnum.polynomials` are
compared with sympy's on integer polynomials with forced common and
repeated factors.  sympy is not a dependency: the module is skipped when
it is not installed.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bertrandnum import polynomials as pl

from oracles import poly_mul

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("X")


def to_sympy(p: pl.IntPoly):
    return sympy.Poly(pl.high_first(p) or [0], X, domain="ZZ")


def from_sympy(q) -> pl.IntPoly:
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of the sympy polynomial q."""
    return pl.primitive(pl.from_high_first(int(c) for c in q.all_coeffs()))


def factors(min_size=0, max_size=3):
    nonzero = st.lists(st.integers(-6, 6), min_size=2, max_size=4).map(pl.poly)
    return st.lists(nonzero.filter(lambda f: pl.degree(f) >= 1), min_size=min_size, max_size=max_size)


def product(fs) -> pl.IntPoly:
    p = (1,)
    for f in fs:
        p = poly_mul(p, f)
    return p


@settings(max_examples=150, deadline=None)
@given(factors(), factors(1), factors())
def test_gcd_matches_sympy(common, left, right):
    """p = c a and q = c b share the factor c."""
    c = product(common)
    p, q = poly_mul(c, product(left)), poly_mul(c, product(right))
    assert pl.gcd(p, q) == from_sympy(sympy.gcd(to_sympy(p), to_sympy(q)))


@settings(max_examples=150, deadline=None)
@given(factors(1), factors(), st.integers(2, 3))
def test_squarefree_part_matches_sympy(base, repeated, power):
    """p = a r^power has the repeated factor r."""
    p = poly_mul(product(base), product(repeated * power))
    assert pl.squarefree_chain(p)[0] == from_sympy(sympy.sqf_part(to_sympy(p)))


@settings(max_examples=150, deadline=None)
@given(factors(1), st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 8))
def test_count_roots_matches_sympy(fs, a, b, den):
    """Distinct real roots of the square-free part of a product of
    factors in (lo, hi]; sympy counts them in [lo, hi], the same when lo
    is not a root."""
    p = pl.squarefree_chain(product(fs))[0]
    lo, hi = sorted((Fraction(a, den), Fraction(b, den)))
    assume(lo < hi and pl.sign_at(p, lo) != 0)
    expected = to_sympy(p).count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                       sympy.Rational(hi.numerator, hi.denominator))
    assert pl.count_roots(pl.sturm_chain(p), lo, hi) == expected
