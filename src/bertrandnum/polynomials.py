"""Dense univariate polynomials with exact integer/rational coefficients.

Coefficients are stored lowest degree first; the zero polynomial is the
empty tuple.  Only what the root-isolation and recurrence machinery
needs lives here: exact sign tests, the derivative, gcd, square-free
part, Sturm counting and a pretty printer.

Every sign the package decides about a polynomial at a rational point
comes from one integer kernel, `sign_at_ratio`: the bisection of a
base's isolating interval and the Sturm count both read it.  No
function here returns the value p(x) itself.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NumerationError

IntPoly = tuple


def poly(coeffs) -> IntPoly:
    """Normalize a low-first coefficient sequence (strip leading zeros)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def from_high_first(coeffs) -> IntPoly:
    return poly(reversed(list(coeffs)))


def high_first(p: IntPoly) -> list:
    return list(reversed(p))


def degree(p: IntPoly) -> int:
    return len(p) - 1


def sign_at_ratio(p: IntPoly, a: int, b: int) -> int:
    """Sign of p(a/b) for integers a and b > 0, in integers alone.

    b^n p(a/b) = sum p_i a^i b^(n-i) has the sign of p(a/b); Horner's
    rule on that homogeneous sum multiplies by a and scales the next
    coefficient by the next power of b, so no fraction is ever reduced.
    """
    acc = 0
    scale = 1
    for c in reversed(p):
        acc = acc * a + c * scale
        scale *= b
    return (acc > 0) - (acc < 0)


def sign_at(p: IntPoly, x) -> int:
    """Sign of p(x) at an integer or Fraction x."""
    return sign_at_ratio(p, x.numerator, x.denominator)


def derivative(p: IntPoly) -> IntPoly:
    return poly(i * c for i, c in enumerate(p) if i > 0)


def _divmod_frac(p, q):
    # long division over Q; p, q low-first with Fraction-compatible coeffs
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(c) for c in p]
    d = [Fraction(c) for c in q]
    quot = [Fraction(0)] * max(len(r) - len(d) + 1, 0)
    while len(r) >= len(d) and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(d):
            break
        k = len(r) - len(d)
        f = r[-1] / d[-1]
        quot[k] = f
        for i, c in enumerate(d):
            r[k + i] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return tuple(quot), tuple(r)


def _integral(p) -> IntPoly:
    """p times the positive rational that clears its denominators and
    divides out its integer content: an integer polynomial with the sign
    of p at every point."""
    from math import gcd as igcd, lcm as ilcm

    fracs = [Fraction(c) for c in p]
    den = ilcm(*(c.denominator for c in fracs))
    ints = [int(c * den) for c in fracs]
    g = igcd(*ints) or 1
    return poly(c // g for c in ints)


def primitive(p) -> IntPoly:
    """Clear the denominators, divide out the integer content and make the
    leading coefficient positive."""
    ints = _integral(p)
    return ints if not ints or ints[-1] > 0 else tuple(-c for c in ints)


def gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd over Q, with positive leading coefficient."""
    a = tuple(Fraction(c) for c in p)
    b = tuple(Fraction(c) for c in q)
    while b and any(b):
        _, r = _divmod_frac(a, b)
        a, b = b, r
    return primitive(a)


def exact_div(p: IntPoly, q: IntPoly) -> IntPoly:
    quot, rem = _divmod_frac(p, q)
    if rem:
        raise NumerationError("polynomial division was not exact")
    return primitive(quot)


def squarefree_part(p: IntPoly) -> IntPoly:
    p = primitive(p)
    if degree(p) <= 0:
        return p
    g = gcd(p, derivative(p))
    if degree(g) <= 0:
        return p
    return exact_div(p, g)


def sturm_chain(p: IntPoly):
    """The Sturm sequence of p, each member an integer polynomial times a
    positive constant, so every member has the sign of the textbook one.

    The remainder of c*A by c'*B is c times the remainder of A by B, so
    for c, c' > 0 the positive factors never flip a later member.
    """
    chain = [_integral(p)]
    d = derivative(p)
    if d:
        chain.append(_integral(d))
        while True:
            _, r = _divmod_frac(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_integral(-c for c in r))
    return chain


def _variations(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(p: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of square-free p in the interval (lo, hi].

    Requires p(lo) != 0.  The signs of the chain at lo and hi come from
    `sign_at`, the package's one sign kernel.
    """
    chain = sturm_chain(p)
    at_lo = [sign_at(q, lo) for q in chain]
    if at_lo[0] == 0:
        raise NumerationError("lower endpoint is a root; Sturm count undefined")
    return _variations(at_lo) - _variations([sign_at(q, hi) for q in chain])


def format_poly(p: IntPoly) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(degree(p), -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            term = f"{mag}X" if k == 1 else f"{mag}X^{k}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def parse_poly_high_first(text: str) -> IntPoly:
    try:
        coeffs = [int(t) for t in text.split(",")]
    except ValueError:
        raise NumerationError(f"bad polynomial coefficients: {text!r}") from None
    return from_high_first(coeffs)
