"""Dense univariate polynomials with integer coefficients.

Coefficients are stored lowest degree first; the zero polynomial is the
empty tuple.  Only what the root-isolation and recurrence machinery
needs lives here: exact sign tests, the derivative, gcd, square-free
part, Sturm counting and a pretty printer.  One Sturm chain gives both
the square-free part of a polynomial and the count of its roots.

Every sign the package decides about a polynomial at a rational point
comes from one integer kernel, `sign_at_ratio`: the bisection of a
base's isolating interval and the Sturm count both read it.  No
function here returns the value p(x) itself.  Every division stays in
integers too: gcd, the square-free part and the Sturm chain read one
remainder sequence, `_remainders`.
"""

from __future__ import annotations

from math import gcd as igcd

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


def _content_free(p) -> IntPoly:
    """p divided by the positive gcd of its integer coefficients."""
    p = poly(p)
    g = igcd(*p)
    return tuple(c // g for c in p) if g > 1 else p


def primitive(p) -> IntPoly:
    """Divide out the integer content and make the leading coefficient
    positive."""
    p = _content_free(p)
    return p if not p or p[-1] > 0 else tuple(-c for c in p)


def _remainders(a, b) -> list:
    """a, b and then minus the remainder of the last two, up to the last
    nonzero member: the Euclidean remainder sequence over Q with each
    member an integer polynomial times a positive constant.

    The remainder of A by B is taken as the pseudo-remainder
    lc(B)^e A mod B, e = deg A - deg B + 1, with B's sign flipped to make
    lc(B) > 0 (Collins 1967; Brown and Traub 1971).  The remainder of c*A
    by c'*B is c times that of A by B, so dividing each member by its
    positive content flips no later sign.
    """
    seq = [_content_free(a), _content_free(b)]
    while seq[-1]:
        r, d = list(seq[-2]), seq[-1]
        if d[-1] < 0:
            d = tuple(-c for c in d)
        lead = d[-1]
        for k in range(len(r) - len(d), -1, -1):
            top = r.pop()
            r = [c * lead for c in r]
            for i, c in enumerate(d[:-1]):
                r[k + i] -= top * c
        seq.append(_content_free(-c for c in r))
    return seq[:-1]


def gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd over Q, with positive leading coefficient."""
    return primitive(_remainders(p, q)[-1])


def exact_div(p: IntPoly, q: IntPoly) -> IntPoly:
    """The primitive quotient of p by q, which must divide p over Q.

    By Gauss's lemma a primitive q divides a primitive p over Q exactly
    when the quotient is an integer polynomial, so long division of the
    primitive parts stays in integers and fails at its first inexact step.
    """
    r, d = list(primitive(p)), primitive(q)
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(r) - len(d) + 1, 0)
    for k in reversed(range(len(quot))):
        f, m = divmod(r[-1], d[-1])
        if m:
            break
        quot[k] = f
        r.pop()
        for i, c in enumerate(d[:-1]):
            r[k + i] -= f * c
    if any(r):
        raise NumerationError("polynomial division was not exact")
    return tuple(quot)


def squarefree_chain(p: IntPoly) -> tuple:
    """The primitive square-free part of p, and the Sturm chain of p,
    whose last member is gcd(p, p') times a positive constant."""
    p = primitive(p)
    chain = sturm_chain(p)
    g = chain[-1]
    return (exact_div(p, g) if degree(g) > 0 else p), chain


def sturm_chain(p: IntPoly):
    """The Sturm sequence of p: p, p' and minus each remainder, each
    member an integer polynomial times a positive constant, so every
    member has the sign of the textbook one."""
    return _remainders(p, derivative(p))


def _variations(signs) -> int:
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(chain, lo, hi) -> int:
    """Number of distinct real roots in the interval (lo, hi], whose ends
    are ints or Fractions, of the polynomial p whose Sturm chain is `chain`.

    Requires p(lo) != 0, and p(hi) != 0 when p is not square-free.  Then
    each member is gcd(p, p') times the member of the chain of the
    square-free part, and the gcd keeps one sign at each end, so dividing
    it out changes no sign variation.  The signs of the chain come from
    `sign_at`, the package's one sign kernel.
    """
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
