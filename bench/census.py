"""Boyd's census of Salem sextics, rebuilt with exact integer arithmetic.

Boyd (1996, "On the beta expansion for Salem numbers of degree 6")
searched the box of reciprocal polynomials

    P(x) = x^6 + a x^5 + b x^4 + c x^3 + b x^2 + a x + 1,
    a in [-8, 0], b in [-8, 8], c in [-10, 10].

P(x) = x^3 T(x + 1/x) with the trace cubic
T(y) = y^3 + a y^2 + (b - 3) y + (c - 2a).  P has a Salem root exactly
when T has one root above 2 and two distinct roots in (-2, 2), counted
here with Sturm sequences; P is then irreducible unless it shares a
factor with a cyclotomic polynomial of degree at most 4, which an exact
gcd rules out.  The box holds 1080 Salem sextics.

This module is self-contained (stdlib only) so that the benchmark's
inputs and oracles never go through the code they measure.
"""

from __future__ import annotations

from fractions import Fraction

EXPECTED_COUNT = 1080

# cyclotomic polynomials of degree <= 4, low-first coefficients
CYCLOTOMIC = (
    (-1, 1),
    (1, 1),
    (1, 1, 1),
    (1, 0, 1),
    (1, -1, 1),
    (1, 1, 1, 1, 1),
    (1, 0, 0, 0, 1),
    (1, -1, 1, -1, 1),
    (1, 0, -1, 0, 1),
)


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def evaluate(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_rem(p, q):
    """Remainder of p modulo q over Q (low-first Fraction lists)."""
    r = [Fraction(c) for c in trim(p)]
    q = trim(q)
    while len(r) >= len(q):
        f = r[-1] / q[-1]
        k = len(r) - len(q)
        for i, c in enumerate(q):
            r[k + i] -= f * c
        r = trim(r)
        if not r:
            break
    return r


def poly_gcd(p, q):
    """Monic gcd over Q; [1] when coprime."""
    a, b = trim(p), trim(q)
    while b:
        a, b = b, poly_rem(a, b)
    lead = Fraction(a[-1])
    return [Fraction(c) / lead for c in a]


def sturm_count(p, lo, hi):
    """Distinct real roots of p in (lo, hi]; hi=None means +infinity."""
    chain = [[Fraction(c) for c in trim(p)]]
    chain.append([i * c for i, c in enumerate(chain[0])][1:])
    while True:
        r = poly_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    at_lo = [evaluate(q, lo) for q in chain]
    at_hi = [q[-1] for q in chain] if hi is None else [evaluate(q, hi) for q in chain]
    return variations(at_lo) - variations(at_hi)


def is_salem_sextic(a: int, b: int, c: int) -> bool:
    t = (c - 2 * a, b - 3, a, 1)
    # a monic cubic with one root above 2 and two in (-2, 2) is negative at
    # both -2 and 2; this cheap test spares most Sturm sequences
    if evaluate(t, 2) >= 0 or evaluate(t, -2) >= 0:
        return False
    if sturm_count(t, 2, None) != 1 or sturm_count(t, -2, 2) != 2:
        return False
    p = (1, a, b, c, b, a, 1)
    return all(len(poly_gcd(p, phi)) == 1 for phi in CYCLOTOMIC)


def salem_sextics() -> list:
    """The (a, b, c) triples of Boyd's box that define Salem sextics."""
    out = [
        (a, b, c)
        for a in range(-8, 1)
        for b in range(-8, 9)
        for c in range(-10, 11)
        if is_salem_sextic(a, b, c)
    ]
    if len(out) != EXPECTED_COUNT:
        raise RuntimeError(f"census has {len(out)} Salem sextics, expected {EXPECTED_COUNT}")
    return out


def coefficients(abc) -> tuple:
    """High-first coefficients of the sextic."""
    a, b, c = abc
    return (1, a, b, c, b, a, 1)


def root_bound(abc) -> int:
    """The Cauchy bound 1 + max|coefficient|: every root lies below it."""
    return 1 + max(abs(x) for x in coefficients(abc))


def base_spec(abc) -> str:
    """CLI base spec: the Salem root is the only real root in (1, root_bound)."""
    return "poly:" + ",".join(str(x) for x in coefficients(abc)) + f"@(1,{root_bound(abc)})"
