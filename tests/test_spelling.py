"""The same base gives the same answers however its spec is written.

Each base is spelled as `parry:w`, as its `int:`, `rat:`, census or
`char_poly` `poly:` spec, with the polynomial's coefficients times 2 and 3,
with another isolating interval, and for a rational base through a
reducible polynomial whose extra factor has no root in the interval.
Every spelling must give the same `parry_class`, and a Parry base the same
`build --count 30` values and `automaton --json` for both variants.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from bertrandnum import (
    VARIANTS,
    build_bertrand,
    build_shift_dfa,
    epword,
    format_epword,
    parse_base,
)
from bertrandnum import polynomials as pl
from bertrandnum.cli import main
from bertrandnum.realbase import char_poly

from conftest import census_sextics, small_valid_expansions

DEPTH = 64  # every base below resolves within 31 digits, or is rational
CENSUS_SEED = Path(__file__).resolve().parent.parent / "bench" / "census_seed.json"


def answers(spec: str) -> tuple:
    """The class of the base at DEPTH and, for a Parry base, the first 30
    values and the shift automaton of both variants."""
    base = parse_base(spec)
    cls = base.parry_class(DEPTH)
    if not cls.resolved:
        return (cls,)
    return (
        cls,
        [build_bertrand(base, v).values(30) for v in VARIANTS],
        [build_shift_dfa(base, v).to_json() for v in VARIANTS],
    )


def poly_specs(high_first, lo, hi) -> list:
    """The `poly:` spec, its coefficients times 2 and 3, and for an
    irrational root the same polynomial on the dyadic cell of width below
    1/16 inside (lo, hi)."""
    text = ",".join(map(str, high_first))
    specs = [f"poly:{','.join(str(k * c) for c in high_first)}@({lo},{hi})" for k in (1, 2, 3)]
    cell = parse_base(specs[0]).enclosure(Fraction(1, 16))
    if cell.lo < cell.hi:
        specs.append(f"poly:{text}@({cell.lo},{cell.hi})")
    return specs


def assert_same_answers(specs):
    want = answers(specs[0])
    for spec in specs[1:]:
        assert answers(spec) == want, (specs[0], spec)


def test_census_spellings():
    # every 12th census sextic whose expansion of 1 resolves with
    # m + n <= 30; the strides keep the file near 1 s, spread over the
    # digit engine, the shift automata, parsing the bases and the values
    rows = json.loads(CENSUS_SEED.read_text())["rows"]
    specs = [
        spec
        for row, spec in zip(rows, census_sextics())
        if row["kind"] != "unresolved" and row["m"] + row["n"] <= 30
    ]
    assert len(specs) == 992
    for spec in specs[::12]:
        high_first, ends = spec[5:].split("@")
        lo, hi = ends.strip("()").split(",")
        word = parse_base(spec).parry_class(DEPTH).word
        high_first = [int(c) for c in high_first.split(",")]
        assert_same_answers([f"parry:{format_epword(word)}", *poly_specs(high_first, lo, hi)])


def test_parry_word_spellings():
    # every third strict Parry word of up to 5 letters, in order of
    # length, and its char_poly spec on (1, d_1 + 2), the interval
    # `beta-of` prints
    words = list(small_valid_expansions(max_total=5))
    assert len(words) == 799
    for w in words[::3]:
        high_first = pl.high_first(char_poly(w, "canonical"))
        assert_same_answers(
            [f"parry:{format_epword(w)}", *poly_specs(high_first, 1, w.digit(0) + 2)]
        )


RATIONALS = [2, 3, 5, 10, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3), Fraction(11, 10)]


def rational_spellings(q: Fraction) -> list:
    """`int:b` or `rat:p/r`; the linear polynomial rX - p on two intervals
    and with its coefficients times 2 and 3; and rX - p times X^2 + 1 and
    times 2X - 1, whose roots are not real or below 1."""
    p, r = q.numerator, q.denominator
    exact = f"int:{p}" if r == 1 else f"rat:{p}/{r}"
    top = p // r + 2
    narrow = f"({q - Fraction(1, 13)},{q + Fraction(1, 3)})"
    return [
        exact,
        f"poly:{r},{-p}@(1,{top})",
        f"poly:{2 * r},{-2 * p}@(1,{top})",
        f"poly:{3 * r},{-3 * p}@(1,{top})",
        f"poly:{r},{-p}@{narrow}",
        f"poly:{r},{-p},{r},{-p}@(1,{top})",
        f"poly:{2 * r},{-(r + 2 * p)},{p}@{narrow}",
    ]


@pytest.mark.parametrize("q", RATIONALS, ids=str)
def test_rational_spellings(q):
    specs = rational_spellings(Fraction(q))
    want = parse_base(specs[0])
    assert want.value == q
    for spec in specs:
        base = parse_base(spec)
        assert (base.kind, base.value, base.source) == (want.kind, want.value, want.source), spec
    if q.denominator == 1:
        # an integer base is Parry, and `parry:q(0)` keeps its own text
        # as its source
        specs.append(f"parry:{format_epword(epword((q,), (0,)))}")
        parry = parse_base(specs[-1])
        assert (parry.kind, parry.value) == (want.kind, want.value)
    assert_same_answers(specs)


def cli(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("q", [3, Fraction(3, 2)], ids=str)
def test_rational_spellings_through_the_cli(capsys, q):
    # an integer base builds the same system and automaton, and a
    # non-integer one fails with the same error line, however written
    specs = rational_spellings(Fraction(q))
    commands = [
        ["build", "--count", "30", "--variant", "canonical", "--beta"],
        ["automaton", "--json", "--variant", "noncanonical", "--beta"],
    ]
    for command in commands:
        want = cli(capsys, *command, specs[0])
        assert want[0] == (0 if q.denominator == 1 else 1)
        for spec in specs[1:]:
            assert cli(capsys, *command, spec) == want, spec


@pytest.mark.xfail(
    strict=True,
    reason="a reducible polynomial with an irrational root hides the repeat "
    "of the remainders (ROADMAP item 10)",
)
def test_reducible_spelling_of_an_irrational_base():
    # phi^2 as (X^2 - 3X + 1)(X - 5) against X^2 - 3X + 1
    assert answers("poly:1,-8,16,-5@(2,3)") == answers("poly:1,-3,1@(2,3)")
