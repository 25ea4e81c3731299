import functools
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from bertrandnum import NumSys, RealBase, epword, format_epword, is_parry_valid
from bertrandnum import polynomials as pl

from oracles import eval_at, poly_divides

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load_system(name: str) -> NumSys:
    with open(FIXTURES / f"{name}.json") as fh:
        return NumSys.from_json(json.load(fh))


@pytest.fixture
def zeckendorf():
    return load_system("zeckendorf")


@pytest.fixture
def phi_noncanonical():
    return load_system("phi_noncanonical")


@pytest.fixture
def base3_canonical():
    return load_system("base3_canonical")


@pytest.fixture
def base3_noncanonical():
    return load_system("base3_noncanonical")


@pytest.fixture
def ex31_not_prolongable():
    return load_system("ex31_not_prolongable")


@pytest.fixture
def ex31_not_prefix_closed():
    return load_system("ex31_not_prefix_closed")


@pytest.fixture
def ex53_oscillating():
    return load_system("ex53_oscillating")


@pytest.fixture
def phi_squared_system():
    return load_system("phi_squared")


@st.composite
def system_jsons(draw):
    """System JSON of the two generator kinds: recurrences of order <= 3
    with coefficients -1..3, addend 0..2 and increasing initial values,
    with and without a declared alphabet; and Bertrand rules of
    eventually periodic words over 0..3.  Many of them break their own
    values or alphabet somewhere."""
    if draw(st.booleans()):
        pre = draw(st.lists(st.integers(0, 3), max_size=3))
        per = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        word = epword(pre, per)
        assume(word.digit(0) >= 1)
        return {"bertrand": {"word": format_epword(word)}}
    order = draw(st.integers(1, 3))
    initial = [1]
    for _ in range(order - 1 + draw(st.integers(0, 1))):
        initial.append(initial[-1] + draw(st.integers(1, 4)))
    data = {
        "initial": initial,
        "recurrence": {
            "coeffs": draw(st.lists(st.integers(-1, 3), min_size=order, max_size=order)),
            "addend": draw(st.integers(0, 2)),
        },
    }
    if draw(st.booleans()):
        data["alphabet_max"] = draw(st.integers(1, 4))
    return data


# exactly specified bases used all over the suite
def golden_ratio() -> RealBase:
    return RealBase.algebraic((-1, -1, 1), (1, 2))


def golden_ratio_squared() -> RealBase:
    return RealBase.algebraic((1, -3, 1), (2, 3))


def tribonacci() -> RealBase:
    return RealBase.algebraic((-1, -1, -1, 1), (1, 2))


@pytest.fixture
def phi():
    return golden_ratio()


@pytest.fixture
def phi2():
    return golden_ratio_squared()


@pytest.fixture
def trib():
    return tribonacci()


def small_valid_expansions(max_total=5, max_digit=3):
    """Every strict Parry word with at most `max_total` letters in its
    preperiod and period together, over 0..max_digit, each once."""
    digits = range(max_digit + 1)
    ten_omega = epword((1,), (0,))
    seen = set()
    for total in range(1, max_total + 1):
        for per_len in range(1, total + 1):
            pre_len = total - per_len
            for pre in itertools.product(digits, repeat=pre_len):
                for per in itertools.product(digits, repeat=per_len):
                    w = epword(pre, per)
                    if w in seen:
                        continue
                    seen.add(w)
                    if w.digit(0) >= 1 and w != ten_omega and is_parry_valid(w, True):
                        yield w


# y + 1, y, y - 1 and the quadratics y^2 + y - 1, y^2 - y - 1, y^2 - 2,
# y^2 - 3: the traces z + 1/z of the roots z of the cyclotomic polynomials
# of degree 2 and 4 (those of degree 1 are excluded by the signs at +-2)
_CYCLOTOMIC_TRACES = ((1, 1), (0, 1), (-1, 1), (-1, 1, 1), (-1, -1, 1), (-2, 0, 1), (-3, 0, 1))


@functools.lru_cache(maxsize=None)
def census_sextics() -> tuple:
    """Base specs of Boyd's census of Salem sextics (1080 of them), in
    order of (a, b, c).  P = x^6 + ax^5 + bx^4 + cx^3 + bx^2 + ax + 1 with
    a in [-8, 0], b in [-8, 8], c in [-10, 10] is x^3 T(x + 1/x) for the
    trace cubic T = y^3 + ay^2 + (b - 3)y + (c - 2a); P has a Salem root
    when T has one root above 2 and two distinct roots in (-2, 2), and is
    then irreducible unless T has the trace of a cyclotomic factor."""
    out = []
    for a in range(-8, 1):
        for b in range(-8, 9):
            for c in range(-10, 11):
                t = (c - 2 * a, b - 3, a, 1)
                if eval_at(t, 2) >= 0 or eval_at(t, -2) >= 0:
                    continue
                if any(poly_divides(q, t) for q in _CYCLOTOMIC_TRACES):
                    continue
                if pl.count_roots(t, -2, 2) != 2:
                    continue
                p = (1, a, b, c, b, a, 1)
                bound = 1 + max(abs(x) for x in p)
                out.append(f"poly:{','.join(map(str, p))}@(1,{bound})")
    return tuple(out)
