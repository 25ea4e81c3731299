import json
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from bertrandnum import NumSys, RealBase, epword, format_epword

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
