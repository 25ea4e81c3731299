"""The CLI and the package load each layer only when it is used.

Each check runs in a fresh `python -S` interpreter on src/, so nothing
this test session has imported counts.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import bertrandnum

SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = SRC.parent / "fixtures"
LAYERS = ("errors", "words", "polynomials", "intervals", "realbase", "numsys", "bertrand",
          "automata", "analysis", "cli")


def loaded_after(code: str) -> set:
    """The modules loaded by a fresh interpreter once `code` has run.

    The names are printed as plain text, so reporting them loads nothing
    (printing them as JSON would load `json` and hide its absence)."""
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"{code}\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, timeout=60, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_loaded_after_sees_what_the_code_did_not_load():
    assert "json" not in loaded_after("pass")
    assert "json" in loaded_after("import json")


def test_parser_loads_no_layer():
    loaded = loaded_after("import bertrandnum.cli\nbertrandnum.cli.make_parser()")
    assert {m for m in loaded if m.startswith("bertrandnum")} == {
        "bertrandnum", "bertrandnum.cli", "bertrandnum.errors"
    }
    assert not loaded & {"fractions", "dataclasses", "json"}


def test_polynomials_load_no_fractions():
    # the polynomial substrate divides in integers alone
    loaded = loaded_after("import bertrandnum.polynomials")
    assert "bertrandnum.polynomials" in loaded
    assert "fractions" not in loaded


def run_main(*argv) -> str:
    return (
        "import contextlib, io\n"
        "from bertrandnum.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
    )


def layers(*names) -> set:
    return {f"bertrandnum.{m}" for m in names}


NO_REALBASE = layers("realbase", "polynomials", "intervals", "analysis") | {"fractions"}
NO_NUMSYS = layers("numsys", "bertrand", "automata", "analysis")
ZECKENDORF = str(FIXTURES / "zeckendorf.json")


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["member", "--system", ZECKENDORF, "--word", "101"], NO_REALBASE, {"json"}),
        (["member", "--system", "bertrand:11", "--word", "101"], NO_REALBASE | {"json"}, set()),
        (["check-bertrand", "--system", "bertrand:11", "--max-len", "6"],
         NO_REALBASE | {"json"}, set()),
        (["check-bertrand", "--system", "bertrand:11", "--max-len", "6", "--json"],
         NO_REALBASE, {"json"}),
        (["dbeta", "--base", "poly:1,-1,-1@(1,2)", "--depth", "10"], NO_NUMSYS | {"json"}, set()),
        (["dbeta", "--base", "int:3", "--json"], NO_NUMSYS, {"json"}),
        (["dstar", "--base", "int:3"], NO_NUMSYS | {"json"}, set()),
    ],
    ids=["member-file", "member", "check-bertrand", "check-bertrand-json", "dbeta", "dbeta-json",
         "dstar"],
)
def test_command_loads_only_its_layers(argv, absent, present):
    """A command loads only the layers it uses, and `json` only when it
    prints JSON or reads a system file."""
    loaded = loaded_after(run_main(*argv))
    assert not absent & loaded
    assert present <= loaded


PUBLIC_NAMES = [
    "BertrandReport", "ClassifyResult", "CountingIdentityReport", "Dfa", "DigitWord", "EPWord",
    "EntropyReport", "Interval", "LexMaxConvergenceReport", "NumSys", "NumerationError",
    "ParryClass", "RealBase", "RefinementBudgetError", "UnresolvedBaseError", "VARIANTS",
    "Violation", "WordError", "base_from_expansion", "build_bertrand", "build_shift_dfa",
    "char_poly", "classify_bertrand", "digit_word", "dominant_root_ratios", "entropy_estimates",
    "epword", "expansion_polynomial", "format_epword", "format_word", "generating_word",
    "is_parry_valid", "lexmax_convergence_probe", "parse_base", "parse_epword",
    "parse_system", "parse_word", "quasi_greedy_of", "quasi_to_greedy", "renewal_empirical",
    "renewal_target", "suffixes_at_most", "verify_counting_identity",
]
# every layer but the CLI, which the package never imported
LAYER_MODULES = [m for m in LAYERS if m != "cli"]
# what `from bertrandnum import *` binds: the public names and the layer modules
PUBLIC_API = sorted(PUBLIC_NAMES + LAYER_MODULES)


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(bertrandnum.__all__)
    layers = [getattr(bertrandnum, m) for m in LAYER_MODULES]
    for name in PUBLIC_NAMES:
        value = getattr(bertrandnum, name)
        assert [m for m in layers if getattr(m, name, None) is value], name
    for m in LAYER_MODULES:
        assert getattr(bertrandnum, m).__name__ == f"bertrandnum.{m}"
    assert set(PUBLIC_API) <= set(dir(bertrandnum))
    assert bertrandnum.NumSys is bertrandnum.numsys.NumSys
    assert bertrandnum.VARIANTS is bertrandnum.realbase.VARIANTS
    with pytest.raises(AttributeError, match="no_such_name"):
        bertrandnum.no_such_name


def test_star_import_and_layers_as_attributes():
    loaded = loaded_after(
        "import bertrandnum\n"
        "assert bertrandnum.numsys.NumSys.__module__ == 'bertrandnum.numsys'\n"
        "namespace = {}\n"
        "exec('from bertrandnum import *', namespace)\n"
        f"assert sorted(set(namespace) - {{'__builtins__'}}) == {PUBLIC_API!r}\n"
        "assert namespace['RealBase'] is bertrandnum.realbase.RealBase\n"
        "assert namespace['numsys'] is bertrandnum.numsys\n"
    )
    assert {f"bertrandnum.{m}" for m in LAYER_MODULES} <= loaded


def test_import_loads_no_layer():
    loaded = loaded_after("import bertrandnum")
    assert {m for m in loaded if m.startswith("bertrandnum")} == {"bertrandnum"}
