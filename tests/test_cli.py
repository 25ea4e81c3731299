import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bertrandnum import format_word, parse_base
from bertrandnum.cli import main

from conftest import FIXTURES, load_system
from oracles import bertrand_violations


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


GOLDEN_ENCLOSURES = Path(__file__).resolve().parent / "golden" / "enclosures.json"


def printed_ends(base_json):
    """The exact [lo, hi] strings of a printed base, or None without one."""
    enc = (base_json or {}).get("enclosure")
    return enc and [enc["lo"], enc["hi"]]


def test_printed_enclosures_match_golden(capsys):
    # the exact ends that classify --json prints for every fixture (each
    # after that run's digit refinement) and that beta-of --json prints
    golden = json.loads(GOLDEN_ENCLOSURES.read_text())
    assert sorted(golden["classify"]) == sorted(f.stem for f in FIXTURES.glob("*.json"))
    for name, want in golden["classify"].items():
        code, out, _ = run(capsys, "classify", "--system", str(FIXTURES / f"{name}.json"), "--json")
        assert code == 0 and printed_ends(json.loads(out)["base"]) == want, name
    for word, want in golden["beta-of"].items():
        code, out, _ = run(capsys, "beta-of", "--word", word, "--json")
        assert code == 0 and printed_ends(json.loads(out)) == want, word


def test_dbeta_golden_ratio(capsys):
    code, out, _ = run(capsys, "dbeta", "--base", "poly:1,-1,-1@(1,2)", "--depth", "10")
    assert code == 0
    assert out == "11(0) [simple Parry, n=2]"


def test_dbeta_raises_a_lower_end_below_one(capsys):
    # (0, 2) also holds the root -1/phi; the base keeps (1, 2)
    assert parse_base("poly:1,-1,-1@(0,2)").source == "poly:1,-1,-1@(1,2)"
    code, out, _ = run(capsys, "dbeta", "--base", "poly:1,-1,-1@(0,2)")
    assert (code, out) == (0, "11(0) [simple Parry, n=2]")


def test_dbeta_json(capsys):
    code, out, _ = run(capsys, "dbeta", "--base", "int:3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "3(0)" and data["resolved"] is True


def test_dbeta_rational_not_parry(capsys):
    # a non-integer rational base is certified not Parry; the prefix stays
    code, out, _ = run(capsys, "dbeta", "--base", "rat:5/2", "--depth", "8")
    assert code == 0
    assert out == "21011100 [not Parry (non-integer rational base)]"
    code, out, _ = run(capsys, "dbeta", "--base", "poly:2,-5@(1,3)", "--depth", "8", "--json")
    assert code == 0
    assert json.loads(out) == {
        "word": "21011100",
        "resolved": False,
        "class": "not Parry (non-integer rational base)",
    }
    code, out, _ = run(capsys, "dstar", "--base", "rat:5/2", "--depth", "8")
    assert out == "21011100 [not Parry (non-integer rational base)]"
    code, _, err = run(capsys, "build", "--beta", "rat:5/2", "--variant", "canonical")
    assert code == 1
    assert "is not a Parry number" in err


def test_rational_base_through_a_non_minimal_polynomial(capsys):
    # 3/2 as a root of (2X - 3)(X - 2) is the same base as rat:3/2
    for argv in (["--depth", "30"], ["--depth", "30", "--json"]):
        poly = run(capsys, "dbeta", "--base", "poly:2,-7,6@(7/5,8/5)", *argv)
        assert poly == run(capsys, "dbeta", "--base", "rat:3/2", *argv)
    assert poly[1] == json.dumps({
        "word": "101000001001001010000000001000",
        "resolved": False,
        "class": "not Parry (non-integer rational base)",
    })
    code, out, err = run(capsys, "build", "--beta", "poly:2,-7,6@(7/5,8/5)", "--variant", "canonical")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "is not a Parry number" in err


def test_dstar(capsys):
    code, out, _ = run(capsys, "dstar", "--base", "int:3")
    assert code == 0
    assert out == "(2)"


def test_beta_of(capsys):
    code, out, _ = run(capsys, "beta-of", "--word", "2(1)")
    assert code == 0
    assert out.startswith("root of X^2 - 3X + 1")


def test_beta_of_an_integer_word(capsys):
    assert run(capsys, "beta-of", "--word", "3") == (0, "3", "")
    code, out, _ = run(capsys, "beta-of", "--word", "3", "--json")
    assert (code, out) == (0, '{"spec": "int:3", "kind": "integer", "value": "3"}')


def test_classify_a_linear_recurrence(capsys, tmp_path):
    # U(i) = U(i-1) + 1 from U(0) = 1
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"initial": [1], "recurrence": {"coeffs": [1], "addend": 1}}))
    code, out, _ = run(capsys, "classify", "--system", str(path))
    assert (code, out) == (0, "Case 1: U(i) = i + 1 [certified]")


def test_build_and_json_output(capsys, tmp_path):
    path = tmp_path / "system.json"
    code, out, _ = run(
        capsys, "build", "--beta", "int:3", "--variant", "noncanonical",
        "--count", "4", "--json", str(path),
    )
    assert code == 0
    assert out == "1 4 13 40"
    data = json.loads(path.read_text())
    assert data == {"bertrand": {"word": "3(0)"}}
    code, out, _ = run(capsys, "rep", "--system", str(path), "--n", "5")
    assert code == 0 and out == "11"


def test_build_flags_coincidence(capsys):
    code, out, err = run(
        capsys, "build", "--beta", "poly:1,-3,1@(2,3)", "--variant", "noncanonical",
        "--count", "4",
    )
    assert code == 0
    assert out == "1 3 8 21"
    assert "coincides with the canonical system" in err


def test_rep_val_member(capsys):
    system = str(FIXTURES / "zeckendorf.json")
    assert run(capsys, "rep", "--system", system, "--n", "12")[1] == "10101"
    assert run(capsys, "val", "--system", system, "--word", "10101")[1] == "12"
    assert run(capsys, "member", "--system", system, "--word", "110")[1] == "false"
    assert run(capsys, "member", "--system", system, "--word", "101")[1] == "true"


def test_member_counterexample_word(capsys):
    system = str(FIXTURES / "ex31_not_prolongable.json")
    code, out, _ = run(capsys, "member", "--system", system, "--word", "20")
    assert code == 0 and out == "false"


def test_member_inline_system(capsys):
    code, out, _ = run(capsys, "member", "--system", "bertrand:parry:3(0)", "--word", "230")
    assert code == 0 and out == "true"


def test_check_bertrand(capsys):
    system = str(FIXTURES / "ex31_not_prefix_closed.json")
    code, out, _ = run(capsys, "check-bertrand", "--system", system, "--max-len", "4")
    assert code == 0
    assert "violation: 20 (prefix-closure)" in out
    code, out, _ = run(
        capsys, "check-bertrand", "--system", system, "--max-len", "4", "--json"
    )
    data = json.loads(out)
    _, violations = bertrand_violations(load_system("ex31_not_prefix_closed"), 4)
    assert ((5, 0), "prefix-closure") in [(v.word, v.kind) for v in violations]
    first = violations[0]
    assert data["first_violation"] == {"word": format_word(first.word), "kind": first.kind}


def test_check_bertrand_json_carries_only_the_first_violation(capsys):
    system = str(FIXTURES / "ex31_not_prefix_closed.json")
    code, out, _ = run(
        capsys, "check-bertrand", "--system", system, "--max-len", "6", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "holds_up_to": 1,
        "first_violation": {"word": "20", "kind": "prefix-closure"},
    }


# Lengths at which the language has far too many words to list: at 41 in
# base 3 it has U(41) = (3^42 - 1) / 2 of them.


def test_classify_large_probe(capsys):
    system = str(FIXTURES / "base3_noncanonical.json")
    code, out, _ = run(capsys, "classify", "--system", system, "--probe", "40")
    assert code == 0
    assert out == "Case 3: non-canonical system of beta = 3 [certified]"


def test_check_bertrand_large_max_len(capsys):
    system = str(FIXTURES / "zeckendorf.json")
    code, out, _ = run(capsys, "check-bertrand", "--system", system, "--max-len", "40")
    assert code == 0
    assert out == "holds up to length 40"


def test_check_bertrand_without_declared_alphabet(capsys, tmp_path):
    # ex31_not_prolongable without alphabet_max gives the same answer
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"initial": [1, 3], "recurrence": {"coeffs": [1, 1]}}))
    code, out, _ = run(capsys, "check-bertrand", "--system", str(path), "--max-len", "6")
    assert code == 0
    assert out == "violation: 20 (prolongability); holds up to length 1"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["classify", "--system", "bertrand:12", "--probe", "5"], "not Bertrand: 20 (prefix-closure)"),
        (["classify", "--system", "bertrand:1(2)", "--probe", "5"], "not Bertrand: 20 (prefix-closure)"),
        (["rep", "--system", "bertrand:12", "--n", "1000"], "1011110000"),
        (["check-bertrand", "--system", "bertrand:12", "--max-len", "5"],
         "violation: 20 (prefix-closure); holds up to length 1"),
    ],
    ids=["classify-12", "classify-1(2)", "rep-12", "check-bertrand-12"],
)
def test_words_with_a_letter_above_the_first(capsys, argv, expected):
    # a generating word fixes no alphabet: its letters may exceed the first
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, expected, "")


def test_check_bertrand_reads_values_through_max_len_plus_one(capsys, tmp_path):
    # U = 1, 2, 3, 5, 7, 8, 6 stops increasing at U(6): that breaks the
    # system for max_len 5, but not for max_len 3
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"initial": [1, 2, 3], "recurrence": {"coeffs": [2, -1, -1], "addend": 2}}))
    code, out, _ = run(capsys, "check-bertrand", "--system", str(path), "--max-len", "3")
    assert (code, out) == (0, "violation: 1010 (prolongability); holds up to length 3")
    code, out, err = run(capsys, "check-bertrand", "--system", str(path), "--max-len", "5")
    assert (code, out) == (1, "")
    assert err == "error: sequence is not strictly increasing at U(6) = 6"


def test_check_bertrand_rejects_a_contradicted_alphabet(capsys, tmp_path):
    # U = 1, 2, 3, 9: the quotient 9/3 needs the digit 2
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"initial": [1, 2, 3], "recurrence": {"coeffs": [3]}, "alphabet_max": 1}))
    code, out, _ = run(capsys, "check-bertrand", "--system", str(path), "--max-len", "1")
    assert (code, out) == (0, "holds up to length 1")
    code, out, err = run(capsys, "check-bertrand", "--system", str(path), "--max-len", "2")
    assert (code, out) == (1, "")
    assert err == "error: declared alphabet bound 1 contradicted at U(3)/U(2)"


@pytest.mark.parametrize(
    "argv",
    [["classify", "--probe", "2"], ["check-bertrand", "--max-len", "1"]],
    ids=["classify", "check-bertrand"],
)
def test_a_passing_scan_still_checks_u1_against_the_alphabet(capsys, tmp_path, argv):
    # U = 1, 2, 4, ...: its generating word (1) passes the scan, and U(1)
    # is the one value left to check against the declared bound
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"initial": [1], "recurrence": {"coeffs": [2]}, "alphabet_max": 0}))
    code, out, err = run(capsys, argv[0], "--system", str(path), *argv[1:])
    assert (code, out, err) == (1, "", "error: declared alphabet bound 0 contradicted at U(1)/U(0)")


def test_classify(capsys):
    system = str(FIXTURES / "zeckendorf.json")
    code, out, _ = run(capsys, "classify", "--system", system, "--probe", "9")
    assert code == 0
    assert out.startswith("Case 2")
    assert "certified" in out
    code, out, _ = run(capsys, "classify", "--system", system, "--probe", "9", "--json")
    data = json.loads(out)
    assert data["case"] == "case2" and data["word"] == "(10)"
    assert (data["certified"], data["note"], data["probe_len"]) == (True, "", 9)


def test_classify_not_bertrand(capsys):
    system = str(FIXTURES / "ex31_not_prolongable.json")
    code, out, _ = run(capsys, "classify", "--system", system, "--probe", "6")
    assert code == 0
    assert out == "not Bertrand: 20 (prolongability)"


@pytest.mark.parametrize("name", sorted(p.stem for p in FIXTURES.glob("*.json")))
def test_classify_verdict_does_not_depend_on_the_probe(capsys, name):
    system = str(FIXTURES / f"{name}.json")
    lines = {run(capsys, "classify", "--system", system, "--probe", p)[1] for p in ("2", "9", "40")}
    assert len(lines) == 1, lines


def test_classify_verdict_of_a_recurrence_that_stops_increasing(capsys, tmp_path):
    # U = 1, 2, 3, 7, 7: the values through probe + 1 are all that is checked,
    # so probe 2 sees an increasing prefix and probe 3 sees U(4) = U(3)
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"initial": [1, 2, 3, 7], "recurrence": {"coeffs": [0, 2, 0], "addend": 1}}))
    code, out, err = run(capsys, "classify", "--system", str(path), "--probe", "2")
    assert (code, out, err) == (0, "not Bertrand: 110 (prefix-closure)", "")
    code, out, err = run(capsys, "classify", "--system", str(path), "--probe", "3")
    assert (code, out, err) == (1, "", "error: sequence is not strictly increasing at U(4) = 7")


RECURRENCE = {"initial": [1, 2], "recurrence": {"coeffs": [1, 1], "addend": 0}}


@pytest.mark.parametrize(
    "system",
    [
        {**RECURRENCE, "initial": ["a"]},
        {**RECURRENCE, "initial": 5},
        {**RECURRENCE, "recurrence": {"coeffs": 3}},
        {**RECURRENCE, "alphabet_max": "x"},
        {"bertrand": {"word": 5}},
        {"bertrand": 5},
        {"bertrand": {}},
        {**RECURRENCE, "initial": [1.5, 2]},
        {**RECURRENCE, "recurrence": {"coeffs": [1, 1], "addend": True}},
        {**RECURRENCE, "recurrence": {"coeffs": [1, 1.0]}},
        5,
    ],
    ids=["initial-string", "initial-number", "coeffs-number", "alphabet-string", "word-number",
         "bertrand-number", "bertrand-empty", "initial-float", "addend-bool", "coeffs-float",
         "top-level-number"],
)
def test_malformed_system_json_is_a_domain_error(capsys, tmp_path, system):
    # only JSON integers count as numbers, and only lists as lists
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system))
    code, out, err = run(capsys, "classify", "--system", str(path), "--probe", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "\n" not in err


def test_classify_short_probe_finds_a_long_witness(capsys):
    # the first violation has length 4, beyond what probe 2 checks
    system = str(FIXTURES / "ex53_oscillating.json")
    code, out, _ = run(capsys, "classify", "--system", system, "--probe", "2")
    assert code == 0
    assert out == "not Bertrand: 1100 (prefix-closure)"


def test_charpoly(capsys):
    code, out, _ = run(capsys, "charpoly", "--word", "11", "--variant", "noncanonical")
    assert code == 0 and out == "X^3 - 2X^2 + 1"
    code, out, _ = run(capsys, "charpoly", "--word", "(10)", "--variant", "canonical", "--json")
    assert json.loads(out)["coeffs_high_first"] == [1, -1, -1]


@pytest.mark.parametrize("word", ["0", "01", "(01)"])
def test_charpoly_rejects_a_word_that_generates_no_system(capsys, word):
    # as NumSys.from_word and beta-of do
    code, out, err = run(capsys, "charpoly", "--word", word, "--variant", "canonical")
    assert (code, out, err) == (1, "", "error: the generating word must start with a nonzero digit")


def test_automaton_with_dot(capsys, tmp_path):
    dot = tmp_path / "a.dot"
    code, out, _ = run(
        capsys, "automaton", "--beta", "int:3", "--variant", "noncanonical",
        "--dot", str(dot),
    )
    assert code == 0
    assert "2 states" in out
    assert dot.read_text().startswith("digraph {")
    code, out, _ = run(
        capsys, "automaton", "--beta", "int:3", "--variant", "canonical", "--json"
    )
    data = json.loads(out)
    assert data == {"initial": 0, "finals": [0], "edges": [[0, 0, 0], [0, 1, 0], [0, 2, 0]]}


@pytest.mark.parametrize(
    "beta,variant",
    [
        ("int:3", "canonical"),
        ("int:3", "noncanonical"),
        ("poly:1,-1,-1@(1,2)", "canonical"),
        ("poly:1,-1,-1@(1,2)", "noncanonical"),
        ("poly:1,-3,1@(2,3)", "noncanonical"),
    ],
)
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_automaton_minimize_changes_nothing(capsys, beta, variant, fmt):
    # the shift automata are minimal as built; --minimize is kept as a no-op
    argv = ["automaton", "--beta", beta, "--variant", variant] + fmt
    code, built, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--minimize") == (0, built, "")
    if beta == "poly:1,-3,1@(2,3)" and not fmt:
        # phi^2 has an infinite expansion of 1, so the variants coincide
        assert built.endswith("(coincides with canonical)")


def test_counting_identity(capsys):
    code, out, _ = run(capsys, "counting-identity", "--beta", "poly:1,-1,-1@(1,2)", "--range", "10")
    assert code == 0
    assert out == "U'(i+2) = U(i+2) + U'(i) holds for 0 <= i <= 10"


LONG_WORD = "2" + "1" * 70  # its expansion resolves only at digit 71
LONG_PARRY = f"parry:{LONG_WORD}(0)"


@pytest.mark.parametrize(
    "argv",
    [
        ["automaton", "--beta", LONG_PARRY, "--variant", "canonical"],
        ["build", "--beta", LONG_PARRY, "--variant", "noncanonical", "--count", "5"],
        ["analyze", "--system", f"bertrand:{LONG_PARRY}", "--beta", LONG_PARRY, "--imax", "30"],
        ["counting-identity", "--beta", LONG_PARRY, "--range", "5"],
    ],
    ids=["automaton", "build", "analyze", "counting-identity"],
)
def test_a_base_written_as_its_expansion_keeps_it(capsys, argv):
    # these commands read the expansion at the default depth 64
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize(
    "cmd, want",
    [("dbeta", f"{LONG_WORD}(0) [simple Parry, n=71]"), ("dstar", f"({LONG_WORD[:-1]}0)")],
)
def test_a_parry_base_prints_its_word_at_any_depth(capsys, cmd, want):
    assert run(capsys, cmd, "--base", LONG_PARRY, "--depth", "5")[:2] == (0, want)


def test_analyze_json(capsys):
    system = str(FIXTURES / "zeckendorf.json")
    code, out, _ = run(
        capsys, "analyze", "--system", system, "--beta", "poly:1,-1,-1@(1,2)",
        "--imax", "30", "--ell", "6", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert abs(data["ratio_final"] - 1.618033988749895) < 1e-9
    assert data["hollander"]["stabilized"] is True
    assert data["hollander"]["limit"] == "quasi-greedy"
    lo = data["target_interval"]["lo_float"]
    assert abs(lo - 1.1708203932) < 1e-6


def test_analyze_csv(capsys, tmp_path):
    csv = tmp_path / "out.csv"
    system = str(FIXTURES / "zeckendorf.json")
    code, _, _ = run(
        capsys, "analyze", "--system", system, "--beta", "poly:1,-1,-1@(1,2)",
        "--imax", "10", "--csv", str(csv),
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "i,ratio,empirical_lo,empirical_hi"
    assert len(lines) == 11


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "dbeta", "--base", "bogus:3")
    assert code == 1
    assert "unknown base syntax" in err
    code, _, err = run(capsys, "build", "--beta", "rat:5/2", "--variant", "canonical")
    assert code == 1


ZECKENDORF_ANALYZE = [
    "analyze", "--system", str(FIXTURES / "zeckendorf.json"),
    "--beta", "poly:1,-1,-1@(1,2)", "--imax", "10",
]


@pytest.mark.parametrize(
    "argv",
    [
        ["automaton", "--beta", "int:3", "--variant", "canonical", "--dot"],
        ["build", "--beta", "int:3", "--variant", "canonical", "--json"],
        [*ZECKENDORF_ANALYZE, "--csv"],
    ],
    ids=["automaton-dot", "build-json", "analyze-csv"],
)
def test_unwritable_output_path_is_a_domain_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {str(path)!r}: ") and "\n" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize("word", ["[10,x]", "[1,,2]", "1(0)"])
def test_malformed_word_is_a_domain_error(capsys, word):
    code, out, err = run(capsys, "member", "--system", "bertrand:11", "--word", word)
    assert (code, out, err) == (1, "", f"error: bad word syntax: {word!r}")


def test_dbeta_and_dstar_read_the_default_depth(capsys):
    from bertrandnum import DEFAULT_DEPTH

    # a base that is not Parry prints its digit prefix at the depth
    for cmd in ("dbeta", "dstar"):
        code, out, _ = run(capsys, cmd, "--base", "rat:3/2")
        word, note = out.split(" ", 1)
        assert (code, len(word), note) == (0, DEFAULT_DEPTH, "[not Parry (non-integer rational base)]")


@pytest.mark.parametrize(
    "argv",
    [
        ["dbeta", "--base", "int:3", "--depth", "0"],
        ["dbeta", "--base", "int:3", "--depth", "-5"],
        ["dstar", "--base", "int:3", "--depth", "0"],
        ["counting-identity", "--beta", "int:3", "--range", "-1"],
        [*ZECKENDORF_ANALYZE, "--ell", "0"],
        [*ZECKENDORF_ANALYZE, "--ell", "-2"],
        ["build", "--beta", "int:3", "--variant", "canonical", "--count", "-3"],
    ],
    ids=["dbeta-depth-0", "dbeta-depth-negative", "dstar-depth-0", "counting-range-negative",
         "analyze-ell-0", "analyze-ell-negative", "build-count-negative"],
)
def test_size_out_of_range_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, code",
    [(["dbeta", "--base", "int:3", "--depth", "8"], 0), (["--help"], 0), (["no-such-command"], 2)],
    ids=["command", "help", "usage-error"],
)
def test_main_leaves_no_parser_in_reference_cycles(capsys, argv, code):
    # with the collector off, whatever main leaves in reference cycles is
    # what the next collection finds; DEBUG_SAVEALL keeps it in gc.garbage
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        gc.collect()
        kinds = (argparse.ArgumentParser, argparse.Action)
        left = [type(obj).__name__ for obj in gc.garbage if isinstance(obj, kinds)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    capsys.readouterr()
    assert status == code
    assert left == []


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (["dbeta", "--base", "int:3", "--depth", "8"], 0, "3(0) [simple Parry, n=1]\n"),
        (["dbeta", "--base", "int:1"], 1, ""),
        ([], 2, ""),
    ],
    ids=["ok", "domain-error", "no-subcommand"],
)
def test_module_entry_point_exit_codes(argv, code, stdout):
    src = str(FIXTURES.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "bertrandnum", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == stdout
