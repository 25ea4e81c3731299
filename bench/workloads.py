"""The benchmark's workloads: seeded streams of operations with their checks.

An operation ("op") is one CLI invocation, given as its argv, or one
call of the public API where the CLI has no command for it.  Ops come in
cycles; every cycle of a workload holds the same mix of kinds of input,
so runs of different seeds and lengths measure the same thing.  Each op
carries the check that decides whether its answer is right; the checks
live in oracles.py and never call the library.
"""

from __future__ import annotations

import json
import math
import os
import random
import shlex
from dataclasses import dataclass

import census
import oracles as orc

# -- expansion: digits of the expansion of 1 over Boyd's census ------------------

# Depth of every dbeta call.  It exceeds the longest resolved expansion of
# the census (m + n = 10478), so every resolvable sextic resolves and the
# one unresolved sextic always costs the same number of digits.
EXPANSION_DEPTH = 11000
SHORT_LIMIT = 30  # m + n below this: short
LONG_LIMIT = 600  # m + n above this: long
SHORT_PER_CYCLE = 160

# -- classify: short-word enumeration and the Bertrand check --------------------

# The probe P of a system is the largest one for which listing its
# language through length P + 1 examines at most this many words (each
# word of length L - 1 extended by each letter, plus the words of length
# L): a fixed probe either finishes at once or exhausts memory, depending
# on the growth rate.
WORD_BUDGET = 10_000
MAX_PROBE = 30
# Systems are drawn into COST_BINS strata by the number of words they
# examine, evenly in log scale over (WORD_BUDGET / COST_SPAN, WORD_BUDGET];
# every cycle holds one Parry-word system and one recurrence per stratum,
# so the cost of a cycle does not depend on the seed's luck.
COST_BINS = 6
COST_SPAN = 4
VALUES_CHECKED = 200

# -- shift: one session per base --------------------------------------------------

SESSION_COUNT = 200  # N of build --count N, and the length of rep/member words
ANALYZE_IMAX = 40
IDENTITY_RANGE = 20
ENTROPY_LENGTH = 1000
CLI_DEPTH = 64  # the CLI resolves expansions to this depth by default
# Sessions per cycle: one random Parry word for each leading digit and
# each of short (m + n <= 3) and longer words, and one census sextic from
# each of CENSUS_BINS strata of m + n, evenly spaced in log scale: the
# analysis enclosures cost about (m + n)^2, so wide strata of long
# expansions would make a cycle's cost hang on the seed.
PARRY_DIGITS = (1, 2, 3)
CENSUS_BINS = 16


@dataclass
class Op:
    """One operation and the check of its answer.

    `check` is a tuple naming a function of oracles.py and its extra
    arguments; the op's stdout (or API result) is passed first.
    """

    argv: tuple
    check: tuple
    api: str | None = None
    kind: str = ""


def reproduce_blocks(root):
    """(argv, expected stdout) for each command block of docs/REPRODUCE.md."""
    with open(os.path.join(root, "docs", "REPRODUCE.md")) as fh:
        lines = fh.read().splitlines()
    blocks, in_fence, command, expected = [], False, None, []
    for line in lines:
        if line.startswith("```"):
            if in_fence and command:
                blocks.append((tuple(shlex.split(command)), "\n".join(expected) + "\n"))
            in_fence = not in_fence
            command, expected = None, []
        elif in_fence and line.startswith("$ bertrandnum "):
            command = line[len("$ bertrandnum ") :]
        elif in_fence and command is not None:
            expected.append(line)
    if len(blocks) < 25:
        raise RuntimeError(f"docs/REPRODUCE.md holds only {len(blocks)} command blocks")
    return blocks


def reproduce_ops(root, commands):
    return [
        Op(argv, ("check_exact", expected), kind="reproduce")
        for argv, expected in reproduce_blocks(root)
        if argv[0] in commands
    ]


def _census_strata(here):
    with open(os.path.join(here, "census_seed.json")) as fh:
        rows = json.load(fh)["rows"]
    seed_record = {tuple(r["abc"]): r for r in rows}
    strata = {"short": [], "medium": [], "long": [], "unresolved": []}
    for abc in census.salem_sextics():
        r = seed_record[abc]
        if r["kind"] == "unresolved":
            strata["unresolved"].append((abc, None))
            continue
        size = r["n"] if r["kind"] == "simple" else r["m"] + r["n"]
        key = "short" if size < SHORT_LIMIT else "long" if size > LONG_LIMIT else "medium"
        strata[key].append((abc, size))
    return strata


def _dbeta_op(abc, kind):
    argv = ("dbeta", "--base", census.base_spec(abc), "--depth", str(EXPANSION_DEPTH), "--json")
    check = ("check_dbeta", census.coefficients(abc), 1, census.root_bound(abc), EXPANSION_DEPTH)
    return Op(argv, check, kind=kind)


def expansion_cycles(rng, root, here, tmp):
    """Each cycle: SHORT_PER_CYCLE short expansions drawn from the census,
    every medium and long one, the unresolved sextic, and the dbeta/dstar
    commands of REPRODUCE, in a seeded order."""
    strata = _census_strata(here)
    fixed = [_dbeta_op(abc, "medium") for abc, _ in strata["medium"]]
    fixed += [_dbeta_op(abc, "long") for abc, _ in strata["long"]]
    fixed += [_dbeta_op(abc, "unresolved") for abc, _ in strata["unresolved"]]
    fixed += reproduce_ops(root, {"dbeta", "dstar"})
    while True:
        cycle = fixed + [_dbeta_op(abc, "short") for abc, _ in rng.sample(strata["short"], SHORT_PER_CYCLE)]
        rng.shuffle(cycle)
        yield cycle


# -- random inputs --------------------------------------------------------------------


def random_parry_word(rng, max_digit=3):
    """A random greedy expansion of 1: strictly shift-dominated, not 1(0)."""
    while True:
        pre = [rng.randint(1, max_digit)] + [rng.randint(0, max_digit) for _ in range(rng.randint(0, 3))]
        per = [rng.randint(0, max_digit) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            per = [0]
        pre, per = orc.canonical(pre, per)
        if pre and (pre, per) != ((1,), (0,)) and orc.shift_dominated(pre, per, strict=True):
            return pre, per


def _recurrence_of_word(pre, per):
    """A recurrence JSON spelling of the system generated by the word."""
    u = orc.rule_values(pre, per, VALUES_CHECKED)
    coeffs, addend = orc.word_recurrence(pre, per)
    for extra in range(0, 6):
        initial = u[: len(coeffs) + extra]
        if orc.recurrence_values(initial, coeffs, addend, VALUES_CHECKED) == u:
            return {"initial": initial, "recurrence": {"coeffs": coeffs, "addend": addend}}
    raise RuntimeError(f"no recurrence found for {orc.fmt_ep(pre, per)}")


def random_recurrence(rng):
    """A random recurrence of order <= 3 whose greedy digits are at most 4,
    and whose initial values use no greater digit than the later values do,
    so that the alphabet the library infers when `alphabet_max` is left out
    is the system's own (see KNOWN_DEFECT_SYSTEM)."""
    while True:
        order = rng.randint(1, 3)
        coeffs = [rng.randint(0, 3) for _ in range(order)]
        coeffs[0] = max(coeffs[0], 1)
        addend = rng.randint(0, 1)
        initial = [1]
        for _ in range(order - 1):
            initial.append(initial[-1] + rng.randint(1, 4 * initial[-1]))
        u = orc.recurrence_values(initial, coeffs, addend, VALUES_CHECKED)
        if (all(a < b for a, b in zip(u, u[1:])) and orc.digit_bound(u) <= 4
                and orc.digit_bound(u, 1, len(initial)) <= orc.digit_bound(u, len(initial))):
            return initial, coeffs, addend, u


def budgeted_probe(u, alphabet_max):
    """(P, words examined) for the largest probe within WORD_BUDGET."""
    words, found = 0, None
    for length in range(1, min(len(u), MAX_PROBE + 2)):
        words += u[length - 1] * (alphabet_max + 1) + u[length]
        if words > WORD_BUDGET:
            break
        if length >= 3:
            found = (length - 1, words)
    return found


def cost_bin(words):
    """Stratum of a system by words examined, or None below the lowest one."""
    k = int(COST_BINS * math.log(WORD_BUDGET / words) / math.log(COST_SPAN))
    return k if k < COST_BINS else None


def one_per_bin(draw):
    """Call draw() until every cost stratum has a system; draw returns
    (words examined, system) or None."""
    bins = [None] * COST_BINS
    for _ in range(100_000):
        got = draw()
        if got is not None:
            k = cost_bin(got[0])
            if k is not None and bins[k] is None:
                bins[k] = got[1]
                if all(b is not None for b in bins):
                    return bins
    raise RuntimeError("could not fill every cost stratum")


def _system_ops(spec, u, probe, kind):
    return [
        Op(("classify", "--system", spec, "--probe", str(probe), "--json"),
           ("check_classify", u, probe), kind=kind),
        Op(("check-bertrand", "--system", spec, "--max-len", str(probe)),
           ("check_bertrand_text", u, probe), kind=kind),
    ]


def _write_system(root, tmp, name, data):
    path = os.path.join(tmp, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)
    return os.path.relpath(path, root)


def classify_cycles(rng, root, here, tmp):
    """Each cycle: one system per cost stratum generated by a random Parry
    word (greedy or quasi-greedy), written as a bertrand: spec and as
    recurrence JSON; one random recurrence per cost stratum, written with
    and without alphabet_max; then the classify, check-bertrand and
    member commands of REPRODUCE."""
    fixed = reproduce_ops(root, {"classify", "check-bertrand", "member"})

    def draw_word():
        pre, per = random_parry_word(rng)
        if per == (0,) and rng.random() < 0.5:
            pre, per = orc.quasi_greedy(pre, per)
        u = orc.rule_values(pre, per, VALUES_CHECKED)
        found = budgeted_probe(u, (pre + per)[0])
        return found and (found[1], (pre, per, u, found[0]))

    def draw_recurrence():
        initial, coeffs, addend, u = random_recurrence(rng)
        found = budgeted_probe(u, orc.digit_bound(u))
        return found and (found[1], (initial, coeffs, addend, u, found[0]))

    serial = 0
    while True:
        cycle = list(fixed)
        for pre, per, u, probe in one_per_bin(draw_word):
            data = _recurrence_of_word(pre, per)
            data["alphabet_max"] = (pre + per)[0]
            serial += 1
            path = _write_system(root, tmp, f"word{serial}", data)
            cycle += _system_ops("bertrand:" + orc.fmt_ep(pre, per), u, probe, "parry-spec")
            cycle += _system_ops(path, u, probe, "parry-json")
        for initial, coeffs, addend, u, probe in one_per_bin(draw_recurrence):
            data = {"initial": initial, "recurrence": {"coeffs": coeffs, "addend": addend}}
            serial += 1
            bare = _write_system(root, tmp, f"rec{serial}", data)
            declared = _write_system(root, tmp, f"rec{serial}a", dict(data, alphabet_max=orc.digit_bound(u)))
            cycle += _system_ops(declared, u, probe, "rec-declared")
            cycle += _system_ops(bare, u, probe, "rec-inferred")
        rng.shuffle(cycle)
        yield cycle


# The library's known wrong answers (ROADMAP item 2): initial values are
# never checked against the alphabet, so a recurrence written without
# alphabet_max whose initial values use a greater digit than the later
# values gets an alphabet that misses it.  A timed op must not fail, so
# random_recurrence draws no such system; instead every classify run
# checks these two ops once, untimed and uncounted, and its record says
# whether the defect is still there.
KNOWN_DEFECT_SYSTEM = {"initial": [1, 3], "recurrence": {"coeffs": [1, 1]}}
KNOWN_DEFECT_PROBE = 8


def known_defect_ops(root, tmp):
    rec = KNOWN_DEFECT_SYSTEM["recurrence"]
    u = orc.recurrence_values(KNOWN_DEFECT_SYSTEM["initial"], rec["coeffs"], 0, VALUES_CHECKED)
    path = _write_system(root, tmp, "known-defect", KNOWN_DEFECT_SYSTEM)
    return _system_ops(path, u, KNOWN_DEFECT_PROBE, "known-defect")


# -- shift sessions ---------------------------------------------------------------------


def _beta_float(p, lo, hi):
    bl, bh = orc.beta_enclosure(p, lo, hi, bits=64)
    return float((bl + bh) / 2)


def session_ops(rng, spec, d, beta):
    """The commands a user runs to study the shifts of one base."""
    ds = orc.quasi_greedy(*d)
    simple = d[1] == (0,)
    u = orc.system_values(*ds, ENTROPY_LENGTH + 1)
    system = "bertrand:" + orc.fmt_ep(*ds)
    n = SESSION_COUNT
    x = rng.randrange(u[n - 1], u[n])
    top = orc.padded(orc.greedy_rep(u[n] - 1, u), n)
    ops = [
        Op(("dstar", "--base", spec), ("check_exact", orc.fmt_ep(*ds) + "\n")),
        Op(("build", "--beta", spec, "--variant", "canonical", "--count", str(n)),
           ("check_values", u[:n])),
        Op(("rep", "--system", system, "--n", str(x)),
           ("check_exact", orc.fmt_word(orc.greedy_rep(x, u)) + "\n")),
        Op(("member", "--system", system, "--word", orc.fmt_word(top)), ("check_exact", "true\n")),
        Op(("automaton", "--beta", spec, "--variant", "canonical", "--minimize", "--json"),
           ("check_automaton", u[:30], len(ds[0]) + len(ds[1]))),
        Op(("analyze", "--system", system, "--beta", spec, "--imax", str(ANALYZE_IMAX), "--ell", "6", "--json"),
           ("check_analyze", u, ds[0], ds[1], beta, ANALYZE_IMAX, simple)),
        Op((spec, str(ENTROPY_LENGTH)), ("check_entropy", u, ENTROPY_LENGTH), api="entropy"),
    ]
    if simple:
        u_prime = orc.rule_values(*d, IDENTITY_RANGE + len(d[0]) + 1)
        text = orc.counting_identity_text(u, u_prime, len(d[0]), IDENTITY_RANGE)
        ops.append(Op(("counting-identity", "--beta", spec, "--range", str(IDENTITY_RANGE)),
                      ("check_exact", text)))
    for op in ops:
        op.kind = "session"
    return ops


def shift_cycles(rng, root, here, tmp):
    """Each cycle: sessions on bases given by random Parry words, one per
    leading digit and word length class; sessions on census sextics whose
    expansion resolves within the CLI's depth, one per stratum of m + n;
    and the remaining REPRODUCE commands."""
    strata = _census_strata(here)
    pool = [(abc, size) for key in ("short", "medium")
            for abc, size in strata[key] if size < CLI_DEPTH - 4]
    smallest = min(size for _, size in pool)
    census_bins = [[] for _ in range(CENSUS_BINS)]
    for abc, size in pool:
        k = int(CENSUS_BINS * math.log(size / smallest) / math.log((CLI_DEPTH - 4) / smallest))
        census_bins[k].append(abc)
    fixed = reproduce_ops(root, {"build", "rep", "charpoly", "analyze", "automaton", "counting-identity"})
    while True:
        cycle = list(fixed)
        for lead in PARRY_DIGITS:
            for short in (True, False):
                while True:
                    d = random_parry_word(rng)
                    if d[0][0] == lead and (len(d[0]) + len(d[1]) <= 3) == short:
                        break
                e = orc.expansion_poly(*d)
                cycle += session_ops(rng, "parry:" + orc.fmt_ep(*d), d, _beta_float(e, 1, lead + 2))
        for stratum in census_bins:
            abc = rng.choice(stratum)
            p = list(reversed(census.coefficients(abc)))
            bound = census.root_bound(abc)
            d = orc.greedy_expansion(p, 1, bound, CLI_DEPTH)
            cycle += session_ops(rng, census.base_spec(abc), d, _beta_float(p, 1, bound))
        yield cycle


WORKLOADS = {
    "expansion": expansion_cycles,
    "classify": classify_cycles,
    "shift": shift_cycles,
}


def cycles(name, seed, root, here, tmp):
    return WORKLOADS[name](random.Random(seed), root, here, tmp)
