"""Command-line interface.

One subcommand per library operation; every worked example in the docs
is reproducible from here.  Exit codes: 0 on success, 1 on domain errors
(bad words, unresolved bases, ...), 2 on usage errors.

Building the parser loads no layer of the library: each command and
helper imports the layers it uses when it runs, so `member` never loads
the real-base arithmetic and `dbeta` never loads the numeration systems.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import DEFAULT_DEPTH, VARIANTS
from .errors import NumerationError


def _interval_json(iv) -> dict:
    return {
        "lo": str(iv.lo),
        "hi": str(iv.hi),
        "lo_float": float(iv.lo),
        "hi_float": float(iv.hi),
    }


def _base_json(base) -> dict:
    from fractions import Fraction

    from . import polynomials as pl

    out = {"spec": base.source, "kind": base.kind}
    if base.kind == "algebraic":
        out["polynomial"] = pl.high_first(base.poly)
        enc = base.enclosure(Fraction(1, 10**12))
        out["enclosure"] = _interval_json(enc)
    else:
        out["value"] = str(base.value)
    return out


def _write_file(path: str, text: str):
    """Write an output file; a path that cannot be written is a domain error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise NumerationError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def cmd_expansion(args) -> int:
    """dbeta prints the greedy expansion of 1 and its class; dstar the
    quasi-greedy one, with the class only while it is unresolved."""
    from .realbase import parse_base
    from .words import format_word

    cls = parse_base(args.base).parry_class(args.depth)
    greedy = args.command == "dbeta"
    word = format_word(cls.word if greedy else cls.quasi_greedy)
    if args.json:
        print(json.dumps({"word": word, "resolved": cls.resolved, "class": cls.describe()}))
    else:
        note = f" [{cls.describe()}]" if greedy or not cls.resolved else ""
        print(f"{word}{note}")
    return 0


def cmd_beta_of(args) -> int:
    from . import polynomials as pl
    from .realbase import base_from_expansion
    from .words import parse_epword

    base = base_from_expansion(parse_epword(args.word))
    if args.json:
        print(json.dumps(_base_json(base)))
    elif base.kind == "algebraic":
        enc = base.enclosure()
        print(f"root of {pl.format_poly(base.poly)} in ({enc.lo}, {enc.hi}) ~ {base.approx()}")
    else:
        print(f"{base.value}")
    return 0


def _coincides(base, variant) -> bool:
    """The non-canonical system and shift of a base are the canonical ones
    exactly when its expansion of 1 is infinite."""
    return variant == "noncanonical" and not base.require_parry().zero_tail


def cmd_build(args) -> int:
    from .bertrand import build_bertrand
    from .realbase import parse_base

    base = parse_base(args.beta)
    s = build_bertrand(base, args.variant)
    values = s.values(args.count)
    if args.json:
        _write_file(args.json, json.dumps(s.to_json()) + "\n")
    print(" ".join(str(v) for v in values))
    if _coincides(base, args.variant):
        print(
            "note: coincides with the canonical system (expansion of 1 is infinite)",
            file=sys.stderr,
        )
    return 0


def cmd_rep(args) -> int:
    from .numsys import parse_system
    from .words import format_word

    s = parse_system(args.system)
    print(format_word(s.rep(args.n)))
    return 0


def cmd_val(args) -> int:
    from .numsys import parse_system
    from .words import parse_word

    s = parse_system(args.system)
    print(s.val(parse_word(args.word)))
    return 0


def cmd_member(args) -> int:
    from .numsys import parse_system
    from .words import parse_word

    s = parse_system(args.system)
    print("true" if s.member(parse_word(args.word)) else "false")
    return 0


def cmd_check_bertrand(args) -> int:
    from .numsys import parse_system
    from .words import format_word

    s = parse_system(args.system)
    report = s.check_bertrand(args.max_len)
    if args.json:
        print(
            json.dumps(
                {
                    "holds_up_to": report.holds_up_to,
                    "first_violation": None
                    if report.first_violation is None
                    else {
                        "word": format_word(report.first_violation.word),
                        "kind": report.first_violation.kind,
                    },
                }
            )
        )
    elif report.holds:
        print(f"holds up to length {report.holds_up_to}")
    else:
        v = report.first_violation
        print(
            f"violation: {format_word(v.word)} ({v.kind}); "
            f"holds up to length {report.holds_up_to}"
        )
    return 0


def _classify_text(res) -> str:
    from . import polynomials as pl
    from .words import format_word

    if res.case == "case1":
        return "Case 1: U(i) = i + 1 [certified]"
    if res.case in ("case2", "case3"):
        which = "canonical" if res.case == "case2" else "non-canonical"
        b = res.base
        desc = (
            f"root of {pl.format_poly(b.poly)} ~ {b.approx()}"
            if b.kind == "algebraic"
            else str(b.value)
        )
        return f"Case {res.case[-1]}: {which} system of beta = {desc} [certified]"
    return f"not Bertrand: {format_word(res.witness.word)} ({res.witness.kind})"


def cmd_classify(args) -> int:
    from .bertrand import classify_bertrand
    from .numsys import parse_system
    from .words import format_epword, format_word

    s = parse_system(args.system)
    res = classify_bertrand(s, args.probe)
    if args.json:
        out = {
            "case": res.case,
            "certified": True,
            "probe_len": res.probe_len,
            "word": format_epword(res.word) if res.word is not None else None,
            "base": _base_json(res.base) if res.base is not None else None,
            "witness": None
            if res.witness is None
            else {"word": format_word(res.witness.word), "kind": res.witness.kind},
            "note": "",
        }
        print(json.dumps(out))
    else:
        print(_classify_text(res))
    return 0


def cmd_charpoly(args) -> int:
    from . import polynomials as pl
    from .realbase import char_poly
    from .words import parse_epword

    p = char_poly(parse_epword(args.word), args.variant)
    if args.json:
        print(json.dumps({"coeffs_high_first": pl.high_first(p), "pretty": pl.format_poly(p)}))
    else:
        print(pl.format_poly(p))
    return 0


def cmd_automaton(args) -> int:
    from .automata import build_shift_dfa
    from .realbase import parse_base

    base = parse_base(args.beta)
    dfa = build_shift_dfa(base, args.variant)
    if args.dot:
        _write_file(args.dot, dfa.to_dot())
    if args.json:
        print(json.dumps(dfa.to_json()))
    else:
        edges = sorted((q, c, t) for (q, c), t in dfa.transitions.items())
        edge_text = ", ".join(f"{q}-{c}->{t}" for q, c, t in edges)
        note = " (coincides with canonical)" if _coincides(base, args.variant) else ""
        print(f"{dfa.num_states} states, all final; edges: {edge_text}{note}")
    return 0


def cmd_counting_identity(args) -> int:
    from .bertrand import verify_counting_identity
    from .realbase import parse_base

    base = parse_base(args.beta)
    report = verify_counting_identity(base, args.range)
    if report.holds:
        print(f"U'(i+{report.n}) = U(i+{report.n}) + U'(i) holds for 0 <= i <= {report.range_max}")
        return 0
    print(f"fails at i = {report.first_failure}")
    return 1


def cmd_analyze(args) -> int:
    from . import analysis
    from .numsys import parse_system
    from .realbase import parse_base

    s = parse_system(args.system)
    base = parse_base(args.beta)
    ratios = analysis.dominant_root_ratios(s, args.imax)
    target = analysis.renewal_target(base, args.variant)
    empirical = analysis.renewal_empirical(s, base, args.imax)
    entropy = analysis.entropy_estimates(s, args.imax)
    out = {
        "ratios": [str(r) for r in ratios],
        "ratio_final": float(ratios[-1]),
        "target_interval": _interval_json(target),
        "empirical_interval": _interval_json(empirical[-1]),
        "entropy": {
            "growth_estimate": entropy.growth_estimate,
            "ratio_estimate": entropy.ratio_estimate,
        },
    }
    if args.ell is not None:
        rep = analysis.lexmax_convergence_probe(s, base, args.ell, args.imax)
        out["hollander"] = {
            "mode": rep.mode,
            "k_per_i": {str(i): k for i, k in rep.rows},
            "stabilized": rep.stabilized,
            "limit": rep.limit,
        }
    if args.csv:
        rows = ["i,ratio,empirical_lo,empirical_hi\n"]
        for i, r in enumerate(ratios):
            e = empirical[i + 1] if i + 1 < len(empirical) else empirical[-1]
            rows.append(f"{i},{float(r)},{float(e.lo)},{float(e.hi)}\n")
        _write_file(args.csv, "".join(rows))
    if args.json:
        print(json.dumps(out))
    else:
        print(f"dominant root estimate: {out['ratio_final']}")
        print(
            "renewal target in "
            f"[{out['target_interval']['lo_float']}, {out['target_interval']['hi_float']}]"
        )
        print(
            "empirical U(i)/beta^i in "
            f"[{out['empirical_interval']['lo_float']}, {out['empirical_interval']['hi_float']}]"
        )
        print(f"entropy ratio estimate: {entropy.ratio_estimate}")
        if args.ell is not None:
            print(f"lex-max convergence: stabilized={rep.stabilized} limit={rep.limit}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bertrandnum",
        description="Real-base expansions and Bertrand numeration systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("dbeta", "greedy expansion of 1 in a real base"),
        ("dstar", "quasi-greedy expansion of 1"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--base", required=True)
        p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=cmd_expansion)

    p = sub.add_parser("beta-of", help="recover the base from an expansion of 1")
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_beta_of)

    p = sub.add_parser("build", help="build a Bertrand numeration system")
    p.add_argument("--beta", required=True)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--json", metavar="PATH", help="also write the system as JSON")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("rep", help="greedy representation of an integer")
    p.add_argument("--system", required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("val", help="value of a digit word")
    p.add_argument("--system", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_val)

    p = sub.add_parser("member", help="membership in the numeration language")
    p.add_argument("--system", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("check-bertrand", help="verify w in L <=> w0 in L up to a length")
    p.add_argument("--system", required=True)
    p.add_argument("--max-len", type=int, default=8, dest="max_len")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_bertrand)

    p = sub.add_parser("classify", help="classify a system against the trichotomy")
    p.add_argument("--system", required=True)
    p.add_argument(
        "--probe",
        type=int,
        default=12,
        help="when the generating word fails, check the values of U through PROBE + 1 (>= 2); "
        "a Case verdict builds only U(1) and does not depend on it, but a recurrence whose "
        "values stop increasing beyond PROBE + 1 is 'not Bertrand' at a small PROBE and an "
        "error at a larger one (no finite check rules that out: it is the Positivity Problem)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("charpoly", help="characteristic polynomial of the recurrence")
    p.add_argument("--word", required=True)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("automaton", help="automaton of the factor language")
    p.add_argument("--beta", required=True)
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument(
        "--minimize",
        action="store_true",
        help="accepted for compatibility; the automaton is already minimal",
    )
    p.add_argument("--dot", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_automaton)

    p = sub.add_parser("counting-identity", help="U'(i+n) = U(i+n) + U'(i) check")
    p.add_argument("--beta", required=True)
    p.add_argument("--range", type=int, default=20)
    p.set_defaults(func=cmd_counting_identity)

    p = sub.add_parser("analyze", help="dominant root, renewal limit, entropy")
    p.add_argument("--system", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--variant", choices=VARIANTS, default="canonical")
    p.add_argument("--imax", type=int, default=40)
    p.add_argument("--ell", type=int, help="also probe lex-max convergence at this prefix length")
    p.add_argument("--csv", metavar="PATH")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
