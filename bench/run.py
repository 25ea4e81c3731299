"""Benchmark of the bertrandnum CLI and library (stdlib only).

    python3 bench/run.py --workload expansion|classify|shift|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own child
process (bench/worker.py) with a capped address space; ops run as a
closed loop with one client in one thread.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1.  A fuller record (seed, machine, sample counts,
failure notes) goes to .bench_out/ and a readable summary to stderr.
`--workload all` runs every workload and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("expansion", "classify", "shift")
MEMORY_MB = 1024  # RLIMIT_AS of the child that runs a workload
SETUP_SAMPLES = 10  # samples before the workload, and as many after it
CHILD_TIMEOUT_S = 170
REQUIRED = ("src/bertrandnum/cli.py", "docs/REPRODUCE.md", "fixtures/zeckendorf.json")

SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    "import bertrandnum.cli\n"
    "bertrandnum.cli.make_parser()\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, 'bench')\n"
    "import reference\n"
    "print(t1 - t0, reference.sample(7))\n"
)


def setup_probes(count):
    """Times for fresh interpreters to import the CLI and build its parser,
    the cost every CLI invocation pays before its first op, each scaled to
    the reference speed by the reference kernel (reference.py) run in the
    same interpreter right after."""
    samples = []
    for _ in range(count):
        probe = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, check=True,
                               capture_output=True, text=True, timeout=60)
        elapsed, kernel_s = map(float, probe.stdout.split())
        samples.append(elapsed * reference.NOMINAL_S / kernel_s)
    return samples


def run_child(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, workload, str(seed),
           str(seconds), str(int(trace)), str(MEMORY_MB)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit():
    """The commit of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)
    return head.stdout.strip() if head.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(child, setup_s):
    """The end-to-end metrics.  Failures and undecided answers are reported
    as their complements (ok_ratio, decided_ratio) so that no metric is 0."""
    n = child["attempted"]
    return {
        "ops_per_s": (child["ops_per_s"], "1/s"),
        "op_ms_p50": (child["op_ms_p50"], "ms"),
        "op_ms_p90": (child["op_ms_p90"], "ms"),
        "ok_ratio": (1 - child["failed"] / n, "ratio"),
        "decided_ratio": (1 - child["undecided"] / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
    }


def run_workload(workload, seed, seconds, trace):
    if not trace:
        setup_probes(1)  # writes the bytecode cache; a CLI user pays that once
        samples = setup_probes(SETUP_SAMPLES)
    child = run_child(workload, seed, seconds, trace)
    if trace:
        metrics, samples = child.pop("layers"), []
    else:
        # probes on both sides of the workload, so that a slow spell of the
        # machine moves fewer of them
        samples += setup_probes(SETUP_SAMPLES)
        metrics = end_to_end(child, statistics.median(samples))
    attempted = child["attempted"]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loop": "closed, one client, one thread",
        "samples": {"ops": child["ops"], "op_ms_p50": child["ops"],
                    "op_ms_p90": child["ops"], "beyond_p90": child["beyond_p90"],
                    "setup_s": len(samples)},
        "fail_ratio": child["failed"] / attempted,
        "undecided_ratio": child["undecided"] / attempted,
        "child": child,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"result-{workload}-{seed}-{'trace' if trace else 'plain'}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def summary_lines(record):
    c = record["child"]
    yield (f"{record['workload']}: seed {record['seed']}, {c['ops']} ops in {c['busy_s']:.2f} s, "
           f"{c['beyond_p90']} beyond p90, {c['failed']} failed, {c['undecided']} undecided")
    yield f"  fail_ratio = {record['fail_ratio']:.6g}, undecided_ratio = {record['undecided_ratio']:.6g}"
    for k, m in record["metrics"].items():
        yield f"  {k} = {m['value']:.6g} {m['unit']}"
    for note in c["notes"]:
        yield f"  failed: {' '.join(note['argv'])[:120]} -- {note['why'][:160]}"
    if "known_defect" in c:
        yield (f"  known defect (ROADMAP item 2), checked untimed and not counted: "
               f"{c['known_defect']['failed']} of 2 answers on its repro wrong")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not a bertrandnum checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        t0 = time.perf_counter()
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        records.append(record)
        for line in summary_lines(record):
            print(line, file=sys.stderr)
        print(f"  (run took {time.perf_counter() - t0:.1f} s)", file=sys.stderr)
    if args.workload == "all":
        print(_table(records))
        return 0
    record = records[0]
    c = record["child"]
    print(json.dumps({
        "correct": c["failed"] == 0,
        "attempted": c["attempted"],
        "failed": c["failed"],
        "metrics": record["metrics"],
    }))
    return 0


def _table(records):
    keys = list(records[0]["metrics"])
    rows = [["metric"] + [r["workload"] for r in records]]
    for extra in ("fail_ratio", "undecided_ratio"):
        rows.append([f"{extra} (ratio)"] + [f"{r[extra]:.4g}" for r in records])
    for k in keys:
        unit = records[0]["metrics"][k]["unit"]
        rows.append([f"{k} ({unit})"] + [f"{r['metrics'][k]['value']:.4g}" for r in records])
    rows.append(["ops (samples)"] + [str(r["child"]["ops"]) for r in records])
    rows.append(["beyond p90 (samples)"] + [str(r["child"]["beyond_p90"]) for r in records])
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows)


if __name__ == "__main__":
    sys.exit(main())
