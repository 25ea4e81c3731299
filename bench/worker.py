"""Child process of the benchmark: runs one workload and checks its answers.

    python3 bench/worker.py ROOT WORKLOAD SEED SECONDS TRACE MEMORY_MB

The process caps its own address space (RLIMIT_AS) before it imports the
library, so an op that exhausts memory raises MemoryError, counts as
failed, and the run goes on.  Ops run one after another in this one
thread (a closed loop with one client), in whole cycles, until their
times at the reference speed (reference.py) add up to SECONDS.  The last
line of stdout is a JSON summary for bench/run.py.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

import reference

HERE = os.path.dirname(os.path.abspath(__file__))

# Longest wall time of the ops of one run, whatever the machine's speed:
# a run that is slower than this stops after its current cycle.
MAX_WALL_S = 120.0


def run_op(op, cli, api):
    out, err = io.StringIO(), io.StringIO()
    result = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.api:
                result = api(*op.argv)
                status = 0
            else:
                status = cli.main(list(op.argv))
    except SystemExit as exc:
        status = exc.code
    except MemoryError:
        status = "memory limit"
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        status = f"{type(exc).__name__}: {exc}"
    return status, result if op.api else out.getvalue(), t0, perf_counter() - t0


def closed_loop(stream, seconds, cli, api, tracer=None):
    """Run whole cycles until the ops' times at the reference speed add up
    to `seconds`.  The reference kernel samples the machine's speed all
    along (reference.py); each op's wall time, less the samples taken
    during it, is scaled by the samples around it.  Returns every
    execution as (op, status, output, scaled seconds), the wall time of
    the ops, and the median kernel time."""
    runs, busy, wall = [], 0.0, 0.0
    with reference.Calibration() as cal:
        for cycle in stream:
            for op in cycle:
                if tracer is not None:
                    tracer.op = len(runs)
                spent = cal.spent
                status, out, t0, dt = run_op(op, cli, api)
                net = dt - (cal.spent - spent)
                runs.append((op, status, out, t0, dt, net))
                busy += net * reference.NOMINAL_S / cal.values[-1]
                wall += net
            if busy >= seconds or wall > MAX_WALL_S:
                break
    executions = [(op, status, out, net * cal.scale(t0, t0 + dt))
                  for op, status, out, t0, dt, net in runs]
    return executions, wall, statistics.median(cal.values)


def judge(executions, oracles):
    """Count failed and undecided ops."""
    memo, failed, undecided, notes = {}, 0, 0, []
    for op, status, out, _ in executions:
        if status != 0:
            verdict = f"exit status {status}"
        else:
            key = (op.argv, op.api, out)
            if key not in memo:
                name, *args = op.check
                try:
                    memo[key] = getattr(oracles, name)(out, *args)
                except (ValueError, KeyError, TypeError) as exc:
                    memo[key] = f"unreadable answer: {exc}"
            verdict = memo[key]
        if verdict == oracles.UNDECIDED:
            undecided += 1
        elif verdict != oracles.OK:
            failed += 1
            if len(notes) < 20:
                notes.append({"argv": list(map(str, op.argv)), "why": verdict})
    return {"failed": failed, "undecided": undecided, "notes": notes}


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1, -(-q * len(sorted_values) // 100) - 1))
    return sorted_values[int(k)]


def timing(executions):
    times = sorted(dt for *_, dt in executions)
    busy = sum(times)
    p90 = percentile(times, 90)
    return {
        "ops": len(times),
        "busy_s": busy,
        "ops_per_s": len(times) / busy,
        "op_ms_p50": 1000 * statistics.median(times),
        "op_ms_p90": 1000 * p90,
        "beyond_p90": sum(t > p90 for t in times),
    }


def main(argv):
    root, workload, seed, seconds, trace, memory_mb = argv
    seed, seconds, trace, memory_mb = int(seed), float(seconds), trace == "1", int(memory_mb)
    limit = memory_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path[:0] = [HERE, os.path.join(root, "src")]
    os.chdir(root)

    import oracles
    import workloads

    oracles.self_test()
    from bertrandnum import analysis, automata, cli, realbase

    def entropy(spec, length):
        base = realbase.parse_base(spec)
        report = analysis.entropy_estimates(automata.build_shift_dfa(base, "canonical"), int(length))
        return report.count_last, report.count_prev

    tmp = os.path.join(root, ".bench_out", f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        stream = workloads.cycles(workload, seed, root, HERE, tmp)
        summary = {}
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                executions, wall, kernel_s = closed_loop(stream, seconds, cli, entropy, tracer)
            finally:
                tracer.uninstall()
            # the same ops once more, untraced
            replayed, *_ = closed_loop([[op for op, *_ in executions]], 0, cli, entropy)
            summary["layers"] = tracer.metrics(len(executions))
            summary["layers"]["trace.overhead_ratio"] = (
                timing(executions)["busy_s"] / timing(replayed)["busy_s"], "ratio")
            spans_path = os.path.join(root, ".bench_out", f"spans-{workload}-{seed}.jsonl")
            tracer.write(spans_path)
            summary["spans"] = {"path": os.path.relpath(spans_path, root), "kept": len(tracer.spans),
                                "dropped": tracer.dropped_spans}
        else:
            executions, wall, kernel_s = closed_loop(stream, seconds, cli, entropy)
            replayed = []
        # before the oracles run, so that their memory does not count
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        summary.update(timing(executions))
        summary["wall_s"] = wall
        summary["kernel_ms"] = 1000 * kernel_s
        summary.update(judge(executions + replayed, oracles))
        summary["attempted"] = len(executions) + len(replayed)
        if workload == "classify":
            # untimed and not counted in attempted or failed
            ops = workloads.known_defect_ops(root, tmp)
            probe = [(op, *run_op(op, cli, entropy)[:2], 0) for op in ops]
            summary["known_defect"] = judge(probe, oracles)
        summary["kinds"] = dict(sorted(_count_kinds(executions).items()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(summary))
    return 0


def _count_kinds(executions):
    """Ops and seconds at the reference speed per kind of input."""
    counts = {}
    for op, *_, dt in executions:
        n, busy = counts.get(op.kind, (0, 0.0))
        counts[op.kind] = (n + 1, busy + dt)
    return counts


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
