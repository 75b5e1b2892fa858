"""One pass of a workload in a fresh interpreter, so redux's caches start cold.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--spans FILE]

Prints one JSON object: per-op latency and verdict, the pass's wall time,
host factor (see hostspeed.py) and peak RSS, and with ``--trace 1`` the span
summary; ``--spans`` also writes every span to FILE once the pass is over.
Each op is timed on its own; its output is checked after its timer stops.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import hostspeed
import spans
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_redux():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import redux.cli
    import redux.redwords
    import redux.verify

    return redux


def _parse_cli_output(command: tuple, text: str) -> int | tuple | None:
    """What an op reports: a count, P(w) as (elements, covers) or the graph
    as (vertices, edges)."""
    lines = text.splitlines()
    try:
        if command[0] == "render":
            return (
                sum(1 for line in lines if "[label=" in line),
                sum(1 for line in lines if " -- " in line),
            )
        if command[1] == "poset":
            fields = dict(line.split() for line in lines)
            return int(fields["elements"]), int(fields["covers"])
        key, value = lines[-1].split()
        return int(value) if key == "count" else None
    except (IndexError, KeyError, ValueError):
        return None


def run_op(op: tuple) -> tuple[float, dict]:
    """Run one op; return its latency in seconds and what it produced.

    Only the call into redux is timed.  The result dict carries ``exit`` (the
    code ``redux`` would exit with, or None after an exception) and the
    op's reported value.
    """
    redux = _import_redux()
    budget_exit = redux.cli.EXIT_BUDGET
    if op[0] == "verify":
        start = perf_counter()
        try:
            result = redux.verify.run(op[1], op[2])
        except redux.redwords.BudgetError as exc:
            elapsed = perf_counter() - start
            return elapsed, {"exit": budget_exit, "error": f"budget exceeded: {exc}"}
        except Exception as exc:  # a crash is recorded as a failed op
            elapsed = perf_counter() - start
            return elapsed, {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
        elapsed = perf_counter() - start
        return elapsed, {
            "exit": redux.cli.EXIT_OK if result.ok else redux.cli.EXIT_COUNTEREXAMPLE,
            "checked": result.checked,
            "counterexample": result.counterexample,
        }
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = redux.cli.main(list(op[1]))
    except Exception as exc:  # a crash is recorded as a failed op
        elapsed = perf_counter() - start
        return elapsed, {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
    elapsed = perf_counter() - start
    text = out.getvalue()
    return elapsed, {
        "exit": code,
        "error": err.getvalue().strip() or None,
        "bytes": len(text.encode()),
        "value": _parse_cli_output(op[1], text),
    }


def judge(workload: str, ops: list[tuple], produced: list[dict]) -> list[dict]:
    """Mark each op failed or not, and wrong or not, with the reason.

    A failed op did not deliver a verified answer.  A wrong op delivered a
    wrong one or crashed; an op refused at a budget (exit 3) is failed but
    not wrong.
    """
    budget_exit = _import_redux().cli.EXIT_BUDGET
    verdicts = []
    for op, result in zip(ops, produced):
        reason = None
        if result["exit"] != 0:
            reason = f"exit {result['exit']}: {result.get('error') or result.get('counterexample')}"
        elif op[0] == "cli" and result["value"] is None:
            reason = "output has no value"
        verdicts.append(
            {
                "failed": reason is not None,
                "wrong": reason is not None and result["exit"] != budget_exit,
                "reason": reason,
            }
        )
    if workload in workloads.SWEEPS:
        pinned = {(t, n): checked for t, n, checked in workloads.SWEEPS[workload]}
        for op, result, verdict in zip(ops, produced, verdicts):
            expected = pinned[(op[1], op[2])]
            if not verdict["failed"] and result["checked"] != expected:
                verdict.update(
                    failed=True,
                    wrong=True,
                    reason=f"checked {result['checked']}, pinned {expected}",
                )
        return verdicts
    # query-top6: each op must report its orbit's pinned value.  The pins
    # have the words route and the tilings route agree (classes = tilings).
    for op, result, verdict in zip(ops, produced, verdicts):
        command, w = op[1][:2], op[1][2]
        expected = workloads.query_pin(command, w)
        if not verdict["failed"] and result["value"] != expected:
            verdict.update(
                failed=True,
                wrong=True,
                reason=f"{' '.join(op[1])} reports {result['value']}, pinned {expected}",
            )
    return verdicts


def run_pass(workload: str, seed: int, traced: bool, spans_out: str | None = None) -> dict:
    redux = _import_redux()
    ops = workloads.ops_for(workload, seed)
    tracer = spans.Tracer() if traced else None
    patches = spans.install(tracer) if traced else []
    try:
        with hostspeed.Probe() as probe:
            timed = [run_op(op) for op in ops]
    finally:
        spans.restore(patches)
    latencies = [seconds for seconds, _ in timed]
    produced = [result for _, result in timed]
    verdicts = judge(workload, ops, produced)
    cache = redux.redwords.count_R.cache_info()
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "wall_s": sum(latencies),
        "host_factor": probe.factor(),
        "probes": len(probe.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [
            {"op": workloads.op_label(op), "seconds": seconds, **verdict}
            for op, seconds, verdict in zip(ops, latencies, verdicts)
        ],
        "output_bytes": sum(result.get("bytes", 0) for result in produced),
        "count_R": {"hits": cache.hits, "misses": cache.misses},
        "spans": tracer.summary() if traced else {},
        "counters": dict(tracer.counters) if traced else {},
    }
    if traced and spans_out:
        with open(spans_out, "w") as handle:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": tracer.rows()}, handle)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", default=None, help="write every span to this file")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, bool(args.trace), args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
