"""redux benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from anywhere inside a checkout; the program is imported from ``src/``.
Every pass of the workload runs in a fresh worker process, one at a time,
and passes repeat while another one fits in ``--seconds`` (at least one).
``--trace 1`` alternates untraced and traced passes and reports the layers.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, the metrics being those ``BENCHMARK.json``
names.  ``--workload all`` runs every workload in turn and prints their
tables only.  The exit code is 1 when an op returned a wrong answer or
crashed, 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# The whole invocation must end well inside three minutes.
HARD_LIMIT_S = 170.0
# Cold starts are timed in blocks, one before each pass and one after the
# last, so that their median sees the host over the whole run.
SETUP_PER_BLOCK = 8
SETUP_ARGV = ["-c", "from redux.cli import entry; entry()", "info", "321"]
CALIBRATION_ITERATIONS = 3_000_000

# Per-layer metrics other than "<span>.calls" and "<span>.self_s", with where
# each comes from: ("span", name, field) reads the span summary, where field
# is calls, self_s, size or errors.
LAYER_SOURCES = {
    "verify.run.checked": ("span", "verify.run", "size"),
    "redwords.enumerate_R.words": ("span", "redwords.enumerate_R", "size"),
    "redwords.count_R.hit_ratio": ("count_R", "hit_ratio"),
    "redwords.count_R.lookups": ("count_R", "lookups"),
    "commutation.classes.classes": ("span", "commutation.classes", "size"),
    "commutation.graph.edges": ("span", "commutation.graph", "size"),
    "commutation.graphs_isomorphic.refused": ("span", "commutation.graphs_isomorphic", "errors"),
    "tilings.enumerate_zonotopal.tilings": ("span", "tilings.enumerate_zonotopal", "size"),
    "tilings.Tiling.validations": ("counter", "tilings.Tiling.validations"),
    "tilings.enumerate_rhombic.tilings": ("span", "tilings.enumerate_rhombic", "size"),
    "tilings.flip_graph_from_tilings.edges": ("span", "tilings.flip_graph_from_tilings", "size"),
    "tilings.poset.elements": ("span", "tilings.poset", "size"),
    "tilings.poset.leq_s": ("span", "tilings.poset.leq", "self_s"),
    "tilings.poset.hasse_s": ("span", "tilings.poset.hasse", "self_s"),
    "tilings.poset.covers": ("span", "tilings.poset.hasse", "size"),
    "patterns.occurrences.found": ("span", "patterns.occurrences", "size"),
    "cli.output_bytes": ("output_bytes",),
    "trace.overhead_ratio": ("overhead",),
}


class BenchError(Exception):
    """The benchmark cannot produce a result; mapped to exit code 2."""


def refusal() -> str | None:
    """Why this interpreter would measure a different program, if it would."""
    if sys.flags.optimize:
        return "refusing to run under -O: asserts carry verdict checks in redux"
    if "REDUX_BUDGET_OVERRIDE" in os.environ:
        return "refusing to run with REDUX_BUDGET_OVERRIDE set: it changes which ops run"
    return None


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def compile_sources(deadline: float) -> None:
    """Byte-compile redux and the benchmark before anything is timed, as
    installing a package does.

    Otherwise whether a ``__pycache__`` already sits next to the sources (it
    depends on PYTHONDONTWRITEBYTECODE and on earlier runs) decides whether
    each child compiles redux: that moved ``setup_s`` by about 40% and the
    peak RSS of sweep-words by 3%.
    """
    done = _run_child(["-m", "compileall", "-q", str(SRC), str(HERE)], deadline)
    if done.returncode != 0:
        raise BenchError(f"compileall failed: {done.stdout.strip()} {done.stderr.strip()}")


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _run_child(argv: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before the next worker could start")
    try:
        return subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=worker_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        raise BenchError(f"worker {argv} ran past the {HARD_LIMIT_S:.0f} s limit")


def measure_setup(repeats: int, deadline: float) -> list[float]:
    """Cold starts of ``redux info 321`` in a fresh interpreter."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        done = _run_child(SETUP_ARGV, deadline)
        times.append(perf_counter() - start)
        if done.returncode != 0 or "permutation: 321" not in done.stdout:
            raise BenchError(f"`redux info 321` failed: {done.stderr.strip()}")
    return times


def run_worker(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    argv = [
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
    ]
    if traced:
        argv += ["--spans", str(RESULTS / f"{workload}-seed{seed}-spans.json")]
    done = _run_child(argv, deadline)
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Passes (pairs of untraced and traced passes with ``trace``) while the
    next one is expected to end within ``seconds``; at least one.

    A block before each pass and one after the last times the host's loop
    once and, without ``trace``, SETUP_PER_BLOCK cold starts right after it.
    Returns the passes and the blocks.
    """
    start = perf_counter()
    passes, blocks = [], []

    def block():
        calib_s = hostspeed.loop(CALIBRATION_ITERATIONS)
        setup_s = [] if trace else measure_setup(SETUP_PER_BLOCK, deadline)
        blocks.append({"calib_s": calib_s, "setup_s": setup_s})

    while True:
        began = perf_counter()
        block()
        passes.append(run_worker(workload, seed, False, deadline))
        if trace:
            passes.append(run_worker(workload, seed, True, deadline))
        took = perf_counter() - began
        if perf_counter() + took > start + seconds:
            break
    block()
    return passes, blocks


def quantile(values: list[float], p: float, grid: int = 20_000) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.

    The op latencies of one run cluster by op kind with gaps between the
    clusters; a plain order statistic jumps across a gap when one op's
    latency moves, this estimate moves by that op's share only.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf = [0.0]
    for k in range(grid):
        t = (k + 0.5) / grid
        cdf.append(cdf[-1] + math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t)) / grid)
    weights = [cdf[(i + 1) * grid // n] - cdf[i * grid // n] for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists under ``kind``."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {metric["name"]: metric["unit"] for metric in spec[kind]}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise BenchError(f"cannot read the {kind} metrics from BENCHMARK.json: {exc!r}")


def layer_source(name: str) -> tuple:
    """Where a per-layer metric comes from (see LAYER_SOURCES)."""
    if name in LAYER_SOURCES:
        return LAYER_SOURCES[name]
    span, _, field = name.rpartition(".")
    if field in ("calls", "self_s") and span in spans.SPAN_NAMES:
        return ("span", span, field)
    raise BenchError(f"BENCHMARK.json names per-layer metric {name!r}, which nothing records")


def setup_times(blocks: list[dict]) -> list[float]:
    """The cold-start times, each at the reference speed of the host's loop
    timed right before its block."""
    return [
        seconds / hostspeed.factor(b["calib_s"], CALIBRATION_ITERATIONS)
        for b in blocks
        for seconds in b["setup_s"]
    ]


def end_to_end_metrics(units: dict, passes: list[dict], blocks: list[dict]) -> dict:
    """Times are at the reference speed (see hostspeed.py): a pass's times are
    divided by its host factor."""
    latencies_ms = [op["seconds"] * 1000 / p["host_factor"] for p in passes for op in p["ops"]]
    ops = [op for p in passes for op in p["ops"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] / p["host_factor"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup_times(blocks)),
        "op_p50_ms": quantile(latencies_ms, 0.5),
        "op_p80_ms": quantile(latencies_ms, 0.8),
        "ok_ratio": sum(not op["failed"] for op in ops) / len(ops),
    }
    missing = sorted(units.keys() - values.keys())
    if missing:
        raise BenchError(f"BENCHMARK.json names end-to-end metrics nothing computes: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _layer_value(source: tuple, traced: dict, overhead: float) -> float:
    kind = source[0]
    if kind == "span":
        row = traced["spans"].get(source[1])
        return row[source[2]] if row else 0
    if kind == "counter":
        return traced["counters"].get(source[1], 0)
    if kind == "count_R":
        lookups = traced["count_R"]["hits"] + traced["count_R"]["misses"]
        if source[1] == "lookups":
            return lookups
        return traced["count_R"]["hits"] / lookups if lookups else 0.0
    if kind == "output_bytes":
        return traced["output_bytes"]
    if kind == "overhead":
        return overhead
    raise ValueError(f"unknown metric source {source!r}")


def per_layer_metrics(units: dict, passes: list[dict]) -> dict:
    sources = {name: layer_source(name) for name in units}
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    overhead = statistics.median(
        p["wall_s"] / p["host_factor"] for p in traced
    ) / statistics.median(p["wall_s"] / p["host_factor"] for p in untraced)
    return {
        name: {
            "value": statistics.median(_layer_value(sources[name], p, overhead) for p in traced),
            "unit": unit,
        }
        for name, unit in units.items()
    }


def environment_record(blocks: list[dict]) -> dict:
    return {
        "calib_s": statistics.median(b["calib_s"] for b in blocks),
        "calib_iterations": CALIBRATION_ITERATIONS,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def print_table(workload: str, passes: list[dict], metrics: dict) -> None:
    print(f"== {workload}: {len(passes)} pass(es)")
    for p in passes:
        kind = "traced" if p["traced"] else "untraced"
        print(
            f"  pass ({kind}): wall {p['wall_s']:.3f} s raw, host factor {p['host_factor']:.3f} "
            f"({p['probes']} probes), peak RSS {p['peak_rss_mb']:.1f} MiB"
        )
    for op in passes[0]["ops"]:
        status = f"FAILED ({op['reason']})" if op["failed"] else "ok"
        print(f"  {op['seconds'] * 1000:10.1f} ms raw  {op['op']}: {status}")
    traced = [p for p in passes if p["traced"]]
    if traced:
        print("  span                                  calls     self_s    total_s       size")
        for name, row in sorted(traced[-1]["spans"].items()):
            print(
                f"  {name:36s} {row['calls']:6d} {row['self_s']:10.4f} "
                f"{row['total_s']:10.4f} {row['size']:10d}"
            )
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + HARD_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        # Fail on a metric nothing records before anything runs.
        for name in units:
            layer_source(name)
    compile_sources(deadline)
    passes, blocks = run_passes(workload, seed, seconds, trace, deadline)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment_record(blocks),
        "blocks": blocks,
    }
    if trace:
        metrics = per_layer_metrics(units, passes)
    else:
        metrics = end_to_end_metrics(units, passes, blocks)
    ops = [op for p in passes for op in p["ops"]]
    record.update(
        passes=passes,
        metrics=metrics,
        correct=not any(op["wrong"] for op in ops),
        attempted=len(ops),
        failed=sum(op["failed"] for op in ops),
    )
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    env = record["environment"]
    print(
        f"# calib_s {env['calib_s']:.4f} ({env['calib_iterations']} iterations), "
        f"git {env['git_sha']}, python {env['python']}, nproc {env['nproc']}; "
        f"record {out.relative_to(ROOT)}"
    )
    print_table(workload, passes, metrics)
    for op in ops:
        if op["wrong"]:
            print(f"WRONG: {op['op']}: {op['reason']}", file=sys.stderr)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="redux benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    reason = refusal()
    if reason:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    if not (SRC / "redux" / "cli.py").is_file():
        print(f"error: no redux sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in records)
    if args.workload != "all":
        r = records[0]
        print(
            json.dumps(
                {
                    "correct": r["correct"],
                    "attempted": r["attempted"],
                    "failed": r["failed"],
                    "metrics": r["metrics"],
                }
            )
        )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
