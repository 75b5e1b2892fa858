"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import redux  # noqa: E402
import redux.cli  # noqa: E402
import redux.commutation  # noqa: E402
import redux.tilings  # noqa: E402
import redux.verify  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0, 11.0, 13.0])
    monkeypatch.setattr(spans, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()
    root = tracer.open("root")  # 0 .. 10
    a = tracer.open("a")  # 1 .. 4
    leaf = tracer.open("leaf")  # 2 .. 3
    tracer.close(leaf, size=7)
    tracer.close(a)
    b = tracer.open("a")  # 5 .. 6, same name as the first child
    tracer.close(b, size=2)
    tracer.close(root)
    other = tracer.open("root")  # 11 .. 13, a second top-level span
    tracer.close(other, error=True)

    assert tracer.parents == [-1, root, a, root, -1]
    summary = tracer.summary()
    assert summary["root"]["calls"] == 2
    assert summary["root"]["self_s"] == pytest.approx(6.0 + 2.0)
    assert summary["root"]["total_s"] == pytest.approx(12.0)
    assert summary["root"]["errors"] == 1
    assert summary["a"] == pytest.approx(
        {"calls": 2, "self_s": 3.0, "total_s": 4.0, "size": 2, "errors": 0}
    )
    assert summary["leaf"]["self_s"] == pytest.approx(1.0)
    assert summary["leaf"]["size"] == 7
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(12.0)


def test_quantile_moves_by_a_share_of_a_gap():
    assert run.quantile([7.0], 0.8) == 7.0
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert run.quantile(list(range(1, 101)), 0.8) == pytest.approx(80.5, abs=0.5)
    # One op crossing a gap of 9 moves a plain p80 of 50 values by 7.2.
    before = run.quantile([1.0] * 40 + [10.0] * 10, 0.8)
    after = run.quantile([1.0] * 39 + [10.0] * 11, 0.8)
    assert 0 < after - before < 1.5


def _bindings() -> dict:
    modules = [m for n, m in sys.modules.items() if n == "redux" or n.startswith("redux.")]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in (redux.tilings.Tiling, redux.tilings.TilingPoset):
        state.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return state


def test_install_patches_every_importing_module_and_restore_is_exact():
    before = _bindings()
    original_classes = redux.commutation.classes
    tracer = spans.Tracer()
    patches = spans.install(tracer)
    try:
        wrapped = redux.commutation.classes
        assert wrapped is not original_classes
        for module in (redux.verify, redux.tilings, redux.cli, redux):
            assert module.classes is wrapped
        assert redux.cli.run_verify is redux.verify.run is redux.verify_theorem
        assert redux.cli.run_verify is not before[("redux.verify", "run")]
        # Every binding of a spanned function was replaced.
        originals = {id(before[(m, a)]) for _, m, a, _ in spans.FUNCTION_SPANS}
        for key, value in _bindings().items():
            assert id(value) not in originals, key

        redux.commutation.graph((3, 2, 1))
        p = redux.tilings.poset((3, 2, 1))
        assert len(p.hasse) == 2
    finally:
        spans.restore(patches)

    assert _bindings() == before
    summary = tracer.summary()
    assert summary["commutation.graph"]["size"] == 1
    assert summary["commutation.classes"]["size"] == 2
    assert summary["tilings.poset"]["size"] == 3
    assert summary["tilings.poset.hasse"]["size"] == 2
    assert tracer.counters["tilings.Tiling.validations"] >= 3
    by_index = tracer.names
    graph_index = by_index.index("commutation.graph")
    assert by_index[tracer.parents[by_index.index("commutation.classes")]] == "commutation.graph"
    assert tracer.parents[graph_index] == -1


def test_query_sample_is_a_pure_function_of_the_seed():
    sample = workloads.query_sample(7)
    assert sample == workloads.query_sample(7)
    code = "import workloads, json; print(json.dumps(workloads.query_sample(7)))"
    env = dict(os.environ, PYTHONHASHSEED="123")
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True
    )
    assert json.loads(done.stdout) == sample

    ops = workloads.ops_for("query-top6", 7)
    assert ops == workloads.ops_for("query-top6", 7)
    assert sorted(ops) == sorted(
        ("cli", (*command, w)) for w in sample for command in workloads.QUERY_COMMANDS
    )

    perms = [tuple(map(int, w)) for w in sample]
    lengths = [redux.permcore.length(w) for w in perms]
    assert sorted(lengths) == [12] * 4 + [13] * 4 + [14] * 2
    assert len(set(perms)) == 10
    assert len({tuple(workloads.query_sample(s)) for s in range(20)}) > 1
    # Every seed draws from the same orbits, which share |R(w)|.
    for s in range(5):
        for w in workloads.query_sample(s):
            p = tuple(map(int, w))
            assert workloads.reduced_word_count(p) == redux.redwords.count_R(p)
            assert {workloads.reduced_word_count(q) for q in workloads.symmetry_orbit(p)} == {
                workloads.reduced_word_count(p)
            }


def test_elthm_n6_is_recorded_as_failed_with_its_reason():
    op = ("verify", "elthm", 6)
    _, produced = worker.run_op(op)
    (verdict,) = worker.judge("sweep-tilings", [op], [produced])
    assert verdict["failed"] and not verdict["wrong"]
    assert verdict["reason"].startswith("exit 3:")
    assert "64 vertices" in verdict["reason"]


def test_wrong_answers_fail_the_gate():
    op = ("verify", "fb", 6)
    (verdict,) = worker.judge("sweep-tilings", [op], [{"exit": 0, "checked": 259}])
    assert verdict == {"failed": True, "wrong": True, "reason": "checked 259, pinned 260"}

    ops = [("cli", (*command, "365421")) for command in workloads.QUERY_COMMANDS]
    values = [82, 81, 313, (313, 737), (82, 147)]
    produced = [{"exit": 0, "value": v} for v in values]
    verdicts = worker.judge("query-top6", ops, produced)
    assert [v["wrong"] for v in verdicts] == [False, True, False, True, False]
    assert verdicts[1]["reason"] == "enum tilings 365421 reports 81, pinned 82"
    assert "pinned (313, 738)" in verdicts[3]["reason"]


def test_query_pins_cover_every_orbit_and_the_routes_agree():
    for orbits in workloads.query_strata().values():
        for orbit in orbits:
            key = "".join(map(str, orbit[0]))
            classes, tilings, zonotopal, (elements, covers), (vertices, edges) = (
                workloads.QUERY_PINS[key]
            )
            assert classes == tilings == vertices
            assert zonotopal == elements
            for w in orbit:
                member = "".join(map(str, w))
                assert workloads.query_pin(("enum", "poset"), member) == (elements, covers)
    assert len(workloads.QUERY_PINS) == sum(workloads.QUERY_STRATA.values())


def test_cli_op_reports_its_count():
    _, produced = worker.run_op(("cli", ("enum", "tilings", "4231")))
    assert produced["exit"] == 0
    assert produced["value"] == len(redux.tilings.enumerate_rhombic((4, 2, 3, 1))) == 3
    _, produced = worker.run_op(("cli", ("enum", "poset", "321")))
    assert produced["value"] == (3, 2)
    _, produced = worker.run_op(("cli", ("render", "graph", "321")))
    assert produced["value"] == (2, 1)


def test_every_metric_in_benchmark_json_has_a_source():
    for name in run.metric_units("per_layer"):
        run.layer_source(name)
    with pytest.raises(run.BenchError):
        run.layer_source("tilings.no_such_span.calls")

def test_times_are_divided_by_the_host_factor():
    ops = [{"seconds": 0.5, "failed": False}, {"seconds": 1.5, "failed": True}]
    passes = [{"wall_s": 2.0, "host_factor": 1.25, "peak_rss_mb": 9.0, "ops": ops}]
    calib_s = 1.6 * run.CALIBRATION_ITERATIONS * hostspeed.REFERENCE_S_PER_ITERATION
    blocks = [{"calib_s": calib_s, "setup_s": [0.08, 0.32, 0.16]}]
    metrics = run.end_to_end_metrics(run.metric_units("end_to_end"), passes, blocks)
    values = {name: metric["value"] for name, metric in metrics.items()}
    assert values["wall_s"] == pytest.approx(1.6)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["op_p50_ms"] == pytest.approx(800.0)
    assert values["peak_rss_mb"] == 9.0
    assert values["ok_ratio"] == 0.5


def test_probe_samples_the_loop_while_the_body_runs_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe() as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 3 <= len(probe.times) <= 7
    assert probe.factor() == pytest.approx(
        hostspeed.factor(sum(probe.times) / len(probe.times), hostspeed.PROBE_ITERATIONS)
    )


def test_refuses_optimized_interpreter_and_budget_override(monkeypatch):
    assert run.refusal() is None
    monkeypatch.setenv("REDUX_BUDGET_OVERRIDE", "0")
    assert "REDUX_BUDGET_OVERRIDE" in run.refusal()
    monkeypatch.delenv("REDUX_BUDGET_OVERRIDE")
    argv = [sys.executable, "-O", str(HERE / "run.py")]
    argv += ["--workload", "sweep-words", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "-O" in done.stderr and done.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results"))
    argv = [sys.executable, f"{HERE.name}/run.py"]
    argv += ["--workload", "query-top6", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
