"""CLI behavior: subcommands, output formats, and every exit code path."""

import json

import pytest

import redux.cli
from redux import verify
from redux.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run_cli(capsys, "info", "4231")
    assert code == 0
    assert "length: 5" in out
    assert "vexillary: True" in out
    assert "freely_braided: False" in out


def test_info_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "info", "321")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["length"] == 3
    assert payload["shape"] == [2, 1]
    assert payload["count_321"] == 1


def test_enum_words_text(capsys):
    code, out, _ = run_cli(capsys, "enum", "words", "321")
    assert code == 0
    assert out.splitlines() == ["121", "212", "count 2"]


def test_enum_classes_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "enum", "classes", "4231")
    assert code == 0
    payload = json.loads(out)
    assert [c["size"] for c in payload["classes"]] == [1, 4, 1]
    assert payload["classes"][0]["representative"] == "12321"


def test_enum_tilings_and_zonotopal(capsys):
    code, out, _ = run_cli(capsys, "enum", "tilings", "321")
    assert code == 0 and out.splitlines()[-1] == "count 2"
    code, out, _ = run_cli(capsys, "enum", "zonotopal", "321")
    assert code == 0 and out.splitlines()[-1] == "count 3"
    code, out, _ = run_cli(capsys, "--format", "json", "enum", "tilings", "321")
    payload = json.loads(out)
    assert len(payload["tilings"]) == 2


def test_enum_text_builds_no_json(capsys, monkeypatch):
    code, expected, _ = run_cli(capsys, "enum", "zonotopal", "4231")

    def refuse(t):
        raise RuntimeError("text output must not build the JSON payload")

    monkeypatch.setattr(redux.cli, "tiling_payload", refuse)
    assert run_cli(capsys, "enum", "zonotopal", "4231") == (code, expected, "")
    assert code == 0


def test_enum_poset(capsys):
    code, out, _ = run_cli(capsys, "enum", "poset", "321")
    assert code == 0
    assert "elements 3" in out and "covers 2" in out
    code, out, _ = run_cli(capsys, "--format", "json", "enum", "poset", "321")
    assert json.loads(out)["schema"] == 1


def test_verify_pass_exit_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "1lbm", "--n", "3")
    assert code == 0
    assert "1lbm: PASS" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify", "syt", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True and payload["theorem"] == "syt"


def test_verify_counterexample_exit_1(capsys, monkeypatch):
    monkeypatch.setitem(verify.THEOREMS, "stub", lambda n: (1, "321"))
    code, out, _ = run_cli(capsys, "verify", "stub", "--n", "3")
    assert code == 1
    assert "stub: FAIL at 321" in out


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["verify", "nope", "--n", "3"],
        ["info", "4221"],
        ["info", "abc"],
        ["render", "nope", "321"],
        ["render", "tiling:9", "321"],
        ["render", "tiling:-1", "321"],
        ["render", "tiling:abc", "321"],
        ["render", "graph:5", "321"],
        ["render", "poset:x", "321"],
        ["render", "polygon:3", "321"],
        ["--format", "json", "render", "polygon", "321"],
        ["verify", "monotone", "--n", "3"],
        ["verify", "2ktiles", "--n", "2"],
        ["verify", "vexthm", "--n", "2"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error" in err


def test_render_usage_messages(capsys):
    """Only ``tiling`` takes a ``:suffix``, and it must be a tiling index."""
    for argv, message in (
        (["render", "graph:5", "321"], "render target 'graph' takes no ':' suffix"),
        (["render", "poset:x", "321"], "render target 'poset' takes no ':' suffix"),
        (["render", "polygon:3", "321"], "render target 'polygon' takes no ':' suffix"),
        (["render", "nope:1", "321"], "unknown render target 'nope:1'"),
        (["render", "tiling:abc", "321"], "'abc' is not a tiling index"),
        (["render", "tiling:-1", "321"], "'-1' is not a tiling index"),
        (["render", "tiling:2", "321"], "tiling index '2' out of range 0..1"),
    ):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv


def test_argparse_usage_exit_2(capsys):
    for argv in (
        ["enum", "nothing", "321"],
        ["verify", "1lbm", "--n", "0"],
        ["--format", "dot", "render", "tiling:0", "321"],
        ["--max-length", "-1", "enum", "classes", "321"],
        ["--max-words", "-1", "enum", "words", "321"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    assert "--max-words: must be >= 0, got -1" in capsys.readouterr().err


def test_python_m_redux(capsys, python):
    proc = python("-m", "redux", "info", "321")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(capsys, "info", "321")[1]


def test_budget_exit_3(capsys):
    code, _, err = run_cli(capsys, "enum", "words", "87654321")
    assert code == 3
    assert "budget exceeded" in err


def test_internal_error_exit_4(capsys, monkeypatch):
    def broken(w):
        raise RuntimeError("boom")

    monkeypatch.setattr(redux.cli, "poset", broken)
    code, out, err = run_cli(capsys, "enum", "poset", "321")
    assert code == redux.cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_budget_flags(capsys):
    code, _, _ = run_cli(capsys, "--max-length", "2", "enum", "words", "321")
    assert code == 3
    code, _, err = run_cli(capsys, "--max-length", "0", "enum", "words", "321")
    assert code == 3
    assert "exceeds the limit 0" in err
    code, _, _ = run_cli(capsys, "--max-words", "0", "info", "321")
    assert code == 0
    code, out, _ = run_cli(capsys, "--max-length", "3", "enum", "words", "321")
    assert code == 0
    assert out.splitlines()[-1] == "count 2"


def test_budget_flags_reach_verify(capsys):
    code, _, err = run_cli(capsys, "--max-length", "5", "verify", "monotone", "--n", "4")
    assert code == 3
    assert "length(w) = 6 exceeds the limit 5" in err


def test_max_words_limits_words_not_classes(capsys):
    code, out, _ = run_cli(capsys, "--max-words", "1", "enum", "classes", "321")
    assert code == 0
    assert out.splitlines()[-1] == "count 2"
    code, _, err = run_cli(capsys, "--max-words", "1", "enum", "words", "321")
    assert code == 3
    assert "|R(w)| = 2 exceeds the limit 1" in err


def test_2kgon_and_syt_sweeps_are_not_budgeted(capsys):
    """Neither sweep enumerates Z(w) or R(w), so no budget flag refuses it."""
    code, out, _ = run_cli(capsys, "--max-length", "2", "verify", "2kgon", "--n", "4")
    assert (code, out) == (0, "2kgon: PASS (24 checked)\n")
    code, out, _ = run_cli(capsys, "--max-words", "1", "verify", "syt", "--n", "4")
    assert (code, out) == (0, "syt: PASS (23 checked)\n")


def test_render_polygon_deterministic(capsys):
    code, first, _ = run_cli(capsys, "render", "polygon", "4132")
    assert code == 0 and first.startswith("<svg")
    code, second, _ = run_cli(capsys, "render", "polygon", "4132")
    assert first == second


def test_render_tiling(capsys):
    code, out, _ = run_cli(capsys, "render", "tiling:1", "321")
    assert code == 0 and "<polygon" in out
    code, out, _ = run_cli(capsys, "--format", "json", "render", "tiling", "321")
    assert json.loads(out)["schema"] == 1


def test_render_graph_and_poset(capsys):
    code, out, _ = run_cli(capsys, "render", "graph", "4231")
    assert code == 0 and out.startswith("graph G {")
    code, out, _ = run_cli(capsys, "--format", "json", "render", "graph", "4231")
    assert len(json.loads(out)["vertices"]) == 3
    code, out, _ = run_cli(capsys, "render", "poset", "321")
    assert code == 0
    code, out, _ = run_cli(capsys, "--format", "json", "render", "poset", "321")
    assert json.loads(out)["schema"] == 1


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.svg"
    code, out, _ = run_cli(capsys, "-o", str(target), "render", "polygon", "4132")
    assert code == 0 and out == ""
    assert target.read_text().startswith("<svg")


def test_output_to_missing_directory_exit_2(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "x.svg"
    code, out, err = run_cli(capsys, "-o", str(target), "render", "polygon", "4132")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write")
