import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import forest_cycles
from forest_cycles import checks, numerics, phi, standard_spec, tau
from forest_cycles import serialize as sz
from forest_cycles.cli import main

tau_module = importlib.import_module("forest_cycles.tau")  # not the tau function


def test_tau_text_output(capsys):
    assert main(["tau", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert "5 trees" in out


def test_tau_json_output(capsys):
    assert main(["tau", "--m", "2", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 1
    assert entries[0]["coeff"] == "1"
    assert entries[0]["trees"][0]["root"] == "1"


def test_a_forest_terms_str_is_its_repr():
    # so forest output, listed by str, keeps the order of the pinned repr
    rng = random.Random(0)
    forests = [*tau(standard_spec(5)).terms(), *(checks.random_forest(rng) for _ in range(200))]
    assert all(str(F) == repr(F) for F in forests)


@pytest.mark.parametrize("cmd, sum_of, to_json, to_latex, line", [
    ("tau", tau, sz.forest_term_to_json, sz.forest_term_to_latex,
     lambda F, c: f"  {c} * {sz.forest_term_to_latex(F)}"),
    ("phi", lambda spec: phi(tau(spec)), sz.cycle_term_to_json, sz.cycle_term_to_latex,
     lambda t, c: f"{c} * {t}"),
])
def test_every_format_writes_the_sum_in_listed_order(cmd, sum_of, to_json, to_latex, line,
                                                     capsys):
    listed = sz.listed(sum_of(standard_spec(5)))
    assert main([cmd, "--m", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == [dict(to_json(t), coeff=str(c))
                                                   for t, c in listed]
    assert {c for _, c in listed} <= {1, -1}  # so each LaTeX prefix is a bare sign
    latex = " ".join(("+" if c == 1 else "-") + to_latex(t) for t, c in listed)
    assert main([cmd, "--m", "5", "--format", "latex"]) == 0
    assert capsys.readouterr().out == latex.removeprefix("+") + "\n"
    assert main([cmd, "--m", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-len(listed):] == [line(t, c)
                                                                    for t, c in listed]


def test_phi_latex_output(capsys):
    assert main(["phi", "--m", "2", "--format", "latex"]) == 0
    assert r"\left[" in capsys.readouterr().out


def test_phi_custom_decorations(capsys):
    assert main(["phi", "--decos", "a,b", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 1


def test_phi_from_tree_file(tmp_path, capsys):
    blob = {"root": "1", "node": {"children": [{"leaf": "x1"}, {"leaf": "x2"}]}}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(blob))
    assert main(["phi", "--tree", str(path), "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)
    assert entries[0]["coeff"] == "1"


def test_phi_maps_a_root_over_eight_identical_corollas(tmp_path, capsys):
    # 8! relabelings of one tied cell, searched with the swaps of the copies
    corolla = {"children": [{"leaf": n} for n in "xyz"]}
    path = tmp_path / "corollas.json"
    path.write_text(json.dumps({"root": "1", "node": {"children": [corolla] * 8}}))
    assert main(["phi", "--tree", str(path)]) == 0
    coords = ([f"1-{n}^-1*u{i}" for n in "xyz" for i in range(1, 9)]
              + [f"1-u{i}^-1*u9" for i in range(1, 9)] + ["1-u9^-1"])
    assert capsys.readouterr() == ("1 * [" + ", ".join(coords) + "]\n", "")


def test_phi_maps_a_root_over_eight_copies_of_a_chain_to_zero(tmp_path, capsys):
    # the copies' three vertices are three tied cells that refinement
    # links only through one another; swapping two copies swaps their
    # seven edges, an odd automorphism
    chain = {"children": [{"leaf": "x"}, {"children": [
        {"leaf": "y"}, {"children": [{"leaf": "z"}, {"leaf": "w"}]}]}]}
    path = tmp_path / "chains.json"
    path.write_text(json.dumps({"root": "1", "node": {"children": [chain] * 8}}))
    assert main(["phi", "--tree", str(path), "--format", "json"]) == 0
    assert capsys.readouterr() == ("[]\n", "")


def test_verify_suite_pass(capsys):
    assert main(["verify", "cancellation", "--m", "4"]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_bounding_fixture_flag(capsys):
    assert main(["verify", "bounding", "--fixture", "double_log"]) == 0
    out = capsys.readouterr().out
    assert "double_log" in out and "triple_log" not in out


def test_verify_seeded_random_suites(capsys):
    assert main(["verify", "d2", "--count", "25", "--seed", "3"]) == 0
    assert main(["verify", "leibniz", "--count", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 2


def test_verify_unknown_suite_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_eval_compare_reports_agreement(capsys):
    assert main(["eval", "compare", "--x", "6,3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    assert report["comparison"] < 1e-10


def test_eval_series_off_polydisc_is_usage_error(capsys):
    assert main(["eval", "series", "--x", "2.0"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("blob, key", [
    ({"node": {"leaf": "x1"}}, "'root'"),
    ({"root": "1", "node": {"children": [{"lef": "x1"}, {"leaf": "x2"}]}}, "'leaf'"),
    ({"root": 1, "node": {"leaf": "x1"}}, "'root'"),
    ({"root": "1", "node": {"children": 5}}, "'children'"),
], ids=["no_root", "misspelt_leaf", "number_root", "number_children"])
def test_malformed_tree_file_is_usage_error(blob, key, tmp_path, capsys):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(blob))
    assert main(["phi", "--tree", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


def test_missing_tree_file_is_usage_error(capsys):
    assert main(["phi", "--tree", "/does/not/exist.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_quietly_as_on_sigpipe():
    # a reader that stops after one line, as `| head -1` does; the 160 kB
    # of output outgrow the pipe, so a later write finds it closed
    src = str(Path(forest_cycles.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "forest_cycles.cli", "tau", "--m", "7", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")


@pytest.mark.parametrize("argv", [
    ["eval", "compare", "--x", "1,abc"],
    ["verify", "numeric", "--x", "2,zz"],
    ["phi", "--decos", "a,a"],
    ["tau", "--decos", "a"],
    ["eval", "integral", "--x", "2", "--order", "100000000"],
    ["verify", "chain-map", "--m", "1"],
    ["verify", "d2", "--count", "-3"],
    ["verify", "all", "--order", "1"],
    ["verify", "all", "--tol", "0"],
    ["eval", "series", "--x", "nan"],
    ["eval", "integral", "--x", "2,nan"],
    ["verify", "all", "--x", "nan"],
    ["verify", "numeric", "--tol", "nan"],
    ["verify", "numeric", "--tol", "inf"],
    ["eval", "compare", "--x", "3,2", "--tol", "0"],
    ["eval", "compare", "--x", "3,2", "--tol", "-1"],
    ["eval", "compare", "--x", "3,2", "--tol", "nan"],
    ["eval", "compare", "--x", "3,2", "--tol", "inf"],
])
def test_bad_input_is_usage_error(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no suite ran, so none can report a pass
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, m", [
    (["tau", "--m", "40"], 40),
    (["phi", "--m", "14", "--format", "json"], 14),
    (["tau", "--decos", ",".join(f"a{i}" for i in range(14))], 14),
    (["verify", "all", "--m", "40"], 14),  # the first m of its range over budget
])
def test_tree_count_over_budget_is_refused_before_any_tree(argv, m, monkeypatch, capsys):
    def no_trees(leaves):
        raise AssertionError("a tree was built")
    monkeypatch.setattr(tau_module, "_binary_shapes", no_trees)
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", f"error: tau over {m} decorations has more than {tau_module.MAX_TREES} trees\n")


def test_deeply_nested_tree_file_is_usage_error(tmp_path, capsys):
    # written as text, since json.dump itself overflows at this depth
    depth = 600
    path = tmp_path / "deep.json"
    path.write_text('{"root": "1", "node": '
                    + "".join(f'{{"children": [{{"leaf": "x{i}"}}, ' for i in range(depth))
                    + '{"leaf": "y"}' + "]}" * depth + "}")
    assert main(["phi", "--tree", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("mode", ["integral", "compare"])
def test_eval_rejects_doubled_order_before_integrating(mode, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(numerics, "simplex_integral",
                        lambda *args: calls.append(args) or 0.0)
    order = str(numerics.MAX_QUADRATURE_ORDER)
    assert main(["eval", mode, "--x", "2", "--order", order]) == 2
    assert calls == []
    assert "exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["integral", "compare"])
def test_eval_integrates_once_per_order(mode, monkeypatch, capsys):
    orders = []
    real = numerics.simplex_integral

    def counted(x, ctx):
        orders.append(ctx.quadrature_order)
        return real(x, ctx)

    monkeypatch.setattr(numerics, "simplex_integral", counted)
    assert main(["eval", mode, "--x", "6,3", "--order", "16"]) == 0
    assert orders == [16, 32]
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == real([6.0, 3.0], numerics.NumericContext(quadrature_order=16))
