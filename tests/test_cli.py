import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from optising import cli
from optising.cli import (
    _STUDY_SCHEMA,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    ConfigError,
    build_parser,
    main,
    parse_config_text,
    resolve_config,
)
from optising.experiments import LBL_GRAPH, derive_seed
from optising.graph import read_graph
from optising.ising import from_graph
from optising.spectral import eigendecompose


def run(args):
    return main([str(a) for a in args])


def read_dir_bytes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_gen_regular_writes_files(tmp_path, capsys):
    code = run(["gen", "--n", 20, "--degree", 5, "--seed", 7, "--out", tmp_path])
    assert code == EXIT_OK
    g = read_graph(tmp_path / "graph.rud")
    assert g.num_edges == 50
    assert list(g.degrees()) == [5] * 20
    gj = read_graph(tmp_path / "graph.json")
    assert gj == g
    out = capsys.readouterr().out
    assert "edges=50" in out
    assert "density=" in out


def test_gen_density_edge_count(tmp_path):
    code = run(["gen", "--n", 4, "--density", 0.5, "--out", tmp_path])
    assert code == EXIT_OK
    assert read_graph(tmp_path / "graph.rud").num_edges == 3


def test_gen_missing_n_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--degree", 5])
    assert exc.value.code == EXIT_USAGE


def test_gen_requires_exactly_one_generator(tmp_path):
    assert run(["gen", "--n", 6, "--out", tmp_path]) == EXIT_USAGE
    assert run(["gen", "--n", 6, "--degree", 2, "--density", 0.5,
                "--out", tmp_path]) == EXIT_USAGE


def test_module_entry_point_exits_with_main_code(tmp_path):
    # `python -m optising.cli` runs `main` and exits with its code
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-m", "optising.cli", "gen", "--n"]
    bad = subprocess.run([*cmd, "5"], env=env, capture_output=True, text=True)
    assert bad.returncode == EXIT_USAGE
    assert "gen: specify exactly one of --degree or --density" in bad.stderr
    ok = subprocess.run([*cmd, "6", "--degree", "3", "--out", str(tmp_path)],
                        env=env, capture_output=True, text=True)
    assert ok.returncode == EXIT_OK
    assert read_graph(tmp_path / "graph.rud").num_edges == 9


def test_gen_bad_params_guard(tmp_path, capsys):
    assert run(["gen", "--n", 5, "--degree", 3, "--out", tmp_path]) == EXIT_GUARD
    for gen in (["--degree", 3], ["--density", 0.5]):
        for bounds in (["--whigh=inf"], ["--wlow=-inf"], ["--wlow=-1e308", "--whigh=1e308"]):
            assert run(["gen", "--n", 6, *gen, *bounds, "--out", tmp_path / "w"]) == EXIT_GUARD
            assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


def test_gen_weight_bounds_follow_one_rule(tmp_path, capsys):
    assert run(["gen", "--n", 6, "--density", 0.5, "--wlow", 2, "--whigh", 1,
                "--out", tmp_path / "r"]) == EXIT_GUARD
    assert "weight_low must be <= weight_high" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    # equal bounds give an unweighted regular instance
    assert run(["gen", "--n", 20, "--degree", 5, "--wlow", 1, "--whigh", 1,
                "--out", tmp_path]) == EXIT_OK
    g = read_graph(tmp_path / "graph.rud")
    assert g.num_edges == 50
    assert all(w == 1.0 for _, _, w in g.edges)


def test_gen_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run(["gen", "--n", 12, "--degree", 3, "--seed", 5, "--out", d1])
    run(["gen", "--n", 12, "--degree", 3, "--seed", 5, "--out", d2])
    assert read_dir_bytes(d1) == read_dir_bytes(d2)


def test_decompose_two_spin(tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text('{"n": 2, "J": [[0.0, 0.5], [0.5, 0.0]]}')
    code = run(["decompose", "--matrix", mpath, "--out", tmp_path])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "0.5" in out and "-0.5" in out
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "rank,eigenvalue,sign,error_ratio_at_K"
    rows = [ln.split(",") for ln in lines[1:]]
    assert float(rows[0][1]) == pytest.approx(0.5)
    assert float(rows[0][3]) == pytest.approx(0.5)  # error ratio at K=1
    assert float(rows[1][3]) == 0.0  # error ratio at K=N


def test_decompose_non_square_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0.0,0.5\n")
    assert run(["decompose", "--matrix", p]) == EXIT_PARSE


def test_decompose_asymmetric_matrix(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"n": 2, "J": [[0.0, 0.5], [0.9, 0.0]]}')
    assert run(["decompose", "--matrix", p]) == EXIT_PARSE


def test_decompose_non_finite_matrix_guard(tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("0.0,inf\n0.5,0.0\n")
    assert run(["decompose", "--matrix", p]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "J must be finite" in captured.err


@pytest.mark.parametrize("sources", [[], ["--graph", "g.rud", "--matrix", "m.csv"]],
                         ids=["neither", "both"])
def test_decompose_needs_exactly_one_source(capsys, sources):
    assert run(["decompose", *sources]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "decompose: specify exactly one of --graph or --matrix\n"


def test_decompose_dump_bundle_holds_the_decomposition(tmp_path, capsys):
    assert run(["gen", "--n", 8, "--degree", 3, "--seed", 2, "--out", tmp_path]) == EXIT_OK
    bundle = tmp_path / "bundle.json"
    assert run(["decompose", "--graph", tmp_path / "graph.rud", "--dump-bundle", bundle]) == EXIT_OK
    b = eigendecompose(from_graph(read_graph(tmp_path / "graph.rud")))
    assert json.loads(bundle.read_text()) == {"lambda": b.lam.tolist(), "Q": b.vectors.tolist(),
                                              "order": b.order.tolist()}


@pytest.mark.parametrize("flag, text, message", [
    ("--graph", "", "empty file"),
    ("--graph", "3 x\n", "line 1: header must hold two integers"),
    ("--graph", "3 1\n\n1 2\n", "line 3: edge line must be 'u v w'"),
    ("--graph", "3 1\n1 2 heavy\n", "line 2: cannot parse edge '1 2 heavy'"),
    ("--graph", "3 1\n2 2 0.5\n", "line 2: self-loop at vertex 2"),
    ("--matrix", '{"n": 3, "J": [[0, 1], [1, 0]]}', "declared n=3 does not match J's 2 rows"),
    ("--matrix", "0,1\n1,x\n", "line 2: non-numeric entry"),
    ("--matrix", "0,0.5\n\n0.5,x\n", "line 3: non-numeric entry"),
    ("--matrix", "", "empty matrix file"),
], ids=["rudy-empty", "rudy-header", "rudy-two-fields", "rudy-weight", "rudy-self-loop",
        "matrix-declared-n", "csv-entry", "csv-entry-after-blank", "matrix-empty"])
def test_file_parse_refusals_name_their_line(tmp_path, capsys, flag, text, message):
    path = tmp_path / "bad"
    path.write_text(text)
    assert run(["decompose", flag, path]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


def test_blank_csv_lines_are_skipped(tmp_path, capsys):
    tables = []
    for name, text in (("plain.csv", "0,0.5\n0.5,0\n"), ("blank.csv", "\n0,0.5\n\n0.5,0\n\n")):
        (tmp_path / name).write_text(text)
        assert run(["decompose", "--matrix", tmp_path / name]) == EXIT_OK
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 3


@pytest.mark.parametrize("name, text", [
    ("zero.rud", "0 0\n"),
    ("zero.json", '{"n": 0, "edges": []}'),
], ids=["rudy", "json"])
def test_graph_without_vertices_is_a_parse_error(tmp_path, capsys, name, text):
    gpath = tmp_path / name
    gpath.write_text(text)
    assert run(["decompose", "--graph", gpath]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")


_HUGE_INT = "1" + "0" * 400  # a JSON integer beyond the float range
_LONG_INT = "1" + "0" * 5000  # past Python's 4300-digit int parsing limit


@pytest.mark.parametrize("flag, text", [
    ("--graph", '{"n": 3, "edges": 5}'),
    ("--graph", '{"n": null, "edges": []}'),
    ("--graph", '{"n": 3, "edges": [[0, 1]]}'),
    ("--graph", '{"n": "x", "edges": []}'),
    ("--graph", '{"n": 3, "edges": [[0, 1, "w"]]}'),
    ("--graph", '{"n": 3.7, "edges": []}'),
    ("--graph", '{"n": 3, "edges": [[0, 1.0, 0.5]]}'),
    ("--graph", '{"n": 3, "edges": [[0, 1, %s]]}' % _HUGE_INT),
    ("--matrix", '{"J": [[0, "a"], [1, 0]]}'),
    ("--matrix", '{"J": [[0, 1], [1]]}'),
    ("--matrix", '{"J": [[0, true], [true, 0]]}'),
    ("--matrix", '{"J": [[0, %s], [%s, 0]]}' % (_HUGE_INT, _HUGE_INT)),
    ("--graph", '{"n": %s, "edges": []}' % _LONG_INT),
    ("--matrix", '{"J": [[0, %s], [1, 0]]}' % _LONG_INT),
], ids=lambda v: v.replace(_LONG_INT, "5001-digit-int").replace(_HUGE_INT, "1e400-int"))
def test_malformed_json_input_is_a_parse_error(tmp_path, capsys, flag, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    commands = [["decompose", flag, path]]
    if flag == "--graph":  # one graph reader serves every command
        commands += [["solve", "--graph", path, "--iters", 10],
                     ["experiment", "prob", "--instance", path, "--runs", 2, "--iters", 10,
                      "--out", tmp_path / "prob"]]
    for argv in commands:
        assert run(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert "Traceback" not in captured.err
    assert not (tmp_path / "prob").exists()


def test_file_content_not_its_name_picks_the_reader(tmp_path, capsys):
    run(["gen", "--n", 8, "--degree", 3, "--seed", 2, "--out", tmp_path, "--name", "g"])
    capsys.readouterr()
    (tmp_path / "json_text.rud").write_text("\n  " + (tmp_path / "g.json").read_text())
    (tmp_path / "rudy_text.json").write_text((tmp_path / "g.rud").read_text())
    outputs = {}
    for name in ("g.rud", "json_text.rud", "rudy_text.json"):
        path, out = tmp_path / name, tmp_path / f"prob-{name}"
        assert run(["decompose", "--graph", path]) == EXIT_OK
        assert run(["solve", "--graph", path, "--iters", 50, "--seed", 4]) == EXIT_OK
        assert run(["experiment", "prob", "--instance", path, "--ks", 4, "--rates", "0.99",
                    "--runs", 2, "--iters", 50, "--out", out]) == EXIT_OK
        outputs[name] = (capsys.readouterr().out.split("wrote")[0], (out / "prob.csv").read_text())
    assert outputs["json_text.rud"] == outputs["g.rud"] == outputs["rudy_text.json"]

    J = [[0.0, 0.5, -1.0], [0.5, 0.0, 0.25], [-1.0, 0.25, 0.0]]
    (tmp_path / "m.txt").write_text("".join(",".join(map(repr, row)) + "\n" for row in J))
    (tmp_path / "m.csv").write_text(json.dumps({"n": 3, "J": J}))
    tables = []
    for name in ("m.txt", "m.csv"):
        assert run(["decompose", "--matrix", tmp_path / name]) == EXIT_OK
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 4


K4_RUDY = "4 6\n1 2 1.0\n1 3 1.0\n1 4 1.0\n2 3 1.0\n2 4 1.0\n3 4 1.0\n"


def test_split_cluster_reported(tmp_path, capsys):
    # K4's spectrum is {-1.5, 1/2, 1/2, 1/2}: K = 2, 3 split the 1/2 cluster
    gpath = tmp_path / "k4.rud"
    gpath.write_text(K4_RUDY)
    assert run(["decompose", "--graph", gpath]) == EXIT_OK
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 5
    assert "K in [2, 3] splits a degenerate eigenvalue cluster" in captured.err
    for K, flag in ((1, 0), (2, 1), (4, 0)):
        assert run(["solve", "--graph", gpath, "--k", K, "--iters", 20]) == EXIT_OK
        assert f"split_cluster={flag}" in capsys.readouterr().out.splitlines()

    common = ["--instance", gpath, "--iters", 20, "--runs", 2, "--seed", 1]
    for study, extra, want in (("prob", ["--ks", "1,2", "--rates", "0.99"],
                                {"1": 0, "2": 1, "4": 0}),
                               ("noise", ["--k", 3, "--levels", "0"], {"3": 1}),
                               ("trace", ["--ks", "3,4"], {"3": 1, "4": 0})):
        out = tmp_path / study
        assert run(["experiment", study, *common, *extra, "--out", out]) == EXIT_OK
        payload = json.loads((out / f"{study}.json").read_text())
        assert payload["results"]["split_cluster"] == want


def test_solve_single_edge_optimal(tmp_path, capsys):
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    code = run(["solve", "--graph", gpath, "--iters", 200, "--seed", 1, "--oracle"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "final_cut=1.0" in out
    assert "optimal_match=1" in out
    assert "state=" in out


def test_solve_deterministic_stdout(tmp_path, capsys):
    gpath = tmp_path / "g.rud"
    run(["gen", "--n", 8, "--degree", 3, "--seed", 2, "--out", tmp_path, "--name", "g"])
    capsys.readouterr()
    run(["solve", "--graph", gpath, "--iters", 300, "--seed", 9])
    first = capsys.readouterr().out
    run(["solve", "--graph", gpath, "--iters", 300, "--seed", 9])
    second = capsys.readouterr().out
    assert first == second


def test_the_reused_parser_leaks_no_state(tmp_path, capsys, monkeypatch):
    # main parses with the one parser of the process: a parse leaves nothing
    # in it for the next, and the command it runs is looked up per call
    assert build_parser() is build_parser()
    run(["gen", "--n", 8, "--degree", 3, "--seed", 2, "--out", tmp_path, "--name", "g"])
    plain = ["solve", "--graph", tmp_path / "g.rud", "--iters", 300, "--seed", 9]
    outs = []
    for argv in (plain, [*plain, "--oracle", "--trace-out", tmp_path / "t.csv"], plain):
        capsys.readouterr()
        assert run(argv) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert "optimal_cut=" in outs[1] and "wrote" in outs[1]
    assert "optimal_cut=" not in outs[2] and "wrote" not in outs[2]
    assert outs[2] == outs[0]
    monkeypatch.setattr(cli, "cmd_solve", lambda args: 17)
    assert run(plain) == 17


@pytest.mark.parametrize("n, degree, iters, sha1", [
    (22, 5, 200, "45386cbcb7e313c4a19b860a0ef091ed3aa59fce"),
    (40, 3, 50, "8d5c1d88a46d61def76f8ed0f128560b6c6a8166"),
])
def test_solve_field_backend_stdout_is_pinned(tmp_path, capsys, n, degree, iters, sha1):
    # hashes of the stdout of the full-plane rfft2 kernel; the field readouts
    # must stay bit-equal to it
    assert run(["gen", "--n", n, "--degree", degree, "--seed", 0, "--out", tmp_path]) == EXIT_OK
    capsys.readouterr()
    assert run(["solve", "--graph", tmp_path / "graph.rud", "--backend", "field",
                "--iters", iters, "--seed", 0]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha1(out.encode()).hexdigest() == sha1


@pytest.mark.parametrize("extra, stdout_sha1, trace_sha1", [
    (["--oracle", "--trace-out", "trace.csv"], "d09aaf7202eccaac370a24bfd3c185de453de59f",
     "7153d3b1d379bc6ba04ebb49250da697d2d1b6ad"),
    (["--noise-level", 0.02], "5497dd70eca5c618a3d9e42f96d05785bab8fbbb", None),
], ids=["oracle-trace", "noise"])
def test_solve_stdout_and_trace_are_pinned(tmp_path, monkeypatch, capsys, extra, stdout_sha1,
                                           trace_sha1):
    # sha1 of the outputs of one analytic run under RNG contract v3, whose
    # windows test_windows_equal_one_iteration_steps holds to one-iteration
    # steps; they must keep every bit.  Relative paths keep tmp_path out of
    # stdout.
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--n", 22, "--degree", 5, "--seed", 0, "--out", "."]) == EXIT_OK
    capsys.readouterr()
    assert run(["solve", "--graph", "graph.rud", "--iters", 3000, "--seed", 0,
                *extra]) == EXIT_OK
    assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == stdout_sha1
    if trace_sha1 is not None:
        assert hashlib.sha1((tmp_path / "trace.csv").read_bytes()).hexdigest() == trace_sha1


_STUDY_REPORT_SHA1 = {
    "prob": {
        "prob.csv": "f82cfa92fc6ae5dfcf4274d2843d6a5a425b24aa",
        "prob.json": "df543898861c12bbcf15b2c02853a13b5ce0e60e",
        "prob_schedule0.dat": "eb6dc6a69aa21bbb507bba6ec84527a1f26909d3",
        "prob_schedule1.dat": "c5a919b20346b361fe2ebff4bc4771a5b906f220",
    },
    "noise": {
        "noise.csv": "e1c3cfdbe3f662d4141cbf66d83644cbf1dd2013",
        "noise.json": "16a70e8d39c6803d3e1c0012fb23289678a0adf3",
        "prob_vs_noise.dat": "b3ecfdbcb4025ea4fd07be211aea7456ee0dfcc0",
    },
    "trace": {
        "trace.json": "f3d2e68404f78a4232e0daca5bf3742f59b67908",
        "trace_k16.csv": "5efd9a1fc34de2a0c51ed82c8b638bf7444135da",
        "trace_k8.csv": "a797a8175525722b6a15cdae52e9020f7026acda",
    },
}


@pytest.mark.parametrize("study, extra", [
    ("prob", ["--ks", "5,11", "--rates", "0.98,0.99"]),
    ("noise", ["--k", 11, "--levels", "0,0.02,0.05", "--rate", 0.98]),
    ("trace", ["--ks", "8,16", "--rate", 0.98]),
])
def test_study_reports_are_pinned(tmp_path, study, extra):
    # sha1 of the reports under RNG contract v3, whose hits
    # test_hit_batches_end_where_single_runs_end_* holds to per-run `anneal`
    # calls; 70 runs cross the RUN_CHUNK boundary of 64
    out = tmp_path / study
    assert run(["experiment", study, "--n", 16, "--degree", 3, "--iters", 500, "--runs", 70,
                "--seed", 1, *extra, "--out", out]) == EXIT_OK
    got = {name: hashlib.sha1(blob).hexdigest() for name, blob in read_dir_bytes(out).items()}
    assert got == _STUDY_REPORT_SHA1[study]


_RMSE_REPORT_SHA1 = {
    "generated": {
        "rmse.csv": "d12398ea2ecf5297cf53f7e44d81c649a192409b",
        "rmse.json": "da8213b168cb18c529d869d01eec98e57c5aecde",
        "rmse_vs_k_over_n.dat": "7242508e42a35bd203d8d65186a511fb757db7ed",
    },
    "instance": {
        "rmse.csv": "e62f77bd5c10a0209087dc54d67ef18b7eccbae2",
        "rmse.json": "38e1334d90b2a26948675fd8a33ab34c0b227344",
        "rmse_vs_k_over_n.dat": "1ad0d956d547eddee60f54850cd63c001589a9df",
    },
}


@pytest.mark.parametrize("source, extra", [
    ("generated", ["--n", 16, "--degree", 3, "--graph-seeds", 3]),
    ("instance", ["--instance", "graph.rud"]),
])
def test_rmse_reports_are_pinned(tmp_path, monkeypatch, source, extra):
    # sha1 of the reports written before their columns were read from the
    # study records; the instance path is relative, so the JSON config echo
    # does not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    assert run(["gen", "--n", 12, "--degree", 3, "--seed", 0, "--out", "."]) == EXIT_OK
    assert run(["experiment", "rmse", "--samples", 200, "--seed", 1, *extra,
                "--out", source]) == EXIT_OK
    got = {name: hashlib.sha1(blob).hexdigest()
           for name, blob in read_dir_bytes(tmp_path / source).items()}
    assert got == _RMSE_REPORT_SHA1[source]


@pytest.mark.parametrize("command", ["gen", "solve", "experiment", "experiment-config"])
def test_negative_seed_is_refused_before_any_work(tmp_path, capsys, command):
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    cpath = tmp_path / "c.cfg"
    cpath.write_text("seed = -1\n")
    out = tmp_path / "out"
    prob = ["experiment", "prob", "--instance", gpath, "--runs", 2, "--iters", 10, "--out", out]
    argv = {"gen": ["gen", "--n", 6, "--degree", 2, "--seed", -1, "--out", out],
            "solve": ["solve", "--graph", gpath, "--iters", 10, "--seed", -1,
                      "--trace-out", out / "t.csv"],
            "experiment": [*prob, "--seed", -1],
            "experiment-config": [*prob, "--config", cpath]}[command]
    assert run(argv) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"
    assert not out.exists()


def test_solve_oracle_guard_on_large_n(tmp_path, capsys):
    # the oracle refuses before annealing: nothing printed, no trace written
    lines = ["40 39"] + [f"{i} {i+1} 1.0" for i in range(1, 40)]
    gpath = tmp_path / "big.rud"
    gpath.write_text("\n".join(lines) + "\n")
    tpath = tmp_path / "trace.csv"
    assert run(["solve", "--graph", gpath, "--iters", 10, "--oracle",
                "--trace-out", tpath]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not tpath.exists()
    assert "brute force limited to n <= 28" in captured.err


@pytest.mark.parametrize("level", ["-0.5", "nan", "inf"])
def test_solve_rejects_negative_noise_level(tmp_path, capsys, level):
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    assert run(["solve", "--graph", gpath, "--iters", 10, "--noise-level", level]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "noise level must be finite and non-negative" in captured.err


def test_solve_rejects_infinite_t0(tmp_path, capsys):
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    assert run(["solve", "--graph", gpath, "--iters", 10, "--t0", "inf"]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t0 must be finite and positive" in captured.err


def test_solve_runs_at_the_largest_finite_t0(tmp_path, capsys):
    # the Metropolis bound 700 * T overflows to inf at this t0: the run must
    # go on without an overflow warning, which the test settings make an error
    run(["gen", "--n", 8, "--degree", 3, "--seed", 2, "--out", tmp_path, "--name", "g"])
    capsys.readouterr()
    assert run(["solve", "--graph", tmp_path / "g.rud", "--iters", 50, "--t0", "1e308"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "final_cut=" in captured.out
    assert captured.err == ""


def test_zero_readout_span_asks_for_t0(tmp_path, capsys):
    # a graph without edges reads out 0 on every state, so t0 has no default
    gpath = tmp_path / "e.rud"
    gpath.write_text("3 0\n")
    assert run(["solve", "--graph", gpath, "--iters", 20]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the readout span is 0, so t0 has no default: give t0\n"
    assert run(["solve", "--graph", gpath, "--iters", 20, "--t0", 1, "--oracle"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "final_cut=0.0" in lines and "optimal_match=1" in lines
    for study in ("prob", "noise", "trace"):
        out = tmp_path / study
        argv = ["experiment", study, "--instance", gpath, "--runs", 2, "--iters", 20]
        assert run([*argv, "--out", out]) == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the readout span is 0, so t0 has no default: give t0" in captured.err
        assert not out.exists()
        assert run([*argv, "--t0", 1, "--out", out]) == EXIT_OK
        capsys.readouterr()


def test_non_finite_result_leaves_no_report(tmp_path, monkeypatch, capsys):
    # the JSON summary is checked before the report directory is made, so
    # a result it refuses leaves no half-written report behind
    def run_prob(cfg):
        return [("prob.csv", ["K", "probability"], [(1, 0.5)])], {"probability": [float("inf")]}

    monkeypatch.setattr(cli, "_run_prob", run_prob)
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    out = tmp_path / "out"
    assert run(["experiment", "prob", "--instance", gpath, "--runs", 2, "--iters", 10,
                "--out", out]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


def test_solve_trace_out(tmp_path):
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    tpath = tmp_path / "trace.csv"
    code = run(["solve", "--graph", gpath, "--t0", 5, "--iters", 50, "--trace-out", tpath])
    assert code == EXIT_OK
    lines = tpath.read_text().splitlines()
    assert lines[0] == "iter,temperature,flips,hrv,cut,accepted"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 5.0


def test_parse_config_text():
    raw = parse_config_text("# comment\nseed = 3\nks = 1,2,3  # trailing\n")
    assert raw == {"seed": "3", "ks": "1,2,3"}


def test_parse_config_text_collects_all_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("bogus line\nseed = 1\nseed = 2\n")
    assert len(exc.value.messages) == 2


def test_experiment_config_validation_lists_everything(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 1\nsamples = xyz\n")
    code = run(["experiment", "rmse", "--config", cfg, "--out", tmp_path / "r"])
    assert code == EXIT_PARSE
    err = capsys.readouterr().err
    assert "unknown_key" in err
    assert "samples" in err
    assert "degree/density" in err  # neither generator nor instance given


def test_experiment_missing_config_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["experiment", "prob", "--config", tmp_path / "absent.cfg", "--out", out]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot read config: ")
    assert not out.exists()


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["gen", "--n", 6, "--degree", 3, "--out", blocker / "sub"]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io error: ")


def test_experiment_prob_density_studies_the_generated_graph(tmp_path, capsys):
    common = ["--ks", "2,4", "--rates", "0.99", "--iters", 80, "--runs", 3, "--seed", 5]
    assert run(["experiment", "prob", "--n", 8, "--density", 0.5, *common,
                "--out", tmp_path / "d"]) == EXIT_OK
    assert json.loads((tmp_path / "d" / "prob.json").read_text())["config"]["density"] == 0.5
    # the same graph, written by `gen` from the study's graph stream
    assert run(["gen", "--n", 8, "--density", 0.5, "--seed", derive_seed(5, LBL_GRAPH, 0),
                "--out", tmp_path, "--name", "g"]) == EXIT_OK
    assert run(["experiment", "prob", "--instance", tmp_path / "g.rud", *common,
                "--out", tmp_path / "i"]) == EXIT_OK
    assert (tmp_path / "d" / "prob.csv").read_bytes() == (tmp_path / "i" / "prob.csv").read_bytes()


def test_experiment_rmse_reports(tmp_path):
    out = tmp_path / "rmse"
    code = run(["experiment", "rmse", "--n", 6, "--degree", 3, "--ks", "1..6",
                "--samples", 80, "--graph-seeds", 2, "--seed", 4, "--out", out])
    assert code == EXIT_OK
    lines = (out / "rmse.csv").read_text().splitlines()
    assert lines[0] == "K,rmse,rmse_relative,fit_r2"
    assert len(lines) == 7
    payload = json.loads((out / "rmse.json").read_text())
    assert payload["config"]["samples"] == 80
    assert "config_hash" in payload
    last = lines[-1].split(",")
    assert float(last[1]) <= 1e-9  # K=N row is numerically exact


@pytest.mark.parametrize("instance", [False, True])
def test_experiment_rmse_writes_each_k_once(tmp_path, instance):
    source = ["--n", 10, "--degree", 3, "--graph-seeds", 1]
    if instance:
        run(["gen", "--n", 10, "--degree", 3, "--seed", 2, "--out", tmp_path, "--name", "g"])
        source = ["--instance", tmp_path / "g.rud"]
    out = tmp_path / "rmse"
    code = run(["experiment", "rmse", *source, "--ks", "5,3,3", "--samples", 100,
                "--out", out])
    assert code == EXIT_OK
    rows = (out / "rmse.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["3", "5"]
    assert json.loads((out / "rmse.json").read_text())["results"]["ks"] == [3, 5]


def test_experiment_rmse_instance_uses_its_size(tmp_path):
    run(["gen", "--n", 10, "--degree", 3, "--seed", 2, "--out", tmp_path, "--name", "g"])
    out = tmp_path / "rmse"
    code = run(["experiment", "rmse", "--instance", tmp_path / "g.rud", "--samples", 40,
                "--out", out])
    assert code == EXIT_OK
    assert len((out / "rmse.csv").read_text().splitlines()) == 1 + 10
    last = (out / "rmse_vs_k_over_n.dat").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 1.0
    config = json.loads((out / "rmse.json").read_text())["config"]
    assert config["n"] == 10
    # the echo holds the instance's n and no generator setting
    assert set(config) == {"study", "seed", "n", "instance", "ks", "samples"}


@pytest.mark.parametrize("study, extra", [
    ("prob", ["--degree", 7, "--ks", 5, "--runs", 3, "--iters", 50]),
    ("rmse", ["--density", 0.5, "--samples", 40]),
    ("prob", ["--n", 99, "--ks", 5, "--runs", 2, "--iters", 20]),
    ("rmse", ["--wlow", 5, "--samples", 50]),
    ("noise", ["--whigh", 9, "--runs", 2, "--iters", 20]),
    ("rmse", ["--graph-seeds", 0, "--samples", 50]),
    # a config file counts too, even where it repeats the instance's own n
    ("trace", ["--config", "n = 10\nwhigh = 1.0\n", "--runs", 2, "--iters", 20]),
])
def test_experiment_instance_rejects_generator_settings(tmp_path, capsys, study, extra):
    run(["gen", "--n", 10, "--degree", 3, "--seed", 2, "--out", tmp_path, "--name", "g"])
    capsys.readouterr()
    if extra[0] == "--config":
        keys = list(parse_config_text(extra[1]))
        (tmp_path / "gen.cfg").write_text(extra[1])
        extra = ["--config", tmp_path / "gen.cfg", *extra[2:]]
    else:
        keys = [extra[0][2:].replace("-", "_")]
    out = tmp_path / study
    code = run(["experiment", study, "--instance", tmp_path / "g.rud", *extra, "--out", out])
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: {key!r} does not apply next to an instance" for key in keys]
    assert not out.exists()


@pytest.mark.parametrize("graph_seeds", ["0", "-2"])
def test_experiment_rmse_rejects_no_graph_seeds(tmp_path, capsys, graph_seeds):
    code = run(["experiment", "rmse", "--n", 6, "--degree", 3, "--graph-seeds", graph_seeds,
                "--out", tmp_path / "rmse"])
    assert code == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "graph_seeds must be >= 1" in captured.err


def test_experiment_rmse_rejects_k_outside_1_to_n(tmp_path, capsys):
    # K=0 has a zero readout span, so its relative RMSE would be infinite
    out = tmp_path / "rmse"
    code = run(["experiment", "rmse", "--n", 6, "--degree", 3, "--ks", "0,3", "--samples", 40,
                "--graph-seeds", 1, "--out", out])
    assert code == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ks must lie in 1..6" in captured.err
    assert not out.exists()


def test_experiment_rmse_instance_rejects_k_zero(tmp_path, capsys):
    # K=0's relative RMSE is infinite, which the strict JSON summary cannot
    # hold, so the instance path refuses it before it writes any report
    run(["gen", "--n", 14, "--degree", 3, "--seed", 2, "--out", tmp_path, "--name", "g"])
    capsys.readouterr()
    out = tmp_path / "rmse"
    code = run(["experiment", "rmse", "--instance", tmp_path / "g.rud", "--ks", "0..14",
                "--samples", 40, "--out", out])
    assert code == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ks must lie in 1..14" in captured.err
    assert not out.exists()
    assert run(["experiment", "rmse", "--instance", tmp_path / "g.rud", "--ks", "1..14",
                "--samples", 40, "--out", out]) == EXIT_OK


@pytest.mark.parametrize("study", ["rmse", "prob", "trace"])
def test_reversed_k_range_is_a_parse_error(tmp_path, capsys, study):
    out = tmp_path / study
    code = run(["experiment", study, "--n", 10, "--degree", 3, "--ks", "5..3", "--out", out])
    assert code == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: option 'ks': cannot parse '5..3'\n"
    assert not out.exists()
    cfg = tmp_path / "ks.cfg"
    cfg.write_text("n = 10\ndegree = 3\nks = 5..3\n")
    assert run(["experiment", study, "--config", cfg, "--out", out]) == EXIT_PARSE
    assert capsys.readouterr().err == "config error: config key 'ks': cannot parse '5..3'\n"
    assert not out.exists()


@pytest.mark.parametrize("study", ["rmse", "prob", "trace"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_wide_k_range_is_refused_before_it_is_expanded(tmp_path, capsys, study, source):
    # expanded, the range alone would take ~100 MB
    out = tmp_path / study
    cfg = tmp_path / "ks.cfg"
    cfg.write_text("n = 10\ndegree = 3\nks = 1..2000000\n")
    argv = (["experiment", study, "--n", 10, "--degree", 3, "--ks", "1..2000000"]
            if source == "flag" else ["experiment", study, "--config", cfg])
    tracemalloc.start()
    try:
        code = run([*argv, "--out", out])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_GUARD
    assert "ks must lie in 1..10" in capsys.readouterr().err
    assert peak < 1_000_000
    assert not out.exists()


# One flag value per study key, with the value the key's parser gives for it.
_FLAG_VALUES = {
    "seed": ("5", 5), "n": ("9", 9), "degree": ("4", 4), "density": ("0.5", 0.5),
    "wlow": ("0.25", 0.25), "whigh": ("2.5", 2.5), "instance": ("g.rud", "g.rud"),
    "ks": ("1..3", [range(1, 4)]), "samples": ("7", 7),
    "graph_seeds": ("2", 2), "rates": ("0.9,0.95", [0.9, 0.95]), "iters": ("11", 11),
    "runs": ("4", 4), "t0": ("1.5", 1.5), "k": ("3", 3), "levels": ("0,0.1", [0.0, 0.1]),
    "rate": ("0.98", 0.98),
}


@pytest.mark.parametrize("study", list(_STUDY_SCHEMA))
def test_experiment_flags_follow_the_study_schema(study, capsys):
    keys = {key for schema in _STUDY_SCHEMA.values() for key in schema}
    assert keys == set(_FLAG_VALUES)
    parser = build_parser()
    for key, (text, value) in _FLAG_VALUES.items():
        # no generator setting may sit next to an instance, so each key but
        # the graph sources themselves is tried on a generated graph
        base = [] if key in ("degree", "density", "instance") else ["--degree", "3"]
        argv = ["experiment", study, *base, "--" + key.replace("_", "-"), text]
        args = parser.parse_args(argv)
        overrides = {k: getattr(args, k) for k in keys}
        if key in _STUDY_SCHEMA[study]:
            assert resolve_config(study, None, overrides)[key] == value
        else:
            with pytest.raises(ConfigError, match="does not apply to study") as exc:
                resolve_config(study, None, overrides)
            assert exc.value.messages == [f"option {key!r} does not apply to study {study!r}"]
            assert main(argv) == EXIT_PARSE
            assert "does not apply to study" in capsys.readouterr().err


# The arguments each command needs before any other flag can be checked.
_REQUIRED_ARGS = {"gen": ["--n", "5"], "decompose": [], "solve": ["--graph", "g.rud"],
                  "experiment": ["rmse"]}

# Every long flag of each command besides --help; a new option edits this table.
_LONG_FLAGS = {
    "gen": {"--n", "--degree", "--density", "--wlow", "--whigh", "--seed", "--out", "--name"},
    "decompose": {"--graph", "--matrix", "--out", "--dump-bundle"},
    "solve": {"--graph", "--k", "--backend", "--noise-level", "--rate", "--iters", "--t0",
              "--seed", "--oracle", "--trace-out"},
    "experiment": {"--config", "--out", *("--" + key.replace("_", "-") for key in _FLAG_VALUES)},
}


def test_flags_must_be_spelled_in_full(capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(_REQUIRED_ARGS)
    for name, command in commands.items():
        flags = [f for f in command._option_string_actions if f.startswith("--")]
        assert set(flags) - {"--help"} == _LONG_FLAGS[name]
        for flag in flags:
            for prefix in (flag[:end] for end in range(3, len(flag))):
                if prefix in flags:  # --k of --ks is a flag of its own
                    continue
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([name, *_REQUIRED_ARGS[name], prefix, "1"])
                assert exc.value.code == EXIT_USAGE
                assert f"unrecognized arguments: {prefix} 1" in capsys.readouterr().err
    # deleted flags: a file's content picks its reader, and the annealing
    # settings no caller varied are constants
    for name, flag in (("decompose", "--format"), ("solve", "--format"),
                       ("experiment", "--instance-format"), ("solve", "--p"),
                       ("solve", "--flip-floor"), ("solve", "--span-samples"),
                       ("experiment", "--flip-floor"), ("experiment", "--span-samples")):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, *_REQUIRED_ARGS[name], flag, "json"])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} json" in capsys.readouterr().err


def test_experiment_prob_reports(tmp_path):
    out = tmp_path / "prob"
    code = run(["experiment", "prob", "--n", 6, "--degree", 3, "--ks", "2,4",
                "--rates", "0.99", "--iters", 120, "--runs", 4, "--seed", 3,
                "--out", out])
    assert code == EXIT_OK
    lines = (out / "prob.csv").read_text().splitlines()
    assert lines[0].startswith("schedule,rate,K,runs,hits")
    assert len(lines) == 4  # ks 2,4 plus K=N reference
    assert (out / "prob_schedule0.dat").exists()


def test_experiment_noise_reports(tmp_path):
    out = tmp_path / "noise"
    code = run(["experiment", "noise", "--n", 6, "--degree", 3, "--k", 6,
                "--levels", "0,0.05", "--iters", 120, "--runs", 4, "--seed", 3,
                "--out", out])
    assert code == EXIT_OK
    lines = (out / "noise.csv").read_text().splitlines()
    assert len(lines) == 3
    payload = json.loads((out / "noise.json").read_text())
    assert payload["results"]["span"] > 0


def test_experiment_noise_reports_each_level_once_in_order(tmp_path):
    out = tmp_path / "noise"
    assert run(["experiment", "noise", "--n", 12, "--degree", 3, "--k", 8,
                "--levels", "0.02,0,0.02", "--runs", 5, "--iters", 100, "--seed", 1,
                "--out", out]) == EXIT_OK
    rows = (out / "noise.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.02]
    cells = json.loads((out / "noise.json").read_text())["results"]["cells"]
    assert [c["level"] for c in cells] == [0.0, 0.02]


def test_experiment_noise_rejects_nan_level(tmp_path, capsys):
    for levels in ("nan,0", "inf,0"):
        code = run(["experiment", "noise", "--n", 8, "--degree", 3, "--k", 8, "--levels", levels,
                    "--runs", 4, "--iters", 50, "--out", tmp_path / "noise"])
        assert code == EXIT_GUARD
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "noise levels must be finite and non-negative" in captured.err


def test_experiment_guard_failure_leaves_no_report_dir(tmp_path, capsys):
    out = tmp_path / "pi"
    code = run(["experiment", "prob", "--n", 8, "--degree", 3, "--t0", "inf", "--out", out])
    assert code == EXIT_GUARD
    assert capsys.readouterr().out == ""
    assert not out.exists()
    nested = tmp_path / "a" / "b"
    code = run(["experiment", "prob", "--n", 6, "--degree", 3, "--ks", "2", "--rates", "0.99",
                "--iters", 50, "--runs", 2, "--out", nested])
    assert code == EXIT_OK
    assert (nested / "prob.json").exists()


def test_jobs_is_gone(tmp_path, capsys):
    cfg = tmp_path / "jobs.cfg"
    cfg.write_text("n = 6\ndegree = 3\njobs = 2\n")
    assert run(["experiment", "prob", "--config", cfg, "--out", tmp_path / "p"]) == EXIT_PARSE
    assert "config error: unknown config key 'jobs'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["experiment", "prob", "--n", 6, "--degree", 3, "--jobs", 2])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("key, value", [("flip_floor", 2), ("span_samples", 10)])
def test_deleted_annealing_keys_are_unknown(tmp_path, capsys, key, value):
    cfg = tmp_path / "anneal.cfg"
    cfg.write_text(f"n = 6\ndegree = 3\n{key} = {value}\n")
    for study in ("prob", "noise", "trace"):
        out = tmp_path / study
        assert run(["experiment", study, "--config", cfg, "--out", out]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: unknown config key {key!r}\n"
        assert not out.exists()


def test_experiment_trace_reports(tmp_path):
    out = tmp_path / "trace"
    code = run(["experiment", "trace", "--n", 6, "--degree", 3, "--ks", "3,6",
                "--iters", 100, "--runs", 2, "--seed", 3, "--out", out])
    assert code == EXIT_OK
    assert (out / "trace_k3.csv").exists()
    assert (out / "trace_k6.csv").exists()
    payload = json.loads((out / "trace.json").read_text())
    assert "final_cut_mean" in payload["results"]


def test_experiment_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("n = 6\ndegree = 3\nsamples = 60\ngraph_seeds = 2\nks = 1..6\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(["experiment", "rmse", "--config", cfg, "--seed", 1, "--out", out1]) == EXIT_OK
    # flag override changes the echoed config
    assert run(["experiment", "rmse", "--config", cfg, "--seed", 1,
                "--samples", 70, "--out", out2]) == EXIT_OK
    p1 = json.loads((out1 / "rmse.json").read_text())
    p2 = json.loads((out2 / "rmse.json").read_text())
    assert p1["config"]["samples"] == 60
    assert p2["config"]["samples"] == 70
    assert p1["config_hash"] != p2["config_hash"]


@pytest.mark.parametrize("study,extra", [
    ("rmse", ["--ks", "1..6", "--samples", 60, "--graph-seeds", 2]),
    ("prob", ["--ks", "2,4", "--rates", "0.99", "--iters", 100, "--runs", 3]),
    ("noise", ["--k", 6, "--levels", "0,0.02", "--iters", 100, "--runs", 3]),
    ("trace", ["--ks", "3,6", "--iters", 100, "--runs", 2]),
])
def test_experiment_reports_byte_identical_reruns(tmp_path, study, extra):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    base = ["experiment", study, "--n", 6, "--degree", 3, "--seed", 11]
    assert run(base + extra + ["--out", d1]) == EXIT_OK
    assert run(base + extra + ["--out", d2]) == EXIT_OK
    b1, b2 = read_dir_bytes(d1), read_dir_bytes(d2)
    assert b1 == b2
    assert len(b1) >= 2

    def reject(constant):
        raise ValueError(f"summary holds {constant}, which is not JSON")

    for name in b1:
        if name.endswith(".json"):
            json.loads(b1[name], parse_constant=reject)


@pytest.mark.parametrize("study", list(_STUDY_SCHEMA))
@pytest.mark.parametrize("source", ["flag", "config"])
def test_empty_instance_path_is_an_io_error(tmp_path, capsys, study, source):
    # an empty path is a given instance: it is opened, not taken for a
    # missing one that would fall back to the (dropped) generator settings
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("instance =\n")
    argv = (["experiment", study, "--instance", ""] if source == "flag"
            else ["experiment", study, "--config", cfg])
    out = tmp_path / study
    assert run([*argv, "--out", out]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("io error: ")
    assert "Traceback" not in captured.err
    assert not out.exists()
