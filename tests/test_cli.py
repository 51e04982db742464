import argparse
import json
import os

import numpy as np
import pytest

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
from optising.graph import read_graph
from optising.ising import IsingModel, write_matrix


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


def test_gen_bad_params_guard(tmp_path, capsys):
    assert run(["gen", "--n", 5, "--degree", 3, "--out", tmp_path]) == EXIT_GUARD
    for gen in (["--degree", 3], ["--density", 0.5]):
        for bounds in (["--whigh=inf"], ["--wlow=-inf"], ["--wlow=-1e308", "--whigh=1e308"]):
            assert run(["gen", "--n", 6, *gen, *bounds, "--out", tmp_path / "w"]) == EXIT_GUARD
            assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


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
], ids=lambda v: v.replace(_HUGE_INT, "1e400-int"))
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

    m = IsingModel(np.array([[0.0, 0.5, -1.0], [0.5, 0.0, 0.25], [-1.0, 0.25, 0.0]]))
    write_matrix(m, tmp_path / "m.txt", "csv")
    write_matrix(m, tmp_path / "m.csv", "json")
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


def test_solve_oracle_guard_on_large_n(tmp_path):
    lines = ["40 39"] + [f"{i} {i+1} 1.0" for i in range(1, 40)]
    gpath = tmp_path / "big.rud"
    gpath.write_text("\n".join(lines) + "\n")
    assert run(["solve", "--graph", gpath, "--iters", 10, "--oracle"]) == EXIT_GUARD


@pytest.mark.parametrize("level", ["-0.5", "nan", "inf"])
def test_solve_rejects_negative_noise_level(tmp_path, capsys, level):
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    assert run(["solve", "--graph", gpath, "--iters", 10, "--noise-level", level]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "noise level must be finite and non-negative" in captured.err


def test_solve_rejects_non_finite_p(tmp_path, capsys):
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    assert run(["solve", "--graph", gpath, "--iters", 10, "--p", "inf"]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "P must be finite and positive" in captured.err


def test_solve_rejects_infinite_t0(tmp_path, capsys):
    gpath = tmp_path / "edge.rud"
    gpath.write_text("2 1\n1 2 1.0\n")
    assert run(["solve", "--graph", gpath, "--iters", 10, "--t0", "inf"]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t0 must be finite and positive" in captured.err


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


# One flag value per study key, with the value the key's parser gives for it.
_FLAG_VALUES = {
    "seed": ("5", 5), "n": ("9", 9), "degree": ("4", 4), "density": ("0.5", 0.5),
    "wlow": ("0.25", 0.25), "whigh": ("2.5", 2.5), "instance": ("g.rud", "g.rud"),
    "ks": ("1..3", [1, 2, 3]), "samples": ("7", 7),
    "graph_seeds": ("2", 2), "rates": ("0.9,0.95", [0.9, 0.95]), "iters": ("11", 11),
    "runs": ("4", 4), "flip_floor": ("2", 2), "t0": ("1.5", 1.5),
    "span_samples": ("13", 13), "k": ("3", 3), "levels": ("0,0.1", [0.0, 0.1]),
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


def test_flags_must_be_spelled_in_full(capsys):
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(_REQUIRED_ARGS)
    for name, command in commands.items():
        flags = [f for f in command._option_string_actions if f.startswith("--")]
        for flag in flags:
            for prefix in (flag[:end] for end in range(3, len(flag))):
                if prefix in flags:  # --k of --ks is a flag of its own
                    continue
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args([name, *_REQUIRED_ARGS[name], prefix, "1"])
                assert exc.value.code == EXIT_USAGE
                assert f"unrecognized arguments: {prefix} 1" in capsys.readouterr().err
    # the format flags are gone: a file's content picks its reader
    for name, flag in (("decompose", "--format"), ("solve", "--format"),
                       ("experiment", "--instance-format")):
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
