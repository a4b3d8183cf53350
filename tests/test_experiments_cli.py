import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from privpart import (
    ExperimentConfig,
    InstanceError,
    SearchParams,
    count_fully_disclosed,
    run_algorithm,
    run_experiment,
    solve,
)
import privpart.experiments as experiments
from privpart.cli import EXIT_FAIL, EXIT_OK, main
from privpart.experiments import CSV_COLUMNS
from privpart.synth import SynthConfig, generate_instance, random_small_instance
from privpart.instance import DisclosureModel


def synth_source(**over):
    spec = {"num_entries": 30, "num_properties": 6, "k": 2, "t": 1, "seed": 3,
            "family": "linear", "aggregation": "average"}
    spec.update(over)
    return {"synth": spec}


def small_config(tmp_path, **over):
    base = dict(
        source=synth_source(),
        algorithms=["rand+", "greedy"],
        seeds=[0, 1],
        output_dir=str(tmp_path / "out"),
        params={"rand+": {"restarts": 5}},
    )
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(InstanceError, match="at least one algorithm"):
        ExperimentConfig(source=synth_source(), algorithms=[], seeds=[0], output_dir="x")
    with pytest.raises(InstanceError, match="unknown algorithm"):
        ExperimentConfig(source=synth_source(), algorithms=["magic"], seeds=[0], output_dir="x")
    with pytest.raises(InstanceError, match="sweep"):
        ExperimentConfig(source={"file": "x.json"}, algorithms=["greedy"], seeds=[0],
                         output_dir="x", k_values=[2, 3])


def test_run_experiment_row_accounting(tmp_path):
    cfg = small_config(tmp_path, k_values=[2, 3])
    out = run_experiment(cfg)
    # 2 algorithms x 2 k values x 2 seeds
    assert len(out["rows"]) == 8
    text = Path(out["results_csv"]).read_text()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 9
    summary = json.loads(Path(out["summary_json"]).read_text())
    assert "greedy,k=2" in summary
    assert summary["greedy,k=2"]["cells"] == 2


def test_run_experiment_rows_recompose_objective(tmp_path):
    out = run_experiment(small_config(tmp_path))
    for row in out["rows"]:
        assert row["objective"] == pytest.approx(
            row["utility"] + 1.0 * (0.0 - row["disclosure"]), abs=1e-9
        )


def test_bench_is_byte_identical(tmp_path):
    cfg_a = small_config(tmp_path / "a", algorithms=["rand+", "greedy", "grasp"])
    cfg_b = small_config(tmp_path / "b", algorithms=["rand+", "greedy", "grasp"])
    a = Path(run_experiment(cfg_a)["results_csv"]).read_bytes()
    b = Path(run_experiment(cfg_b)["results_csv"]).read_bytes()
    assert a == b


def test_run_experiment_solves_one_lp_per_k(tmp_path, monkeypatch):
    # Each lp cell rounds its instance's one relaxation; the file equals,
    # line for line, the cells of one-seed runs, each of which solves its own.
    solved = []
    solve_lp = experiments.solve_lp_relaxation
    monkeypatch.setattr(experiments, "solve_lp_relaxation",
                        lambda inst: solved.append(inst.k) or solve_lp(inst))
    seeds, ks = [0, 1, 2], [2, 3]
    over = dict(algorithms=["lp", "rand+"], k_values=ks, params={"lp": {"restarts": 7}})
    text = Path(run_experiment(small_config(tmp_path / "all", seeds=seeds, **over))
                ["results_csv"]).read_text()
    assert solved == ks
    alone = {seed: Path(run_experiment(small_config(tmp_path / str(seed), seeds=[seed], **over))
                        ["results_csv"]).read_text().splitlines() for seed in seeds}
    assert len(solved) == len(ks) * (1 + len(seeds))
    header, cells = alone[0][0], len(alone[0]) - 1  # one line per (algorithm, k)
    expected = [header] + [alone[seed][1 + cell] for cell in range(cells) for seed in seeds]
    assert text == "\n".join(expected) + "\n"


def test_lp_family_guard():
    inst = generate_instance(
        SynthConfig(10, 2, 2, 1, seed=0), model=DisclosureModel("quadratic", "average")
    )
    with pytest.raises(InstanceError, match="step|linear"):
        run_algorithm("lp", inst, 0)


def test_count_fully_disclosed():
    inst = random_small_instance(42, family="step")
    res = solve(inst, SearchParams("greedy", "global", seed=0))
    n = count_fully_disclosed(res)
    assert 0 <= n <= inst.num_properties
    manual = int(np.sum(res.per_property_disclosure >= 1 - 1e-9))
    assert n == manual


# -- CLI ------------------------------------------------------------------------

def test_cli_gen_solve_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    rc = main(["gen", "--entries", "20", "--properties", "4", "--k", "2", "--t", "1",
               "--seed", "7", "-o", str(inst_path)])
    assert rc == 0
    out_path = tmp_path / "res.json"
    rc = main(["solve", "--instance", str(inst_path), "--algorithm", "greedy",
               "-o", str(out_path)])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    assert doc["unassigned"] == 0
    assert len(doc["assignment"]) == 20


def test_cli_ilp_size_guard_exit_code(tmp_path):
    inst_path = tmp_path / "big.json"
    main(["gen", "--entries", "500", "--properties", "5", "--k", "2", "--t", "1",
          "--seed", "0", "-o", str(inst_path)])
    rc = main(["solve", "--instance", str(inst_path), "--algorithm", "ilp"])
    assert rc == 3


def test_cli_infeasible_exit_code(tmp_path):
    # k=1 is rejected at validation, so craft a step instance whose LP is
    # unsatisfiable: a single-member property cannot be split at all.
    doc = {
        "num_entries": 1, "num_adversaries": 2, "t": 1, "lambda": 1.0, "tau_I": 0.0,
        "model": {"family": "step", "aggregation": "worst"},
        "properties": [{"id": 0, "members": [0], "weights": None}],
        "utility_weights": [[0.5, 0.5]],
    }
    inst_path = tmp_path / "leaky.json"
    inst_path.write_text(json.dumps(doc))
    rc = main(["solve", "--instance", str(inst_path), "--algorithm", "lp"])
    assert rc == 2


def test_cli_ingest_and_bench(tmp_path):
    from privpart import synthetic_checkin_lines

    lines, friends = synthetic_checkin_lines(num_users=20, num_edges=16,
                                             num_entries=80, seed=1)
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text("\n".join(lines) + "\n")
    friends_path = tmp_path / "friends.txt"
    friends_path.write_text("\n".join(f"{a}\t{b}" for a, b in friends) + "\n")

    inst_path = tmp_path / "geo.json"
    rc = main(["ingest", "--checkins", str(checkins), "--friends", str(friends_path),
               "--k", "2", "--t", "1", "-o", str(inst_path)])
    assert rc == 0

    cfg = {
        "source": {"file": str(inst_path)},
        "algorithms": ["rand+", "greedyl"],
        "seeds": [0],
        "params": {"rand+": {"restarts": 5}},
        "output_dir": str(tmp_path / "bench"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(["bench", "--config", str(cfg_path)])
    assert rc == 0
    assert (tmp_path / "bench" / "results.csv").exists()
    assert (tmp_path / "bench" / "summary.json").exists()


def _ingest_files(tmp_path):
    from privpart import synthetic_checkin_lines

    lines, friends = synthetic_checkin_lines(num_users=20, num_edges=16,
                                             num_entries=80, seed=1)
    checkins = tmp_path / "checkins.tsv"
    checkins.write_text("\n".join(lines) + "\n")
    friends_path = tmp_path / "friends.txt"
    friends_path.write_text("\n".join(f"{a}\t{b}" for a, b in friends) + "\n")
    return checkins, friends_path


def _ingest(checkins, friends_path, tmp_path):
    return main(["ingest", "--checkins", str(checkins), "--friends", str(friends_path),
                 "--k", "2", "--t", "1", "-o", str(tmp_path / "geo.json")])


@pytest.mark.parametrize("which", [0, 1])
def test_cli_ingest_non_utf8_file_is_an_error(tmp_path, capsys, which):
    paths = _ingest_files(tmp_path)
    bad = paths[which]
    bad.write_bytes(bad.read_bytes() + b"u1\t2010\t0\t0\t\xff\xfe\n")
    assert _ingest(*paths, tmp_path) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err
    assert not (tmp_path / "geo.json").exists()


def test_cli_ingest_warns_on_skipped_friendship_lines(tmp_path, caplog):
    checkins, friends_path = _ingest_files(tmp_path)
    with friends_path.open("a") as fh:
        fh.write("u3\nu4 u4\n\n")
    with caplog.at_level(logging.WARNING, logger="privpart.geodata"):
        assert _ingest(checkins, friends_path, tmp_path) == EXIT_OK
    assert "skipped 2 friendship lines" in caplog.text


def test_repeated_runs_write_identical_results(tmp_path):
    def results(name):
        cfg = small_config(tmp_path / name, algorithms=["rand+", "grasp"], k_values=[2, 3])
        return Path(run_experiment(cfg)["results_csv"]).read_bytes()

    assert results("one") == results("two")


def test_cli_verify_passes():
    rc = main(["verify", "--count", "6", "--seed", "42"])
    assert rc == 0


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_verify_rejects_count_below_one(capsys, count):
    assert main(["verify", "--count", count]) == EXIT_FAIL
    out = capsys.readouterr()
    assert out.err.startswith("error: ") and "--count" in out.err
    assert "checks passed" not in out.out


@pytest.mark.parametrize("verb", ["gen", "ingest", "solve", "verify"])
def test_cli_rejects_negative_seed(tmp_path, capsys, verb):
    # numpy seeds are non-negative; a negative one used to end in a traceback.
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--entries", "5", "--properties", "2", "--k", "2", "--t", "1",
                 "-o", str(inst_path)]) == EXIT_OK
    checkins, friends_path = _ingest_files(tmp_path)
    out = str(tmp_path / "out.json")
    argv = {
        "gen": ["gen", "--entries", "5", "--properties", "2", "--k", "2", "--t", "1",
                "-o", out],
        "ingest": ["ingest", "--checkins", str(checkins), "--friends", str(friends_path),
                   "--k", "2", "--t", "1", "-o", out],
        "solve": ["solve", "--instance", str(inst_path), "--algorithm", "greedy"],
        "verify": ["verify", "--count", "1"],
    }[verb]
    capsys.readouterr()
    assert main(argv + ["--seed", "-1"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--seed" in err and "Traceback" not in err
    assert not Path(out).exists()


def test_cli_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "privpart.cli", "verify", "--count", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "checks passed" in proc.stdout


def _bench_config_text(tmp_path, **over):
    cfg = {"source": synth_source(), "algorithms": ["greedy"], "seeds": [0],
           "output_dir": str(tmp_path / "out")}
    cfg.update(over)
    return json.dumps(cfg)


@pytest.mark.parametrize("case", ["invalid_json", "missing_source", "unknown_synth_key",
                                  "params_not_an_object", "fractional_synth_count",
                                  "geodata_without_paths", "string_seed",
                                  "output_dir_not_a_path", "negative_seed",
                                  "string_override", "float_override",
                                  "unknown_override_key", "override_of_unknown_algorithm"])
def test_cli_bench_rejects_malformed_config(tmp_path, capsys, case):
    text = {
        "invalid_json": lambda: '{"source": ',
        "missing_source": lambda: json.dumps({"algorithms": ["greedy"], "seeds": [0],
                                              "output_dir": str(tmp_path / "out")}),
        "unknown_synth_key": lambda: _bench_config_text(
            tmp_path, source=synth_source(entries=30)),
        "params_not_an_object": lambda: _bench_config_text(tmp_path, params={"greedy": 5}),
        "fractional_synth_count": lambda: _bench_config_text(
            tmp_path, source=synth_source(num_entries=2.5)),
        "geodata_without_paths": lambda: _bench_config_text(
            tmp_path, source={"geodata": {"friends": "f.txt"}}, algorithms=["greedyl"]),
        "string_seed": lambda: _bench_config_text(tmp_path, seeds=["a"]),
        "output_dir_not_a_path": lambda: _bench_config_text(tmp_path, output_dir=5),
        "negative_seed": lambda: _bench_config_text(tmp_path, seeds=[0, -3]),
        "string_override": lambda: _bench_config_text(tmp_path, params={"grasp": {"n": "5"}}),
        "float_override": lambda: _bench_config_text(tmp_path, params={"grasp": {"r": 2.5}}),
        "unknown_override_key": lambda: _bench_config_text(
            tmp_path, params={"rand+": {"restart": 5}}),
        "override_of_unknown_algorithm": lambda: _bench_config_text(
            tmp_path, params={"grsap": {"n": 5}}),
    }[case]()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["bench", "--config", str(cfg_path)]) == EXIT_FAIL
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out" / "results.csv").exists()


_NOT_UTF8 = b'\xff\xfe{"source": {}}\n'


@pytest.mark.parametrize("bad_file", ["config", "checkins"])
def test_cli_bench_non_utf8_file_is_an_error(tmp_path, capsys, bad_file):
    checkins, friends_path = _ingest_files(tmp_path)
    if bad_file == "checkins":
        checkins.write_bytes(checkins.read_bytes() + _NOT_UTF8)
    spec = {"checkins": str(checkins), "friends": str(friends_path), "k": 2, "t": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_bench_config_text(tmp_path, source={"geodata": spec},
                                           algorithms=["greedyl"]))
    bad = {"config": cfg_path, "checkins": checkins}[bad_file]
    if bad_file == "config":
        cfg_path.write_bytes(_NOT_UTF8 + cfg_path.read_bytes())
    assert main(["bench", "--config", str(cfg_path)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and "UTF-8" in err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_cli_solve_non_utf8_instance_is_an_error(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(_NOT_UTF8)
    assert main(["solve", "--instance", str(path), "--algorithm", "greedy"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "UTF-8" in err


@pytest.mark.parametrize("source, field, value", [
    ("geodata", "t", 1.7),
    ("geodata", "t", "2"),
    ("geodata", "lambda", "0.5"),
    ("geodata", "seed", True),
    ("geodata", "seed", -1),
    ("geodata", "checkins", 0),
    ("synth", "lambda", "0.5"),
    ("synth", "tau_I", True),
    ("synth", "seed", -1),
])
def test_cli_bench_rejects_mistyped_source_fields(tmp_path, capsys, source, field, value):
    # int() and float() would run "t": 1.7 as t = 1 and "lambda": "0.5" as 0.5;
    # numpy would end a negative seed in a traceback.
    if source == "geodata":
        checkins, friends_path = _ingest_files(tmp_path)
        spec = {"checkins": str(checkins), "friends": str(friends_path), "k": 2, "t": 1}
        src, algorithms = {"geodata": {**spec, field: value}}, ["greedyl"]
    else:
        src, algorithms = synth_source(**{field: value}), ["greedy"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_bench_config_text(tmp_path, source=src, algorithms=algorithms))
    assert main(["bench", "--config", str(cfg_path)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("algorithm, flags", [
    ("greedy", ["--n", "7", "--restarts", "3"]),
    ("greedy", ["--n", "7"]),
    ("rand+", ["--r", "0"]),
    ("ilp", ["--restarts", "5"]),
])
def test_cli_solve_rejects_flags_the_algorithm_does_not_take(tmp_path, capsys, algorithm, flags):
    # run_algorithm reads only its own keys, so such a flag would be ignored.
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--entries", "6", "--properties", "2", "--k", "2", "--t", "1",
                 "-o", str(inst_path)]) == EXIT_OK
    out = tmp_path / "res.json"
    capsys.readouterr()
    argv = ["solve", "--instance", str(inst_path), "--algorithm", algorithm, "-o", str(out)]
    assert main(argv + flags) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {algorithm} takes no override {flags[0][2:]!r}")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_solve_accepts_the_flags_the_algorithm_takes(tmp_path):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--entries", "6", "--properties", "2", "--k", "2", "--t", "1",
                 "-o", str(inst_path)]) == EXIT_OK
    for algorithm, flags in (("grasp", ["--n", "2", "--r", "2"]), ("greedy", ["--r", "1"]),
                             ("rand+", ["--restarts", "3"]), ("lp", ["--restarts", "3"])):
        argv = ["solve", "--instance", str(inst_path), "--algorithm", algorithm]
        assert main(argv + flags) == EXIT_OK, algorithm


def test_bench_checks_the_ilp_formulation_before_running(tmp_path, capsys):
    # Checked when the config is parsed: no output directory, no cell run.
    with pytest.raises(InstanceError, match="unknown formulation 'bogus'"):
        small_config(tmp_path, algorithms=["ilp"], params={"ilp": {"formulation": "bogus"}})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_bench_config_text(
        tmp_path, algorithms=["grasp", "ilp"], params={"ilp": {"formulation": "bogus"}}))
    assert main(["bench", "--config", str(cfg_path)]) == EXIT_FAIL
    assert "unknown formulation" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    small_config(tmp_path, algorithms=["ilp"], params={"ilp": {"formulation": "discbudget"}})
    with pytest.raises(InstanceError, match="unknown formulation 'maxmin'"):
        small_config(tmp_path, algorithms=["ilp"], params={"ilp": {"formulation": "maxmin"}})


def test_cli_solve_rejects_non_finite_property_weight(tmp_path, capsys):
    path = tmp_path / "inst.json"
    doc = {"num_entries": 2, "num_adversaries": 2, "t": 1, "lambda": 1.0, "tau_I": 0.0,
           "model": {"family": "linear", "aggregation": "worst"},
           "properties": [{"id": 0, "members": [0, 1], "weights": [float("nan"), 1.0]}],
           "utility_weights": [[0.9, 0.1], [0.1, 0.8]]}
    path.write_text(json.dumps(doc))
    assert main(["solve", "--instance", str(path), "--algorithm", "greedy"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite weight" in err


@pytest.mark.parametrize("source, algorithms, params, message", [
    (synth_source(family="quadratic"), ["grasp", "lp"], {}, "lp supports step|linear"),
    (synth_source(num_entries=2.5), ["greedy"], {}, "num_entries"),
    (synth_source(), ["greedy"], {"greedy": {"r": 0}}, "greedy override r must be >= 1, got 0"),
    (synth_source(), ["grasp"], {"grasp": {"n": -2}}, "grasp override n must be >= 1, got -2"),
    (synth_source(), ["rand+"], {"rand+": {"restarts": 0}},
     "rand+ override restarts must be >= 1, got 0"),
], ids=["lp-on-quadratic", "fractional-entry-count", "zero-r", "negative-n", "zero-restarts"])
def test_bench_leaves_no_output_directory_on_a_bad_config(tmp_path, capsys, monkeypatch,
                                                         source, algorithms, params, message):
    # Every instance is built, every override and every cell's family
    # checked before the output directory is made, so no cell runs and no
    # directory is left.
    ran = []
    monkeypatch.setattr("privpart.experiments.run_algorithm",
                        lambda *args, **kw: ran.append(args))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_bench_config_text(tmp_path, source=source, algorithms=algorithms,
                                           params=params))
    assert main(["bench", "--config", str(cfg_path)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert ran == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, flags, message", [
    ("ingest", ["--k", "0"], "need at least 2 adversaries, got k=0"),
    ("ingest", ["--k", "-2"], "need at least 2 adversaries, got k=-2"),
    ("ingest", ["--t", "3"], "t exceeds k (3 > 2)"),
    ("ingest", ["--max-users", "-1"], "max_users must be non-negative, got -1"),
    ("ingest", ["--max-edges", "-1"], "max_edges must be non-negative, got -1"),
    ("gen", ["--k", "-1"], "need at least 2 adversaries, got k=-1"),
    ("gen", ["--t", "0"], "per-entry cap must be at least 1, got t=0"),
])
def test_cli_rejects_bad_k_t_or_cap_before_drawing(tmp_path, capsys, verb, flags, message):
    # k = 0 used to end in a ZeroDivisionError and a negative k or cap in
    # a numpy ValueError, raised while drawing the instance.
    checkins, friends_path = _ingest_files(tmp_path)
    out = tmp_path / "out.json"
    argv = {
        "gen": ["gen", "--entries", "5", "--properties", "2"],
        "ingest": ["ingest", "--checkins", str(checkins), "--friends", str(friends_path)],
    }[verb] + ["--k", "2", "--t", "1", "-o", str(out)]
    assert main(argv + flags) == EXIT_FAIL  # argparse keeps the last value of a flag
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("source, extra, message", [
    ("synth", {"k_values": [-1]}, "need at least 2 adversaries, got k=-1"),
    ("geodata", {"k": 0}, "need at least 2 adversaries, got k=0"),
    ("geodata", {"max_edges": -1}, "max_edges must be non-negative, got -1"),
    ("synth", {"k_values": []}, "config k_values needs at least one value"),
])
def test_bench_rejects_bad_k_or_cap_before_drawing(tmp_path, capsys, source, extra, message):
    if source == "geodata":
        checkins, friends_path = _ingest_files(tmp_path)
        spec = {"checkins": str(checkins), "friends": str(friends_path), "k": 2, "t": 1}
        over = {"source": {"geodata": {**spec, **extra}}, "algorithms": ["greedyl"]}
    else:
        over = extra
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_bench_config_text(tmp_path, **over))
    assert main(["bench", "--config", str(cfg_path)]) == EXIT_FAIL
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, values", [
    ("algorithms", ["greedy", "rand+", "greedy"]),
    ("seeds", [0, 0, 1]),
    ("k_values", [2, 2]),
])
def test_bench_rejects_repeated_config_values(tmp_path, capsys, field, values):
    # Repeats ran the same cells again and summary.json counted the copies
    # as independent samples.
    with pytest.raises(InstanceError, match=f"config {field} repeat a value"):
        small_config(tmp_path, **{field: values})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_bench_config_text(tmp_path, **{field: values}))
    assert main(["bench", "--config", str(cfg_path)]) == EXIT_FAIL
    assert capsys.readouterr().err.startswith(f"error: config {field} repeat a value")
    assert not (tmp_path / "out").exists()
