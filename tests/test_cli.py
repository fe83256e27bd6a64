"""End-to-end CLI tests (in-process via scenlab.cli.main)."""

import argparse
import dataclasses
import functools
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import scenlab
from scenlab import analyzers, cli, core, registry
from scenlab.cli import build_parser, load_config, main
from scenlab.codecs import decode_constraint, encode_constraint
from scenlab.pathplan import ALG2_SCAN_BELOW
from scenlab.registry import SYSTEMS, get_bundle


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_demo_min_no_map(capsys):
    code, report = run_cli(capsys, "demo", "--example", "min-no-map",
                           "--capacity", "3")
    assert code == 0
    assert report["passed"] is True
    assert report["verdicts"]["map_search"]["none_certificate"] is True
    assert report["verdicts"]["map_search"]["subtuple_indices"] is None
    assert report["command"] == "demo" and report["seed"] == 0


def test_demo_interval_not_pac(capsys):
    code, report = run_cli(capsys, "demo", "--example", "interval-not-pac",
                           "--eps", "0.25", "--N", "10", "--trials", "200")
    assert code == 0
    assert report["verdicts"]["q_hat"] == 1.0


def test_demo_sum_scheme_failure_exits_1(capsys):
    # k = 2, d = 2: 2^k = 4 does not exceed C(2,0)+C(2,1)+C(2,2) = 4, so the
    # impossibility certificate cannot be issued and the run fails.
    code, report = run_cli(capsys, "demo", "--example", "sum-no-scheme",
                           "--k", "2", "--capacity", "2")
    assert code == 1
    assert report["passed"] is False
    assert report["verdicts"]["scheme_counting"]["impossible"] is False


def test_demo_convex_and_path_examples(capsys):
    code, report = run_cli(capsys, "demo", "--example", "convex-vc", "--k", "4")
    assert code == 0
    assert report["verdicts"]["range_shattering"]["subsets_realized"] == 16

    code, report = run_cli(capsys, "demo", "--example", "path-alg2",
                           "--trials", "50")
    assert code == 0
    assert report["verdicts"]["compression_idempotence"]["mismatched_trials"] == []

    code, report = run_cli(capsys, "demo", "--example", "path-alg1",
                           "--k", "3", "--trials", "50")
    assert code == 0
    assert report["verdicts"]["adversarial"]["q_hat"] == 1.0


def test_demo_convex_witness_at_its_maximum_k(capsys):
    code, report = run_cli(capsys, "demo", "--example", "convex-vc",
                           "--k", "12")
    witness = report["verdicts"]["range_shattering"]
    assert code == 0 and witness["all_realized"] is True
    assert witness["subsets_checked"] == witness["subsets_realized"] == 4096
    assert witness["membership_disagreements"] == []


def test_bounds_subcommand(capsys):
    code, report = run_cli(capsys, "bounds", "--vc", "1",
                           "--eps", "0.1", "--beta", "0.05")
    assert code == 0
    assert report["verdicts"]["vc_sample_bound"] == 340

    code, report = run_cli(capsys, "bounds", "--compression", "1",
                           "--eps", "0.1", "--N", "100")
    assert code == 0
    assert report["verdicts"] == {"compression_beta": pytest.approx(
        100 * 0.9 ** 99, rel=1e-15)}

    # C(N, 200) exceeds the float range from N of about 2000 on.
    code, report = run_cli(capsys, "bounds", "--compression", "200",
                           "--eps", "0.1", "--beta", "0.01")
    assert code == 0 and report["verdicts"]["compression_min_samples"] == 9396
    code, report = run_cli(capsys, "bounds", "--compression", "200",
                           "--eps", "0.1", "--N", "3000")
    assert code == 0
    assert report["verdicts"]["compression_beta"] == pytest.approx(
        2.8807034993783e+189, rel=1e-12)


@pytest.mark.parametrize("flags, message", [
    # --beta asks for a sample size, --N for a beta: one of them, not both.
    (["--compression", "1", "--eps", "0.1", "--beta", "0.3", "--N", "50"],
     "argument --N: not allowed with argument --beta"),
    (["--compression", "1", "--eps", "0.1"],
     "one of the arguments --beta --N is required"),
    (["--vc", "2", "--eps", "0.1", "--N", "100"],
     "--N applies to --compression only"),
    (["--compression", "1", "--eps", "1.5", "--N", "3"],
     "epsilon must be in (0, 1)"),
])
def test_bounds_takes_beta_or_N(flags, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", *flags])
    assert exc.value.code == 2
    assert f"scenlab bounds: error: {message}" in capsys.readouterr().err


def test_pathplan_subcommand(capsys):
    code, report = run_cli(capsys, "pathplan", "--algo", "1",
                           "--thetas", str(math.pi / 2))
    assert code == 0
    assert report["verdicts"]["length"] == pytest.approx(2 * math.sqrt(1.25))

    code, report = run_cli(capsys, "pathplan", "--algo", "2",
                           "--thetas", f"{math.pi / 4},{math.pi / 2}")
    assert report["verdicts"]["decision"] == {"parabola": 0.5}


def test_risk_curve_writes_csv_deterministically(tmp_path, capsys):
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["risk-curve", "--system", "interval-not-pac", "--eps", "0.25",
            "--n-list", "1,5", "--trials", "50", "--seed", "7"]
    assert main(args + ["--csv", str(csv_a)]) == 0
    assert main(args + ["--csv", str(csv_b)]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
    lines = csv_a.read_text().splitlines()
    assert lines[0] == "N,q_hat,ci_radius,epsilon,trials,seed"
    assert len(lines) == 3


@pytest.mark.parametrize("system", ["convex-vc", "path-alg2"])
def test_risk_curve_rejects_negative_n(system, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["risk-curve", "--system", system, "--eps", "0.1",
              "--n-list=-1,3", "--trials", "2"])
    assert exc.value.code == 2
    assert "n_list" in capsys.readouterr().err


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_command_refuses_a_seed_outside_64_bits(command, seed,
                                                      monkeypatch, capsys):
    # Masked to 64 bits, -1 and 2**64 would run the streams of 2**64 - 1
    # and 0 while echoing a seed of their own.
    def run(args):
        raise AssertionError("the runner ran")

    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(cli._COMMANDS, run))
    with pytest.raises(SystemExit) as exc:
        main([command, f"--seed={seed}"])
    assert exc.value.code == 2
    assert (f"argument --seed: must be in [0, 2**64), got {seed}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, flag_name", [
    (["risk-curve", "--system", "min-no-map", "--eps", "0.1",
      "--n-list", "abc"], "--n-list"),
    (["risk-curve", "--system", "min-no-map", "--eps", "0.1",
      "--n-list", "3", "--seed", "abc"], "--seed"),
    (["pathplan", "--algo", "1", "--thetas", "x"], "--thetas"),
    (["shatter", "--system", "min-no-map", "--candidates", "{bad"],
     "--candidates"),
    (["shatter", "--system", "min-no-map", "--candidates", "@/nonexistent"],
     "--candidates"),
    (["compression", "--system", "min-no-map", "--capacity", "1",
      "--tuple", "@/nonexistent"], "--tuple"),
    (["compression", "--system", "min-no-map", "--capacity", "1",
      "--base", "@/nonexistent"], "--base"),
])
def test_unparsable_values_name_the_flag_not_the_parser(argv, flag_name,
                                                        capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"scenlab {argv[0]}: error: argument {flag_name}: expected " in err
    assert not re.search(r"_parse|_json", err)
    if "@/nonexistent" in argv:
        assert err.rstrip().endswith("No such file or directory")


def test_risk_curve_takes_the_largest_seed(capsys):
    code, report = run_cli(capsys, "risk-curve", "--system", "min-no-map",
                           "--eps", "0.1", "--n-list", "3", "--trials", "20",
                           f"--seed={2**64 - 1}")
    assert code == 0 and report["seed"] == 2**64 - 1


def test_shatter_subcommand(capsys):
    code, report = run_cli(
        capsys, "shatter", "--system", "interval-not-pac",
        "--candidates", '[{"member": 0.0}]')
    assert code == 0
    assert report["verdicts"]["shatter"]["verdict"] == "shattered_up_to_L"


def test_shatter_counterexample_serializes_and_revalidates(capsys):
    candidates = '[{"member":0.0},{"member":0.5},{"member":0.7}]'
    code, report = run_cli(capsys, "shatter", "--system", "interval-not-pac",
                           "--candidates", candidates)
    assert code == 0
    shatter = report["verdicts"]["shatter"]
    assert shatter["verdict"] == "not_shattered"
    # Re-deciding the serialized counterexample reproduces the serialized
    # satisfied subset, listed in candidate order.
    system = get_bundle("interval-not-pac").system
    x = system.decide(tuple(decode_constraint(obj)
                            for obj in shatter["counterexample"]))
    realized = [encode_constraint(z)
                for z in map(decode_constraint, shatter["candidates"])
                if system.satisfies(x, z)]
    assert realized == shatter["satisfied_subset"]
    assert realized != shatter["sampled_set"]


def test_compression_subcommand_requires_one_input(capsys):
    base = ["compression", "--system", "sum-no-scheme", "--capacity", "1"]
    for inputs in ([], ["--tuple", '[{"exclude": 1}]',
                        "--base", '[{"exclude": 1}]']):
        with pytest.raises(SystemExit) as exc:
            main(base + inputs)
        assert exc.value.code == 2
        capsys.readouterr()


def test_compression_map_search(capsys):
    code, report = run_cli(
        capsys, "compression", "--system", "min-no-map", "--capacity", "2",
        "--tuple", '[{"exclude": 0}, {"exclude": 1}, {"exclude": 2}]')
    assert code == 0
    assert report["verdicts"]["map_search"]["none_certificate"] is True
    # The same verdict shape as the min-no-map demo's.
    _, demo = run_cli(capsys, "demo", "--example", "min-no-map",
                      "--capacity", "2")
    assert report["verdicts"] == demo["verdicts"]


def test_compression_map_search_skips_undecidable_subtuples(capsys):
    # The barrier at 1e-12 alone has no path, but the subtuple (0.3,)
    # decides as the full tuple does.
    code, report = run_cli(
        capsys, "compression", "--system", "path-alg1", "--capacity", "1",
        "--tuple", '[{"theta": 1e-12}, {"theta": 0.3}]')
    assert code == 0
    assert report["verdicts"]["map_search"]["subtuple_indices"] == [1]


def test_out_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["bounds", "--vc", "2", "--eps", "0.1", "--beta", "0.05",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["verdicts"]["vc_sample_bound"] == 531
    assert "wall_clock_s" in report


def test_usage_errors_exit_2(capsys):
    for argv in (["risk-curve", "--system", "no-such-system", "--eps", "0.1",
                  "--n-list", "5"],
                 ["demo"],
                 []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize("argv, files", [
    (["--config", "bad.cfg", "demo"], {"bad.cfg": "example convex-vc\n"}),
    (["--config", "missing.cfg", "demo"], {}),
    (["shatter", "--system", "interval-not-pac", "--candidates", "@missing.json"],
     {}),
    (["compression", "--system", "min-no-map", "--capacity", "1",
      "--tuple", "@missing.json"], {}),
    (["compression", "--system", "sum-no-scheme", "--capacity", "1",
      "--base", "@missing.json"], {}),
    (["--config", "base.cfg", "compression"],
     {"base.cfg": "system = sum-no-scheme\ncapacity = 1\n"
                  "base = @missing.json\n"}),
    (["risk-curve", "--system", "interval-not-pac", "--eps", "0.25",
      "--n-list", "1", "--threads", "2"], {}),
    (["--config", "threads.cfg", "risk-curve"],
     {"threads.cfg": "system = interval-not-pac\neps = 0.25\n"
                     "n_list = 1\nthreads = 2\n"}),
    (["demo", "--example", "path-alg2", "--trials", "0"], {}),
    # An empty or negative scheme-counting base.
    (["demo", "--example", "sum-no-scheme", "--k", "0"], {}),
    (["demo", "--example", "sum-no-scheme", "--k", "-1"], {}),
    (["demo", "--example", "path-alg2", "--max-n", "-1"], {}),
    (["compression", "--system", "sum-no-scheme", "--capacity", "1", "--base",
      json.dumps([{"exclude": a} for a in range(21)])], {}),
    (["bounds", "--vc", "1", "--eps", "0.1", "--beta", "0.05",
      "--out", "missing-dir/x.json"], {}),
    # A constraint kind foreign to the system.
    (["shatter", "--system", "convex-vc", "--candidates", '[{"theta": 1.0}]'],
     {}),
    (["shatter", "--system", "path-alg1", "--candidates", '[{"exclude": 1}]'],
     {}),
    (["compression", "--system", "sum-no-scheme", "--capacity", "1",
      "--base", '[{"band": 0.5}]'], {}),
    (["compression", "--system", "min-no-map", "--capacity", "1",
      "--tuple", '[{"member": 0.5}]'], {}),
    # A JSON value that is not a list of encodings.
    (["shatter", "--system", "interval-not-pac", "--candidates", "5"], {}),
    (["shatter", "--system", "min-no-map", "--candidates", '{"exclude": 1}'],
     {}),
    (["compression", "--system", "min-no-map", "--capacity", "1",
      "--tuple", '{"exclude": 1}'], {}),
    (["compression", "--system", "sum-no-scheme", "--capacity", "1",
      "--base", "5"], {}),
    # A command-line flag against a config value in the same group.
    (["--config", "b.cfg", "bounds", "--compression", "1", "--beta", "0.01",
      "--out", "report.json"],
     {"b.cfg": "vc = 2\neps = 0.1\nbeta = 0.05\n"}),
    # Config keys are flag names, not destinations.
    (["--config", "t.cfg", "compression"],
     {"t.cfg": "system = min-no-map\ncapacity = 1\n"
               'tuple_json = [{"exclude": 0}]\n'}),
    (["risk-curve", "--system", "sum-no-scheme", "--eps", "0.1", "--n-list",
      "1", "--csv", "curve.csv", "--out", "missing-dir/x.json"], {}),
    # An epsilon outside (0, 1) for the adversarial experiment.
    (["demo", "--example", "path-alg1", "--eps", "-1"], {}),
    (["demo", "--example", "path-alg1", "--eps", "nan"], {}),
    # A minimal N past the 10^9 cap.
    (["bounds", "--compression", "1", "--eps", "1e-12", "--beta", "0.01"], {}),
    # A barrier within POINT_TOL of the I-T axis leaves no path.
    (["pathplan", "--algo", "1", "--thetas", "1e-9"], {}),
    (["shatter", "--system", "path-alg1", "--candidates",
      '[{"theta": 1e-300}]'], {}),
    # A flag the chosen mode ignores, on the command line or in a config.
    (["bounds", "--vc", "2", "--eps", "0.1", "--beta", "0.05", "--N", "100"],
     {}),
    (["--config", "n.cfg", "bounds", "--vc", "2", "--eps", "0.1", "--beta",
      "0.05"], {"n.cfg": "N = 100\n"}),
    (["compression", "--system", "min-no-map", "--capacity", "1",
      "--tuple", '[{"exclude": 0}]', "--permutations"], {}),
    # A runner-time usage error removes the report file main created.
    (["bounds", "--compression", "1", "--eps", "1e-12", "--beta", "0.01",
      "--out", "r.json"], {}),
    (["demo", "--example", "path-alg2", "--trials", "0", "--out", "r.json"],
     {}),
    (["pathplan", "--algo", "1", "--thetas", "1e-9", "--out", "r.json"], {}),
    # A sample-size bound past the float range.
    (["bounds", "--vc", "1", "--eps", "1e-310", "--beta", "0.5"], {}),
    # Demo inputs the example does not read.
    (["demo", "--example", "convex-vc", "--k", "3", "--N", "500", "--max-n",
      "7"], {}),
    # Refused before any work: a scheme-counting base past the tuple budget,
    # a shattering walk too deep for the stack (past the budget, or within
    # it on one candidate) and polygons past the arc-family limit.
    (["demo", "--example", "sum-no-scheme", "--k", "20000"], {}),
    (["shatter", "--system", "interval-not-pac", "--candidates",
      '[{"member": 0.0}, {"member": 0.5}]', "--max-len", "100000000"], {}),
    (["shatter", "--system", "interval-not-pac", "--candidates",
      '[{"member": 0.5}]', "--max-len", "1200", "--no-include-empty"], {}),
    (["shatter", "--system", "convex-vc", "--candidates",
      '[{"polygon": [26, 1]}]'], {}),
    (["compression", "--system", "convex-vc", "--capacity", "1", "--tuple",
      '[{"polygon": [22, 1]}]'], {}),
    # Integers past the float range.
    (["bounds", "--vc", "9" * 400, "--eps", "0.1", "--beta", "0.01"], {}),
    (["bounds", "--compression", "1", "--eps", "0.1", "--beta", "0.01",
      "--N", "9" * 400], {}),
    (["risk-curve", "--system", "sum-no-scheme", "--eps", "0.1", "--n-list",
      "9" * 400], {}),
    # Sizes whose arrays the kernel refuses (at least 10^15 values, 7 PiB),
    # so these touch no memory.
    *((["risk-curve", "--system", system, "--eps", "0.1", "--n-list",
        "1000000000000000", "--trials", "1", "--out", "r.json"], {})
      for system in ("convex-vc", "path-alg1", "sum-no-scheme")),
    (["demo", "--example", "path-alg2", "--max-n", "1000000000000000000",
      "--out", "r.json"], {}),
])
def test_usage_errors_exit_2_without_traceback(argv, files, tmp_path,
                                               monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error:" in err and "Traceback" not in err
    # Nothing ran, so nothing was written (the --csv file included).
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("flag, value", [("--eps", "2"), ("--trials", "0")])
def test_demo_path_alg1_rejects_bad_inputs_before_shattering(flag, value,
                                                             monkeypatch,
                                                             capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the shatter walk ran")
    monkeypatch.setattr(analyzers, "check_shattered", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--example", "path-alg1", "--k", "6", flag, value])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, builder", [
    (["demo", "--example", "min-no-map", "--capacity", "2000000"],
     "ExclusionConstraint"),
    (["demo", "--example", "path-alg1", "--k", "1000000"],
     "band_shatter_candidates"),
    # Past the budget within the walk-length limit.
    (["demo", "--example", "path-alg1", "--k", "8"],
     "band_shatter_candidates"),
])
def test_oversized_demos_refuse_before_building_constraints(argv, builder,
                                                            monkeypatch,
                                                            capsys):
    built = []

    def refuse(*args, **kwargs):
        built.append(args)
        raise AssertionError(f"{builder} was called")
    monkeypatch.setattr(registry, builder, refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and built == []
    assert "more than 2000000 tuples to enumerate" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["demo", "--example", "convex-vc", "--N", "5"],
    ["bounds", "--vc", "2", "--eps", "0.1", "--N", "100"],
    ["pathplan", "--algo", "1", "--thetas", "1e-9"],
])
def test_runner_usage_errors_show_the_command_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: scenlab {argv[0]} [-h]")
    assert f"scenlab {argv[0]}: error: " in err


def test_scheme_counting_names_a_barrier_that_leaves_no_path(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    """Several subsets of this base leave no path; which one is decided
    first is the walk's business, so any barrier of the base may be named."""
    monkeypatch.chdir(tmp_path)
    thetas = ["1e-12", "3.14159265358", "1.5"]
    base = "[" + ", ".join(f'{{"theta": {t}}}' for t in thetas) + "]"
    with pytest.raises(SystemExit) as exc:
        main(["compression", "--system", "path-alg1", "--capacity", "1",
              "--base", base, "--out", "r.json"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: scenlab compression [-h]")
    assert "scenlab compression: error: no path clears barrier theta=" in err
    assert any(f"theta={t}," in err for t in thetas)
    assert list(tmp_path.iterdir()) == []


def test_shatter_names_a_barrier_that_leaves_no_path(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["shatter", "--system", "path-alg1", "--candidates",
              '[{"theta": 1e-12}, {"theta": 0.3}]'])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: scenlab shatter [-h]")
    assert "scenlab shatter: error: no path clears barrier theta=1e-12" in err


def test_failed_run_keeps_an_existing_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("earlier\n")
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--example", "path-alg2", "--trials", "0",
              "--out", str(out)])
    assert exc.value.code == 2 and out.read_text() == "earlier\n"
    capsys.readouterr()


def demo_inputs(example: str) -> dict:
    """The demo's keyword-only inputs with their defaults."""
    params = inspect.signature(SYSTEMS[example].demo).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


def flag(name: str) -> str:
    return "--" + name.replace("_", "-")


ALL_DEMO_INPUTS = sorted({name for key in SYSTEMS for name in demo_inputs(key)})


def test_demo_flags_are_the_registry_demo_inputs():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices["demo"]._actions
             if a.dest not in ("help", "out", "seed", "example")}
    types = {}
    for key, bundle in SYSTEMS.items():
        params = list(inspect.signature(bundle.demo).parameters.values())
        assert [p.name for p in params[:2]] == ["bundle", "seed"], key
        for p in params[2:]:
            assert p.kind is p.KEYWORD_ONLY, (key, p.name)
            assert type(p.default) in (int, float), (key, p.name)
            # An input shared by two demos has one type.
            assert types.setdefault(p.name, type(p.default)) \
                is type(p.default), (key, p.name)
    assert {dest: a.type for dest, a in flags.items()} == types
    assert all(a.default is None for a in flags.values())


@pytest.mark.parametrize("example", list(SYSTEMS))
def test_demo_rejects_inputs_it_does_not_read(example, tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    foreign = [n for n in ALL_DEMO_INPUTS if n not in demo_inputs(example)]
    assert foreign
    cfg = tmp_path / "f.cfg"
    for name in foreign:
        cfg.write_text(f"{name} = 1\n")
        for argv in (["demo", "--example", example, flag(name), "1"],
                     ["--config", "f.cfg", "demo", "--example", example]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", "r.json"])
            err = capsys.readouterr().err
            assert exc.value.code == 2, argv
            assert f"{flag(name)} does not apply to demo {example}" in err
            assert [p.name for p in tmp_path.iterdir()] == ["f.cfg"]


@pytest.mark.parametrize("example", list(SYSTEMS))
def test_demo_config_echoes_exactly_its_inputs(example, monkeypatch, capsys):
    inputs = demo_inputs(example)
    code, report = run_cli(capsys, "demo", "--example", example)
    assert report["config"] == {"example": example, "seed": 0, **inputs}

    # Given inputs reach the demo as keywords and are echoed; the rest keep
    # their defaults.
    calls = []
    bundle = SYSTEMS[example]

    @functools.wraps(bundle.demo)
    def record(bundle, seed, **kwargs):
        calls.append((seed, kwargs))
        return {}, True

    monkeypatch.setitem(SYSTEMS, example,
                        dataclasses.replace(bundle, demo=record))
    for name, default in inputs.items():
        given = default + 1 if isinstance(default, int) else default / 2
        code, report = run_cli(capsys, "demo", "--example", example,
                               "--seed", "5", flag(name), str(given))
        expected = {**inputs, name: given}
        assert code == 0 and calls.pop() == (5, expected)
        assert report["config"] == {"example": example, "seed": 5, **expected}


def test_readme_lists_each_demo_input():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `([a-z0-9-]+)` \| (.*) \|$", readme, re.M))
    for key in SYSTEMS:
        listed = re.findall(r"`--([A-Za-z-]+)` \(([^)]*)\)", rows[key])
        assert listed == [(flag(n)[2:], str(d))
                          for n, d in demo_inputs(key).items()], key


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``scenlab`` line of every sh block, as the CI step runs them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [shlex.split(line)
                for block in re.findall(r"```sh\n(.*?)```",
                                        readme.replace("\\\n", " "),
                                        re.DOTALL)
                for line in map(str.strip, block.splitlines())
                if line.startswith("scenlab ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("example = convex-vc\nk = 3  # comment\n")
    code, report = run_cli(capsys, "--config", str(cfg), "demo")
    assert code == 0 and report["config"]["k"] == 3

    code, report = run_cli(capsys, "demo", "--config", str(cfg), "--k", "4")
    assert report["config"]["k"] == 4

    # The --config=path form is read at any position and is not echoed.
    for argv in ([f"--config={cfg}", "demo"], ["demo", f"--config={cfg}"]):
        code, report = run_cli(capsys, *argv)
        assert code == 0 and report["config"]["k"] == 3
        assert report["config"]["example"] == "convex-vc"
        assert "config" not in report["config"]

    # Config values pass the same checks as flags: types, choices, and
    # true/false for boolean flags.
    counting = tmp_path / "counting.cfg"
    for value, expected in (("false", False), ("true", True)):
        counting.write_text("system = sum-no-scheme\ncapacity = 1\n"
                            'base = [{"exclude": 1}, {"exclude": 2}]\n'
                            f"permutations = {value}\n")
        code, report = run_cli(capsys, "--config", str(counting), "compression")
        assert code == 0 and report["config"]["permutations"] is expected
        assert report["verdicts"]["scheme_counting"]["permutations"] is expected

    # A config value also satisfies a required mutually exclusive group.
    bounds = tmp_path / "bounds.cfg"
    bounds.write_text("vc = 2\neps = 0.1\nbeta = 0.05\n")
    code, report = run_cli(capsys, "--config", str(bounds), "bounds")
    assert code == 0 and report["verdicts"] == {"vc_sample_bound": 531}
    bounds.write_text("compression = 1\neps = 0.1\nbeta = 0.01\n")
    code, report = run_cli(capsys, "--config", str(bounds), "bounds")
    assert code == 0 and report["verdicts"] == {"compression_min_samples": 88}

    bad = tmp_path / "bad.cfg"
    for text, command in (("no_such_key = 1\n", "demo"),
                          ("example = path-alg9\n", "demo"),
                          ("algo = 3\n", "pathplan"),
                          ("k = four\n", "demo"),
                          ("system = sum-no-scheme\ncapacity = 1\n"
                           "base = []\npermutations = yes\n", "compression"),
                          ("eps = 0.1\nbeta = 0.05\n", "bounds")):
        bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad), command])
        assert exc.value.code == 2, text
        capsys.readouterr()


def test_config_lines_become_flags(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("system = min-no-map\ncapacity = 2\n"
                   'tuple = [{"exclude": 0}, {"exclude": 1}, {"exclude": 2}]\n')
    code, report = run_cli(capsys, "--config", str(cfg), "compression")
    assert code == 0
    assert report["verdicts"]["map_search"]["none_certificate"] is True
    assert report["config"]["tuple_json"] == [{"exclude": a} for a in range(3)]

    # false leaves a flag unset: no CSV is written.
    cfg.write_text("system = interval-not-pac\neps = 0.25\nn-list = 1\n"
                   "trials = 5\ncsv = false\n")
    code, report = run_cli(capsys, "--config", str(cfg), "risk-curve")
    assert code == 0 and "csv" not in report["config"]
    assert [p.name for p in tmp_path.iterdir()] == ["c.cfg"]


def test_load_config_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# header\nmax-n = 12\n\nseed = 3\n")
    assert load_config(str(cfg)) == {"max_n": "12", "seed": "3"}
    cfg.write_text("not a pair\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


def subparser(parser, command):
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


@pytest.mark.parametrize("command", list(cli._RUNNERS))
def test_command_parser_prints_what_the_full_tree_prints(command):
    lean, full = build_parser(command), build_parser()
    assert lean.format_usage() == full.format_usage()
    assert subparser(lean, command).format_help() \
        == subparser(full, command).format_help()


VALID_RUNS = [
    ["demo", "--example", "convex-vc", "--k", "3"],
    ["risk-curve", "--system", "path-alg2", "--eps", "0.1", "--n-list", "3",
     "--trials", "2"],
    ["shatter", "--system", "interval-not-pac", "--candidates",
     '[{"member": 0.0}]'],
    ["compression", "--system", "min-no-map", "--capacity", "2", "--tuple",
     '[{"exclude": 0}, {"exclude": 1}]'],
    ["bounds", "--vc", "1", "--eps", "0.1", "--beta", "0.05"],
    ["pathplan", "--algo", "1", "--thetas", "1.0"],
]


def cli_outcome(argv, capsys):
    """stdout less the wall-clock time, stderr and exit status of main."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return (re.sub(r'"wall_clock_s": .*', "", captured.out), captured.err,
            code)


@pytest.mark.parametrize("argv", [
    *VALID_RUNS,
    [], ["-h"], ["risk-curve", "-h"], ["no-such-command"],
    [*VALID_RUNS[4], "--bogus"],
    ["--config", "b.cfg", "bounds"],
    ["--config", "missing.cfg", "risk-curve"],
    ["risk-curve", "--system", "path-alg2", "--eps", "0.1"],
    ["bounds", "--vc", "2", "--eps", "0.1", "--N", "100"],
])
def test_main_behaves_as_with_the_full_parser(argv, tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b.cfg").write_text("vc = 2\neps = 0.1\nbeta = 0.05\n")
    assert set(cli._RUNNERS) == {run[0] for run in VALID_RUNS}
    shipped = cli_outcome(argv, capsys)
    monkeypatch.setattr(cli, "build_parser",
                        lambda command, config_parser: build_parser(
                            None, config_parser))
    assert cli_outcome(argv, capsys) == shipped


def test_top_level_errors_name_the_command_argument(capsys):
    for argv, message in (
            ([], "error: the following arguments are required: command\n"),
            (["nope"], "error: argument command: invalid choice: 'nope' ")):
        with pytest.raises(SystemExit):
            main(argv)
        assert message in capsys.readouterr().err


def test_risk_curve_builds_no_demo_flags(tmp_path, monkeypatch, capsys):
    def refuse():
        raise AssertionError("the demo flags were built")
    monkeypatch.setattr(cli, "_demo_flags", refuse)
    cfg = tmp_path / "r.cfg"
    cfg.write_text("trials = 3\n")
    for argv in (VALID_RUNS[1], ["--config", str(cfg), *VALID_RUNS[1]]):
        code, report = run_cli(capsys, *argv)
        assert code == 0 and report["command"] == "risk-curve"


def test_module_entry_reads_its_own_argv(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run([sys.executable, "-m", "scenlab", *VALID_RUNS[1]],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True,
                            timeout=120)
    fresh = json.loads(result.stdout)
    _, report = run_cli(capsys, *VALID_RUNS[1])
    del fresh["wall_clock_s"], report["wall_clock_s"]
    assert fresh == report


@pytest.mark.parametrize("package", ["scipy", "numpy", "numpy.random",
                                     "scenlab.analyzers", "scenlab.codecs"])
def test_cli_import_leaves_package_unloaded(package):
    # Every command pays for what `import scenlab.cli` loads.  numpy takes
    # about 0.1 s to import and numpy.random alone holds about 6 MB; each
    # function that computes with numpy imports it when first called.  The
    # certificate machinery (analyzers, and the codecs that decode its
    # inputs) takes a fifth of the CLI's own import; only the runners and
    # demos that certify, bound, decode or encode import it.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, scenlab.cli; print(sorted(m for m in sys.modules "
             f"if (m + '.').startswith('{package}.')))")
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True, check=True,
                            timeout=120)
    assert result.stdout.strip() == "[]"


# Each prelude makes every import of the modules it names raise ImportError.
NO_NUMPY = ("import sys; sys.modules['numpy'] = None; "
            "from scenlab.cli import main; sys.exit(main(sys.argv[1:]))")
NO_ANALYZERS = ("import sys; sys.modules['scenlab.analyzers'] = None; "
                "sys.modules['scenlab.codecs'] = None; "
                "from scenlab.cli import main; sys.exit(main(sys.argv[1:]))")


def run_fresh(prelude, argv):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", prelude, *argv],
        env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"},
        capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, code", [
    (["bounds", "--compression", "1", "--eps", "0.1", "--beta", "0.01"], 0),
    (["bounds", "--vc", "2", "--eps", "0.1", "--beta", "0.05"], 0),
    (["-h"], 0), ([], 2), (["no-such-command"], 2),
    (["bounds", "--vc", "1"], 2),
    (["demo", "--example", "min-no-map", "--capacity", "4"], 0),
    (["demo", "--example", "sum-no-scheme", "--k", "5", "--capacity", "2"], 0),
    (["compression", "--system", "convex-vc", "--capacity", "1", "--base",
      '[{"polygon": [2, 1]}, {"polygon": [3, 2]}, {"band": 0.5}]'], 0),
    (["shatter", "--system", "min-no-map", "--candidates",
      '[{"exclude": 0}, {"exclude": 1}, {"exclude": 2}]'], 0),
    (["pathplan", "--algo", "2", "--thetas", "0.5,1.5,2.5"], 0),
    (["pathplan", "--algo", "1", "--thetas", "1.0,2.0"], 0),
    # alg1's hull check is scalar at every angle count, also from the
    # count up which alg2 filters with numpy.
    (["pathplan", "--algo", "1", "--thetas", ",".join(
        str(0.05 + 0.06 * i) for i in range(ALG2_SCAN_BELOW + 10))], 0),
    (["shatter", "--system", "path-alg1", "--candidates",
      '[{"theta": 1.5}, {"theta": 1.6}]'], 0),
    (["compression", "--system", "path-alg1", "--capacity", "1", "--tuple",
      '[{"theta": 1.0}, {"theta": 1.5}, {"theta": 2.0}]'], 0),
    (["compression", "--system", "path-alg1", "--capacity", "1", "--base",
      '[{"theta": 1.0}, {"theta": 1.5}, {"theta": 2.0}]'], 0),
    # The interval decision sorts short tuples without numpy.
    (["shatter", "--system", "interval-not-pac", "--candidates",
      '[{"member": 0.0}, {"member": 0.5}, {"member": 1.0}]'], 0),
    (["compression", "--system", "interval-not-pac", "--capacity", "1",
      "--base", '[{"member": 0.0}, {"member": 0.5}, {"member": 1.0}]'], 0),
])
def test_numpy_free_commands_run_without_numpy(argv, code, monkeypatch,
                                               capsys):
    """These commands never import numpy, so a fresh interpreter in which
    numpy cannot be imported gives the in-process outcome."""
    monkeypatch.setenv("COLUMNS", "80")
    fresh = run_fresh(NO_NUMPY, argv)
    assert fresh.returncode == code
    assert (re.sub(r'"wall_clock_s": .*', "", fresh.stdout), fresh.stderr,
            fresh.returncode) == cli_outcome(argv, capsys)


def test_interval_curve_leaves_numpy_ma_unloaded():
    """From ``_NUMPY_SORT_FROM`` points up, the interval decision sorts with
    ``np.sort``; ``np.unique`` would import ``numpy.ma`` (about 1.3 MB)."""
    prelude = ("import sys; from scenlab.cli import main; main(sys.argv[1:]); "
               "print(sorted(m for m in sys.modules "
               "if (m + '.').startswith('numpy.ma.')))")
    fresh = run_fresh(prelude, ["risk-curve", "--system", "interval-not-pac",
                                "--eps", "0.1", "--n-list", "1000",
                                "--trials", "20"])
    assert fresh.returncode == 0, fresh.stderr
    assert '"q_hat": ' in fresh.stdout
    assert fresh.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv", [
    ["demo", "--example", "sum-no-scheme", "--k", "18", "--capacity", "3"],
    ["demo", "--example", "min-no-map", "--capacity", "16"],
])
def test_exclusion_certificates_leave_numpy_ma_unloaded(argv):
    """The array lane counts distinct decisions with ``np.sort`` and picks
    the map search's subtuple by masks; ``np.unique`` would import
    ``numpy.ma``."""
    prelude = ("import sys; from scenlab.cli import main; main(sys.argv[1:]); "
               "print(sorted(m for m in sys.modules "
               "if (m + '.').startswith('numpy.ma.')), "
               "'numpy' in sys.modules)")
    fresh = run_fresh(prelude, argv)
    assert fresh.returncode == 0, fresh.stderr
    assert '"passed": true' in fresh.stdout
    assert fresh.stdout.splitlines()[-1] == "[] True"


def test_sampling_commands_need_numpy():
    # Shows that the prelude of the test above blocks numpy.
    fresh = run_fresh(NO_NUMPY, ["risk-curve", "--system", "min-no-map",
                                 "--eps", "0.1", "--n-list", "3",
                                 "--trials", "2"])
    assert fresh.returncode != 0
    assert "import of numpy halted" in fresh.stderr


@pytest.mark.parametrize("argv", [
    *(["risk-curve", "--system", key, "--eps", "0.1", "--n-list", "3",
       "--trials", "2"] for key in SYSTEMS),
    ["demo", "--example", "path-alg2"],
    ["demo", "--example", "interval-not-pac"],
    ["-h"], ["bounds", "--vc", "1"],
])
def test_estimate_commands_run_without_analyzers(argv, monkeypatch, capsys):
    """These commands never import analyzers or codecs, so a fresh
    interpreter in which neither can be imported gives the in-process
    outcome."""
    monkeypatch.setenv("COLUMNS", "80")
    fresh = run_fresh(NO_ANALYZERS, argv)
    assert (re.sub(r'"wall_clock_s": .*', "", fresh.stdout), fresh.stderr,
            fresh.returncode) == cli_outcome(argv, capsys)


def test_bounds_needs_analyzers():
    # Shows that the prelude of the test above blocks analyzers.
    fresh = run_fresh(NO_ANALYZERS, ["bounds", "--vc", "1", "--eps", "0.1",
                                     "--beta", "0.05"])
    assert fresh.returncode != 0
    assert "import of scenlab.analyzers halted" in fresh.stderr


def test_package_exports_resolve():
    # A deleted function must leave scenlab.__all__ with it.
    assert len(set(scenlab.__all__)) == len(scenlab.__all__)
    missing = [name for name in scenlab.__all__ if not hasattr(scenlab, name)]
    assert missing == []
    # The analyzer names resolve on first access, to analyzers' own objects.
    for name in scenlab._ANALYZER_NAMES:
        assert getattr(scenlab, name) is getattr(analyzers, name)
    namespace: dict = {}
    exec("from scenlab import *", namespace)
    assert set(scenlab.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        scenlab.no_such_name
    assert analyzers.BudgetExceededError is core.BudgetExceededError
