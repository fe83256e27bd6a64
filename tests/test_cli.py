"""End-to-end CLI tests (in-process via scenlab.cli.main)."""

import json
import math

import pytest

from scenlab.cli import load_config, main
from scenlab.codecs import decode_constraint, encode_constraint
from scenlab.registry import get_bundle


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


def test_bounds_subcommand(capsys):
    code, report = run_cli(capsys, "bounds", "--vc", "1",
                           "--eps", "0.1", "--beta", "0.05")
    assert code == 0
    assert report["verdicts"]["vc_sample_bound"] == 340

    code, report = run_cli(capsys, "bounds", "--compression", "1",
                           "--eps", "0.1", "--beta", "0.01", "--N", "100")
    assert report["verdicts"]["compression_beta"] == pytest.approx(
        100 * 0.9 ** 99, rel=1e-15)


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
    assert main(args + ["--csv", str(csv_b), "--threads", "4"]) == 0
    capsys.readouterr()
    assert csv_a.read_bytes() == csv_b.read_bytes()
    lines = csv_a.read_text().splitlines()
    assert lines[0] == "N,q_hat,ci_radius,epsilon,trials,seed"
    assert len(lines) == 3


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
    with pytest.raises(SystemExit) as exc:
        main(["compression", "--system", "sum-no-scheme", "--capacity", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_compression_map_search(capsys):
    code, report = run_cli(
        capsys, "compression", "--system", "min-no-map", "--capacity", "2",
        "--tuple", '[{"exclude": 0}, {"exclude": 1}, {"exclude": 2}]')
    assert code == 0
    assert report["verdicts"]["map_search"]["none_certificate"] is True


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


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text("example = convex-vc\nk = 3  # comment\n")
    code, report = run_cli(capsys, "--config", str(cfg), "demo")
    assert code == 0 and report["config"]["k"] == 3

    code, report = run_cli(capsys, "demo", "--config", str(cfg), "--k", "4")
    assert report["config"]["k"] == 4

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

    bad = tmp_path / "bad.cfg"
    for text, command in (("no_such_key = 1\n", "demo"),
                          ("example = path-alg9\n", "demo"),
                          ("algo = 3\n", "pathplan"),
                          ("k = four\n", "demo"),
                          ("system = sum-no-scheme\ncapacity = 1\n"
                           "base = []\npermutations = yes\n", "compression")):
        bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(bad), command])
        assert exc.value.code == 2, text
        capsys.readouterr()


def test_load_config_parsing(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# header\nmax-n = 12\n\nseed = 3\n")
    assert load_config(str(cfg)) == {"max_n": "12", "seed": "3"}
    cfg.write_text("not a pair\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))
