"""The benchmark's workloads and tracer, run in-process against scenlab.

``scenbench/`` is read, never written: its modules are loaded by file path,
and each command writes its report and CSV under pytest's ``tmp_path``.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from scenlab import cli, core

BENCH = Path(__file__).resolve().parents[1] / "scenbench"


def load(name: str):
    """``scenbench/<name>.py`` as a module, without adding its directory to
    ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"scenbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
tracer = load("tracer")


def run(command, workdir: Path) -> tuple[dict, str | None]:
    """Run one workload command as the benchmark does: its argv plus its
    own ``--seed``, ``--out`` and (for curves) ``--csv``."""
    out, csv_path = workdir / f"{command.label}.json", \
        workdir / f"{command.label}.csv"
    argv = [*command.argv, "--seed", str(command.seed), "--out", str(out)]
    if command.writes_csv:
        argv += ["--csv", str(csv_path)]
    assert cli.main(argv) == 0, command.label
    return (json.loads(out.read_text()),
            csv_path.read_text() if command.writes_csv else None)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed0_workload_outputs_are_the_references(name, tmp_path):
    """Every seed-0 command of the workload passes its check, and its
    verdicts and CSV are those recorded in ``refs/seed0.json``."""
    refs = json.loads((BENCH / "refs" / "seed0.json").read_text())[name]
    commands = workloads.WORKLOADS[name](0)
    assert sorted(command.label for command in commands) == sorted(refs)
    for command in commands:
        report, csv_text = run(command, tmp_path)
        assert workloads.check_report(command, report, csv_text) == [], \
            command.label
        outputs = {"verdicts": report["verdicts"]}
        if csv_text is not None:
            outputs["csv"] = csv_text
        assert outputs == refs[command.label], command.label


def test_tracer_keeps_verdicts_records_spans_and_restores_names(tmp_path):
    """Installed, the tracer leaves the verdicts unchanged and records
    ``core.pac_curve`` spans; every name it patched is restored on exit."""
    argvs = (["risk-curve", "--system", "path-alg1", "--eps", "0.1",
              "--n-list", "5", "--trials", "1"],
             ["demo", "--example", "convex-vc", "--k", "3"])

    def verdicts():
        reports = []
        for argv in argvs:
            out = tmp_path / "report.json"
            out.unlink(missing_ok=True)
            assert cli.main([*argv, "--out", str(out)]) == 0, argv
            reports.append(json.loads(out.read_text())["verdicts"])
        return reports

    def names():
        return {(module.__name__, attr): value
                for module in map(importlib.import_module,
                                  (f"scenlab.{m}" for m in
                                   tracer.TRACED_MODULES))
                for attr, value in vars(module).items()} | {
            ("ConstraintDistribution", attr): value
            for attr, value in vars(core.ConstraintDistribution).items()}

    untraced, before = verdicts(), names()
    spans = tracer.Tracer()
    with spans.installed():
        patched = {key for key, value in names().items()
                   if value is not before[key]}
        traced = verdicts()
    assert {("scenlab.core", "pac_curve"), ("scenlab.cli", "_RUNNERS"),
            ("scenlab.registry", "SYSTEMS"),
            ("ConstraintDistribution", "sample_tuple")} <= patched
    assert traced == untraced
    assert spans.totals("core.pac_curve")[0] > 0
    after = names()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
