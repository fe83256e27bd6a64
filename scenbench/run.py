"""scenlab benchmark: times whole CLI workloads and the layers under them.

Usage (from the repository root)::

    python3 scenbench/run.py --workload curve-nested --seed 0 --seconds 20 --trace 0
    python3 scenbench/run.py --workload certify --seed 3 --seconds 20 --trace 1
    python3 scenbench/run.py --record-refs     # rewrite refs/seed0.json

The program is imported from ``src/`` of the checkout holding this file and
driven in-process through ``scenlab.cli.main(argv)``, one thread, one command
list ("pass") at a time.  Passes repeat until ``--seconds`` have elapsed
(at least ``MIN_PASSES``); every pass checks every report, and its outputs
must match the first pass byte for byte.  Before each command the program's
memo caches are cleared, as a fresh CLI process would start.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``       median seconds of one pass (setup excluded)
* ``items_per_s``  work items of a pass / ``wall_s``: PAC trials on the curve
  workloads, tuples and subsets decided on ``certify``
* ``setup_s``      median over fresh interpreters of importing ``scenlab.cli``
  (which builds the registry)
* ``peak_rss_mb``  peak resident set size of the benchmark process

Times are scaled to a reference host speed measured by a fixed kernel timed
around each command and each set-up sample (``hostspeed.py`` says why); the
unscaled medians are printed and saved too.

``--trace 1`` runs the same untraced passes, then two traced passes, and
prints the per-layer metrics (see ``layers.py``); the two traced passes must
record identical call counts.  Failed commands (nonzero exit, ``passed:
false`` or a failed output check) are reported as ``failed`` out of
``attempted``; any failure makes the result incorrect.  A results file with
the environment, per-command times and the aggregated trace is written to
``scenbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs" / "seed0.json"
RESULTS = BENCH_DIR / "results"
REF_SEED = 0
MIN_PASSES = 3
SETUP_SAMPLES = 5


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Loading the program from this checkout
# ---------------------------------------------------------------------------


def require_sources() -> None:
    if not (SRC / "scenlab" / "__init__.py").is_file():
        log(f"scenbench: no scenlab sources under {SRC}; nothing to measure")
        sys.exit(2)


def load_program():
    """Import scenlab from ``src/`` of this checkout, or exit with code 2."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("scenlab.cli")
    origin = Path(sys.modules["scenlab"].__file__).resolve()
    if SRC not in origin.parents:
        log(f"scenbench: imported scenlab from {origin}, not from {SRC}")
        sys.exit(2)
    return cli


def memo_caches() -> list:
    """Every ``functools.lru_cache`` at module level in scenlab."""
    caches = []
    for name, module in sorted(sys.modules.items()):
        if name.startswith("scenlab."):
            caches += [value for value in vars(module).values()
                       if hasattr(value, "cache_clear")
                       and hasattr(value, "cache_info")
                       and value not in caches]
    return caches


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import hostspeed
before = hostspeed.python_kernel_seconds()
start = time.perf_counter()
import scenlab.cli
elapsed = time.perf_counter() - start
print(repr(elapsed), repr(before), repr(hostspeed.python_kernel_seconds()))
"""


def measure_setup() -> list[dict[str, float]]:
    """Seconds to import ``scenlab.cli`` in fresh interpreters, raw and
    scaled by the pure-Python reference kernel timed in the same
    interpreter just before and after.  One unrecorded warm-up run compiles
    bytecode and fills the file cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH_DIR)], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, check=True,
            timeout=120)
        raw, before, after = map(float, out.stdout.split()[-3:])
        if i:
            samples.append({"s": raw, "scaled_s": raw * hostspeed.scale(
                before, after, hostspeed.REF_PYTHON_KERNEL_S)})
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "scenlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def git_revision() -> str | None:
    """HEAD of the checkout read from ``.git`` files (no git process, no
    look outside the checkout); None when the checkout is not a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# Running passes
# ---------------------------------------------------------------------------


class Runner:
    """Runs a workload's command list and checks every output."""

    def __init__(self, cli, commands, refs: dict | None,
                 workdir: Path) -> None:
        self.cli = cli
        self.commands = commands
        self.refs = refs
        self.workdir = workdir
        self.caches = memo_caches()
        self.attempted = 0
        self.failed = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.outputs: dict[str, dict] = {}  # first pass, per label

    def run_pass(self) -> dict[str, dict[str, float]]:
        """Run every command once.  Per command label: raw seconds ``s`` and
        ``scaled_s``, scaled by the reference kernel timed just before and
        just after the command (outside its timed region)."""
        times = {}
        before = hostspeed.kernel_seconds()
        for command in self.commands:
            raw = self._run(command)
            after = hostspeed.kernel_seconds()
            times[command.label] = {
                "s": raw, "scaled_s": raw * hostspeed.scale(before, after)}
            before = after
        return times

    def _run(self, command) -> float:
        out = self.workdir / f"{command.label}.json"
        csv_path = self.workdir / f"{command.label}.csv"
        argv = [*command.argv, "--seed", str(command.seed), "--out", str(out)]
        if command.writes_csv:
            argv += ["--csv", str(csv_path)]
        for path in (out, csv_path):
            path.unlink(missing_ok=True)
        for cache in self.caches:
            cache.cache_clear()

        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        for cache in self.caches:
            info = cache.cache_info()
            self.memo_hits += info.hits
            self.memo_misses += info.misses

        problems = [] if code == 0 else [f"exit status {code}"]
        if not problems:
            problems = self._check(command, out, csv_path)
        if problems:
            self.failed += 1
            for problem in problems:
                log(f"scenbench: {command.label}: {problem}")
        return elapsed

    def _check(self, command, out: Path, csv_path: Path) -> list[str]:
        try:
            report = json.loads(out.read_text())
            csv_text = csv_path.read_text() if command.writes_csv else None
        except (OSError, ValueError) as exc:
            return [f"unreadable output: {exc}"]
        problems = workloads.check_report(command, report, csv_text)
        outputs = {"verdicts": report["verdicts"]}
        if csv_text is not None:
            outputs["csv"] = csv_text
        if outputs != self.outputs.setdefault(command.label, outputs):
            problems.append("output differs from the first pass")
        if self.refs is not None and self.refs.get(command.label) != outputs:
            problems.append("output differs from the seed-0 reference")
        return problems


def timed_passes(runner: Runner, seconds: float) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    return passes


def pass_time(times: dict[str, dict[str, float]], key: str = "scaled_s") -> float:
    return sum(t[key] for t in times.values())


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true",
                        help="record seed-0 reference outputs of every "
                             "workload into refs/seed0.json and exit")
    args = parser.parse_args(argv)
    if not args.record_refs and args.workload is None:
        parser.error("--workload is required")
    return args


@contextlib.contextmanager
def work_directory():
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record_refs(cli) -> int:
    refs = {}
    with work_directory() as workdir:
        for name, build in sorted(workloads.WORKLOADS.items()):
            runner = Runner(cli, build(REF_SEED), None, workdir)
            runner.run_pass()
            if runner.failed:
                log(f"scenbench: {name} fails its checks; no references written")
                return 1
            refs[name] = runner.outputs
    REFS.parent.mkdir(exist_ok=True)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    log(f"scenbench: wrote {REFS}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    require_sources()
    setup = [] if args.trace or args.record_refs else measure_setup()
    cli = load_program()
    if args.record_refs:
        return record_refs(cli)

    commands = workloads.WORKLOADS[args.workload](args.seed)
    refs = None
    if args.seed == REF_SEED:
        refs = json.loads(REFS.read_text())[args.workload]
    items = sum(c.items for c in commands)

    with work_directory() as workdir:
        runner = Runner(cli, commands, refs, workdir)
        passes = timed_passes(runner, args.seconds)
        unscaled_wall_s = statistics.median(pass_time(p, "s") for p in passes)
        wall_s = statistics.median(pass_time(p) for p in passes)
        if args.trace:
            profile = layers.profile(runner, args.seed, wall_s, ROOT,
                                     child_env())
            metrics = profile.metrics
            deterministic = profile.deterministic
        else:
            metrics = {
                "wall_s": (wall_s, "s"),
                "items_per_s": (items / wall_s, "1/s"),
                "setup_s": (statistics.median(t["scaled_s"] for t in setup),
                            "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
            }
            deterministic = True
            profile = None

    correct = runner.failed == 0 and deterministic
    fail_ratio = runner.failed / runner.attempted
    env = environment(args.seed)
    results = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_ratio": fail_ratio,
        "items_per_pass": items,
        "unscaled_wall_s": unscaled_wall_s,
        "passes": passes,
        "setup_samples": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if profile is not None:
        results["trace_spans"] = profile.spans
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n")

    print(f"# workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          f"  nproc {env['nproc']}  python {env['python']}"
          f"  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  rev {env['git_revision']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'unscaled wall_s':48s} {unscaled_wall_s:14.6g} s")
    if setup:
        print(f"{'unscaled setup_s':48s} "
              f"{statistics.median(t['s'] for t in setup):14.6g} s")
    print(f"{'fail_ratio':48s} {fail_ratio:14.6g} "
          f"({runner.failed}/{runner.attempted} commands)")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": results["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
