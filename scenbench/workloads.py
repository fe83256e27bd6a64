"""The benchmark's workloads: CLI command lists, output checks and work counts.

Each workload is a list of ``scenlab`` CLI invocations built from the
workload seed.  Every command carries a check of its JSON report (and CSV,
for curves) that holds at any seed, a count of the work items it completes
(PAC trials, or tuples and subsets decided) and the size of its exhaustive
enumeration.  At seed 0 the reports and CSV bytes are also compared with
references recorded from the program (``refs/seed0.json``).

Why these three workloads:

* ``curve-nested`` -- PAC curves of the two systems without analytic risk,
  so each trial runs a 2000-sample nested Monte Carlo loop of ``satisfies``
  (barrier crossing via ``segments_conflict``, polygon membership via
  ``point_in_convex``); alg1 also decides on large visibility graphs (N=50).
* ``curve-analytic`` -- PAC curves of the four systems with analytic risk:
  the inner loop and geometry do no work, scalar constraint sampling and the
  analytic risk evaluators (``brentq`` for alg2) dominate.
* ``certify`` -- no sampling at all: exhaustive enumeration in ``analyzers``
  (shattering, scheme counting, map search, range-shattering witness) with
  alg1 deciding many short tuples and ``clip_polygon`` on a seeded mixed
  polygon/band base.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

EPS = "0.1"
HOEFFDING_DELTA = 0.05  # the radius every PAC row must carry
CSV_HEADER = ["N", "q_hat", "ci_radius", "epsilon", "trials", "seed"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--seed``, ``--out`` and ``--csv`` are added by
    the runner."""

    label: str
    argv: tuple[str, ...]
    seed: int
    check: Callable[[dict, str | None], list[str]]
    items: int
    enumerated: int = 0
    writes_csv: bool = False


# ---------------------------------------------------------------------------
# Curve workloads
# ---------------------------------------------------------------------------


def _curve(label: str, system: str, n_list: tuple[int, ...], trials: int,
           nested: bool, seed: int, min_q_hat: float = 0.0) -> Command:
    argv = ("risk-curve", "--system", system, "--eps", EPS,
            "--n-list", ",".join(map(str, n_list)), "--trials", str(trials))

    def check(report: dict, csv_text: str | None) -> list[str]:
        curve = report["verdicts"]["curve"]
        problems = []
        if [row["N"] for row in curve["rows"]] != list(n_list):
            problems.append("curve rows do not follow --n-list")
        if (curve["trials"], curve["seed"], curve["epsilon"]) != \
                (trials, seed, float(EPS)):
            problems.append("curve echoes the wrong trials/seed/epsilon")
        if curve["nested_mc"] is not nested:
            problems.append(f"nested_mc should be {nested}")
        radius = math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * trials))
        for row in curve["rows"]:
            exceed = row["q_hat"] * trials
            if abs(exceed - round(exceed)) > 1e-9 or not 0 <= exceed <= trials:
                problems.append(f"q_hat {row['q_hat']} is not a trial fraction")
            if row["q_hat"] < min_q_hat:
                problems.append(f"q_hat {row['q_hat']} below {min_q_hat}")
            if not math.isclose(row["ci_radius"], radius, rel_tol=1e-12):
                problems.append(f"ci_radius {row['ci_radius']} != {radius}")
        rows = list(csv.reader(io.StringIO(csv_text or "")))
        expected = [CSV_HEADER] + [
            [str(r["N"]), repr(r["q_hat"]), repr(r["ci_radius"]), EPS,
             str(trials), str(seed)] for r in curve["rows"]]
        if rows != expected:
            problems.append("CSV does not match the JSON curve")
        return problems

    return Command(label, argv, seed, check, items=trials * len(n_list),
                   writes_csv=True)


def _path_alg2_demo(trials: int, max_n: int, seed: int) -> Command:
    argv = ("demo", "--example", "path-alg2", "--trials", str(trials),
            "--max-n", str(max_n))

    def check(report: dict, _csv) -> list[str]:
        verdict = report["verdicts"]["compression_idempotence"]
        if verdict["trials"] != trials or verdict["mismatched_trials"]:
            return ["alg2 compression is not idempotent on every trial"]
        return []

    return Command("demo-path-alg2", argv, seed, check, items=trials)


def curve_nested(seed: int) -> list[Command]:
    # A batch of short jobs on consecutive seeds rather than one long job per
    # system: the host-speed reference is timed between commands, so it
    # tracks the host better when no command runs for seconds.
    jobs = 4
    return [
        _curve(f"{system}#{j}", system, (5, 20, 50), trials, True,
               jobs * seed + j)
        for system, trials in (("path-alg1", 3), ("convex-vc", 10))
        for j in range(jobs)]


def curve_analytic(seed: int) -> list[Command]:
    n_list = (10, 100, 1000)
    return [
        _curve("path-alg2", "path-alg2", n_list, 150, False, seed),
        _curve("sum-no-scheme", "sum-no-scheme", n_list, 150, False, seed),
        _curve("min-no-map", "min-no-map", n_list, 150, False, seed),
        # The interval system is not PAC: every decision has risk 1/2.
        _curve("interval-not-pac", "interval-not-pac", n_list, 150, False,
               seed, min_q_hat=0.5),
        _path_alg2_demo(500, 200, seed),
    ]


# ---------------------------------------------------------------------------
# Certification workload
# ---------------------------------------------------------------------------


def _binomial_prefix(n: int, d: int) -> int:
    return sum(math.comb(n, r) for r in range(min(d, n) + 1))


def _path_alg1_demo(k: int, seed: int, trials: int = 200) -> Command:
    tuples = sum(k ** r for r in range(k + 1))

    def check(report: dict, _csv) -> list[str]:
        shatter = report["verdicts"]["shatter"]
        adversarial = report["verdicts"]["adversarial"]
        problems = []
        if shatter["verdict"] != "shattered_up_to_L" or \
                shatter["tuples_checked"] != tuples:
            problems.append("alg1 band family is not shattered up to k")
        if adversarial["q_hat"] != 1.0 or adversarial["min_risk"] < 0.5 or \
                adversarial["trials"] != trials:
            problems.append("alg1 adversarial q_hat is not 1")
        return problems

    return Command("demo-path-alg1", ("demo", "--example", "path-alg1",
                                      "--k", str(k)), seed,
                   check, items=tuples + trials, enumerated=tuples)


def _convex_demo(k: int, seed: int) -> Command:
    def check(report: dict, _csv) -> list[str]:
        verdict = report["verdicts"]["range_shattering"]
        if not verdict["all_realized"] or verdict["subsets_checked"] != 1 << k:
            return ["convex range-shattering witness not fully realized"]
        return []

    return Command("demo-convex-vc", ("demo", "--example", "convex-vc",
                                      "--k", str(k)), seed,
                   check, items=1 << k, enumerated=1 << k)


def _sum_demo(k: int, capacity: int, seed: int) -> Command:
    def check(report: dict, _csv) -> list[str]:
        verdict = report["verdicts"]["scheme_counting"]
        if verdict["distinct_decisions"] != 1 << k or not verdict["impossible"] \
                or verdict["compressed_input_bound"] != _binomial_prefix(k, capacity):
            return ["sum system does not realize 2^k distinct decisions"]
        return []

    return Command("demo-sum-no-scheme",
                   ("demo", "--example", "sum-no-scheme", "--k", str(k),
                    "--capacity", str(capacity)), seed,
                   check, items=1 << k, enumerated=1 << k)


def _min_demo(capacity: int, seed: int) -> Command:
    # No subtuple works, so every subtuple of length <= d of the d+1 tuple is
    # decided (plus the full tuple once for the target).
    subtuples = _binomial_prefix(capacity + 1, capacity)

    def check(report: dict, _csv) -> list[str]:
        verdict = report["verdicts"]["map_search"]
        if not verdict["none_certificate"] or verdict["subtuple_indices"] is not None:
            return ["min system unexpectedly has a compression subtuple"]
        return []

    return Command("demo-min-no-map", ("demo", "--example", "min-no-map",
                                       "--capacity", str(capacity)), seed,
                   check, items=subtuples + 1, enumerated=subtuples)


def compression_base(seed: int, polygons: int = 8,
                     bands: int = 4) -> list[dict]:
    """Seeded mixed base: distinct sigma(m, i) polygons (m <= 4) and bands."""
    rng = np.random.default_rng([seed, 0x5CE7])
    pairs = [(m, i) for m in range(1, 5) for i in range(1, m + 1)]
    chosen = sorted(pairs[j] for j in rng.permutation(len(pairs))[:polygons])
    levels = sorted(float(y) for y in rng.uniform(0.0, 1.0, size=bands))
    return ([{"polygon": [m, i]} for m, i in chosen]
            + [{"band": y} for y in levels])


def _compression(seed: int, capacity: int = 2) -> Command:
    base = compression_base(seed)
    k = len(base)
    bound = _binomial_prefix(k, capacity)

    def check(report: dict, _csv) -> list[str]:
        verdict = report["verdicts"]["scheme_counting"]
        problems = []
        if verdict["base_set"] != base or verdict["capacity"] != capacity:
            problems.append("scheme counting echoes the wrong base")
        if verdict["compressed_input_bound"] != bound:
            problems.append(f"compressed_input_bound != {bound}")
        if not 1 <= verdict["distinct_decisions"] <= 1 << k:
            problems.append("distinct_decisions outside [1, 2^k]")
        if verdict["impossible"] != (verdict["distinct_decisions"] > bound):
            problems.append("impossible flag disagrees with the counts")
        return problems

    return Command("compression-convex-vc",
                   ("compression", "--system", "convex-vc",
                    "--capacity", str(capacity), "--base", json.dumps(base)),
                   seed, check, items=1 << k, enumerated=1 << k)


def certify(seed: int) -> list[Command]:
    return [
        _path_alg1_demo(5, seed),
        _convex_demo(9, seed),
        _sum_demo(18, 3, seed),
        _min_demo(16, seed),
        _compression(seed),
    ]


WORKLOADS: dict[str, Callable[[int], list[Command]]] = {
    "curve-nested": curve_nested,
    "curve-analytic": curve_analytic,
    "certify": certify,
}


def check_report(command: Command, report: dict,
                 csv_text: str | None) -> list[str]:
    """Checks common to every command, then the command's own."""
    if report.get("passed") is not True:
        return ["report says passed: false"]
    if report.get("seed") != command.seed:
        return [f"report echoes seed {report.get('seed')}, not {command.seed}"]
    return command.check(report, csv_text)
