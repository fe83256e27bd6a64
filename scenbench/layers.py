"""Per-layer metrics of a workload, from traced passes and side measurements.

Each figure is per pass (one run of the workload's command list).  Which
end-to-end metric each one should move, and on which workload:

* ``core.inner_mc.*`` -- ``satisfies`` calls made by ``pac_curve`` itself
  (outside sampling and ``decide``), their time, and the loop's own self
  time -> ``wall_s`` on curve-nested; no calls on curve-analytic.
* ``core.sample_tuple.*``, ``core.constraints_sampled``, ``core.sample.*``,
  ``rng.stream.*`` -> curve-analytic (smaller share on curve-nested, none on
  certify).
* ``core.analytic_violation.*``, ``pathplan.alg2_*`` -> curve-analytic.
* ``pathplan.alg1_shortest_path.*`` -> certify (and curve-nested at N=50);
  ``pathplan.barrier_satisfied.*``, ``counterexamples.convex_satisfies.*``
  -> curve-nested.
* ``geometry.segments_conflict.from_decide|from_satisfies.*`` -> certify and
  curve-nested; ``geometry.point_in_convex.*`` -> both;
  ``geometry.clip_*`` -> certify.
* ``counterexamples.decide.*`` (the ``alg_*`` functions) and
  ``memo.hit_ratio`` (scenlab's lru caches: ``sigma_polygon`` at present)
  -> ``wall_s`` and ``peak_rss_mb`` on certify.
* ``analyzers.*`` -> certify.
* ``cli.report_s`` (``main`` minus its runner) and ``codecs.encode.*`` ->
  ``wall_s`` everywhere, expected small.
* ``setup.import_s.*`` (``python -X importtime``) -> ``setup_s``.
* ``decide.<system>.s_per_call.N<n>`` -- ``system.decide`` timed from
  outside, untraced, on seeded tuples of N constraints.
* ``trace.*`` -- traced and untraced pass times and the tracing overhead.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from tracer import Tracer

CALLS_AND_SELF = (
    "core.pac_curve", "core.decide", "core.satisfies", "core.sample_tuple",
    "core.analytic_violation", "rng.stream", "rng.mix64",
    "pathplan.alg1_shortest_path", "pathplan.alg2_shortest_parabola",
    "pathplan.alg2_analytic_risk", "pathplan.barrier_satisfied",
    "counterexamples.convex_satisfies", "counterexamples.sigma_polygon",
    "geometry.segments_conflict", "geometry.point_in_convex",
    "geometry.clip_polygon", "geometry.clip_halfplane",
    "analyzers.check_shattered", "analyzers.satisfied_subset",
    "analyzers.certify_no_compression_scheme",
    "analyzers.find_compression_subtuple",
    "analyzers.verify_range_shattering_witness",
    "analyzers.adversarial_pac_experiment",
)
SEGMENT_PARENTS = {"from_decide": {"pathplan.alg1_shortest_path"},
                   "from_satisfies": {"pathplan.barrier_satisfied"}}
TRACED_PASSES = 2
IMPORT_PACKAGES = ("numpy", "scipy", "scenlab")
IMPORT_SAMPLES = 3
SWEEP_N = (10, 100, 1000)
SWEEP_N_ALG1 = (10, 50, 100)  # the visibility graph costs O(N^3)
SWEEP_MIN_S = 0.2
SWEEP_MIN_REPS = 3


@dataclass
class Profile:
    metrics: dict[str, tuple[float, str]]
    deterministic: bool
    spans: list[dict]


def profile(runner, seed: int, untraced_wall: float, root, env) -> Profile:
    """Per-layer metrics of ``runner``'s workload; ``untraced_wall`` is the
    median scaled pass time of its untraced passes."""
    metrics: dict[str, tuple[float, str]] = {}
    metrics.update(decide_sweep(seed))
    metrics.update(import_times(root, env))

    tracer = Tracer()
    per_pass = []
    counts = []
    walls = []
    with tracer.installed():
        for _ in range(TRACED_PASSES):
            tracer.reset()
            hits, misses = runner.memo_hits, runner.memo_misses
            wall = sum(t["scaled_s"] for t in runner.run_pass().values())
            hits = runner.memo_hits - hits
            misses = runner.memo_misses - misses
            per_pass.append(pass_metrics(tracer, runner, hits, misses))
            walls.append(wall)
            counts.append(tracer.counts())
    deterministic = all(c == counts[0] for c in counts)
    if not deterministic:
        print("scenbench: traced passes recorded different call counts",
              file=sys.stderr)

    for name, (value, unit) in per_pass[0].items():
        if unit != "count":  # counts are equal across passes (checked above)
            value = statistics.fmean(p[name][0] for p in per_pass)
        metrics[name] = (value, unit)
    traced_wall = statistics.median(walls)
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0,
                                       "ratio")
    spans = [{"parent": p, "callee": c, "calls": n, "total_s": t, "self_s": s}
             for (p, c), (n, t, s) in sorted(tracer.stats.items())]
    return Profile(metrics, deterministic, spans)


def pass_metrics(tracer: Tracer, runner, hits: int,
                 misses: int) -> dict[str, tuple[float, str]]:
    import scenlab.analyzers as analyzers

    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_AND_SELF:
        calls, _, self_s = tracer.totals(name)
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for label, parents in SEGMENT_PARENTS.items():
        calls, _, self_s = tracer.totals("geometry.segments_conflict", parents)
        out[f"geometry.segments_conflict.{label}.calls"] = (calls, "count")
        out[f"geometry.segments_conflict.{label}.self_s"] = (self_s, "s")

    calls, inner_s, _ = tracer.totals("core.satisfies", {"core.pac_curve"})
    out["core.inner_mc.satisfies_calls"] = (calls, "count")
    out["core.inner_mc.satisfies_s"] = (inner_s, "s")
    out["core.inner_mc.self_s"] = (tracer.totals("core.pac_curve")[2], "s")
    calls, _, self_s = tracer.totals("core.sample")
    out["core.constraints_sampled"] = (calls, "count")
    out["core.sample.self_s"] = (self_s, "s")

    # The alg_* decision functions of the four counterexample systems; a
    # call from one alg_* to another counts once.
    calls, self_s = 0, 0.0
    for (parent, callee), (n, _, s) in tracer.stats.items():
        if callee.startswith("counterexamples.alg_"):
            self_s += s
            if not parent.startswith("counterexamples.alg_"):
                calls += n
    out["counterexamples.decide.calls"] = (calls, "count")
    out["counterexamples.decide.self_s"] = (self_s, "s")
    out["memo.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")

    enumerated = sum(c.enumerated for c in runner.commands)
    out["analyzers.tuples_enumerated"] = (enumerated, "count")
    out["analyzers.budget_used"] = (
        enumerated / analyzers.DEFAULT_TUPLE_BUDGET, "ratio")

    main_s = tracer.totals("cli.main")[1]
    out["cli.report_s"] = (main_s - tracer.totals("cli.runner")[1], "s")
    calls, self_s = 0, 0.0
    for name in ("codecs.encode_constraint", "codecs.encode_decision"):
        n, _, s = tracer.totals(name)
        calls += n
        self_s += s
    out["codecs.encode.calls"] = (calls, "count")
    out["codecs.encode.self_s"] = (self_s, "s")
    return out


def decide_sweep(seed: int) -> dict[str, tuple[float, str]]:
    """Median seconds per ``system.decide`` call on seeded N-tuples."""
    from scenlab.registry import SYSTEMS
    from scenlab.rng import stream

    out = {}
    for index, (key, bundle) in enumerate(sorted(SYSTEMS.items())):
        sizes = SWEEP_N_ALG1 if key == "path-alg1" else SWEEP_N
        for n in sizes:
            vz = bundle.distribution.sample_tuple(stream(seed, 0xDEC1DE, index, n), n)
            samples = []
            spent = 0.0
            while len(samples) < SWEEP_MIN_REPS or spent < SWEEP_MIN_S:
                start = time.perf_counter()
                bundle.system.decide(vz)
                samples.append(time.perf_counter() - start)
                spent += samples[-1]
            out[f"decide.{key}.s_per_call.N{n}"] = (statistics.median(samples), "s")
    return out


def import_times(root, env) -> dict[str, tuple[float, str]]:
    """Median self import time per package from ``python -X importtime``."""
    totals = {p: [] for p in IMPORT_PACKAGES}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import scenlab.cli"],
            cwd=root, env=env, capture_output=True, text=True, check=True,
            timeout=120)
        sums = dict.fromkeys(IMPORT_PACKAGES, 0)
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            module = fields[2].strip()
            package = module.split(".", 1)[0]
            if package in sums:
                sums[package] += int(fields[0])
        for package, micros in sums.items():
            totals[package].append(micros / 1e6)
    return {f"setup.import_s.{p}": (statistics.median(v), "s")
            for p, v in totals.items()}
