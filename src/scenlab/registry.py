"""The system registry: every shipped system is declared once, here.

Each :class:`SystemBundle` ties a system to its default distribution, its
random probe generator (used by the property suites) and its ``demo``
(run by ``scenlab demo --example <key>``).  The registry is keyed by
``system.name``; the CLI reads its keys and demos from here, so adding a
system means adding one bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import analyzers, codecs, core
from .core import ConstraintDistribution, ScenarioSystem
from .counterexamples import (
    ExclusionConstraint,
    atom_plus_uniform,
    convex_mixture_distribution,
    convex_system,
    geometric_exclusion_distribution,
    interval_system,
    min_system,
    sum_system,
)
from .pathplan import (
    Scene,
    alg2_compression,
    band_shatter_candidates,
    path_system_alg1,
    path_system_alg2,
    uniform_barrier_distribution,
)
from .rng import stream

MAX_PROBE_TUPLE_LEN = 6

_SCENE = Scene()


@dataclass(frozen=True)
class SystemBundle:
    system: ScenarioSystem
    distribution: ConstraintDistribution
    constraint_generator: Callable[[np.random.Generator], object]
    # demo(bundle, args) -> (verdicts, passed), args as parsed by the CLI
    demo: Callable[[SystemBundle, Any], tuple[dict, bool]]

    def tuple_generator(self, rng: np.random.Generator) -> tuple:
        n = int(rng.integers(0, MAX_PROBE_TUPLE_LEN + 1))
        return tuple(self.constraint_generator(rng) for _ in range(n))


# ---------------------------------------------------------------------------
# Demos (each returns (verdicts, passed))
# ---------------------------------------------------------------------------


def _demo_convex(bundle: SystemBundle, args) -> tuple[dict, bool]:
    report = analyzers.verify_range_shattering_witness(args.k)
    return {"range_shattering": report.to_jsonable()}, report.passed


def _demo_sum(bundle: SystemBundle, args) -> tuple[dict, bool]:
    base = [ExclusionConstraint(1 << j) for j in range(args.k)]
    report = analyzers.certify_no_compression_scheme(bundle.system, base,
                                                     args.capacity)
    return {"scheme_counting": report.to_jsonable(codecs.encode_constraint)}, \
        report.impossible


def _demo_min(bundle: SystemBundle, args) -> tuple[dict, bool]:
    d = args.capacity
    vz = tuple(ExclusionConstraint(a) for a in range(d + 1))
    indices = analyzers.find_compression_subtuple(bundle.system, vz, d)
    verdict = {
        "tuple": [codecs.encode_constraint(z) for z in vz],
        "capacity": d,
        "subtuple_indices": list(indices) if indices is not None else None,
        "none_certificate": indices is None,
    }
    return {"map_search": verdict}, indices is None


def _demo_interval(bundle: SystemBundle, args) -> tuple[dict, bool]:
    curve = core.pac_curve(bundle.system, bundle.distribution, args.eps,
                           [args.N], args.trials, seed=args.seed)
    q = curve.rows[0].q_hat
    return {"pac_curve": curve.to_jsonable(),
            "q_hat": q, "theoretical_lower_bound": 0.5}, q >= 0.5


def _demo_path_alg1(bundle: SystemBundle, args) -> tuple[dict, bool]:
    """Band shattering plus the adversarial experiment."""
    shatter = analyzers.check_shattered(
        bundle.system, band_shatter_candidates(args.k), max_len=args.k)
    adversarial = analyzers.adversarial_pac_experiment(
        bundle.system, band_shatter_candidates(2 * args.k), n=args.k,
        epsilon=args.eps, trials=args.trials, seed=args.seed)
    passed = (shatter.shattered and adversarial.q_hat == 1.0
              and adversarial.min_risk >= 0.5)
    return {"shatter": shatter.to_jsonable(codecs.encode_constraint),
            "adversarial": adversarial.to_jsonable()}, passed


def _demo_path_alg2(bundle: SystemBundle, args) -> tuple[dict, bool]:
    """The capacity-1 compression map reproduces every sampled decision."""
    mismatches = []
    for trial in range(args.trials):
        rng = stream(args.seed, trial)
        n = int(rng.integers(0, args.max_n + 1))
        vz = bundle.distribution.sample_tuple(rng, n)
        sub = tuple(vz[i] for i in alg2_compression(_SCENE, vz))
        if bundle.system.decide(sub) != bundle.system.decide(vz):
            mismatches.append(trial)
    return {"compression_idempotence": {
        "trials": args.trials, "max_n": args.max_n,
        "mismatched_trials": mismatches}}, not mismatches


def _build_registry() -> dict[str, SystemBundle]:
    geometric = geometric_exclusion_distribution()
    interval_dist = atom_plus_uniform()
    barrier_dist = uniform_barrier_distribution(_SCENE)
    barrier_dist_mc = uniform_barrier_distribution(_SCENE, analytic=False)
    convex_dist = convex_mixture_distribution()
    bundles = [
        SystemBundle(convex_system, convex_dist, convex_dist.sample,
                     _demo_convex),
        SystemBundle(sum_system, geometric, geometric.sample, _demo_sum),
        SystemBundle(min_system, geometric, geometric.sample, _demo_min),
        SystemBundle(interval_system, interval_dist, interval_dist.sample,
                     _demo_interval),
        SystemBundle(path_system_alg1(_SCENE), barrier_dist_mc,
                     barrier_dist_mc.sample, _demo_path_alg1),
        SystemBundle(path_system_alg2(_SCENE), barrier_dist,
                     barrier_dist.sample, _demo_path_alg2),
    ]
    return {b.system.name: b for b in bundles}


SYSTEMS: dict[str, SystemBundle] = _build_registry()


def get_bundle(key: str) -> SystemBundle:
    try:
        return SYSTEMS[key]
    except KeyError:
        raise KeyError(f"unknown system {key!r}; known: {sorted(SYSTEMS)}") \
            from None
