"""The system registry: one literal table of the shipped systems.

Systems and distributions are module values of ``counterexamples`` and
``pathplan``.  Each :class:`SystemBundle` of ``SYSTEMS`` (keyed by
``system.name``) ties a system to its constraint classes (the kinds the CLI
accepts for it), its default distribution, its random probe generator (the
distribution's ``sample``, for the property suites) and its ``demo`` (run by
``scenlab demo --example <key>``).  The CLI and the tests read them here, so
adding a system means adding one row.  The demos that certify import
``analyzers`` when called, so loading the table does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from . import core
from .core import ConstraintDistribution, ScenarioSystem
from .counterexamples import (
    BandConstraint,
    ExclusionConstraint,
    MembershipConstraint,
    PolygonConstraint,
    atom_plus_uniform,
    convex_mixture_distribution,
    convex_system,
    geometric_exclusion_distribution,
    interval_system,
    min_system,
    sum_system,
)
from .pathplan import (
    SCENE,
    BarrierConstraint,
    Parabola,
    alg2_binding,
    band_shatter_candidates,
    path_system_alg1,
    path_system_alg2,
    uniform_barrier_distribution,
)
from .rng import streams

if TYPE_CHECKING:
    import numpy as np

MAX_PROBE_TUPLE_LEN = 6


@dataclass(frozen=True)
class SystemBundle:
    system: ScenarioSystem
    constraint_types: tuple[type, ...]  # the constraint classes it decides
    distribution: ConstraintDistribution
    constraint_generator: Callable[[np.random.Generator], object]
    # demo(bundle, seed, *, <inputs>) -> (verdicts, passed); the keyword-only
    # inputs, with int or float defaults, become the CLI's ``demo`` flags
    demo: Callable[..., tuple[dict, bool]]

    def tuple_generator(self, rng: np.random.Generator) -> tuple:
        n = int(rng.integers(0, MAX_PROBE_TUPLE_LEN + 1))
        return tuple(self.constraint_generator(rng) for _ in range(n))


# ---------------------------------------------------------------------------
# Demos (each returns (verdicts, passed))
# ---------------------------------------------------------------------------


def _demo_convex(bundle: SystemBundle, seed: int, *,
                 k: int = 4) -> tuple[dict, bool]:
    from . import analyzers

    report = analyzers.verify_range_shattering_witness(k)
    return {"range_shattering": report.to_jsonable()}, report.passed


def _demo_sum(bundle: SystemBundle, seed: int, *, k: int = 4,
              capacity: int = 1) -> tuple[dict, bool]:
    from . import analyzers

    if k < 1:
        raise ValueError("k must be >= 1")
    # Every subset is decided: refuse before building k big-integer weights.
    analyzers.check_tuple_budget(analyzers.subset_counts(k, k))
    base = [ExclusionConstraint(1 << j) for j in range(k)]
    report = analyzers.certify_no_compression_scheme(bundle.system, base,
                                                     capacity)
    return {"scheme_counting": report.to_jsonable()}, report.impossible


def _demo_min(bundle: SystemBundle, seed: int, *,
              capacity: int = 1) -> tuple[dict, bool]:
    from . import analyzers

    # Refuse an oversized search before building its capacity + 1 constraints.
    analyzers.check_tuple_budget(analyzers.subset_counts(capacity + 1,
                                                         capacity))
    vz = tuple(ExclusionConstraint(a) for a in range(capacity + 1))
    report = analyzers.search_compression_map(bundle.system, vz, capacity)
    return {"map_search": report.to_jsonable()}, report.none_certificate


def _demo_interval(bundle: SystemBundle, seed: int, *, eps: float = 0.25,
                   N: int = 10, trials: int = 200) -> tuple[dict, bool]:
    curve = core.pac_curve(bundle.system, bundle.distribution, eps, [N],
                           trials, seed=seed)
    q = curve.rows[0].q_hat
    return {"pac_curve": curve.to_jsonable(),
            "q_hat": q, "theoretical_lower_bound": 0.5}, q >= 0.5


def _demo_path_alg1(bundle: SystemBundle, seed: int, *, k: int = 4,
                    eps: float = 0.25, trials: int = 200) -> tuple[dict, bool]:
    """Adversarial experiment (which checks eps, trials), then shattering."""
    from . import analyzers

    # Refuse an oversized walk before building its 3k band constraints.
    analyzers.check_tuple_budget(k ** r for r in range(k + 1))
    adversarial = analyzers.adversarial_pac_experiment(
        bundle.system, band_shatter_candidates(2 * k), n=k,
        epsilon=eps, trials=trials, seed=seed)
    shatter = analyzers.check_shattered(
        bundle.system, band_shatter_candidates(k), max_len=k)
    passed = (shatter.shattered and adversarial.q_hat == 1.0
              and adversarial.min_risk >= 0.5)
    return {"shatter": shatter.to_jsonable(),
            "adversarial": adversarial.to_jsonable()}, passed


def _demo_path_alg2(bundle: SystemBundle, seed: int, *, trials: int = 200,
                    max_n: int = 20) -> tuple[dict, bool]:
    """The binding angle alone decides every sampled tuple's parabola (the
    angles are ``sample_tuple``'s draws, by the ``sample_values`` contract).
    The angles stay the float64 array that numpy drew."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    mismatches = []
    for trial, rng in enumerate(streams(seed, trials)):
        n = int(rng.integers(0, max_n + 1))
        thetas = bundle.distribution.sample_values(rng, n)
        index, height = alg2_binding(SCENE, thetas)
        kept = [] if index is None else [thetas[index]]
        if bundle.system.decide_values(kept) != Parabola(height):
            mismatches.append(trial)
    return {"compression_idempotence": {
        "trials": trials, "max_n": max_n,
        "mismatched_trials": mismatches}}, not mismatches


SYSTEMS: dict[str, SystemBundle] = {
    "convex-vc": SystemBundle(
        convex_system, (PolygonConstraint, BandConstraint),
        convex_mixture_distribution, convex_mixture_distribution.sample,
        _demo_convex),
    "sum-no-scheme": SystemBundle(
        sum_system, (ExclusionConstraint,), geometric_exclusion_distribution,
        geometric_exclusion_distribution.sample, _demo_sum),
    "min-no-map": SystemBundle(
        min_system, (ExclusionConstraint,), geometric_exclusion_distribution,
        geometric_exclusion_distribution.sample, _demo_min),
    "interval-not-pac": SystemBundle(
        interval_system, (MembershipConstraint,), atom_plus_uniform,
        atom_plus_uniform.sample, _demo_interval),
    # The barrier measure's analytic risk takes parabolas only, so alg1's
    # risk comes from nested Monte Carlo.
    "path-alg1": SystemBundle(
        path_system_alg1, (BarrierConstraint,),
        replace(uniform_barrier_distribution, analytic_violation=None),
        uniform_barrier_distribution.sample, _demo_path_alg1),
    "path-alg2": SystemBundle(
        path_system_alg2, (BarrierConstraint,), uniform_barrier_distribution,
        uniform_barrier_distribution.sample, _demo_path_alg2),
}


def get_bundle(key: str) -> SystemBundle:
    try:
        return SYSTEMS[key]
    except KeyError:
        raise KeyError(f"unknown system {key!r}; known: {sorted(SYSTEMS)}") \
            from None
