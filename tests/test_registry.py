"""The registry table: its bundles refer to the module values of the
systems and distributions, and its demos refuse oversized walks by the
counts the walks themselves check."""

import pytest

from scenlab import analyzers, counterexamples, pathplan
from scenlab.registry import SYSTEMS

MODULE_VALUES = {
    "convex-vc": (counterexamples.convex_system,
                  counterexamples.convex_mixture_distribution),
    "sum-no-scheme": (counterexamples.sum_system,
                      counterexamples.geometric_exclusion_distribution),
    "min-no-map": (counterexamples.min_system,
                   counterexamples.geometric_exclusion_distribution),
    "interval-not-pac": (counterexamples.interval_system,
                         counterexamples.atom_plus_uniform),
    "path-alg1": (pathplan.path_system_alg1, None),
    "path-alg2": (pathplan.path_system_alg2,
                  pathplan.uniform_barrier_distribution),
}


def test_bundles_are_the_module_values():
    assert list(SYSTEMS) == list(MODULE_VALUES)
    for key, (system, distribution) in MODULE_VALUES.items():
        bundle = SYSTEMS[key]
        assert bundle.system is system and system.name == key
        if distribution is not None:
            assert bundle.distribution is distribution
        assert bundle.constraint_generator is bundle.distribution.sample


def test_path_alg1_measure_is_the_barrier_measure_without_its_evaluator():
    barrier = pathplan.uniform_barrier_distribution
    dist = SYSTEMS["path-alg1"].distribution
    assert dist.analytic_violation is None
    assert barrier.analytic_violation is not None
    assert (dist.sample, dist.sample_values, dist.constraint_class,
            dist.dominating) == (barrier.sample, barrier.sample_values,
                                 barrier.constraint_class, barrier.dominating)


@pytest.mark.parametrize("key, inputs", [
    ("path-alg1", {"k": 3, "trials": 2}),
    ("path-alg1", {"k": 4, "trials": 2}),
    ("sum-no-scheme", {"k": 4}),
    ("sum-no-scheme", {"k": 6, "capacity": 2}),
    ("min-no-map", {"capacity": 1}),
    ("min-no-map", {"capacity": 3}),
])
def test_demo_budget_precheck_forms_the_walks_counts(key, inputs,
                                                     monkeypatch):
    """Each exhaustive demo checks the tuple budget before building its
    constraints, with its own formula for the walk's tuple counts; the walk
    then checks the budget again with the analyzer's formula.  Both must
    form the same counts, or the precheck refuses a walk the analyzer
    admits, or admits one it refuses."""
    checked = []
    check = analyzers.check_tuple_budget

    def record(counts):
        counts = list(counts)
        checked.append(counts)
        check(counts)
    monkeypatch.setattr(analyzers, "check_tuple_budget", record)
    bundle = SYSTEMS[key]
    bundle.demo(bundle, 0, **inputs)
    precheck, walk = checked
    assert precheck == walk
