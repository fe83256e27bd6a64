"""Framework tests: risk estimation, PAC curves, consistency and stability."""

import dataclasses
import itertools
import math

import pytest

from scenlab import core
from scenlab.core import (
    NESTED_MC_SAMPLES,
    ConstraintDistribution,
    PacCurve,
    PacRow,
    RiskEstimate,
    ScenarioSystem,
    check_consistency,
    check_stability,
    hoeffding_radius,
    pac_curve,
    satisfies_all,
    violation_probability_mc,
)
from scenlab.registry import get_bundle
from scenlab.rng import stream

# A tiny synthetic system on integers: constraints are thresholds, decisions
# are the maximal sampled threshold (0 for the empty tuple); x satisfies z
# iff x >= z.  Consistent and stable by construction.
max_system = ScenarioSystem(
    name="max-threshold",
    decide=lambda vz: max(vz, default=0),
    satisfies=lambda x, z: x >= z,
)

# A deliberately broken variant returning one less than the max.
broken_system = ScenarioSystem(
    name="broken-threshold",
    decide=lambda vz: max(vz, default=0) - 1,
    satisfies=lambda x, z: x >= z,
)

# Unstable variant: the decision also counts the sample size.
counting_system = ScenarioSystem(
    name="counting-threshold",
    decide=lambda vz: max(vz, default=0) + len(vz),
    satisfies=lambda x, z: x >= z,
)


def threshold_tuples(rng):
    n = int(rng.integers(0, 5))
    return tuple(int(rng.integers(0, 10)) for _ in range(n))


def one_threshold(rng):
    return int(rng.integers(0, 10))


def test_hoeffding_radius_value_and_validation():
    # Direct evaluation of sqrt(ln(2/delta) / (2n)).
    assert hoeffding_radius(500) == pytest.approx(
        math.sqrt(math.log(40.0) / 1000.0), rel=1e-15)
    assert hoeffding_radius(100) > hoeffding_radius(1000)
    with pytest.raises(ValueError):
        hoeffding_radius(0)


def test_risk_estimate_validation_and_interval():
    est = RiskEstimate(0.9, 0.2, 100, 0)
    assert est.interval() == (0.9 - 0.2, 1.0)
    with pytest.raises(ValueError):
        RiskEstimate(1.5, 0.0, 10, 0)


def test_pac_curve_row_validation():
    rows = (PacRow(5, 0.5, 0.1), PacRow(1, 0.5, 0.1))
    with pytest.raises(ValueError):
        PacCurve(0.1, 10, 0, rows)
    with pytest.raises(ValueError):
        PacCurve(0.1, 10, 0, (PacRow(1, 1.5, 0.1),))


def test_pac_curve_csv_contract():
    curve = PacCurve(0.25, 200, 7, (PacRow(1, 0.5, 0.1), PacRow(10, 0.125, 0.1)))
    lines = curve.to_csv().splitlines()
    assert lines[0] == "N,q_hat,ci_radius,epsilon,trials,seed"
    assert lines[1] == "1,0.5,0.1,0.25,200,7"
    assert curve.q_hat(10) == 0.125
    with pytest.raises(KeyError):
        curve.q_hat(3)


def test_satisfies_all():
    assert satisfies_all(max_system, 5, (1, 2, 5))
    assert not satisfies_all(max_system, 5, (1, 7))
    assert satisfies_all(max_system, -100, ())


def test_check_consistency_pass_and_counterexample():
    report = check_consistency(max_system, threshold_tuples, trials=200, seed=3)
    assert report.passed and report.trials_run == 200

    report = check_consistency(broken_system, threshold_tuples, trials=200, seed=3)
    assert report.status == "counterexample"
    assert report.counterexample is not None
    x = broken_system.decide(report.counterexample)
    assert not satisfies_all(broken_system, x, report.counterexample)


def test_check_stability_statuses():
    assert check_stability(max_system, threshold_tuples, one_threshold,
                           trials=300, seed=1).passed

    report = check_stability(counting_system, threshold_tuples, one_threshold,
                             trials=300, seed=1)
    assert report.status == "counterexample"
    x = counting_system.decide(report.counterexample)
    assert counting_system.satisfies(x, report.extra_constraint)
    x_after = counting_system.decide(
        report.counterexample + (report.extra_constraint,))
    assert x_after != x
    assert (report.decision_before, report.decision_after) == (x, x_after)

    report = check_stability(broken_system, threshold_tuples, one_threshold,
                             trials=300, seed=1)
    assert report.status == "inconsistent"


def test_consistency_probes_the_stability_tuples_and_nothing_more(
        monkeypatch):
    # The probes reset one generator for every trial; a new generator per
    # trial, each that trial's stream, keeps every trial's end state.
    monkeypatch.setattr(core, "streams", lambda seed, *shape: (
        stream(seed, *index) for index in itertools.product(*map(range, shape))))

    def recording(drawn):
        def draw(rng):
            vz = threshold_tuples(rng)
            drawn.append((vz, rng, rng.bit_generator.state))
            return vz
        return draw

    def forbidden(rng):
        raise AssertionError("extra constraint drawn")

    probed, stability_probed = [], []
    check_consistency(max_system, recording(probed), trials=100, seed=4)
    check_stability(max_system, recording(stability_probed), one_threshold,
                    trials=100, seed=4)
    assert [vz for vz, _, _ in probed] == \
        [vz for vz, _, _ in stability_probed]
    # No trial's stream moved past its tuple, so no extra constraint was
    # drawn from it.
    assert all(rng.bit_generator.state == state for _, rng, state in probed)

    # Stability checks consistency first and draws no extra constraint for
    # an inconsistent tuple: broken_system fails on any non-empty tuple.
    report = check_stability(broken_system, lambda rng: (1,), forbidden,
                             trials=10, seed=4)
    assert (report.status, report.trials_run) == ("inconsistent", 1)


def test_violation_probability_mc_estimates_known_probability():
    # Constraints are uniform on {0,...,9}; x = 4 violates thresholds 5..9.
    dist = ConstraintDistribution(sample=one_threshold)
    est = violation_probability_mc(max_system, 4, dist, samples=20000, seed=0)
    assert not est.analytic
    assert est.estimate == pytest.approx(0.5, abs=0.02)
    assert est.confidence_radius == hoeffding_radius(20000)


def test_violation_probability_mc_analytic_bypass():
    dist = ConstraintDistribution(sample=one_threshold,
                                  analytic_violation=lambda x: (9 - x) / 10.0)
    est = violation_probability_mc(max_system, 4, dist, samples=10, seed=0)
    assert est.analytic and est.estimate == 0.5 and est.confidence_radius == 0.0

    bad = ConstraintDistribution(sample=one_threshold,
                                 analytic_violation=lambda x: 2.0)
    with pytest.raises(ValueError):
        violation_probability_mc(max_system, 4, bad, samples=10)


def test_pac_curve_validation_errors():
    dist = ConstraintDistribution(sample=one_threshold,
                                  analytic_violation=lambda x: (9 - x) / 10.0)
    with pytest.raises(ValueError):
        pac_curve(max_system, dist, 0.0, [1], 10)
    with pytest.raises(ValueError):
        pac_curve(max_system, dist, 0.5, [], 10)
    with pytest.raises(ValueError):
        pac_curve(max_system, dist, 0.5, [1, 1], 10)
    with pytest.raises(ValueError):
        pac_curve(max_system, dist, 0.5, [-1, 3], 10)
    # N entries are not truncated or read as booleans.
    with pytest.raises(ValueError):
        pac_curve(max_system, dist, 0.5, [2.7], 10)
    with pytest.raises(ValueError):
        pac_curve(max_system, dist, 0.5, [True, 3], 10)
    # Analytic risks are range-checked in curves, as in single estimates.
    bad = ConstraintDistribution(sample=one_threshold,
                                 analytic_violation=lambda x: 1.5)
    with pytest.raises(ValueError):
        pac_curve(max_system, bad, 0.5, [1], 10)


def test_pac_curve_analytic_matches_direct_enumeration():
    # With thresholds uniform on {0,...,9} the decision after N draws is their
    # max m; risk (9 - m)/10 exceeds eps = 0.25 iff m <= 6.  The probability
    # of that event is (0.7)^N, so q_hat should approach it.
    dist = ConstraintDistribution(sample=one_threshold,
                                  analytic_violation=lambda x: (9 - x) / 10.0)
    curve = pac_curve(max_system, dist, 0.25, [1, 5, 20], trials=2000, seed=9)
    assert not curve.nested_mc
    for row, expected in zip(curve.rows, (0.7, 0.7 ** 5, 0.7 ** 20)):
        assert row.q_hat == pytest.approx(expected, abs=2 * row.ci_radius)


@pytest.mark.parametrize("key, lane", [
    ("path-alg1", "batch"), ("path-alg1", "scalar"),
    ("convex-vc", "batch"), ("convex-vc", "scalar"),
    ("interval-not-pac", "scalar"),  # no satisfies_values: sample_tuple
])
def test_nested_pac_curve_classifies_as_the_full_inner_draws(key, lane):
    """On the registry measure without its analytic evaluator, every trial
    of a curve is classified as the fraction of all ``NESTED_MC_SAMPLES``
    inner draws on its stream classifies it, for epsilon on the
    1 / NESTED_MC_SAMPLES grid and off it, at the grid's last step and at
    the count of one trial.  The scalar lane drops ``satisfies_values``."""
    bundle = get_bundle(key)
    system = bundle.system
    if lane == "scalar":
        system = dataclasses.replace(system, satisfies_values=None)
    dist = dataclasses.replace(bundle.distribution, analytic_violation=None)
    n_list, trials, seed = [0, 2, 6], 5, 4
    counts = []  # per N, the violations among each trial's full inner draws
    for n_index, n in enumerate(n_list):
        per_trial = []
        for trial in range(trials):
            rng = stream(seed, n_index, trial)
            x = system.decide(dist.sample_tuple(rng, n))
            inner = dist.sample_tuple(rng, NESTED_MC_SAMPLES)
            per_trial.append(sum(not system.satisfies(x, z) for z in inner))
        counts.append(per_trial)
    every = sum(counts, [])
    if key == "interval-not-pac":  # risk exactly 1/2 straddles epsilon 0.5
        assert {c > NESTED_MC_SAMPLES // 2 for c in every} == {True, False}
    drawn = sorted(c for c in every if 0 < c < NESTED_MC_SAMPLES)
    middle = drawn[len(drawn) // 2]  # at epsilon, then one grid step above
    for epsilon in (0.1, 0.25, 0.5, 0.1234,
                    (NESTED_MC_SAMPLES - 1) / NESTED_MC_SAMPLES,
                    middle / NESTED_MC_SAMPLES,
                    (middle - 1) / NESTED_MC_SAMPLES):
        curve = pac_curve(system, dist, epsilon, n_list, trials, seed=seed)
        assert curve.nested_mc
        assert [(r.n, r.q_hat) for r in curve.rows] == [
            (n, sum(c / NESTED_MC_SAMPLES > epsilon for c in per_trial)
             / trials) for n, per_trial in zip(n_list, counts)]


def test_stream_is_order_independent():
    values_fwd = [stream(0, i).random() for i in range(5)]
    values_rev = [stream(0, i).random() for i in reversed(range(5))]
    assert values_fwd == list(reversed(values_rev))
    assert len(set(values_fwd)) == 5
