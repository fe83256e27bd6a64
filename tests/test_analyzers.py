"""Tests for shattering search, compression certificates, and bounds."""

import collections
import dataclasses
import itertools
import json
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenlab import analyzers
from scenlab.analyzers import (
    DEFAULT_TUPLE_BUDGET,
    MAX_WALK_LENGTH,
    BoundQuery,
    BudgetExceededError,
    RangeShatterReport,
    adversarial_pac_experiment,
    certify_no_compression_scheme,
    check_shattered,
    check_tuple_budget,
    compression_beta,
    compression_bound,
    explicit_sample_bound,
    find_compression_subtuple,
    revalidate_not_shattered,
    satisfied_subset,
    vc_sample_bound,
    verify_range_shattering_witness,
)
from scenlab.core import Fold, ScenarioSystem, hoeffding_radius
from scenlab.counterexamples import (
    BandConstraint,
    ExclusionConstraint,
    MembershipConstraint,
    PolygonConstraint,
    alg_convex_maxx1,
    convex_system,
    interval_system,
    min_system,
    sigma_polygon,
    sum_system,
    tau,
)
from scenlab.geometry import point_in_convex, points_equal
from scenlab.pathplan import (
    BarrierConstraint,
    band_shatter_candidates,
    path_system_alg1,
    path_system_alg2,
)
from scenlab.rng import stream


def test_satisfied_subset():
    zs = [ExclusionConstraint(a) for a in range(4)]
    assert satisfied_subset(sum_system, 2, zs) == frozenset(
        z for z in zs if z.a != 2)


def test_check_shattered_singleton_atom_is_shattered():
    report = check_shattered(interval_system, [MembershipConstraint(0.0)],
                             max_len=1)
    assert report.shattered
    assert report.tuples_checked == 2  # empty tuple and (U(0),)


def test_check_shattered_counterexample_and_revalidation():
    zs = [MembershipConstraint(0.0), MembershipConstraint(0.3),
          MembershipConstraint(0.7)]
    report = check_shattered(interval_system, zs, max_len=3)
    assert report.verdict == "not_shattered"
    assert report.counterexample == ()  # the empty tuple already fails
    assert report.satisfied_subset == frozenset(zs[1:])
    assert revalidate_not_shattered(interval_system, report)
    payload = report.to_jsonable()
    assert payload["verdict"] == "not_shattered"
    assert len(payload["satisfied_subset"]) == 2


def test_check_shattered_include_empty_false():
    # Without the empty tuple, the first length-1 counterexample appears
    # instead: a positive point alone realizes the full candidate set.
    zs = [MembershipConstraint(0.3), MembershipConstraint(0.7)]
    report = check_shattered(interval_system, zs, include_empty=False)
    assert report.verdict == "not_shattered"
    assert report.counterexample == (zs[0],)
    assert report.satisfied_subset == frozenset(zs)


def test_check_shattered_validation_and_budget():
    with pytest.raises(ValueError):
        check_shattered(interval_system, [MembershipConstraint(0.0)] * 2)
    # 10 candidates up to length 10: about 1.1e10 tuples.
    zs = [MembershipConstraint(a / 10) for a in range(10)]
    with pytest.raises(BudgetExceededError):
        check_shattered(interval_system, zs, max_len=10)


def test_check_shattered_walks_up_to_its_length_limit():
    zs = [MembershipConstraint(0.5)]
    report = check_shattered(interval_system, zs, max_len=MAX_WALK_LENGTH,
                             include_empty=False)
    assert report.shattered and report.tuples_checked == MAX_WALK_LENGTH
    with pytest.raises(ValueError, match="max tuple length"):
        check_shattered(interval_system, zs, max_len=MAX_WALK_LENGTH + 1)


def test_tuple_budget_stops_summing_past_the_budget():
    def counts():
        yield DEFAULT_TUPLE_BUDGET
        yield 1
        raise AssertionError("summed past the budget")
    with pytest.raises(BudgetExceededError,
                       match=f"^more than {DEFAULT_TUPLE_BUDGET} tuples"):
        check_tuple_budget(counts())
    check_tuple_budget([DEFAULT_TUPLE_BUDGET, 0])


def test_revalidate_rejects_positive_reports():
    report = check_shattered(interval_system, [MembershipConstraint(0.0)])
    assert not revalidate_not_shattered(interval_system, report)


def test_find_compression_subtuple_on_sum_system():
    # Excluded zeros do not contribute to the sum, so they are droppable:
    # (U(3), U(0), U(3)) decides 7 and so does the subtuple (U(3), U(3)).
    vz = (ExclusionConstraint(3), ExclusionConstraint(0), ExclusionConstraint(3))
    assert find_compression_subtuple(sum_system, vz, 2) == (0, 2)
    # Two positive excluded values cannot be reproduced by fewer of them.
    vz = (ExclusionConstraint(3), ExclusionConstraint(4))
    assert find_compression_subtuple(sum_system, vz, 1) is None
    assert find_compression_subtuple(sum_system, vz, 2) == (0, 1)
    # Zeros are droppable: (U(0), U(4)) decides 5, as does (U(4),).
    vz = (ExclusionConstraint(0), ExclusionConstraint(4))
    assert find_compression_subtuple(sum_system, vz, 1) == (1,)


def test_find_compression_subtuple_min_system_none_certificate():
    for d in range(1, 4):
        vz = tuple(ExclusionConstraint(a) for a in range(d + 1))
        assert find_compression_subtuple(min_system, vz, d) is None


def test_find_compression_subtuple_skips_undecidable_subtuples():
    # No path clears a barrier at 1e-12 alone, yet the full tuple decides
    # the path over the barrier at 0.3, as that barrier alone does.
    system = path_system_alg1
    vz = (BarrierConstraint(1e-12), BarrierConstraint(0.3))
    with pytest.raises(ValueError, match="no path clears"):
        system.decide(vz[:1])
    assert find_compression_subtuple(system, vz, 1) == (1,)
    # The full tuple's own error still propagates.
    with pytest.raises(ValueError, match="no path clears"):
        find_compression_subtuple(system, vz[:1], 1)


def brute_force_subtuple(system, vz, capacity):
    """Reference: subtuples by length, then lexicographically, skipping
    those whose decide raises."""
    target = system.decide(vz)
    for r in range(min(capacity, len(vz)) + 1):
        for indices in itertools.combinations(range(len(vz)), r):
            try:
                x = system.decide(tuple(vz[i] for i in indices))
            except ValueError:
                continue
            if system.decisions_equal(x, target):
                return indices
    return None


near_axis_thetas = st.lists(
    st.sampled_from([1e-12, 1e-10, math.pi - 1e-10])
    | st.floats(min_value=0.05, max_value=math.pi - 0.05),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(near_axis_thetas, st.integers(min_value=0, max_value=6))
def test_find_compression_subtuple_matches_brute_force_on_partial_alg1(
        thetas, capacity):
    system = path_system_alg1
    vz = tuple(BarrierConstraint(t) for t in thetas)
    try:
        expected = brute_force_subtuple(system, vz, capacity)
    except ValueError:
        with pytest.raises(ValueError, match="no path clears"):
            find_compression_subtuple(system, vz, capacity)
        return
    assert find_compression_subtuple(system, vz, capacity) == expected


def test_find_compression_subtuple_validation_and_budget():
    with pytest.raises(ValueError):
        find_compression_subtuple(sum_system, (), -1)
    # 30 constraints at capacity 15: about 6.2e8 subtuples.
    vz = tuple(ExclusionConstraint(a) for a in range(30))
    with pytest.raises(BudgetExceededError):
        find_compression_subtuple(sum_system, vz, 15)
    # The guard comes before the target decision and before any walk.
    decided = []
    system = ScenarioSystem("counting", lambda vz: decided.append(vz),
                            lambda x, z: True)
    with pytest.raises(BudgetExceededError):
        find_compression_subtuple(system, vz, 15)
    assert decided == []
    extended = []

    def recording_extend(extend):
        def wrapper(state, z):
            extended.append(z)
            return extend(state, z)
        return wrapper

    for folded in (sum_system, min_system):
        fold = folded.decide
        recording = dataclasses.replace(folded, decide=Fold(
            fold.init, recording_extend(fold.extend), fold.finish))
        with pytest.raises(BudgetExceededError):
            find_compression_subtuple(recording, vz, 15)
        assert extended == []
        # Under the budget the same wrapper does record the walk.
        find_compression_subtuple(recording, vz[:3], 1)
        assert extended
        extended.clear()


def test_certify_no_compression_scheme_counting():
    base = [ExclusionConstraint(1 << j) for j in range(5)]
    report = certify_no_compression_scheme(sum_system, base, 2)
    # Binary weights make all 2^5 subset sums distinct (oracle below).
    oracle = {1 + sum(z.a for z in sub)
              for r in range(6) for sub in itertools.combinations(base, r)}
    assert report.distinct_decisions == len(oracle) == 32
    assert report.compressed_input_bound == 1 + 5 + 10
    assert report.impossible
    payload = report.to_jsonable()
    assert payload["impossible"] and payload["tuple_length_bound"] == 5


def test_certify_no_compression_scheme_possible_case():
    # The min system over {U(0), U(1)} realizes only 3 decisions; capacity 2
    # offers 4 subtuples, so the counting argument does not apply.
    base = [ExclusionConstraint(0), ExclusionConstraint(1)]
    report = certify_no_compression_scheme(min_system, base, 2)
    assert report.distinct_decisions == 3
    assert report.compressed_input_bound == 4
    assert not report.impossible


def test_certify_no_compression_scheme_permutations_flag():
    base = [ExclusionConstraint(1), ExclusionConstraint(2)]
    plain = certify_no_compression_scheme(sum_system, base, 1)
    permuted = certify_no_compression_scheme(sum_system, base, 1,
                                             permutations=True)
    # The sum is order-insensitive, so both enumerations agree.
    assert plain.distinct_decisions == permuted.distinct_decisions
    assert permuted.permutations


def test_certify_permutations_bound_counts_ordered_outputs():
    # Keeping the first two constraints is a capacity-2 scheme for this
    # order-sensitive system, so no certificate may be issued.  Its 10
    # decisions (every ordered subtuple of length <= 2) meet the bound
    # 1 + 3 + 3 * 2 of ordered outputs, not sum C(3, r) = 7.
    first_two = ScenarioSystem("first-two", lambda vz: vz[:2],
                               lambda x, z: True)
    base = [ExclusionConstraint(a) for a in range(3)]
    report = certify_no_compression_scheme(first_two, base, 2,
                                           permutations=True)
    assert report.distinct_decisions == 10
    assert report.compressed_input_bound == 10
    assert not report.impossible


def test_certify_budget_guard_raises_before_deciding():
    decided = []
    system = ScenarioSystem("counting", lambda vz: decided.append(vz),
                            lambda x, z: True)
    base = [ExclusionConstraint(a) for a in range(21)]
    assert 2 ** 21 > DEFAULT_TUPLE_BUDGET
    with pytest.raises(BudgetExceededError):
        certify_no_compression_scheme(system, base, 1)
    # With orderings, 10 constraints give 9,864,101 tuples.
    with pytest.raises(BudgetExceededError):
        certify_no_compression_scheme(system, base[:10], 1, permutations=True)
    assert decided == []
    # 2^20 subsets and the 986,410 orderings of 9 constraints fit.
    certify_no_compression_scheme(system, base[:9], 1, permutations=True)
    assert len(decided) == sum(math.perm(9, r) for r in range(10))


def test_certify_validation():
    with pytest.raises(ValueError):
        certify_no_compression_scheme(sum_system, [ExclusionConstraint(1)] * 2, 1)


def test_verify_range_shattering_witness_small():
    report = verify_range_shattering_witness(3)
    assert report.passed
    assert report.subsets_realized == 8
    assert report.vc_lower_bound == 3
    payload = report.to_jsonable()
    assert payload["all_realized"] and payload["decision_mismatches"] == []
    with pytest.raises(ValueError):
        verify_range_shattering_witness(0)
    with pytest.raises(ValueError):
        verify_range_shattering_witness(13)


def scalar_range_shattering_witness(k, tolerance=1e-9):
    """Reference: the witness subset by subset, one scalar point_in_convex
    per (subset, polygon) pair."""
    polygons = [sigma_polygon(k, i) for i in range(1, k + 1)]
    decision_mismatches = []
    membership_disagreements = []
    realized = 0
    members = list(range(1, k + 1))
    for mask in range(1 << k):
        u = frozenset(members[j] for j in range(k) if mask >> j & 1)
        point = tau(u)
        decision = alg_convex_maxx1((BandConstraint(point[1]),))
        ok = points_equal(decision, point, tolerance)
        if not ok:
            decision_mismatches.append((u, decision))
        pattern_ok = True
        for i in members:
            geometric = point_in_convex(polygons[i - 1], point,
                                        analyzers.WITNESS_MEMBERSHIP_TOL)
            if geometric != (i in u):
                membership_disagreements.append((u, i))
                pattern_ok = False
        if ok and pattern_ok:
            realized += 1
    return RangeShatterReport(
        k=k, subsets_checked=1 << k, subsets_realized=realized,
        vc_lower_bound=k if realized == 1 << k else 0,
        all_realized=realized == 1 << k,
        decision_mismatches=tuple(decision_mismatches),
        membership_disagreements=tuple(membership_disagreements))


def report_bytes(report):
    return json.dumps(report.to_jsonable(), sort_keys=True)


@pytest.mark.parametrize("k", range(1, 10))
def test_range_shattering_witness_matches_scalar_loop(k):
    assert report_bytes(verify_range_shattering_witness(k)) \
        == report_bytes(scalar_range_shattering_witness(k))


@pytest.mark.parametrize("k, disagreements", [(8, 50), (9, 510)])
def test_range_shattering_witness_disagreements_match_scalar_loop(
        k, disagreements, monkeypatch):
    # At the coarse report tolerance the chord sag is absorbed, so arc points
    # outside a polygon test as inside: the disagreement path is exercised.
    monkeypatch.setattr(analyzers, "WITNESS_MEMBERSHIP_TOL", 1e-9)
    report = verify_range_shattering_witness(k)
    assert len(report.membership_disagreements) == disagreements
    assert not report.passed
    assert report_bytes(report) \
        == report_bytes(scalar_range_shattering_witness(k))


@pytest.mark.parametrize("k, missed", [(7, 0), (8, 42), (9, 282)])
def test_witness_patterns_under_the_systems_own_relation(k, missed):
    """The witness passes under its slack ``WITNESS_MEMBERSHIP_TOL``, but
    under ``convex_satisfies`` (slack ``POINT_TOL``) the decision for tau(u)
    satisfies a set of sigma(k, i) other than u for ``missed`` subsets."""
    assert verify_range_shattering_witness(k).passed
    polygons = [PolygonConstraint(k, i) for i in range(1, k + 1)]
    patterns = []
    for mask in range(1 << k):
        u = frozenset(i for i in range(1, k + 1) if mask >> (i - 1) & 1)
        decision = alg_convex_maxx1((BandConstraint(tau(u)[1]),))
        patterns.append(sum(1 << j for j, z in enumerate(polygons)
                            if convex_system.satisfies(decision, z)))
    assert sum(pattern != mask for mask, pattern in enumerate(patterns)) \
        == missed


def test_range_shattering_witness_mismatches_match_scalar_loop(monkeypatch):
    # A negative decision tolerance rejects every decision.
    monkeypatch.setattr(analyzers, "points_equal",
                        lambda p, q: points_equal(p, q, -1.0))
    report = verify_range_shattering_witness(6)
    assert len(report.decision_mismatches) == 64
    assert report_bytes(report) \
        == report_bytes(scalar_range_shattering_witness(6, tolerance=-1.0))


def test_adversarial_pac_guard_and_exactness():
    zs = band_shatter_candidates(4)
    with pytest.raises(ValueError):
        adversarial_pac_experiment(path_system_alg1, zs, n=3,
                                   epsilon=0.25, trials=10)
    for eps in (-1.0, 0.0, 1.0, math.nan):
        with pytest.raises(ValueError):
            adversarial_pac_experiment(path_system_alg1, zs, n=2,
                                       epsilon=eps, trials=10)
    report = adversarial_pac_experiment(path_system_alg1, zs, n=2,
                                        epsilon=0.25, trials=50, seed=2)
    assert report.candidate_count == 4
    assert 0.0 <= report.min_risk <= report.mean_risk <= 1.0
    # Risks are multiples of 1/|Z'| by construction.
    assert (report.min_risk * 4) == pytest.approx(round(report.min_risk * 4))


def test_adversarial_pac_rejects_duplicate_candidates():
    # Decision 0 satisfies U(5), so a duplicated U(5) would have been counted
    # as a violated half of the candidate set: min_risk 0.5 for risk 0.
    with pytest.raises(ValueError, match="distinct"):
        adversarial_pac_experiment(min_system, [ExclusionConstraint(5)] * 2,
                                   n=1, epsilon=0.1, trials=10)


def test_adversarial_pac_rejects_empty_candidates_and_negative_n():
    with pytest.raises(ValueError, match="at least one candidate"):
        adversarial_pac_experiment(min_system, [], n=0, epsilon=0.1,
                                   trials=3)
    zs = [ExclusionConstraint(a) for a in range(4)]
    with pytest.raises(ValueError, match="N must be >= 0"):
        adversarial_pac_experiment(min_system, zs, n=-1, epsilon=0.1,
                                   trials=3)


def loop_adversarial(system, candidates, n, epsilon, trials, seed):
    """The adversarial experiment as a plain loop, each trial's decision
    checked against every candidate."""
    k = len(candidates)
    risks = []
    for trial in range(trials):
        draws = stream(seed, trial).integers(0, k, size=n)
        x = system.decide(tuple(candidates[int(i)] for i in draws))
        risks.append(sum(not system.satisfies(x, z) for z in candidates) / k)
    return {"system": system.name, "candidate_count": k, "N": n,
            "epsilon": epsilon, "trials": trials, "seed": seed,
            "q_hat": sum(risk > epsilon for risk in risks) / trials,
            "ci_radius": hoeffding_radius(trials),
            "mean_risk": sum(risks) / trials, "min_risk": min(risks)}


@pytest.mark.parametrize("system, candidates, n, epsilon", [
    (path_system_alg1, band_shatter_candidates(8), 4, 0.25),
    (min_system, [ExclusionConstraint(a) for a in range(10)], 3, 0.1),
    # No fold: each trial is decided whole, through the decision memo.
    (path_system_alg2, band_shatter_candidates(8), 4, 0.25),
    # A fold whose decisions are compared by coords.
    (convex_system, [*(PolygonConstraint(m, i) for m in range(1, 4)
                       for i in range(1, m + 1)),
                     *(BandConstraint(y) for y in (0.2, 0.5, 0.8))], 3, 0.1),
])
def test_adversarial_pac_equals_the_plain_loop(system, candidates, n,
                                               epsilon):
    report = adversarial_pac_experiment(system, candidates, n, epsilon,
                                        trials=60, seed=3)
    assert report.to_jsonable() == \
        loop_adversarial(system, candidates, n, epsilon, 60, 3)


def test_adversarial_pac_finishes_each_distinct_state_once():
    system, candidates = path_system_alg1, band_shatter_candidates(8)
    fold = system.decide
    finished = collections.Counter()
    calls = 0

    def finish(state):
        finished[state] += 1
        return fold.finish(state)

    def counted(x, z):
        nonlocal calls
        calls += 1
        return system.satisfies(x, z)

    counted_system = dataclasses.replace(
        system, decide=dataclasses.replace(fold, finish=finish),
        satisfies=counted)
    report = adversarial_pac_experiment(counted_system, candidates, 4, 0.25,
                                        trials=60, seed=3)
    assert report == adversarial_pac_experiment(system, candidates, 4, 0.25,
                                                trials=60, seed=3)
    states = {frozenset(candidates[i] for i in
                        stream(3, trial).integers(0, 8, size=4).tolist())
              for trial in range(60)}
    # alg1's state is the set of its barriers: repeated sets are finished,
    # and their hulls checked against the candidates, once.
    assert len(states) < 60
    assert finished == dict.fromkeys(states, 1)
    assert calls == len(candidates) * len(states)


def test_shatter_walk_checks_each_distinct_decision_once():
    system, candidates = path_system_alg1, band_shatter_candidates(5)
    calls = 0

    def counted(x, z):
        nonlocal calls
        calls += 1
        return system.satisfies(x, z)

    report = check_shattered(dataclasses.replace(system, satisfies=counted),
                             candidates, max_len=5)
    tuples = [vz for r in range(6)
              for vz in itertools.product(candidates, repeat=r)]
    assert report.shattered and report.tuples_checked == len(tuples)
    decisions = {system.decide(vz) for vz in tuples}
    assert calls == len(candidates) * len(decisions) < len(tuples)


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery(0.0, 0.5, 1)
    with pytest.raises(ValueError):
        BoundQuery(0.5, 1.0, 1)
    with pytest.raises(ValueError):
        BoundQuery(0.5, 0.5, -1)


def test_vc_sample_bound_direct_evaluation():
    def oracle(eps, beta, d):
        return math.ceil((4 / eps) * (d * math.log(12 / eps)
                                      + math.log(2 / beta)))
    for eps, beta, d in [(0.1, 0.05, 1), (0.1, 0.05, 2), (0.05, 0.01, 3)]:
        assert vc_sample_bound(BoundQuery(eps, beta, d)) == oracle(eps, beta, d)
    assert vc_sample_bound(BoundQuery(0.1, 0.05, 1)) == 340
    assert vc_sample_bound(BoundQuery(0.1, 0.05, 2)) == 531
    with pytest.raises(ValueError):
        vc_sample_bound(BoundQuery(0.1, 0.05, 0))


def test_vc_sample_bound_rejects_a_non_finite_bound():
    with pytest.raises(ValueError, match="not finite"):
        vc_sample_bound(BoundQuery(1e-310, 0.5, 1))


def test_explicit_sample_bound_rejects_a_non_finite_bound():
    with pytest.raises(ValueError, match="not finite"):
        explicit_sample_bound(BoundQuery(1e-310, 0.5, 1))


def test_explicit_sample_bound():
    assert explicit_sample_bound(BoundQuery(0.1, 0.01, 1)) == 113
    assert explicit_sample_bound(BoundQuery(0.5, 0.5, 0)) == \
        math.ceil(4 * math.log(2))


@settings(deadline=None, max_examples=40)
@given(eps=st.sampled_from([0.5, 0.3, 0.1, 0.05, 0.01]),
       beta=st.sampled_from([0.5, 0.1, 0.01, 1e-6]),
       d=st.integers(min_value=0, max_value=30))
def test_explicit_sample_bound_meets_binomial_tail(eps, beta, d):
    n = explicit_sample_bound(BoundQuery(eps, beta, d))
    with mpmath.workdps(30):
        tail = sum(mpmath.binomial(n, i) * mpmath.mpf(eps) ** i
                   * (1 - mpmath.mpf(eps)) ** (n - i) for i in range(d + 1))
    assert tail <= beta


def test_compression_beta_values():
    assert compression_beta(100, 1, 0.1) == pytest.approx(
        100 * 0.9 ** 99, rel=1e-15)
    assert compression_beta(10, 0, 0.5) == pytest.approx(0.5 ** 10, rel=1e-15)
    with pytest.raises(ValueError):
        compression_beta(5, 5, 0.1)


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, 2.0, -0.1, math.nan])
def test_compression_beta_rejects_epsilon_outside_unit_interval(eps):
    # 1.5 and 2.0 gave 0.75 and -4.0 (at N = 3 and 4, d = 1), which look like
    # probabilities or at least numbers; BoundQuery refuses them too.
    with pytest.raises(ValueError, match="epsilon must be in"):
        compression_beta(4, 1, eps)


@pytest.mark.parametrize("n, d, eps", [
    (3000, 200, 0.1), (9396, 200, 0.1), (9395, 200, 0.1), (2000, 1000, 0.6),
    (20000, 1000, 0.2), (10 ** 6, 100, 1e-3)])
def test_compression_beta_past_float_binomials_matches_mpmath(n, d, eps):
    # C(n, d) exceeds the float range in every case.
    assert math.comb(n, d) > 2 ** 1024
    with mpmath.workdps(50):
        exact = mpmath.binomial(n, d) * (1 - mpmath.mpf(eps)) ** (n - d)
        assert compression_beta(n, d, eps) == pytest.approx(float(exact),
                                                            rel=1e-12)


def test_compression_beta_past_float_range_is_inf():
    assert compression_beta(2000, 1000, 1e-6) == math.inf


def test_compression_bound_inversion_at_large_capacity():
    n = compression_bound(BoundQuery(0.1, 0.01, 200))
    assert n == 9396
    assert compression_beta(n, 200, 0.1) <= 0.01 < compression_beta(n - 1, 200, 0.1)


@given(st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.05, max_value=0.5),
       st.floats(min_value=0.001, max_value=0.2))
def test_compression_bound_inversion_matches_scan_oracle(d, eps, beta):
    n = compression_bound(BoundQuery(eps, beta, d))
    assert compression_beta(n, d, eps) <= beta
    if n > d + 1:
        assert compression_beta(n - 1, d, eps) > beta


def scan_compression_bound(d, eps, beta):
    return next(n for n in itertools.count(d + 1)
                if compression_beta(n, d, eps) <= beta)


@pytest.mark.parametrize("d", [0, 1, 2, 5, 20])
@pytest.mark.parametrize("eps", [0.9, 0.3, 0.1, 0.01])
def test_compression_bound_inversion_equals_linear_scan(d, eps):
    for beta in (0.5, 0.05, 1e-3, 1e-9):
        assert compression_bound(BoundQuery(eps, beta, d)) \
            == scan_compression_bound(d, eps, beta), beta


def count_compression_beta(monkeypatch):
    calls = []

    def counted(n, capacity, epsilon):
        calls.append(n)
        return compression_beta(n, capacity, epsilon)
    monkeypatch.setattr(analyzers, "compression_beta", counted)
    return calls


@pytest.mark.parametrize("d, eps, beta, expected", [
    (1, 1e-5, 0.01, None), (1, 1e-6, 0.01, 21488174), (3, 1e-7, 1e-6, None)])
def test_compression_bound_inversion_takes_logarithmic_work(
        d, eps, beta, expected, monkeypatch):
    calls = count_compression_beta(monkeypatch)
    n = compression_bound(BoundQuery(eps, beta, d))
    assert expected is None or n == expected
    assert compression_beta(n, d, eps) <= beta \
        < compression_beta(n - 1, d, eps)
    assert len(calls) <= 2 * n.bit_length() + 2


def test_compression_bound_cap_raises_after_logarithmic_work(monkeypatch):
    calls = count_compression_beta(monkeypatch)
    # The minimum is about ln(100) / 1e-9, past the 10^9 cap.
    with pytest.raises(ValueError):
        compression_bound(BoundQuery(1e-9, 0.01, 1))
    assert len(calls) <= 2 * (10 ** 9).bit_length() + 2
    with pytest.raises(ValueError):
        compression_bound(BoundQuery(0.5, 0.01, 10 ** 9))

