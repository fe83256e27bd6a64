"""Seeded streams: ``mix64``'s domain, the batched ``streams`` against the
per-index ``stream`` it reproduces, and its callers against the per-trial
``stream`` loops they replaced."""

import bisect
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenlab import rng as rng_module
from scenlab.core import (
    NESTED_MC_SAMPLES,
    PacRow,
    PropertyReport,
    RiskEstimate,
    _dominated,
    _violation_rate,
    check_consistency,
    check_stability,
    hoeffding_radius,
    pac_curve,
    satisfies_all,
    violation_probability_mc,
)
from scenlab.pathplan import SCENE, alg2_binding
from scenlab.registry import SYSTEMS, get_bundle
from scenlab.rng import _CHUNK, _pcg64_seeds, mix64, stream, streams

EDGE_ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
SEEDS = st.integers(0, 2**64 - 1)


@pytest.mark.parametrize("part", [-1, 2**64, -(2**64)])
def test_mix64_refuses_parts_outside_64_bits(part):
    # Masking them would alias -1 with 2**64 - 1 and 2**64 with 0.
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        mix64(part)
    with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
        mix64(0, part, 1)
    with pytest.raises(ValueError):
        stream(part)
    with pytest.raises(ValueError):
        next(streams(part, 2))


def test_mix64_accepts_the_64_bit_range():
    assert len({mix64(0), mix64(2**64 - 1), mix64(0, 2**64 - 1)}) == 3


@pytest.mark.parametrize("part", [2.5, 2.0, True, False, np.True_, "3"])
def test_mix64_refuses_parts_that_are_not_integers(part):
    # Truncating them would run 2.5 on the streams of 2 and True on those
    # of 1, under a report that echoes the value given.
    with pytest.raises(TypeError):
        mix64(part)
    with pytest.raises(TypeError):
        mix64(0, part)


def test_mix64_accepts_numpy_integers():
    assert mix64(np.int64(3)) == mix64(3)
    assert mix64(np.uint64(2**64 - 1), np.int32(7)) == mix64(2**64 - 1, 7)


def test_pac_curve_refuses_a_fractional_seed():
    bundle = get_bundle("min-no-map")
    with pytest.raises(TypeError):
        pac_curve(bundle.system, bundle.distribution, 0.1, [3], 5, seed=2.5)


@pytest.mark.parametrize("entropy", EDGE_ENTROPIES)
def test_seeding_kernel_is_default_rng_at_edge_entropies(entropy):
    # Alone and inside a batch, where its column meets the others.
    batch = list(_pcg64_seeds([3, entropy, 2**63 + 5]))
    state = np.random.default_rng(entropy).bit_generator.state["state"]
    assert list(_pcg64_seeds([entropy])) == [(state["state"], state["inc"])]
    assert batch[1] == (state["state"], state["inc"])


@settings(deadline=None, max_examples=60)
@given(st.lists(SEEDS, min_size=1, max_size=40))
def test_seeding_kernel_is_default_rng(entropies):
    want = [np.random.default_rng(e).bit_generator.state["state"]
            for e in entropies]
    assert [{"state": s, "inc": inc}
            for s, inc in _pcg64_seeds(entropies)] == want


def first_draws(rng):
    """The state, then one draw of each kind; ``integers`` leaves a 32-bit
    half buffered for the next generator to clear."""
    state = rng.bit_generator.state
    return (state, rng.random(), int(rng.integers(0, 7)),
            rng.uniform(0.0, 3.0, size=2).tolist(), int(rng.geometric(0.3)),
            rng.bit_generator.random_raw(2).tolist())


@settings(deadline=None, max_examples=40)
@given(SEEDS, st.sampled_from([(), (1,), (5,), (2, 3), (3, 1), (1, 4)]))
def test_streams_are_stream_at_every_index(seed, shape):
    got = [first_draws(rng) for rng in streams(seed, *shape)]
    assert got == [first_draws(stream(seed, *index))
                   for index in np.ndindex(*shape)]


def test_streams_of_an_empty_shape_yield_nothing():
    assert list(streams(0, 0)) == list(streams(0, 3, 0)) == []


def test_streams_run_past_one_kernel_pass():
    count = _CHUNK + 3
    got = [rng.random() for rng in streams(11, count)]
    assert got[-4:] == [stream(11, i).random()
                        for i in range(count - 4, count)]


MIX_SHAPES = [(), (0,), (5,), (3, 150), (2, 3, 4), (3, _CHUNK // 3 + 5)]


@pytest.mark.parametrize("shape", MIX_SHAPES)
@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_streams_mix_each_chunk_as_mix64(monkeypatch, seed, shape):
    """Each chunk's entropies are the ``mix64(seed, *index)`` words of its
    indices in row-major order, and its states those of ``stream``; the
    last shape crosses the ``_CHUNK`` boundary."""
    chunks = []

    def recording(entropies):
        chunks.append(np.array(entropies, dtype=np.uint64).tolist())
        return _pcg64_seeds(entropies)

    monkeypatch.setattr(rng_module, "_pcg64_seeds", recording)
    states = [rng.bit_generator.state for rng in streams(seed, *shape)]
    indices = list(np.ndindex(*shape))
    words = [mix64(seed, *index) for index in indices]
    assert chunks == [words[i:i + _CHUNK]
                      for i in range(0, len(words), _CHUNK)]
    assert states == [stream(seed, *index).bit_generator.state
                      for index in indices]


@pytest.mark.parametrize("seed", [True, -1, 2**64, 1.5])
def test_streams_refuse_a_seed_as_mix64_does(seed):
    with pytest.raises((TypeError, ValueError)) as refused:
        mix64(seed, 0)
    for shape in [(3,), (3, 150), ()]:
        with pytest.raises(refused.type, match=re.escape(str(refused.value))):
            next(streams(seed, *shape))
    assert list(streams(seed, 0)) == []  # draws nothing, so checks nothing


# ---------------------------------------------------------------------------
# Callers against the per-trial stream loops they replaced
# ---------------------------------------------------------------------------


def recording(system):
    """``system`` with every decision appended to the returned list."""
    decisions = []

    def record(decide):
        if decide is None:
            return None

        def recorded(vz):
            decisions.append(decide(vz))
            return decisions[-1]
        return recorded

    return dataclasses.replace(
        system, decide=record(system.decide),
        decide_values=record(system.decide_values)), decisions


def loop_pac_rows(system, dist, epsilon, ns, trials, seed):
    """``pac_curve``'s rows as a loop that builds ``stream(seed, n_index,
    trial)`` for each trial."""
    on_values = (dist.constraint_class is not None
                 and system.decide_values is not None)
    stop = None
    if dist.analytic_violation is None:
        stop = bisect.bisect_right(range(NESTED_MC_SAMPLES + 1), epsilon,
                                   key=lambda v: v / NESTED_MC_SAMPLES)
    rows = []
    for n_index, n in enumerate(ns):
        exceed = 0
        for trial in range(trials):
            rng = stream(seed, n_index, trial)
            if on_values:
                x = system.decide_values(dist.sample_values(rng, n))
            else:
                x = system.decide(dist.sample_tuple(rng, n))
            if _violation_rate(system, x, dist, rng, NESTED_MC_SAMPLES,
                               _dominated(system, dist), stop) > epsilon:
                exceed += 1
        rows.append(PacRow(n, exceed / trials, hoeffding_radius(trials)))
    return tuple(rows)


@pytest.mark.parametrize("key, epsilon, ns, trials", [
    # convex-vc decides on values and replays raw PCG64 words from the
    # reused generator, in the outer draw and in the nested inner draws.
    ("convex-vc", 0.1, [0, 3, 10], 6),
    ("min-no-map", 0.1, [1, 3, 10], 40),
    ("path-alg2", 0.05, [2, 20], 30),
])
def test_pac_curve_is_the_per_trial_stream_loop(key, epsilon, ns, trials):
    bundle = get_bundle(key)
    system, decisions = recording(bundle.system)
    curve = pac_curve(system, bundle.distribution, epsilon, ns, trials,
                      seed=5)
    got = decisions[:]
    decisions.clear()
    assert curve.rows == loop_pac_rows(system, bundle.distribution, epsilon,
                                       ns, trials, seed=5)
    assert len(got) == len(ns) * trials
    assert got == decisions


def loop_probe(system, tuple_generator, extra_constraint_generator, trials,
               seed):
    """``_probe`` as a loop that builds ``stream(seed, trial)`` per trial."""
    stability = extra_constraint_generator is not None
    kind = "stability" if stability else "consistency"
    for trial in range(trials):
        rng = stream(seed, trial)
        vz = tuple_generator(rng)
        x = system.decide(vz)
        if not satisfies_all(system, x, vz):
            return PropertyReport(
                system.name, kind, trials, trial + 1, seed,
                "inconsistent" if stability else "counterexample",
                counterexample=vz, decision_before=x)
        if not stability:
            continue
        z_extra = extra_constraint_generator(rng)
        if not system.satisfies(x, z_extra):
            continue
        x_after = system.decide(vz + (z_extra,))
        if not system.decisions_equal(x, x_after):
            return PropertyReport(
                system.name, kind, trials, trial + 1, seed, "counterexample",
                counterexample=vz, extra_constraint=z_extra,
                decision_before=x, decision_after=x_after)
    return PropertyReport(system.name, kind, trials, trials, seed, "pass")


@pytest.mark.parametrize("key", ["sum-no-scheme", "min-no-map", "path-alg2"])
@pytest.mark.parametrize("seed", [2, 3])
def test_check_stability_is_the_per_trial_stream_loop(key, seed):
    bundle = get_bundle(key)
    system, decisions = recording(bundle.system)
    report = check_stability(system, bundle.tuple_generator,
                             bundle.constraint_generator, 300, seed)
    got = decisions[:]
    decisions.clear()
    assert report == loop_probe(system, bundle.tuple_generator,
                                bundle.constraint_generator, 300, seed)
    assert got == decisions
    if key == "sum-no-scheme":
        assert report.status == "counterexample" and report.trials_run > 1


def test_check_consistency_is_the_per_trial_stream_loop():
    bundle = get_bundle("min-no-map")
    # Off the minimum by 5: inconsistent on a tuple with a constraint at the
    # decision's new value, first in trial 56.
    system = dataclasses.replace(
        bundle.system, decide=lambda vz: bundle.system.decide(vz) + 5)
    report = check_consistency(system, bundle.tuple_generator, 300, seed=1)
    assert report == loop_probe(system, bundle.tuple_generator, None, 300, 1)
    assert report.status == "counterexample" and report.trials_run > 1


def loop_demo_path_alg2_kept(bundle, seed, trials, max_n):
    """The binding angles ``demo path-alg2`` keeps, per trial, as a loop
    that builds ``stream(seed, trial)`` for each trial."""
    kept = []
    for trial in range(trials):
        rng = stream(seed, trial)
        n = int(rng.integers(0, max_n + 1))
        thetas = bundle.distribution.sample_values(rng, n)
        index, _ = alg2_binding(SCENE, thetas)
        kept.append([] if index is None else [thetas[index]])
    return kept


def test_demo_path_alg2_is_the_per_trial_stream_loop():
    bundle = get_bundle("path-alg2")
    kept = []

    def decide_values(values):
        kept.append(list(values))
        return bundle.system.decide_values(values)

    system = dataclasses.replace(bundle.system, decide_values=decide_values)
    verdicts, passed = bundle.demo(dataclasses.replace(bundle, system=system),
                                   7, trials=120, max_n=20)
    assert passed and verdicts["compression_idempotence"]["trials"] == 120
    assert kept == loop_demo_path_alg2_kept(bundle, 7, 120, 20)
    assert any(kept) and not all(kept)


def one_shot_risk(system, x, dist, samples, seed):
    """``violation_probability_mc`` as it drew before its draws came in
    blocks: all ``samples`` from ``stream(seed, 0)`` in one call."""
    analytic = dist.analytic_violation is not None
    if analytic:
        risk = dist.analytic_violation(x)
    elif dist.dominating and all(system.satisfies(x, z)
                                 for z in dist.dominating):
        risk = 0.0
    else:
        rng = stream(seed, 0)
        if (dist.constraint_class is not None
                and system.satisfies_values is not None):
            satisfied = system.satisfies_values(
                x, dist.sample_values(rng, samples))
        else:
            satisfied = [system.satisfies(x, z)
                         for z in dist.sample_tuple(rng, samples)]
        risk = (len(satisfied) - sum(satisfied)) / samples
    return RiskEstimate(risk, 0.0 if analytic else hoeffding_radius(samples),
                        samples, seed, analytic=analytic)


@pytest.mark.parametrize("key", list(SYSTEMS))
@pytest.mark.parametrize("on_values", [True, False])
@pytest.mark.parametrize("analytic", [True, False])
def test_violation_probability_mc_is_the_one_shot_draw(key, on_values,
                                                       analytic):
    bundle = get_bundle(key)
    system, dist = bundle.system, bundle.distribution
    if not on_values:
        system = dataclasses.replace(system, satisfies_values=None)
    if not analytic:
        dist = dataclasses.replace(dist, analytic_violation=None)
    x = system.decide(dist.sample_tuple(stream(7, 1), 5))
    drawn = []
    for samples in (1, 249, 250, 251, 1001, 2000):
        estimate = violation_probability_mc(system, x, dist, samples, seed=3)
        assert estimate == one_shot_risk(system, x, dist, samples, 3), samples
        drawn.append(estimate.estimate)
    if dist.analytic_violation is None:
        assert 0.0 < drawn[-1] < 1.0  # the draws decide the estimate
