"""Stream contract of the batch samplers: ``sample_tuple`` in batch returns
the constraints of the scalar ``sample`` loop and leaves the generator at the
same stream position."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenlab.core import violation_probability_mc
from scenlab.counterexamples import (
    atom_plus_uniform,
    geometric_exclusion_distribution,
)
from scenlab.pathplan import uniform_barrier_distribution
from scenlab.registry import get_bundle
from scenlab.rng import stream

BATCHED = {
    "barrier": uniform_barrier_distribution(),
    "geometric": geometric_exclusion_distribution(),
    "atom_plus_uniform": atom_plus_uniform(),
}


@pytest.mark.parametrize("name", BATCHED)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from([0, 1, 2, 7, 1000]))
def test_batch_matches_scalar_loop_and_stream_position(name, seed, n):
    dist = BATCHED[name]
    assert dist.sample_many is not None
    batch_rng, scalar_rng = stream(seed), stream(seed)
    batch = dist.sample_tuple(batch_rng, n)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(n))
    assert batch == scalar
    assert batch_rng.random() == scalar_rng.random()


class ScriptedUniform:
    """Stub generator replaying fixed ``uniform`` draws, scalar or batched."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self, low, high, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = self.values[:size], self.values[size:]
        return np.array(out)


def test_barrier_batch_refills_rejected_endpoints():
    script = [0.0, 1.0, math.pi, 2.0, 0.5, 0.7, 3.0]
    dist = uniform_barrier_distribution()
    batch_rng, scalar_rng = ScriptedUniform(script), ScriptedUniform(script)
    batch = dist.sample_tuple(batch_rng, 4)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(4))
    assert [z.theta for z in batch] == [1.0, 2.0, 0.5, 0.7]
    assert batch == scalar
    assert batch_rng.values == scalar_rng.values == [3.0]


def test_sample_tuple_rejects_negative_length():
    for dist in BATCHED.values():
        with pytest.raises(ValueError):
            dist.sample_tuple(stream(0), -1)


def test_nested_mc_matches_interleaved_scalar_loop():
    bundle = get_bundle("path-alg1")
    system, dist = bundle.system, bundle.distribution
    assert dist.analytic_violation is None
    x = system.decide(dist.sample_tuple(stream(5, 1), 8))
    samples, seed = 500, 11
    rng = stream(seed, 0)
    violations = 0
    for _ in range(samples):
        if not system.satisfies(x, dist.sample(rng)):
            violations += 1
    estimate = violation_probability_mc(system, x, dist, samples, seed=seed)
    assert 0 < violations < samples
    assert estimate.estimate == violations / samples
