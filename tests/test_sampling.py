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
    BandConstraint,
    PolygonConstraint,
    atom_plus_uniform,
    convex_mixture_distribution,
    geometric_exclusion_distribution,
)
from scenlab.pathplan import uniform_barrier_distribution
from scenlab.registry import get_bundle
from scenlab.rng import stream

BATCHED = {
    "barrier": uniform_barrier_distribution(),
    "geometric": geometric_exclusion_distribution(),
    "atom_plus_uniform": atom_plus_uniform(),
    "convex_mixture": convex_mixture_distribution(),
}


def plain(state):
    """A bit-generator state with its arrays (MT19937 keys) as lists."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def assert_same_stream_position(batch_rng, scalar_rng):
    """Equal bit-generator state, including a buffered 32-bit half, and the
    same next bounded integer (which reads that half)."""
    assert plain(batch_rng.bit_generator.state) == \
        plain(scalar_rng.bit_generator.state)
    assert batch_rng.integers(0, 1000) == scalar_rng.integers(0, 1000)


@pytest.mark.parametrize("name", BATCHED)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from([0, 1, 2, 7, 1000]),
       primed=st.booleans())
def test_batch_matches_scalar_loop_and_stream_position(name, seed, n, primed):
    dist = BATCHED[name]
    assert dist.sample_many is not None
    batch_rng, scalar_rng = stream(seed), stream(seed)
    if primed:  # leave a spare 32-bit half buffered, as tuple_generator does
        batch_rng.integers(0, 7)
        scalar_rng.integers(0, 7)
    batch = dist.sample_tuple(batch_rng, n)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(n))
    assert batch == scalar
    assert_same_stream_position(batch_rng, scalar_rng)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_convex_mixture_falls_back_to_scalar_loop_off_pcg64(seed):
    dist = BATCHED["convex_mixture"]
    batch_rng = np.random.Generator(np.random.MT19937(seed))
    scalar_rng = np.random.Generator(np.random.MT19937(seed))
    batch = dist.sample_tuple(batch_rng, 50)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(50))
    assert batch == scalar
    assert_same_stream_position(batch_rng, scalar_rng)


# PCG64: state' = state * MULT + inc (mod 2^128), then the output is
# rotr64(hi ^ lo, hi >> 58) of state'.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK128 = (1 << 128) - 1


def pcg64_output(state):
    hi, lo = state >> 64, state & (2**64 - 1)
    rot, x = hi >> 58, hi ^ lo
    return ((x >> rot) | (x << (64 - rot))) & (2**64 - 1)


def test_convex_mixture_replays_lemire_rejection():
    """A zero 32-bit half is rejected by ``integers(1, 4)``: build a PCG64
    state whose second word is 0 (hi == lo) after a polygon coin, with a
    buffered half that picks m = 3, so both halves of that word are
    rejected."""
    inc = stream(0).bit_generator.state["state"]["inc"]
    inverse = pow(PCG64_MULT, -1, 1 << 128)

    def unstep(state):
        return ((state - inc) * inverse) & MASK128

    for k in range(1, 64):
        zero_word_state = (k << 64) | k
        coin_state = unstep(zero_word_state)
        if pcg64_output(coin_state) >= 2**63:  # a coin of 1/2 or more
            break
    start = {"bit_generator": "PCG64",
             "state": {"state": unstep(coin_state), "inc": inc},
             "has_uint32": 1, "uinteger": 0xA0000000}  # m = 1 + 2
    rngs = []
    for _ in range(2):
        bitgen = np.random.PCG64()
        bitgen.state = start
        rngs.append(np.random.Generator(bitgen))
    batch_rng, scalar_rng = rngs
    assert batch_rng.bit_generator.random_raw(2).tolist()[1] == 0
    batch_rng.bit_generator.state = start
    dist = BATCHED["convex_mixture"]
    batch = dist.sample_tuple(batch_rng, 3)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(3))
    assert batch == scalar
    assert batch[0].m == 3
    assert_same_stream_position(batch_rng, scalar_rng)


def test_convex_mixture_draws_both_kinds():
    kinds = {type(z) for z in BATCHED["convex_mixture"].sample_tuple(
        stream(3), 40)}
    assert kinds == {BandConstraint, PolygonConstraint}


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
