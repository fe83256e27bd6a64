"""Stream contract of the batch samplers: ``sample_tuple`` in batch returns
the constraints of the scalar ``sample`` loop and leaves the generator at the
same stream position."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenlab import counterexamples
from scenlab.core import violation_probability_mc
from scenlab.counterexamples import (
    _ATOM_ARRAY_FROM,
    _GEOMETRIC_ARRAY_FROM,
    BandConstraint,
    PolygonConstraint,
    _atom_sample,
    _atom_sample_values,
    _decode_mixture,
    _geometric_sample_values,
    atom_plus_uniform,
    convex_mixture_distribution,
    geometric_exclusion_distribution,
)
from scenlab.pathplan import uniform_barrier_distribution
from scenlab.registry import get_bundle
from scenlab.rng import stream

BATCHED = {
    "barrier": uniform_barrier_distribution,
    "geometric": geometric_exclusion_distribution,
    "atom_plus_uniform": atom_plus_uniform,
    "convex_mixture": convex_mixture_distribution,
}


def plain(state):
    """A bit-generator state with its arrays (MT19937 keys) as lists."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def as_list(values):
    """A sampler's values as a list of Python numbers: the barrier, atom and
    geometric samplers return the arrays numpy drew, which ``+`` would add
    element by element and ``ExclusionConstraint`` refuses (a numpy
    integer is not an ``int``)."""
    return values if isinstance(values, list) else values.tolist()


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
    assert dist.sample_values is not None
    batch_rng, scalar_rng = stream(seed), stream(seed)
    if primed:  # leave a spare 32-bit half buffered, as tuple_generator does
        batch_rng.integers(0, 7)
        scalar_rng.integers(0, 7)
    batch = dist.sample_tuple(batch_rng, n)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(n))
    assert batch == scalar
    assert_same_stream_position(batch_rng, scalar_rng)


VALUE_SAMPLED = [name for name, dist in BATCHED.items()
                 if dist.constraint_class is not None]


def test_value_samplers_cover_all_four():
    assert VALUE_SAMPLED == list(BATCHED)


@pytest.mark.parametrize("name", VALUE_SAMPLED)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from([0, 1, 2, 7, 1000]),
       primed=st.booleans())
def test_sample_values_match_scalar_loop_and_stream_position(name, seed, n,
                                                             primed):
    dist = BATCHED[name]
    values_rng, scalar_rng = stream(seed), stream(seed)
    if primed:
        values_rng.integers(0, 7)
        scalar_rng.integers(0, 7)
    values = dist.sample_values(values_rng, n)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(n))
    assert tuple(map(dist.constraint_class, as_list(values))) == scalar
    assert_same_stream_position(values_rng, scalar_rng)


@pytest.mark.parametrize("n", [0, 1, 1000])
@pytest.mark.parametrize("name", VALUE_SAMPLED)
def test_sample_values_are_values_the_constraint_class_accepts(name, n):
    """``decide_values`` and ``satisfies_values`` answer as the constraints
    of their values only where ``constraint_class`` accepts each value (see
    ``ScenarioSystem``), so a sampler draws no other."""
    dist = BATCHED[name]
    for seed in range(4):
        values = as_list(dist.sample_values(stream(seed), n))
        assert len(values) == n
        for v in values:
            dist.constraint_class(v)  # raises ValueError on a refused value


@pytest.mark.parametrize("name", VALUE_SAMPLED)
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       a=st.integers(min_value=0, max_value=300),
       b=st.integers(min_value=0, max_value=300),
       primed=st.booleans(),
       bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]))
def test_consecutive_sample_values_calls_concatenate(name, seed, a, b, primed,
                                                     bit_generator):
    """Two calls drawing ``a`` then ``b`` values give the values and the
    stream position of one call drawing ``a + b``, so nested Monte Carlo
    may draw its samples in blocks.  MT19937 takes the convex mixture's
    scalar fallback."""
    dist = BATCHED[name]
    split_rng, joint_rng = (np.random.Generator(bit_generator(seed))
                            for _ in range(2))
    if primed:
        split_rng.integers(0, 7)
        joint_rng.integers(0, 7)
    split = as_list(dist.sample_values(split_rng, a)) \
        + as_list(dist.sample_values(split_rng, b))
    assert split == as_list(dist.sample_values(joint_rng, a + b))
    assert_same_stream_position(split_rng, joint_rng)


def test_constraint_class_needs_sample_values():
    # The batch sampler's two halves are set together or not at all.
    for half in ("sample_values", "constraint_class"):
        with pytest.raises(ValueError, match="together"):
            dataclasses.replace(BATCHED["barrier"], **{half: None})


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


def test_convex_decoder_reports_rejections_past_its_words():
    """Zero 32-bit halves are rejected by ``integers(1, 4)`` (m = 3); when
    they run to the end of the block the decoder reads no further."""
    polygon_coin = 1 << 63
    m_is_3 = 0xA0000000  # the buffered half: integers(0, 4) draws 2
    assert _decode_mixture([polygon_coin, 0, 0], 1, 1, m_is_3) is None
    assert _decode_mixture([polygon_coin], 1, 0, 0) is None  # no half for m
    assert _decode_mixture([0], 1, 0, 0) is None  # a band coin, no level
    values, used, has_half, half = _decode_mixture(
        [polygon_coin, 0, 0, 0x7FFFFFFF_80000000], 1, 1, m_is_3)
    assert values == [PolygonConstraint(3, 2)]
    assert (used, has_half, half) == (4, 1, 0x7FFFFFFF)


def test_convex_mixture_falls_back_to_scalar_loop_when_words_run_out(
        monkeypatch):
    monkeypatch.setattr(counterexamples, "_decode_mixture",
                        lambda words, n, has_half, half: None)
    dist = BATCHED["convex_mixture"]
    values_rng, scalar_rng = stream(4), stream(4)
    values_rng.integers(0, 7)
    scalar_rng.integers(0, 7)
    values = dist.sample_values(values_rng, 30)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(30))
    assert tuple(map(dist.constraint_class, values)) == scalar
    assert_same_stream_position(values_rng, scalar_rng)


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
    dist = uniform_barrier_distribution
    batch_rng, scalar_rng = ScriptedUniform(script), ScriptedUniform(script)
    batch = dist.sample_tuple(batch_rng, 4)
    scalar = tuple(dist.sample(scalar_rng) for _ in range(4))
    assert [z.theta for z in batch] == [1.0, 2.0, 0.5, 0.7]
    assert batch == scalar
    assert batch_rng.values == scalar_rng.values == [3.0]


@settings(deadline=None, max_examples=40)
@given(data=st.data(),
       script=st.lists(st.sampled_from([0.0, math.pi, 0.5, 1.0, 2.0, 3.0]),
                       max_size=20))
def test_barrier_values_concatenate_across_refills(data, script):
    """The barrier sampler's refill of rejected endpoints keeps the split
    draws those of one call."""
    accepted = sum(0.0 < u < math.pi for u in script)
    a = data.draw(st.integers(min_value=0, max_value=accepted))
    b = data.draw(st.integers(min_value=0, max_value=accepted - a))
    dist = BATCHED["barrier"]
    split_rng, joint_rng = ScriptedUniform(script), ScriptedUniform(script)
    split = as_list(dist.sample_values(split_rng, a)) \
        + as_list(dist.sample_values(split_rng, b))
    assert split == as_list(dist.sample_values(joint_rng, a + b))
    assert split_rng.values == joint_rng.values


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_barrier_sampler_returns_a_float64_array(n):
    values = uniform_barrier_distribution.sample_values(stream(n), n)
    assert type(values) is np.ndarray
    assert values.dtype == np.float64 and values.shape == (n,)


def test_barrier_sampler_refill_returns_a_float64_array():
    script = [0.0, 1.0, math.pi, 2.0, 0.5, 0.7, 3.0]
    rng = ScriptedUniform(script)
    values = uniform_barrier_distribution.sample_values(rng, 4)
    assert type(values) is np.ndarray and values.dtype == np.float64
    assert values.tolist() == [1.0, 2.0, 0.5, 0.7]
    assert rng.values == [3.0]


# ---------------------------------------------------------------------------
# The atom replay and the geometric mapping, each side of its crossover
# ---------------------------------------------------------------------------


def crossover_sizes(threshold):
    return [0, 1, threshold - 1, threshold, threshold + 1, 1000]


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from(crossover_sizes(_ATOM_ARRAY_FROM)),
       primed=st.booleans(),
       bit_generator=st.sampled_from([np.random.PCG64, np.random.MT19937]))
def test_atom_replay_is_the_scalar_loop(seed, n, primed, bit_generator):
    """Every value by ``float.hex`` (so each zero is +0.0), the state with
    its buffered 32-bit half, and the next draws, against ``n`` scalar
    ``_atom_sample`` calls, on PCG64 and on MT19937."""
    values_rng, scalar_rng = (np.random.Generator(bit_generator(seed))
                              for _ in range(2))
    if primed:
        values_rng.integers(0, 5)
        scalar_rng.integers(0, 5)
    values = _atom_sample_values(values_rng, n)
    assert isinstance(values, list) == (n < _ATOM_ARRAY_FROM)
    scalar = [_atom_sample(scalar_rng).a for _ in range(n)]
    assert list(map(float.hex, as_list(values))) == \
        list(map(float.hex, scalar))
    assert values_rng.random() == scalar_rng.random()
    assert_same_stream_position(values_rng, scalar_rng)


def numpy_geometric_search(u, p=0.5):
    """numpy's ``random_geometric_search``, which ``geometric`` runs for
    p >= 1/3, on the double ``u`` it draws."""
    x, total, prod, q = 1, p, p, 1.0 - p
    while u > total:
        prod *= q
        total += prod
        x += 1
    return x


def generator_drawing(u):
    """A PCG64 generator whose next double is ``u``.  Its next state has
    high word 0, so the output word, rotated by 0, is the low word."""
    inc = stream(0).bit_generator.state["state"]["inc"]
    word = int(u * 2**53) << 11
    state = ((word - inc) * pow(PCG64_MULT, -1, 1 << 128)) & MASK128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


@pytest.mark.parametrize("u", [
    0.0, 2.0**-53, 0.5, math.nextafter(0.5, 1.0), 0.75, 1.0 - 2.0**-53])
def test_geometric_mapping_is_numpys_search_loop(u):
    assert generator_drawing(u).random() == u
    x = numpy_geometric_search(u)
    assert generator_drawing(u).geometric(0.5) == x
    assert x - 1 == max(0, -math.frexp(1.0 - u)[1])
    values_rng, scalar_rng = generator_drawing(u), generator_drawing(u)
    n = _GEOMETRIC_ARRAY_FROM
    values = _geometric_sample_values(values_rng, n)
    assert values[0] == x - 1
    assert values.tolist() == [int(scalar_rng.geometric(0.5)) - 1
                               for _ in range(n)]
    assert_same_stream_position(values_rng, scalar_rng)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1),
       n=st.sampled_from(crossover_sizes(_GEOMETRIC_ARRAY_FROM)),
       primed=st.booleans())
def test_geometric_sampler_is_scalar_geometric_calls(seed, n, primed):
    values_rng, scalar_rng = stream(seed), stream(seed)
    if primed:
        values_rng.integers(0, 5)
        scalar_rng.integers(0, 5)
    values = _geometric_sample_values(values_rng, n)
    assert isinstance(values, list) == (n < _GEOMETRIC_ARRAY_FROM)
    assert as_list(values) == [int(scalar_rng.geometric(0.5)) - 1
                               for _ in range(n)]
    assert values_rng.random() == scalar_rng.random()
    assert_same_stream_position(values_rng, scalar_rng)


@pytest.mark.parametrize("name", BATCHED)
def test_sample_tuple_constraints_hold_python_numbers(name):
    """As ``sample`` builds them, whatever ``sample_values`` returns: ints
    for the excluded naturals and polygon indices, floats for the rest."""
    number = int if name == "geometric" else float
    # 1000 values come as an array from the atom and geometric samplers.
    for n in (60, 1000):
        for z in BATCHED[name].sample_tuple(stream(2), n):
            if isinstance(z, PolygonConstraint):
                assert type(z.m) is int and type(z.i) is int
            else:
                value, = dataclasses.astuple(z)
                assert type(value) is number


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
