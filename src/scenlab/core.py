"""Abstract scenario-decision framework and falsification-style testers.

A scenario decision algorithm maps a finite tuple of sampled constraints to a
single decision.  This module provides:

* the :class:`ScenarioSystem` wrapper (decide + satisfies + decision equality),
* samplable constraint distributions with optional analytic risk evaluators,
* Monte Carlo risk estimation with Hoeffding confidence radii,
* empirical PAC curves ``q_hat(N) = fraction of trials with risk > epsilon``,
* randomized consistency and stability checkers.

The testers falsify: a "pass" is evidence over the probed tuples, not a proof
over the (generally infinite) constraint space.
"""

from __future__ import annotations

import bisect
import csv
import functools
import io
import itertools
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional, Sequence

from .geometry import coords_equal, coords_key
from .rng import streams

if TYPE_CHECKING:
    import numpy as np

ConstraintTuple = tuple  # ordered, multiplicity-preserving sample (z_1, ..., z_N)
# A probe generator, rng -> value.  The name is quoted because numpy is
# imported here for type checkers only: ``import scenlab`` loads no numpy
# (about 0.1 s, and 6 MB of resident memory for numpy.random); each
# function that computes with it imports it on first use.
Draw = Callable[["np.random.Generator"], Any]

HOEFFDING_DELTA = 0.05
NESTED_MC_SAMPLES = 2000


class BudgetExceededError(Exception):
    """Enumeration would exceed ``analyzers.DEFAULT_TUPLE_BUDGET`` tuples.

    ``analyzers`` raises it and re-exports it.  It lives here so that the
    CLI, which reports it as a usage error on every command, can catch it
    without loading ``analyzers``.
    """


def is_real(value: Any) -> bool:
    """Whether ``value`` is an int or a float that is not a ``bool`` (numpy
    float scalars subclass ``float``): the numbers a constraint may hold."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def hoeffding_radius(n: int) -> float:
    """Two-sided radius sqrt(ln(2/delta) / (2n)), delta = HOEFFDING_DELTA."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * n))


class ArrayFold(NamedTuple):
    """The int64 array form of a :class:`Fold` whose decision is a function
    of an int state that each constraint extends by an int operand.

    The state of a subset of a tuple is ``init`` extended by the operands
    of its constraints.  ``extend`` is ``operator.add`` or
    ``operator.or_``, which on int64 arrays are the ufuncs ``add`` and
    ``bitwise_or``: associative and commutative with identity 0, so the
    subsets of a tuple can be built from those of its two halves, in any
    order.  ``operands(vz)`` is the list of the constraints' int operands,
    or ``None`` when the state of some subset of ``vz`` might not fit an
    int64; then the searches walk the fold.  ``finish`` maps an int64
    array of states to an int array of the decisions of their subsets,
    which the fold itself decides on them.  ``operands`` and ``init`` are
    Python ints, and nothing here imports numpy until ``finish`` runs.

    It is a ``NamedTuple`` because ``import scenlab.cli`` creates the
    class, which takes about 0.5 ms less than for a frozen dataclass.
    """

    init: int
    extend: Callable[[Any, Any], Any]
    operands: Callable[[Sequence], Optional[list[int]]]
    finish: Callable[["np.ndarray"], "np.ndarray"]


@dataclass(frozen=True)
class Fold:
    """A decision declared as a left fold over the constraint tuple.

    Calling the fold on ``vz`` decides it: ``finish`` of ``extend`` folded
    over ``vz`` from ``init``.  ``extend(state, z)`` returns a new state and
    never mutates its input, so a state can be shared by every tuple that
    extends the same prefix; the exhaustive searches in ``analyzers`` extend
    each prefix once (its module docstring gives their walk orders).
    States are hashable, and ``finish`` is a function of the state alone:
    the shattering walk and the adversarial experiment finish each
    distinct state once per call, straight into its satisfied subset of
    their candidates.

    ``array`` is an optional :class:`ArrayFold`, which only ``alg_sum`` and
    ``alg_min`` set: it lets scheme counting and compression-map search
    build the states of every subset as one int64 array.  A fold without
    one, or a new ``Fold`` built from another's ``init``, ``extend`` and
    ``finish``, is walked node by node.
    """

    init: Any
    extend: Callable[[Any, Any], Any]
    finish: Callable[[Any], Any]
    array: Optional[ArrayFold] = None

    def __call__(self, vz: ConstraintTuple) -> Any:
        state, extend = self.init, self.extend
        for z in vz:
            state = extend(state, z)
        return self.finish(state)


@dataclass(frozen=True)
class ScenarioSystem:
    """A scenario decision algorithm together with its satisfaction relation.

    ``decide`` must be deterministic: identical tuples yield equal decisions.
    Decision equality is exact, or, with ``coords`` set, agreement of the
    vectors ``coords(x)`` within ``POINT_TOL`` per coordinate (geometric
    systems); :meth:`decisions_equal` and :meth:`decision_key` apply it.

    Decisions are hashable, and decisions that compare equal (``==``)
    satisfy the same constraints: the shattering check and the adversarial
    experiment of ``analyzers`` check each distinct decision against their
    candidates once per call, and scheme counting puts the decisions of
    systems without ``coords`` into a set.  Floats that compare equal
    differ at most in the sign of a zero, and no shipped ``satisfies``
    reads that sign except through ``abs``, ``hypot``, ``==`` and ordered
    comparisons.  Without ``coords``, scheme counting and compression-map
    search use the decision and ``==`` directly, with no call of
    :meth:`decision_key` or :meth:`decisions_equal` per enumerated tuple,
    so an override of either method does not reach them.

    A ``decide`` that is a :class:`Fold`, or wraps one by
    ``functools.wraps``, is walked prefix by prefix in the exhaustive
    searches of ``analyzers`` (see its module docstring); any other
    ``decide`` is decided whole.

    Two optional hooks work on the plain values that a distribution's
    ``sample_values`` draws, so the caller builds no constraint objects.
    Each takes what its paired sampler returns, a list or a 1-D numpy
    array, and one sampler may return either at different tuple lengths
    (see :class:`ConstraintDistribution`).  For the distribution's
    ``constraint_class`` ``cls``, with ``values`` read as Python numbers
    (``values.tolist()`` for an array), each of which ``cls`` accepts:

    * ``decide_values(values)`` must equal ``decide(tuple(map(cls,
      values)))``, so PAC curves do not depend on it;
    * ``satisfies_values(x, values)`` must equal ``[satisfies(x, cls(v))
      for v in values]`` element for element, so nested Monte Carlo risk
      estimates do not depend on it.

    The paired sampler draws only values that ``cls`` accepts.  On a value
    it refuses a hook need not raise: ``alg_sum_values([-1])`` returns 0,
    while ``ExclusionConstraint(-1)`` raises ``ValueError``.
    """

    name: str
    decide: Callable[[ConstraintTuple], Any]
    satisfies: Callable[[Any, Any], bool]
    coords: Optional[Callable[[Any], Sequence[float]]] = None
    satisfies_values: Optional[Callable[[Any, list | np.ndarray],
                                        Sequence[bool]]] = None
    decide_values: Optional[Callable[[list | np.ndarray], Any]] = None

    def decisions_equal(self, a: Any, b: Any) -> bool:
        """The system's decision equality."""
        if self.coords is None:
            return a == b
        return coords_equal(self.coords(a), self.coords(b))

    def decision_key(self, x: Any) -> Any:
        """Hashable value of ``x`` for distinct-decision counting."""
        if self.coords is None:
            return x
        return coords_key(self.coords(x))


@dataclass(frozen=True)
class ConstraintDistribution:
    """Samplable probability measure on the constraint space.

    ``analytic_violation``, when provided, returns the exact risk of a
    decision under this measure and bypasses nested Monte Carlo entirely.

    ``sample_values`` and ``constraint_class``, set together or not at all,
    are a batch sampler: ``sample_values(rng, n)`` draws plain values and
    ``constraint_class`` builds a value's constraint.  The values come as a
    list, or as a 1-D numpy array when numpy draws them as numbers: the
    barrier angles, and from a crossover size up the atom-plus-uniform
    points and the geometric naturals.  They reach a system's
    ``decide_values`` and ``satisfies_values`` as drawn, and a list or an
    array may come from the same sampler at different ``n``;
    ``sample_tuple`` builds its constraints from Python numbers either way,
    as ``sample`` does (``ExclusionConstraint`` refuses a numpy integer).
    The constraints of the values must be exactly those of ``n`` calls of
    ``sample``, and ``rng`` must be left at exactly their stream position,
    so seeded outputs do not depend on whether a tuple was drawn in batch.

    ``dominating`` is a tuple of constraints that dominate the measure: under
    the satisfaction relation of the systems the distribution is paired
    with, a decision that satisfies every one of them satisfies every
    constraint ``sample`` can draw.  Such a decision has risk exactly 0, and
    nested Monte Carlo returns that without drawing (see
    :func:`_violation_rate`).
    """

    sample: Callable[[np.random.Generator], Any]
    analytic_violation: Optional[Callable[[Any], float]] = None
    sample_values: Optional[Callable[[np.random.Generator, int],
                                     list | np.ndarray]] = None
    constraint_class: Optional[Callable[[Any], Any]] = None
    dominating: tuple = ()

    def __post_init__(self) -> None:
        if (self.sample_values is None) != (self.constraint_class is None):
            raise ValueError("set sample_values and constraint_class together")

    def sample_tuple(self, rng: np.random.Generator, n: int) -> ConstraintTuple:
        if n < 0:
            raise ValueError("tuple length must be >= 0")
        if self.sample_values is None:
            return tuple(self.sample(rng) for _ in range(n))
        values = self.sample_values(rng, n)
        if not isinstance(values, list):  # a numpy array: its Python numbers
            values = values.tolist()
        return tuple(map(self.constraint_class, values))


@dataclass(frozen=True)
class RiskEstimate:
    estimate: float
    confidence_radius: float
    sample_count: int
    seed: int
    analytic: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError(f"risk estimate {self.estimate} outside [0, 1]")

    def interval(self) -> tuple[float, float]:
        return (max(0.0, self.estimate - self.confidence_radius),
                min(1.0, self.estimate + self.confidence_radius))


@dataclass(frozen=True)
class PacRow:
    n: int
    q_hat: float
    ci_radius: float


@dataclass(frozen=True)
class PacCurve:
    """Empirical PAC curve: one row per sample size N."""

    epsilon: float
    trials: int
    seed: int
    rows: tuple[PacRow, ...]
    nested_mc: bool = False

    def __post_init__(self) -> None:
        ns = [r.n for r in self.rows]
        if ns != sorted(set(ns)):
            raise ValueError("rows must be sorted by N, strictly increasing")
        for r in self.rows:
            if not 0.0 <= r.q_hat <= 1.0:
                raise ValueError(f"q_hat {r.q_hat} outside [0, 1]")

    def q_hat(self, n: int) -> float:
        for r in self.rows:
            if r.n == n:
                return r.q_hat
        raise KeyError(n)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["N", "q_hat", "ci_radius", "epsilon", "trials", "seed"])
        for r in self.rows:
            writer.writerow([r.n, repr(r.q_hat), repr(r.ci_radius),
                             repr(self.epsilon), self.trials, self.seed])
        return buf.getvalue()

    def to_jsonable(self) -> dict:
        return {**asdict(self),
                "rows": [{"N": r.n, "q_hat": r.q_hat, "ci_radius": r.ci_radius}
                         for r in self.rows]}


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a randomized property probe (consistency or stability).

    ``status`` is one of ``pass``, ``counterexample`` or ``inconsistent``
    (a stability probe's consistency precondition failed).
    """

    system: str
    property_name: str
    trials_requested: int
    trials_run: int
    seed: int
    status: str
    counterexample: Optional[ConstraintTuple] = None
    extra_constraint: Any = None
    decision_before: Any = None
    decision_after: Any = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def satisfies_all(system: ScenarioSystem, x: Any, vz: ConstraintTuple) -> bool:
    """True iff ``x`` satisfies every constraint in ``vz`` (true for empty)."""
    return all(system.satisfies(x, z) for z in vz)


def _probe(system: ScenarioSystem, tuple_generator: Draw,
           extra_constraint_generator: Optional[Draw],
           trials: int, seed: int) -> PropertyReport:
    """Consistency probe, or stability probe when an extra-constraint
    generator is given: trial ``t`` draws its tuple, then (stability only)
    its extra constraint, from ``stream(seed, t)``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    stability = extra_constraint_generator is not None
    report = functools.partial(
        PropertyReport, system.name,
        "stability" if stability else "consistency", trials)
    for trial, rng in enumerate(streams(seed, trials)):
        vz = tuple_generator(rng)
        x = system.decide(vz)
        if not satisfies_all(system, x, vz):
            return report(trial + 1, seed,
                          "inconsistent" if stability else "counterexample",
                          counterexample=vz, decision_before=x)
        if not stability:
            continue
        z_extra = extra_constraint_generator(rng)
        if not system.satisfies(x, z_extra):
            continue
        x_after = system.decide(vz + (z_extra,))
        if not system.decisions_equal(x, x_after):
            return report(trial + 1, seed, "counterexample",
                          counterexample=vz, extra_constraint=z_extra,
                          decision_before=x, decision_after=x_after)
    return report(trials, seed, "pass")


def check_consistency(system: ScenarioSystem, tuple_generator: Draw,
                      trials: int, seed: int = 0) -> PropertyReport:
    """Probe that decisions satisfy all of their own input constraints.

    ``tuple_generator`` maps a trial's stream to a tuple.  Status ``pass``,
    or ``counterexample`` with the first failing tuple and its decision.
    """
    return _probe(system, tuple_generator, None, trials, seed)


def check_stability(system: ScenarioSystem, tuple_generator: Draw,
                    extra_constraint_generator: Draw,
                    trials: int, seed: int = 0) -> PropertyReport:
    """Probe stability: appending a satisfied constraint must not change the
    decision (under the system's declared decision equality).

    Each probed tuple is checked for consistency first, on the same tuples
    that :func:`check_consistency` probes at the same seed; a failure there
    is status ``inconsistent``.  A decision changed by a satisfied extra
    constraint is status ``counterexample``, otherwise ``pass``.  Trials
    whose extra constraint is violated by the decision are vacuous and
    count as run.
    """
    return _probe(system, tuple_generator, extra_constraint_generator,
                  trials, seed)


def _dominated(system: ScenarioSystem,
               dist: ConstraintDistribution) -> Callable[[Any], bool]:
    """Whether a decision satisfies every constraint of ``dist.dominating``."""
    return lambda x: all(system.satisfies(x, z) for z in dist.dominating)


def _violation_rate(system: ScenarioSystem,
                    x: Any,
                    dist: ConstraintDistribution,
                    rng: np.random.Generator,
                    samples: int,
                    dominated: Callable[[Any], bool],
                    stop: Optional[int] = None) -> float:
    """Risk of ``x``: exact when ``dist`` is analytic, else the fraction of
    ``samples`` fresh draws from ``rng`` that ``x`` violates, checked on the
    drawn values when ``dist`` has a ``constraint_class`` and ``system`` has
    ``satisfies_values`` (both contracts make that fraction the same).

    A decision that satisfies all of ``dist.dominating`` violates no draw,
    so its fraction, 0, is returned without drawing (no caller reads ``rng``
    again).  ``dominated`` answers that question: ``_dominated(system,
    dist)``, which ``pac_curve`` caches by decision.

    The draws come in blocks of ``NESTED_MC_SAMPLES // 8``, which together
    draw the values of one call (the ``sample_values`` and ``sample_tuple``
    contracts).  With a violation count ``stop``, drawing ends after the
    block that settles whether the count reaches ``stop``: it has, or the
    draws left cannot make it.  The fraction returned then counts only the
    draws made, but it reaches ``stop / samples`` exactly when the full
    fraction does, which is all that ``pac_curve`` reads."""
    if dist.analytic_violation is not None:
        v = dist.analytic_violation(x)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"analytic violation {v} outside [0, 1]")
        return v
    if dist.dominating and dominated(x):
        return 0.0
    on_values = (dist.constraint_class is not None
                 and system.satisfies_values is not None)
    violated, left = 0, samples
    # satisfies never touches rng, so drawing a block before checking it
    # consumes the same stream as interleaving draws and checks.
    while left:
        size = min(NESTED_MC_SAMPLES // 8, left)
        left -= size
        if on_values:
            satisfied = system.satisfies_values(x, dist.sample_values(rng, size))
        else:
            satisfied = [system.satisfies(x, z)
                         for z in dist.sample_tuple(rng, size)]
        violated += len(satisfied) - sum(satisfied)
        if stop is not None and (violated >= stop or violated + left < stop):
            break
    return violated / samples


def violation_probability_mc(system: ScenarioSystem,
                             x: Any,
                             dist: ConstraintDistribution,
                             samples: int,
                             seed: int = 0) -> RiskEstimate:
    """Estimate the risk of ``x`` under ``dist``: the exact value, with
    radius 0, when ``dist`` is analytic, else the share of ``samples`` draws
    from ``stream(seed, 0)`` (``streams(seed, 1)``) that ``x`` violates,
    with its Hoeffding radius.  A decision that ``dist.dominating`` settles
    draws nothing (see ``_violation_rate``) but keeps that radius and
    ``analytic=False``."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    analytic = dist.analytic_violation is not None
    rng, = streams(seed, 1)
    risk = _violation_rate(system, x, dist, rng, samples,
                           _dominated(system, dist))
    radius = 0.0 if analytic else hoeffding_radius(samples)
    return RiskEstimate(risk, radius, samples, seed, analytic=analytic)


def pac_curve(system: ScenarioSystem,
              dist: ConstraintDistribution,
              epsilon: float,
              n_list: Sequence[int],
              trials: int,
              seed: int = 0) -> PacCurve:
    """Empirical curve of q_hat(N) = fraction of trials whose decision has
    risk above ``epsilon``.

    Trials run in order, each sampling ``vz ~ dist^N`` on its own stream.
    N entries that are negative, boolean or not integral and analytic risks
    outside [0, 1] raise ``ValueError``.  Without an analytic evaluator the
    risk is estimated from ``NESTED_MC_SAMPLES`` inner draws and the curve
    is flagged ``nested_mc`` (wider, unreported uncertainty on each inner
    estimate).  ``_violation_rate`` skips the draws of a decision that
    ``dist.dominating`` settles and stops them once they settle whether the
    risk exceeds ``epsilon``; neither changes a row.

    When ``dist`` carries a ``constraint_class`` and ``system`` carries
    ``decide_values``, each decision is taken on the sampled values, which
    by both contracts changes no row.  Every registry system does, so no
    constraint object is built for a trial's tuple.

    Each distinct decision is checked against ``dist.dominating`` once per
    call: the answers are cached by decision, which is exact because
    decisions are hashable and ``==``-equal decisions satisfy the same
    constraints (the :class:`ScenarioSystem` contract).

    The stream of a row's trial is ``stream(seed, index of N in the sorted
    distinct n_list, trial)``, so adding an N shifts the streams, and the
    values, of the rows above it: ``min-no-map`` at seed 0, epsilon 0.1
    and 200 trials gives q_hat(3) = 0.895 alone but 0.88 with N in [1, 3].
    One ``streams(seed, len(ns), trials)`` pass yields them in row order.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not n_list:
        raise ValueError("n_list must be non-empty")
    if any(isinstance(n, bool) or not float(n).is_integer() for n in n_list):
        raise ValueError(f"n_list entries must be integers, got {list(n_list)}")
    ns = sorted(set(int(n) for n in n_list))
    if len(ns) != len(n_list):
        raise ValueError("n_list entries must be distinct")
    if ns[0] < 0:
        raise ValueError("n_list entries must be >= 0")

    on_values = (dist.constraint_class is not None
                 and system.decide_values is not None)
    dominated = functools.cache(_dominated(system, dist))
    # The least violation count whose fraction exceeds epsilon.
    stop = bisect.bisect_right(range(NESTED_MC_SAMPLES + 1), epsilon,
                               key=lambda v: v / NESTED_MC_SAMPLES)
    rows = []
    rngs = streams(seed, len(ns), trials)
    for n in ns:
        exceed = 0
        for rng in itertools.islice(rngs, trials):
            if on_values:
                x = system.decide_values(dist.sample_values(rng, n))
            else:
                x = system.decide(dist.sample_tuple(rng, n))
            if _violation_rate(system, x, dist, rng, NESTED_MC_SAMPLES,
                               dominated, stop) > epsilon:
                exceed += 1
        rows.append(PacRow(n, exceed / trials, hoeffding_radius(trials)))
    return PacCurve(epsilon, trials, seed, tuple(rows),
                    nested_mc=dist.analytic_violation is None)
