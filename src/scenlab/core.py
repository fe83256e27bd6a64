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

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .rng import stream

ConstraintTuple = tuple  # ordered, multiplicity-preserving sample (z_1, ..., z_N)

HOEFFDING_DELTA = 0.05
NESTED_MC_SAMPLES = 2000


def hoeffding_radius(n: int, delta: float = HOEFFDING_DELTA) -> float:
    """Two-sided distribution-free confidence radius sqrt(ln(2/delta) / (2n))."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


class GeneratorExhausted(Exception):
    """Raised by a tuple generator that cannot produce further probes."""


@dataclass(frozen=True)
class ScenarioSystem:
    """A scenario decision algorithm together with its satisfaction relation.

    ``decide`` must be deterministic: identical tuples yield equal decisions.
    ``decisions_equal`` declares the system's decision equality (exact by
    default; geometric systems use an absolute tolerance).  ``decision_key``
    maps a decision to a hashable value for exact distinct-decision counting.

    ``satisfies_many``, when provided, is an array-native form of
    ``satisfies`` for the nested Monte Carlo risk oracle:
    ``satisfies_many(x, vz)`` must equal ``[satisfies(x, z) for z in vz]``
    element for element, so risk estimates do not depend on it.
    """

    name: str
    decide: Callable[[ConstraintTuple], Any]
    satisfies: Callable[[Any, Any], bool]
    decisions_equal: Callable[[Any, Any], bool] = field(default=lambda a, b: a == b)
    decision_key: Callable[[Any], Any] = field(default=lambda x: x)
    satisfies_many: Optional[
        Callable[[Any, ConstraintTuple], Sequence[bool]]] = None


@dataclass(frozen=True)
class ConstraintDistribution:
    """Samplable probability measure on the constraint space.

    ``analytic_violation``, when provided, returns the exact risk of a
    decision under this measure and bypasses nested Monte Carlo entirely.

    ``sample_many``, when provided, is a batch sampler: ``sample_many(rng, n)``
    must return exactly the constraints that ``n`` calls of ``sample`` would
    return and leave ``rng`` at exactly the same stream position, so seeded
    outputs do not depend on whether a tuple was drawn in batch.
    """

    sample: Callable[[np.random.Generator], Any]
    analytic_violation: Optional[Callable[[Any], float]] = None
    sample_many: Optional[
        Callable[[np.random.Generator, int], ConstraintTuple]] = None

    def sample_tuple(self, rng: np.random.Generator, n: int) -> ConstraintTuple:
        if n < 0:
            raise ValueError("tuple length must be >= 0")
        if self.sample_many is not None:
            return self.sample_many(rng, n)
        return tuple(self.sample(rng) for _ in range(n))


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

    def to_jsonable(self) -> dict:
        return asdict(self)


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

    ``status`` is one of ``pass``, ``counterexample``, ``inconsistent``
    (stability precondition failed) or ``generator_exhausted``.
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

    def to_jsonable(self, encode_constraint=None, encode_decision=None) -> dict:
        enc_z = encode_constraint or (lambda z: repr(z))
        enc_x = encode_decision or (lambda x: repr(x))
        out = {
            "system": self.system,
            "property": self.property_name,
            "trials_requested": self.trials_requested,
            "trials_run": self.trials_run,
            "seed": self.seed,
            "status": self.status,
        }
        if self.counterexample is not None:
            out["counterexample"] = [enc_z(z) for z in self.counterexample]
        if self.extra_constraint is not None:
            out["extra_constraint"] = enc_z(self.extra_constraint)
        if self.decision_before is not None:
            out["decision_before"] = enc_x(self.decision_before)
        if self.decision_after is not None:
            out["decision_after"] = enc_x(self.decision_after)
        return out


def satisfies_all(system: ScenarioSystem, x: Any, vz: ConstraintTuple) -> bool:
    """True iff ``x`` satisfies every constraint in ``vz`` (true for empty)."""
    return all(system.satisfies(x, z) for z in vz)


def _draw(generator, rng) -> Any:
    """Pull the next item from a callable or iterator generator."""
    if callable(generator):
        return generator(rng)
    try:
        return next(generator)
    except StopIteration:
        raise GeneratorExhausted from None


def check_consistency(system: ScenarioSystem,
                      tuple_generator,
                      trials: int,
                      seed: int = 0) -> PropertyReport:
    """Probe that decisions satisfy all of their own input constraints.

    ``tuple_generator`` is either a callable ``rng -> ConstraintTuple`` or an
    iterator of tuples.  Returns the first failing tuple, if any; generator
    exhaustion is reported distinctly from a property failure.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for trial in range(trials):
        rng = stream(seed, trial)
        try:
            vz = _draw(tuple_generator, rng)
        except GeneratorExhausted:
            return PropertyReport(system.name, "consistency", trials, trial,
                                  seed, "generator_exhausted")
        x = system.decide(vz)
        if not satisfies_all(system, x, vz):
            return PropertyReport(system.name, "consistency", trials, trial + 1,
                                  seed, "counterexample",
                                  counterexample=vz, decision_before=x)
    return PropertyReport(system.name, "consistency", trials, trials, seed, "pass")


def check_stability(system: ScenarioSystem,
                    tuple_generator,
                    extra_constraint_generator,
                    trials: int,
                    seed: int = 0) -> PropertyReport:
    """Probe stability: appending a satisfied constraint must not change the
    decision (under the system's declared decision equality).

    Consistency of each probed tuple is checked lazily first; an inconsistency
    is reported as a distinct failure.  Trials whose extra constraint is
    violated by the decision are vacuous and count as run.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for trial in range(trials):
        rng = stream(seed, trial)
        try:
            vz = _draw(tuple_generator, rng)
            z_extra = _draw(extra_constraint_generator, rng)
        except GeneratorExhausted:
            return PropertyReport(system.name, "stability", trials, trial,
                                  seed, "generator_exhausted")
        x = system.decide(vz)
        if not satisfies_all(system, x, vz):
            return PropertyReport(system.name, "stability", trials, trial + 1,
                                  seed, "inconsistent",
                                  counterexample=vz, decision_before=x)
        if not system.satisfies(x, z_extra):
            continue
        x_after = system.decide(vz + (z_extra,))
        if not system.decisions_equal(x, x_after):
            return PropertyReport(system.name, "stability", trials, trial + 1,
                                  seed, "counterexample",
                                  counterexample=vz, extra_constraint=z_extra,
                                  decision_before=x, decision_after=x_after)
    return PropertyReport(system.name, "stability", trials, trials, seed, "pass")


def _violation_rate(system: ScenarioSystem,
                    x: Any,
                    dist: ConstraintDistribution,
                    rng: np.random.Generator,
                    samples: int) -> float:
    """Risk of ``x``: exact when ``dist`` is analytic, else the fraction of
    ``samples`` fresh draws from ``rng`` that ``x`` violates."""
    if dist.analytic_violation is not None:
        v = dist.analytic_violation(x)
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"analytic violation {v} outside [0, 1]")
        return v
    # satisfies never touches rng, so drawing all samples first consumes the
    # same stream as interleaving draws and checks.
    vz = dist.sample_tuple(rng, samples)
    if system.satisfies_many is not None:
        satisfied = system.satisfies_many(x, vz)
    else:
        satisfied = [system.satisfies(x, z) for z in vz]
    return sum(1 for ok in satisfied if not ok) / samples


def violation_probability_mc(system: ScenarioSystem,
                             x: Any,
                             dist: ConstraintDistribution,
                             samples: int,
                             seed: int = 0) -> RiskEstimate:
    """Estimate the risk of ``x`` under ``dist``.

    When the distribution carries an analytic evaluator, the exact value is
    returned with radius 0 and the Monte Carlo path is bypassed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    analytic = dist.analytic_violation is not None
    risk = _violation_rate(system, x, dist, stream(seed, 0), samples)
    radius = 0.0 if analytic else hoeffding_radius(samples)
    return RiskEstimate(risk, radius, samples, seed, analytic=analytic)


def _risk_of_trial(system: ScenarioSystem,
                   dist: ConstraintDistribution,
                   n: int,
                   seed: int,
                   n_index: int,
                   trial: int,
                   inner_samples: int) -> float:
    rng = stream(seed, n_index, trial)
    x = system.decide(dist.sample_tuple(rng, n))
    return _violation_rate(system, x, dist, rng, inner_samples)


def pac_curve(system: ScenarioSystem,
              dist: ConstraintDistribution,
              epsilon: float,
              n_list: Sequence[int],
              trials: int,
              seed: int = 0,
              threads: int = 1,
              inner_samples: int = NESTED_MC_SAMPLES) -> PacCurve:
    """Empirical curve of q_hat(N) = fraction of trials whose decision has
    risk above ``epsilon``.

    Each trial samples ``vz ~ dist^N`` on its own stream, so the result is
    independent of ``threads``.  Negative N, ``threads`` < 1 and analytic
    risks outside [0, 1] raise ``ValueError``.  Without an analytic
    evaluator the risk is estimated by nested Monte Carlo and the curve is
    flagged ``nested_mc`` (wider, unreported uncertainty on each inner
    estimate).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if not n_list:
        raise ValueError("n_list must be non-empty")
    ns = sorted(set(int(n) for n in n_list))
    if len(ns) != len(n_list):
        raise ValueError("n_list entries must be distinct")
    if ns[0] < 0:
        raise ValueError("n_list entries must be >= 0")

    rows = []
    for n_index, n in enumerate(ns):
        def task(trial: int, n=n, n_index=n_index) -> float:
            return _risk_of_trial(system, dist, n, seed, n_index, trial,
                                  inner_samples)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                risks = list(pool.map(task, range(trials)))
        else:
            risks = [task(t) for t in range(trials)]
        exceed = sum(1 for v in risks if v > epsilon)
        rows.append(PacRow(n, exceed / trials, hoeffding_radius(trials)))
    return PacCurve(epsilon, trials, seed, tuple(rows),
                    nested_mc=dist.analytic_violation is None)
