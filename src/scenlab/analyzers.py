"""Shattering search, compression certificates, and sample-size bounds.

Negative certificates produced here are sound for the untruncated
definitions: a ``not_shattered`` verdict or a per-tuple "no subtuple" result
can be re-validated independently from its serialized report.  Positive
shattering verdicts are truncated to tuples of length at most L and labelled
accordingly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Any, Optional, Sequence

from .core import ConstraintTuple, ScenarioSystem, hoeffding_radius
from .counterexamples import (
    BandConstraint,
    alg_convex_maxx1,
    sigma_polygon,
    tau,
)
from .geometry import point_in_convex, points_equal
from .rng import stream

DEFAULT_TUPLE_BUDGET = 2_000_000

# Boundary slack (signed distance) for the arc-polygon membership tests in the
# range-shattering witness.  Chord sag for unused arc points shrinks like the
# squared angular gap (~3e-10 at k = 8, ~4e-15 at k = 12), so the coarse 1e-9
# report tolerance would absorb genuinely-outside points; float error in the
# cross products is below 1e-20, so a 1e-15 slack classifies reliably.
WITNESS_MEMBERSHIP_TOL = 1e-15


class BudgetExceededError(Exception):
    """Enumeration would exceed the configured tuple budget."""

    def __init__(self, message: str, tuples_checked: int = 0) -> None:
        super().__init__(message)
        self.tuples_checked = tuples_checked


# ---------------------------------------------------------------------------
# Shattering (dVC) search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShatterCheckReport:
    system: str
    candidates: tuple
    max_len: int
    include_empty: bool
    verdict: str  # "shattered_up_to_L" | "not_shattered"
    tuples_checked: int
    counterexample: Optional[ConstraintTuple] = None
    satisfied_subset: Optional[frozenset] = None  # S(Alg(vz)) /\ Z'
    sampled_set: Optional[frozenset] = None       # set(vz)

    @property
    def shattered(self) -> bool:
        return self.verdict == "shattered_up_to_L"

    def to_jsonable(self, encode_constraint=repr) -> dict:
        out = {
            "system": self.system,
            "candidates": [encode_constraint(z) for z in self.candidates],
            "max_len": self.max_len,
            "include_empty": self.include_empty,
            "verdict": self.verdict,
            "tuples_checked": self.tuples_checked,
        }
        if self.counterexample is not None:
            out["counterexample"] = [encode_constraint(z)
                                     for z in self.counterexample]
            # Sets are emitted in candidate order (encodings do not sort).
            out["satisfied_subset"] = [encode_constraint(z)
                                       for z in self.candidates
                                       if z in self.satisfied_subset]
            out["sampled_set"] = [encode_constraint(z)
                                  for z in self.candidates
                                  if z in self.sampled_set]
        return out


def satisfied_subset(system: ScenarioSystem, x: Any,
                     candidates: Sequence) -> frozenset:
    """S(x) restricted to the candidate set: constraints x satisfies."""
    return frozenset(z for z in candidates if system.satisfies(x, z))


def check_shattered(system: ScenarioSystem,
                    candidates: Sequence,
                    max_len: Optional[int] = None,
                    include_empty: bool = True,
                    budget: int = DEFAULT_TUPLE_BUDGET) -> ShatterCheckReport:
    """Check the shattering equality S(Alg(vz)) /\\ Z' == set(vz) for every
    ordered tuple over Z' up to length L.

    Enumeration order is deterministic (lengths ascending, candidate order as
    given), so the reported counterexample is the first in that order.  A
    ``not_shattered`` verdict is sound for the untruncated definition;
    ``shattered_up_to_L`` is finite-scale evidence only.
    """
    candidates = tuple(candidates)
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate constraints must be distinct")
    if max_len is None:
        max_len = max(1, len(candidates))
    if max_len < 1:
        raise ValueError("max tuple length must be >= 1")

    k = len(candidates)
    total = sum(k ** r for r in range(0 if include_empty else 1, max_len + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} tuples exceed budget {budget}", tuples_checked=0)

    checked = 0
    lengths = range(0 if include_empty else 1, max_len + 1)
    for r in lengths:
        for vz in itertools.product(candidates, repeat=r):
            checked += 1
            x = system.decide(vz)
            realized = satisfied_subset(system, x, candidates)
            sampled = frozenset(vz)
            if realized != sampled:
                return ShatterCheckReport(
                    system.name, candidates, max_len, include_empty,
                    "not_shattered", checked, counterexample=vz,
                    satisfied_subset=realized, sampled_set=sampled)
    return ShatterCheckReport(system.name, candidates, max_len, include_empty,
                              "shattered_up_to_L", checked)


def revalidate_not_shattered(system: ScenarioSystem,
                             report: ShatterCheckReport) -> bool:
    """Re-run the report's counterexample and confirm the discrepancy."""
    if report.verdict != "not_shattered" or report.counterexample is None:
        return False
    x = system.decide(report.counterexample)
    realized = satisfied_subset(system, x, report.candidates)
    return (realized != frozenset(report.counterexample)
            and realized == report.satisfied_subset)


@dataclass(frozen=True)
class DvcLowerBoundReport:
    system: str
    lower_bound: int
    witness: Optional[tuple]
    set_reports: tuple[ShatterCheckReport, ...]


def dvc_lower_bound(system: ScenarioSystem,
                    candidate_sets: Sequence[Sequence],
                    max_len: Optional[int] = None,
                    include_empty: bool = True,
                    budget: int = DEFAULT_TUPLE_BUDGET) -> DvcLowerBoundReport:
    """Largest candidate-set size that is shattered up to L (0 if none)."""
    reports = []
    best = 0
    witness = None
    for zs in candidate_sets:
        report = check_shattered(system, zs, max_len=max_len,
                                 include_empty=include_empty, budget=budget)
        reports.append(report)
        if report.shattered and len(report.candidates) > best:
            best = len(report.candidates)
            witness = report.candidates
    return DvcLowerBoundReport(system.name, best, witness, tuple(reports))


# ---------------------------------------------------------------------------
# Compression maps and schemes
# ---------------------------------------------------------------------------


def find_compression_subtuple(system: ScenarioSystem,
                              vz: ConstraintTuple,
                              capacity: int,
                              budget: int = DEFAULT_TUPLE_BUDGET) -> Optional[tuple[int, ...]]:
    """Exhaustive search for an order-preserving subtuple of length <= d
    giving the same decision as the full tuple.

    Search order is shortest first, then lexicographic on (0-based) index
    tuples, so the result is deterministic.  ``None`` is a per-tuple
    impossibility certificate.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    n = len(vz)
    target = system.decide(vz)
    total = sum(math.comb(n, r) for r in range(min(capacity, n) + 1))
    if total > budget:
        raise BudgetExceededError(f"{total} subtuples exceed budget {budget}")
    for r in range(min(capacity, n) + 1):
        for indices in itertools.combinations(range(n), r):
            sub = tuple(vz[i] for i in indices)
            if system.decisions_equal(system.decide(sub), target):
                return indices
    return None


@dataclass(frozen=True)
class CompressionSchemeReport:
    """Counting certificate against the existence of a compression scheme.

    Over the canonical subset tuples of the base set T (|T| = k), the system
    realizes ``distinct_decisions`` different decisions, while any capacity-d
    scheme can reconstruct at most ``compressed_input_bound`` = sum of C(k, r)
    for r <= d decisions (every compression output is an order-preserving
    subtuple of its input).  ``impossible`` iff the former exceeds the latter.
    """

    system: str
    base_set: tuple
    tuple_length_bound: int
    capacity: int
    distinct_decisions: int
    compressed_input_bound: int
    impossible: bool
    permutations: bool

    def to_jsonable(self, encode_constraint=repr) -> dict:
        return {**asdict(self),
                "base_set": [encode_constraint(z) for z in self.base_set]}


def certify_no_compression_scheme(system: ScenarioSystem,
                                  base_set: Sequence,
                                  capacity: int,
                                  permutations: bool = False) -> CompressionSchemeReport:
    """Exact counting certificate: D distinct decisions vs B = sum C(k, r).

    By default each subset of the base set is evaluated once, in canonical
    (input) order -- exact for order-insensitive systems at 2^k cost.  The
    ``permutations`` flag additionally enumerates all orderings of each
    subset for order-sensitive systems.
    """
    base = tuple(base_set)
    if len(set(base)) != len(base):
        raise ValueError("base-set constraints must be distinct")
    k = len(base)
    if capacity < 0:
        raise ValueError("capacity must be >= 0")

    decisions = set()
    for r in range(k + 1):
        for subset in itertools.combinations(base, r):
            orderings = itertools.permutations(subset) if permutations \
                else (subset,)
            for vz in orderings:
                decisions.add(system.decision_key(system.decide(vz)))

    bound = sum(math.comb(k, r) for r in range(min(capacity, k) + 1))
    return CompressionSchemeReport(
        system=system.name, base_set=base, tuple_length_bound=k,
        capacity=capacity, distinct_decisions=len(decisions),
        compressed_input_bound=bound, impossible=len(decisions) > bound,
        permutations=permutations)


# ---------------------------------------------------------------------------
# Range-shattering witness for the convex max-x1 system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeShatterReport:
    k: int
    subsets_checked: int
    subsets_realized: int
    vc_lower_bound: int
    all_realized: bool
    decision_mismatches: tuple
    membership_disagreements: tuple

    @property
    def passed(self) -> bool:
        return (self.all_realized and not self.decision_mismatches
                and not self.membership_disagreements)

    def to_jsonable(self) -> dict:
        return {
            **asdict(self),
            "decision_mismatches": [sorted(u) for u, _ in self.decision_mismatches],
            "membership_disagreements": [
                {"subset": sorted(u), "index": i}
                for u, i in self.membership_disagreements],
        }


def verify_range_shattering_witness(k: int,
                                    tolerance: float = 1e-9) -> RangeShatterReport:
    """Verify that the convex system's range shatters the k polygon family.

    For every u subseteq [k], running the planner on the single band
    constraint at level tau_2(u) must return tau(u), and the satisfaction
    pattern of tau(u) over the polygons sigma(k, i) must equal {i in u},
    checked both geometrically (point in polygon) and combinatorially.
    """
    if not 1 <= k <= 12:
        raise ValueError("witness geometry budget is 1 <= k <= 12")
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
                                        WITNESS_MEMBERSHIP_TOL)
            combinatorial = i in u
            if geometric != combinatorial:
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


# ---------------------------------------------------------------------------
# Adversarial PAC experiment (uniform measure on a shattered set)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversarialPacReport:
    system: str
    candidate_count: int
    n: int
    epsilon: float
    trials: int
    seed: int
    q_hat: float
    ci_radius: float
    mean_risk: float
    min_risk: float

    def to_jsonable(self) -> dict:
        out = asdict(self)
        out["N"] = out.pop("n")
        return out


def adversarial_pac_experiment(system: ScenarioSystem,
                               candidates: Sequence,
                               n: int,
                               epsilon: float,
                               trials: int,
                               seed: int = 0) -> AdversarialPacReport:
    """Sample tuples uniformly from a (shattered) candidate set and measure
    the exact risk under the uniform measure on that set.

    The caller is responsible for the set being shattered up to length >= n;
    the size guard |Z'| >= 2n is enforced here so that shattering forces a
    risk of at least 1/2 on every trial.
    """
    candidates = tuple(candidates)
    k = len(candidates)
    if k < 2 * n:
        raise ValueError(f"need |Z'| >= 2N, got {k} < {2 * n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    risks = []
    for trial in range(trials):
        rng = stream(seed, trial)
        vz = tuple(candidates[int(i)] for i in rng.integers(0, k, size=n))
        x = system.decide(vz)
        realized = satisfied_subset(system, x, candidates)
        risks.append((k - len(realized)) / k)
    exceed = sum(1 for v in risks if v > epsilon)
    return AdversarialPacReport(
        system=system.name, candidate_count=k, n=n, epsilon=epsilon,
        trials=trials, seed=seed, q_hat=exceed / trials,
        ci_radius=hoeffding_radius(trials),
        mean_risk=sum(risks) / trials, min_risk=min(risks))


# ---------------------------------------------------------------------------
# Sample-size bound calculators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundQuery:
    epsilon: float
    beta: float
    capacity: int
    n: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")


def vc_sample_bound(query: BoundQuery) -> int:
    """Sample size from the standard VC learning bound:
    N = ceil((4/eps) * (d * ln(12/eps) + ln(2/beta)))."""
    if query.capacity < 1:
        raise ValueError("VC bound needs dimension d >= 1")
    eps, beta, d = query.epsilon, query.beta, query.capacity
    return math.ceil((4.0 / eps) * (d * math.log(12.0 / eps)
                                    + math.log(2.0 / beta)))


def compression_beta(n: int, capacity: int, epsilon: float) -> float:
    """Classical capacity-d compression bound C(N, d) * (1 - eps)^(N - d)."""
    if not 0 <= capacity < n:
        raise ValueError("need 0 <= d < N")
    return math.comb(n, capacity) * (1.0 - epsilon) ** (n - capacity)


def compression_bound(query: BoundQuery, n_cap: int = 10 ** 9):
    """Evaluate the compression bound, or invert it for the minimal N.

    With ``query.n`` set, returns beta(N, d, eps).  Otherwise scans N upward
    for the minimal N with beta(N, d, eps) <= query.beta (guarded by
    ``n_cap``).
    """
    if query.n is not None:
        return compression_beta(query.n, query.capacity, query.epsilon)
    n = query.capacity + 1
    while n <= n_cap:
        if compression_beta(n, query.capacity, query.epsilon) <= query.beta:
            return n
        n += 1
    raise RuntimeError(f"no N <= {n_cap} meets the bound")
