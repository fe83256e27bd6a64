"""Shattering search, compression certificates, and sample-size bounds.

Negative certificates produced here are sound for the untruncated
definitions: a ``not_shattered`` verdict or a per-tuple "no subtuple" result
can be re-validated independently from its serialized report.  Positive
shattering verdicts are truncated to tuples of length at most L and labelled
accordingly.

The exhaustive searches extend each enumerated tuple from its parent
prefix.  Scheme counting over subsets doubles a list of states over each
half of the base, to bound the live states; permutations are walked depth
first, by recursion.  Compression-map search is one depth-first pass over
the subtuple tree, bounded by the shortest match found so far, and decides
each subtuple at most once; shattering walks the product tree of each
length in turn, so that its first counterexample and its count of tuples
checked follow the shortest-first order.  For a system whose ``decide``
is a ``Fold`` (``convex-vc``, ``sum-no-scheme``, ``min-no-map``,
``path-alg1``), or wraps one by ``functools.wraps``, each tuple extends its
parent's state once, and shattering and the adversarial experiment finish
each distinct state once per call straight into its satisfied subset of
the candidates; scheme counting over subsets finishes and keys each
distinct state once per group that one first-half state doubles into
(``_decision_keys``).  Any other system decides each enumerated tuple
whole.

Scheme counting over subsets and map search have an int64 array lane for
a fold with an :class:`~scenlab.core.ArrayFold` (``sum-no-scheme`` and
``min-no-map``): they build the states of all 2^n subsets as one numpy
array by doubling over each half of the tuple, and read the count or the
subtuple off it, with no Python frame per subset.  ``_array_lane`` takes
it only from ``_ARRAY_LANE_FROM`` constraints up, for a system without
``coords``, when every subset's state fits an int64 and, for the map
search, when 2^n is within ``DEFAULT_TUPLE_BUDGET``; otherwise the
searches walk.  The lane compares decisions with ``==``, calling neither
``decision_key`` nor ``decisions_equal``.  It is chosen after the budget
check and before any subset is decided, and gives the verdicts, counts
and indices of the walk.
"""

from __future__ import annotations

import functools
import inspect
import math
import operator
from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence

from . import codecs
from .core import (
    ArrayFold,
    BudgetExceededError,
    ConstraintTuple,
    Fold,
    ScenarioSystem,
    hoeffding_radius,
)
from .counterexamples import (
    MAX_ARC_FAMILY,
    BandConstraint,
    alg_convex_maxx1,
    arc_point,
    sigma_polygon,
)
from .geometry import points_equal, points_in_convex
from .rng import streams

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TUPLE_BUDGET = 2_000_000

# The walks recurse once per tuple element; Python's stack holds 1,000 frames.
MAX_WALK_LENGTH = 500

# Boundary slack (signed distance) for the arc-polygon membership tests in the
# range-shattering witness.  Chord sag for unused arc points shrinks like the
# squared angular gap (~3e-10 at k = 8, ~4e-15 at k = 12), so the coarse 1e-9
# report tolerance would absorb genuinely-outside points; float error in the
# cross products is below 1e-20, so a 1e-15 slack classifies reliably.  The
# witness tests all 2^k arc points against one polygon in a batched pass
# (``points_in_convex``) that computes each distance with the scalar
# operations, so the slack is compared with the very floats the scalar
# predicate would compare.
WITNESS_MEMBERSHIP_TOL = 1e-15

# Tuple length from which scheme counting and map search enumerate a fold
# with an array form in numpy (``_array_lane``).  With numpy loaded, the
# lane and the walk break even at 6 to 7 constraints on a 2-CPU host; a
# process that has not loaded numpy pays its import (0.1 to 0.15 s) at
# its first lane.  Shorter tuples load no numpy.
_ARRAY_LANE_FROM = 7


def check_tuple_budget(counts: Iterable[int]) -> None:
    """Raise ``BudgetExceededError`` once the running sum of ``counts``
    passes ``DEFAULT_TUPLE_BUDGET``, forming no later count."""
    total = 0
    for count in counts:
        total += count
        if total > DEFAULT_TUPLE_BUDGET:
            raise BudgetExceededError(
                f"more than {DEFAULT_TUPLE_BUDGET} tuples to enumerate")


def subset_counts(k: int, d: int, permutations: bool = False) -> Iterable[int]:
    """C(k, r), or P(k, r) with ``permutations``, lazily for r <= min(d, k)."""
    count = math.perm if permutations else math.comb
    return (count(k, r) for r in range(min(d, k) + 1))


# ---------------------------------------------------------------------------
# Prefix-tree walks
# ---------------------------------------------------------------------------


def _append(vz: tuple, z: Any) -> tuple:
    return vz + (z,)


def _fold_of(system: ScenarioSystem) -> Optional[Fold]:
    """The ``Fold`` that ``decide`` is, or wraps by ``functools.wraps``."""
    decide = inspect.unwrap(system.decide)
    return decide if isinstance(decide, Fold) else None


def _walk_fold(system: ScenarioSystem) -> Fold:
    """The system's fold, or one whose state is the tuple itself and whose
    ``finish`` decides it whole (systems without a fold)."""
    return _fold_of(system) or Fold((), _append, system.decide)


def _first_leaf(fold: Fold, items: Sequence, length: int,
                accept: Callable[[tuple, Any], bool]) -> Optional[tuple]:
    """Walk the index tuples of ``length`` over ``items`` (those of
    ``itertools.product``) in lexicographic order and return the first for
    which ``accept(indices, decision)`` holds, or ``None``.

    The walk is depth first over their prefix tree, each node extending its
    parent's state by its item once, so only ``length`` states are live.
    Shattering checks walk each length in turn, so that the tuples are
    decided shortest first.
    """
    extend, finish = fold.extend, fold.finish
    n = len(items)

    def walk(state: Any, path: tuple, need: int) -> Optional[tuple]:
        if need == 1:
            for i in range(n):
                leaf = path + (i,)
                if accept(leaf, finish(extend(state, items[i]))):
                    return leaf
            return None
        for i in range(n):
            found = walk(extend(state, items[i]), path + (i,), need - 1)
            if found is not None:
                return found
        return None

    if length == 0:
        return () if accept((), finish(fold.init)) else None
    return walk(fold.init, (), length)


def _subsets(extend: Callable[[Any, Any], Any], state: Any,
             items: Sequence) -> list:
    """``state`` extended by every subset of ``items`` in item order, each
    from its parent by one ``extend``: the list doubles once per item."""
    states = [state]
    for z in items:
        states += [extend(s, z) for s in states]
    return states


def _decision_keys(system: ScenarioSystem, base: tuple,
                   permutations: bool) -> set:
    """Decision keys of every tuple of distinct base elements: each subset
    in base order, or with ``permutations`` in every order.  Each tuple
    walked extends its parent's state once.

    Subsets are enumerated by doubling over two halves of the base: every
    state of the first half's subsets is doubled over the second half, so
    at most 2^floor(k/2) + 2^ceil(k/2) states are live, where doubling over
    the whole base would hold all 2^k.  The permutation tree is not a
    product of two halves, so it is walked depth first, by recursion.

    With a fold, the subset walk drops repeated states from each half's
    list, keeping the first of each in enumeration order
    (``dict.fromkeys``): states are hashable and ``finish`` is a function
    of the state, so a repeated first-half state would double into the
    same group again, and a state repeated within a group would give the
    same key.  ``convex-vc`` states repeat wherever a band lies below the
    level already reached.  A system without a fold keeps plain lists: its
    states are the subset tuples, all distinct, so hashing them would only
    cost.  Permutations are not deduplicated: the depth-first walk holds no
    list, and a memo over the call would hold the state of nearly every
    tuple of an order-dependent fold (``convex-vc`` clips in tuple order;
    986,410 tuples at k = 9)."""
    fold = _walk_fold(system)
    extend, finish, key = fold.extend, fold.finish, system.decision_key
    if not permutations:
        half = len(base) // 2
        distinct = (dict.fromkeys if _fold_of(system) is not None
                    else lambda states: states)
        keys = set()
        for state in distinct(_subsets(extend, fold.init, base[:half])):
            keys.update([key(finish(t)) for t in
                         distinct(_subsets(extend, state, base[half:]))])
        return keys
    keys = {key(finish(fold.init))}

    def walk(state: Any, rest: tuple) -> None:
        for j, z in enumerate(rest):
            child = extend(state, z)
            keys.add(key(finish(child)))
            rest_after = rest[:j] + rest[j + 1:]
            if rest_after:
                walk(child, rest_after)

    walk(fold.init, base)
    return keys


def _array_lane(system: ScenarioSystem,
                items: Sequence) -> Optional[tuple[ArrayFold, list[int]]]:
    """The array form of the system's fold and the int64 operands of
    ``items``, when scheme counting or map search over ``items`` may
    enumerate their subsets in numpy; else ``None``, and they walk.

    That needs a fold with an :class:`ArrayFold`, a system without
    ``coords`` (its decisions are compared by ``==``), at least
    ``_ARRAY_LANE_FROM`` items, and operands whose every subset state fits
    an int64 (``ArrayFold.operands``: for ``sum-no-scheme`` 1 + the sum of
    the values is below 2^62, for ``min-no-map`` every value is below 63).
    """
    fold = _fold_of(system)
    form = None if fold is None else fold.array
    if (form is None or system.coords is not None
            or len(items) < _ARRAY_LANE_FROM):
        return None
    operands = form.operands(items)
    return None if operands is None else (form, operands)


def _subset_table(init: int, extend: Callable[[Any, Any], Any],
                  operands: Sequence[int]) -> np.ndarray:
    """``init`` extended by the operands of every subset, as an int64 array
    indexed by mask: bit i of the index stands for operand i.

    Each half of the operands is doubled, the first half's subsets from
    ``init`` and the second half's from 0, the identity of ``extend``; one
    broadcast ``extend`` then combines every pair, the second half's masks
    as the high bits."""
    import numpy as np

    def doubled(start: int, ops: Sequence[int]) -> np.ndarray:
        table = np.array([start], dtype=np.int64)
        for x in ops:
            table = np.concatenate([table, extend(table, x)])
        return table

    half = len(operands) // 2
    low = doubled(init, operands[:half])
    high = doubled(0, operands[half:])
    return extend(high[:, None], low[None, :]).ravel()


def _count_array_decisions(form: ArrayFold, operands: Sequence[int]) -> int:
    """The number of distinct decisions over every subset of the operands:
    the finished subset table, sorted, counts one decision per run."""
    import numpy as np

    decisions = form.finish(_subset_table(form.init, form.extend, operands))
    decisions.sort()
    return 1 + int(np.count_nonzero(decisions[1:] != decisions[:-1]))


def _array_subtuple(form: ArrayFold, operands: Sequence[int], target: int,
                    capacity: int) -> Optional[tuple[int, ...]]:
    """The shortest, then lexicographically first, ascending index tuple of
    length <= ``capacity`` whose subset decides ``target``, or ``None``.

    Masks index the subset table, bit i standing for index i.  Among the
    ascending index tuples of one length, t precedes u exactly when the
    least element of t xor u is in t, so the first of the shortest
    matches is the one whose mask, read with its bits reversed, is the
    largest."""
    n = len(operands)
    decisions = form.finish(_subset_table(form.init, form.extend, operands))
    lengths = _subset_table(0, operator.add, [1] * n)
    masks = ((lengths <= capacity) & (decisions == target)).nonzero()[0]
    if not masks.size:
        return None
    shortest = masks[lengths[masks] == lengths[masks].min()]
    reversed_masks = _subset_table(0, operator.add,
                                   [1 << (n - 1 - i) for i in range(n)])
    mask = int(shortest[reversed_masks[shortest].argmax()])
    return tuple(i for i in range(n) if mask >> i & 1)


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

    def to_jsonable(self) -> dict:
        encode_constraint = codecs.encode_constraint
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


def _satisfied_fold(system: ScenarioSystem, candidates: Sequence) -> Fold:
    """The system's walk fold, but ``finish`` returns the indices of the
    candidates that the decision satisfies (``satisfied_subset`` by index).

    Each distinct decision is checked against the candidates once for as
    long as the caller holds the result.  Decisions are hashable, and equal
    ones satisfy the same constraints (see ``ScenarioSystem``), so the memo
    is exact.  With a fold, ``finish`` is also memoized by the state: it is
    a function of the state, so each distinct state is finished once.  A
    system without a fold keeps only the decision memo: its walk state is
    the tuple itself, of which a walk may enumerate millions."""
    satisfies = system.satisfies
    realize = functools.cache(lambda x: frozenset(
        i for i, z in enumerate(candidates) if satisfies(x, z)))
    fold = _fold_of(system)
    if fold is None:
        decide = system.decide
        return Fold((), _append, lambda vz: realize(decide(vz)))
    finish = fold.finish  # bound here: the replacement calls the original
    return replace(fold, array=None, finish=functools.cache(
        lambda state: realize(finish(state))))


def check_shattered(system: ScenarioSystem,
                    candidates: Sequence,
                    max_len: Optional[int] = None,
                    include_empty: bool = True) -> ShatterCheckReport:
    """Check the shattering equality S(Alg(vz)) /\\ Z' == set(vz) for every
    ordered tuple over Z' up to length L.

    Enumeration order is deterministic (lengths ascending, candidate order as
    given), so the reported counterexample is the first in that order.  A
    system that decides by a ``Fold`` walks, per length, the product tree of
    that order depth first, extending each prefix's state once and
    finishing each distinct state once per call into its satisfied subset
    (``_satisfied_fold``), so a leaf costs one lookup by its state; others
    decide every tuple.  Each distinct decision is checked against the
    candidates once per call, and satisfied subsets are compared as sets of
    candidate indices.  A ``not_shattered`` verdict is sound for the
    untruncated definition; ``shattered_up_to_L`` is finite-scale evidence
    only.
    """
    candidates = tuple(candidates)
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate constraints must be distinct")
    if max_len is None:
        max_len = max(1, len(candidates))
    if not 1 <= max_len <= MAX_WALK_LENGTH:
        raise ValueError(f"max tuple length must be in [1, {MAX_WALK_LENGTH}]")
    lengths = range(0 if include_empty else 1, max_len + 1)
    check_tuple_budget(len(candidates) ** r for r in lengths)

    checked = 0
    realized = frozenset()

    def breaks(indices: tuple, satisfied: frozenset) -> bool:
        nonlocal checked, realized
        checked += 1
        realized = satisfied
        return satisfied != frozenset(indices)

    fold = _satisfied_fold(system, candidates)
    for r in lengths:
        indices = _first_leaf(fold, candidates, r, breaks)
        if indices is not None:
            vz = tuple(candidates[i] for i in indices)
            return ShatterCheckReport(
                system.name, candidates, max_len, include_empty,
                "not_shattered", checked, counterexample=vz,
                satisfied_subset=frozenset(candidates[i] for i in realized),
                sampled_set=frozenset(vz))
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


# ---------------------------------------------------------------------------
# Compression maps and schemes
# ---------------------------------------------------------------------------


def find_compression_subtuple(system: ScenarioSystem,
                              vz: ConstraintTuple,
                              capacity: int) -> Optional[tuple[int, ...]]:
    """Exhaustive search for an order-preserving subtuple of length <= d
    giving the same decision as the full tuple.

    The result is the shortest such subtuple, then the lexicographically
    first of its (0-based) index tuples, so it is deterministic.  ``None``
    is a per-tuple impossibility certificate.  More subtuples than
    ``DEFAULT_TUPLE_BUDGET`` raise ``BudgetExceededError`` before anything
    is decided.

    The search is one depth-first pass over the tree of ascending index
    tuples, children in index order.  Each node extends its parent's state
    once (a system without a fold decides each node whole) and is decided
    before the pass descends into it.  The one node of depth n = len(vz)
    is vz itself, whose decision is the target: ``decide`` is
    deterministic, so that node is a match and is not decided again.
    ``best`` starts as vz's own indices if capacity >= n, else as
    ``None``, and ``bound`` starts at ``min(capacity, n - 1)``; a match of length r
    becomes ``best`` and sets ``bound`` to r - 1, and no node deeper than
    ``bound`` is decided.  Why ``best`` ends as the shortest, then first,
    match: let t be that match and r its length.  If r = n, no node of
    depth < n matches, so ``best`` stays vz.  Otherwise:

    * Pre-order visits the index tuples of one length in lexicographic
      order.
    * ``bound`` only ever falls to one below the length of a match.  No
      match is shorter than r and none of length r precedes t, so
      ``bound`` >= r until t is visited.
    * Every node at depth <= ``bound`` is visited.  None of its ancestors
      matched (that would have put ``bound`` below it), and each was
      shallower than ``bound``, so the pass descended into each.

    So t is visited and becomes ``best``; then ``bound`` = r - 1, and no
    later node is shorter than r, so none is decided.

    A subtuple whose ``finish`` raises ``ValueError`` (``path-alg1`` on a
    barrier no path clears) is soundly no match, as it has no decision, but
    the pass still descends into it; the target's own error propagates.

    The pass decides every subtuple that a walk of each length in turn
    would decide before it stopped, and may decide longer ones in earlier
    subtrees, never more than the budget admits.  Only the states on the
    recursion stack are live: at most ``bound`` + 1.  The budget counts vz
    among the subtuples, although it is not decided again.  It keeps the
    recursion shallow: it admits sum_{r <= d} C(n, r) >= 2^d subtuples
    (d <= n), so d <= 20.

    A fold with an array form takes the int64 lane instead when
    ``_array_lane`` admits vz and 2^n is within the budget (so a
    200-constraint tuple at capacity 2 is still walked).  It finishes the
    states of all 2^n subsets, indexed by mask with bit i for index i,
    and keeps the masks of at most ``capacity`` bits whose decision equals
    the target; vz's own mask is among them when capacity >= n.  The
    result is the shortest of them, then the lexicographically first: of
    two ascending index tuples t and u of one length, t comes first
    exactly when the least element of t xor u is in t, that is, when t's
    mask with its n bits reversed is the larger.  The indices are Python
    ints.
    """
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    n = len(vz)
    check_tuple_budget(subset_counts(n, capacity))
    lane = _array_lane(system, vz) if 1 << n <= DEFAULT_TUPLE_BUDGET else None
    target = (_fold_of(system) or system.decide)(vz)
    if lane is not None:
        return _array_subtuple(*lane, target, capacity)
    fold = _walk_fold(system)
    extend, finish, equal = fold.extend, fold.finish, system.decisions_equal
    best = tuple(range(n)) if capacity >= n else None
    last = n - 1
    bound = min(capacity, last)
    if bound < 0:  # vz is empty: the target is its decision
        return best
    try:
        if equal(finish(fold.init), target):
            return ()
    except ValueError:  # undecidable, so no match (see above)
        pass

    def walk(state: Any, path: tuple, start: int, depth: int) -> None:
        nonlocal best, bound
        for i in range(start, n):
            child = extend(state, vz[i])
            try:
                match = equal(finish(child), target)
            except ValueError:
                match = False
            if match:
                # The siblings left are as long as this match.
                best, bound = path + (i,), depth - 1
                return
            if depth < bound and i < last:  # the last index has no children
                walk(child, path + (i,), i + 1, depth + 1)

    if bound:
        walk(fold.init, (), 0, 1)
    return best


@dataclass(frozen=True)
class MapSearchReport:
    """The first subtuple of ``vz`` of length <= ``capacity`` deciding as
    ``vz`` does, or None: then no capacity-d compression map exists."""

    vz: ConstraintTuple
    capacity: int
    subtuple_indices: Optional[tuple[int, ...]]

    @property
    def none_certificate(self) -> bool:
        return self.subtuple_indices is None

    def to_jsonable(self) -> dict:
        indices = self.subtuple_indices
        return {
            "tuple": [codecs.encode_constraint(z) for z in self.vz],
            "capacity": self.capacity,
            "subtuple_indices": None if indices is None else list(indices),
            "none_certificate": self.none_certificate,
        }


def search_compression_map(system: ScenarioSystem, vz: ConstraintTuple,
                           capacity: int) -> MapSearchReport:
    """``find_compression_subtuple`` as a report."""
    return MapSearchReport(tuple(vz), capacity,
                           find_compression_subtuple(system, vz, capacity))


@dataclass(frozen=True)
class CompressionSchemeReport:
    """Counting certificate against the existence of a compression scheme.

    Over the canonical subset tuples of the base set T (|T| = k), the system
    realizes ``distinct_decisions`` different decisions, while any capacity-d
    scheme can reconstruct at most ``compressed_input_bound``, one decision
    per output: an order-preserving subtuple of its input, so sum of C(k, r)
    for r <= d, or of k!/(k - r)! with ``permutations`` (inputs in every
    order).  ``impossible`` iff the former exceeds the latter.
    """

    system: str
    base_set: tuple
    tuple_length_bound: int
    capacity: int
    distinct_decisions: int
    compressed_input_bound: int
    impossible: bool
    permutations: bool

    def to_jsonable(self) -> dict:
        return {**asdict(self),
                "base_set": [codecs.encode_constraint(z)
                             for z in self.base_set]}


def certify_no_compression_scheme(system: ScenarioSystem,
                                  base_set: Sequence,
                                  capacity: int,
                                  permutations: bool = False) -> CompressionSchemeReport:
    """Exact counting certificate: D distinct decisions vs the number B of
    compression outputs of length <= d (see ``CompressionSchemeReport``).

    By default each subset of the base set is decided once, in canonical
    (input) order -- exact for order-insensitive systems.  The
    ``permutations`` flag decides all orderings of each subset instead, for
    order-sensitive systems.  A system that decides by a ``Fold`` extends
    each tuple from its parent; over subsets it finishes each distinct
    state of a group once (see ``_decision_keys``), and over permutations
    each tuple.  Others decide every tuple whole.  Subsets are enumerated
    by doubling over the two halves of the base, which keeps about 2^(k/2)
    states live instead of 2^k; permutations are walked depth first.  If
    deciding several tuples raises, which error surfaces depends on that
    order.  More tuples than ``DEFAULT_TUPLE_BUDGET`` raise
    ``BudgetExceededError`` before any is decided.

    Without ``permutations``, a fold with an array form whose base
    ``_array_lane`` admits builds the states of all 2^k subsets as one
    int64 array (doubling over each half, then one broadcast ``extend``),
    finishes it, sorts it with ``np.sort`` and counts one decision per
    run of equal values.  ``np.unique`` is not used: it is slower here and
    imports ``numpy.ma``.
    """
    base = tuple(base_set)
    if len(set(base)) != len(base):
        raise ValueError("base-set constraints must be distinct")
    k = len(base)
    if capacity < 0:
        raise ValueError("capacity must be >= 0")
    check_tuple_budget(subset_counts(k, k, permutations))
    lane = None if permutations else _array_lane(system, base)

    if lane is None:
        distinct = len(_decision_keys(system, base, permutations))
    else:
        distinct = _count_array_decisions(*lane)

    bound = sum(subset_counts(k, capacity, permutations))
    return CompressionSchemeReport(
        system=system.name, base_set=base, tuple_length_bound=k,
        capacity=capacity, distinct_decisions=distinct,
        compressed_input_bound=bound, impossible=distinct > bound,
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


def verify_range_shattering_witness(k: int) -> RangeShatterReport:
    """Verify that the convex system's range shatters the k polygon family.

    For every u subseteq [k], running the planner on the single band
    constraint at level tau_2(u) must return tau(u) (``points_equal``, so
    within ``POINT_TOL``), and the satisfaction pattern of tau(u) over the
    polygons sigma(k, i) must equal {i in u}, checked both geometrically
    (point in polygon) and combinatorially.

    The 2^k points tau(u) = arc_point(n), n < 2^k, are built once, and
    membership in each sigma(k, i) is one :func:`points_in_convex` call over
    all of them.  That kernel is element for element the scalar
    ``point_in_convex``, so the verdicts, the mismatch and disagreement
    lists and their order (u by binary encoding, then i ascending) are
    those of the subset-by-subset loop; only their entries build u.
    """
    import numpy as np

    if not 1 <= k <= MAX_ARC_FAMILY:
        raise ValueError(f"the witness needs 1 <= k <= {MAX_ARC_FAMILY}")
    members = range(1, k + 1)

    def subset(n: int) -> frozenset:
        return frozenset(i for i in members if n >> (i - 1) & 1)

    points = [arc_point(n) for n in range(1 << k)]
    xs, ys = np.array(points).T.copy()
    masks = np.arange(1 << k)
    # disagree[i - 1, n]: geometric membership differs from i in u.
    disagree = np.array([
        points_in_convex(sigma_polygon(k, i), xs, ys, WITNESS_MEMBERSHIP_TOL)
        != (masks >> (i - 1) & 1).astype(bool)
        for i in members])
    decision_mismatches = []
    realized = 0
    for n, point, pattern_bad in zip(range(1 << k), points,
                                     disagree.any(axis=0).tolist()):
        decision = alg_convex_maxx1((BandConstraint(point[1]),))
        if not points_equal(decision, point):
            decision_mismatches.append((subset(n), decision))
        elif not pattern_bad:
            realized += 1
    membership_disagreements = tuple(
        (subset(n), i + 1) for n, i in np.argwhere(disagree.T).tolist())
    return RangeShatterReport(
        k=k, subsets_checked=1 << k, subsets_realized=realized,
        vc_lower_bound=k if realized == 1 << k else 0,
        all_realized=realized == 1 << k,
        decision_mismatches=tuple(decision_mismatches),
        membership_disagreements=membership_disagreements)


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
    risk of at least 1/2 on every trial.  Candidates must be distinct and
    at least one, since the risk of a decision is the share of them it
    violates.  Each trial decides through the system's fold, if it has
    one, whose distinct final states are each finished and checked against
    the candidates once per call (``_satisfied_fold``); each distinct
    decision is checked once per call.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    candidates = tuple(candidates)
    k = len(candidates)
    if k == 0:
        raise ValueError("need at least one candidate constraint")
    if len(set(candidates)) != k:
        raise ValueError("candidate constraints must be distinct")
    if n < 0:
        raise ValueError("N must be >= 0")
    if k < 2 * n:
        raise ValueError(f"need |Z'| >= 2N, got {k} < {2 * n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    risks = []
    fold = _satisfied_fold(system, candidates)
    # Without a fold the walk state is the tuple itself: finish it as drawn.
    satisfied = fold if _fold_of(system) is not None else fold.finish
    for rng in streams(seed, trials):
        vz = tuple(candidates[int(i)] for i in rng.integers(0, k, size=n))
        risks.append((k - len(satisfied(vz))) / k)
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

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")


def _finite_ceil(bound: float) -> int:
    if not math.isfinite(bound):
        raise ValueError(f"the sample-size bound {bound} is not finite")
    return math.ceil(bound)


def vc_sample_bound(query: BoundQuery) -> int:
    """Sample size from the standard VC learning bound:
    N = ceil((4/eps) * (d * ln(12/eps) + ln(2/beta)))."""
    if query.capacity < 1:
        raise ValueError("VC bound needs dimension d >= 1")
    eps, beta, d = query.epsilon, query.beta, query.capacity
    return _finite_ceil((4.0 / eps) * (d * math.log(12.0 / eps)
                                       + math.log(2.0 / beta)))


def explicit_sample_bound(query: BoundQuery) -> int:
    """Explicit sufficient sample size N = ceil((2/eps) * (ln(1/beta) + d)).

    With L = ln(1/beta), N eps >= 2 (L + d), and the Chernoff bound gives
    P(Binomial(N, eps) <= d) <= exp(-(N eps - d)^2 / (2 N eps)) <= e^-L
    = beta, so the scenario approach's binomial tail with d support
    constraints meets beta.  It is a closed form, not an inversion: at
    eps = 0.1, beta = 0.01, d = 1 it gives 113 where ``compression_bound``
    finds the minimal N = 88 for C(N, d) (1 - eps)^(N - d).
    """
    eps, beta, d = query.epsilon, query.beta, query.capacity
    return _finite_ceil((2.0 / eps) * (math.log(1.0 / beta) + d))


def compression_beta(n: int, capacity: int, epsilon: float) -> float:
    """Classical capacity-d compression bound C(N, d) * (1 - eps)^(N - d).

    While C(N, d) fits in a float this is that product.  Beyond, it is
    exp(log C(N, d) + (N - d) log1p(-eps)), and ``inf`` if the bound itself
    exceeds the float range.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if not 0 <= capacity < n:
        raise ValueError("need 0 <= d < N")
    count = math.comb(n, capacity)
    try:
        return count * (1.0 - epsilon) ** (n - capacity)
    except OverflowError:  # C(N, d) exceeds the float range
        log_beta = math.log(count) + (n - capacity) * math.log1p(-epsilon)
    try:
        return math.exp(log_beta)
    except OverflowError:
        return math.inf


def compression_bound(query: BoundQuery) -> int:
    """Invert the compression bound: the minimal N <= 10^9 with
    beta(N, d, eps) <= query.beta (``compression_beta`` evaluates beta).

    For N > d the ratio beta(N + 1) / beta(N) = (1 - eps)(N + 1) /
    (N + 1 - d) falls with N, so beta rises to a peak near d / eps and falls
    after it.  Hence every N up to a probe with beta above the target lies
    below the minimum, and an exponential search from N = d + 1 followed by
    a bisection finds it with O(log N) evaluations; past the cap it raises
    ``ValueError``.
    """
    cap = 10 ** 9

    def meets(n: int) -> bool:
        return compression_beta(n, query.capacity, query.epsilon) <= query.beta

    lo, step = query.capacity, 1  # invariant: no N <= lo meets the bound
    while True:
        hi = min(lo + step, cap)
        if hi <= lo:
            raise ValueError("no N <= 10^9 meets the bound")
        if meets(hi):
            break
        lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi
