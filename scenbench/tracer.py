"""Out-of-process-style tracing of scenlab's layers from the benchmark.

Nothing inside ``src/`` is instrumented.  Instead, while a :class:`Tracer` is
installed, every public function of the traced modules is replaced *in each
module namespace that refers to it* by a wrapper that records a span.  Calls
inside scenlab resolve their callees through module globals, so the wrappers
see the whole call tree.  Objects that captured a function before the
wrappers existed (the registry's ``ScenarioSystem`` and
``ConstraintDistribution`` instances) are rebuilt with ``dataclasses.replace``
so their fields go through the wrappers too.

Spans are aggregated per ``(parent span, callee)`` pair: one call count, one
total time and one self time (total minus the time of traced children).  That
keeps the trace small when leaf predicates run millions of times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import time

TRACED_MODULES = ("core", "rng", "counterexamples", "pathplan", "geometry",
                  "analyzers", "codecs", "cli", "registry")

# Leaf predicates called millions of times per pass that no metric reads;
# wrapping them would multiply the tracing overhead for nothing.
UNTRACED = frozenset({"geometry.cross", "geometry.signed_edge_distance",
                      "geometry.points_equal"})

ROOT = "<root>"


class Tracer:
    """Aggregating span recorder; install with ``with tracer.installed():``."""

    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list] = {}
        self._stack: list[list] = [[ROOT, 0.0]]
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        # Systems and distributions built while tracing (for example by
        # ``path_system_alg1`` in the CLI) get their fields wrapped too.
        self._rewrap: dict[type, object] = {}

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.stats = {}
        self._stack = [[ROOT, 0.0]]

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a ``name`` span."""
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], name)
                rec = tracer.stats.get(key)
                if rec is None:
                    rec = tracer.stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            rewrap = tracer._rewrap.get(type(result))
            return result if rewrap is None else rewrap(result)

        traced.__scenbench_original__ = fn
        return traced

    def _wrap_function(self, fn, name: str):
        wrapper = self._wrappers.get(id(fn))
        if wrapper is None:
            wrapper = self._wrappers[id(fn)] = self.span(name, fn)
        return wrapper

    def _field(self, name: str, fn):
        """Wrap a dataclass field; a scenlab module function keeps its own
        span underneath the interface span."""
        if fn is None:
            return None
        return self.span(name, self._wrappers.get(id(fn), fn))

    def wrap_system(self, system):
        if hasattr(system.decide, "__scenbench_original__"):
            return system
        return dataclasses.replace(
            system,
            decide=self._field("core.decide", system.decide),
            satisfies=self._field("core.satisfies", system.satisfies))

    def wrap_distribution(self, dist):
        if hasattr(dist.sample, "__scenbench_original__"):
            return dist
        return dataclasses.replace(
            dist,
            sample=self._field("core.sample", dist.sample),
            analytic_violation=self._field("core.analytic_violation",
                                           dist.analytic_violation))

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        core = importlib.import_module("scenlab.core")
        self._rewrap = {core.ScenarioSystem: self.wrap_system,
                        core.ConstraintDistribution: self.wrap_distribution}
        modules = [importlib.import_module(f"scenlab.{m}")
                   for m in TRACED_MODULES]
        for module in modules:
            for attr, value in list(vars(module).items()):
                name = _function_name(value)
                if attr.startswith("_") or name is None or name in UNTRACED:
                    continue
                self._patch(module, attr, self._wrap_function(value, name))

        dist_cls = core.ConstraintDistribution
        self._patch(dist_cls, "sample_tuple",
                    self.span("core.sample_tuple", dist_cls.sample_tuple))

        cli = importlib.import_module("scenlab.cli")
        runners = dict(cli._RUNNERS)
        self._patch(cli, "_RUNNERS", {
            command: self.span("cli.runner", fn)
            for command, fn in runners.items()})

        registry = importlib.import_module("scenlab.registry")
        self._patch(registry, "SYSTEMS", {
            key: dataclasses.replace(
                bundle,
                system=self.wrap_system(bundle.system),
                distribution=self.wrap_distribution(bundle.distribution),
                constraint_generator=self._field(
                    "core.sample", bundle.constraint_generator))
            for key, bundle in registry.SYSTEMS.items()})

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        self._wrappers = {}
        self._rewrap = {}

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- derived figures -----------------------------------------------------

    def totals(self, name: str, parents=None) -> tuple[int, float, float]:
        """(calls, total_s, self_s) of ``name``, optionally only under the
        given parent span names."""
        calls, total, self_s = 0, 0.0, 0.0
        for (parent, callee), (n, t, s) in self.stats.items():
            if callee == name and (parents is None or parent in parents):
                calls += n
                total += t
                self_s += s
        return calls, total, self_s

    def counts(self) -> dict[tuple[str, str], int]:
        """Calls per (parent span, callee)."""
        return {key: rec[0] for key, rec in self.stats.items()}


def _function_name(value) -> str | None:
    """``module.qualname`` for a function defined in scenlab, else None."""
    target = getattr(value, "__wrapped__", value)  # see through lru_cache
    if not inspect.isfunction(target) or \
            not target.__module__.startswith("scenlab."):
        return None
    return f"{target.__module__[len('scenlab.'):]}.{target.__qualname__}"
