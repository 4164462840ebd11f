"""Outside-in tracing: spans around the calls into each safereach layer.

Nothing under ``src/`` is changed.  While an :class:`Instrumented` block is
open, the public functions of ``core``, ``encoding``, ``synthesis`` and
``validate``, the plan extractor and the session methods of both solver
backends are replaced by wrappers that record a span per call.  A module
that imported a function by name holds its own reference to it, so every
module attribute that *is* the original function is replaced, under
whatever name it was bound; that covers ``synthesis``,
``solver.enumerative``, ``solver.session`` and ``validate`` binding
``belief_update`` and friends directly.

A span is ``(request, span_id, parent_id, name, start, end, self_s)``;
``self_s`` is its duration minus the time its child spans cover.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Optional

from safereach import core, encoding, synthesis, validate
from safereach.solver import enumerative, session, smtlib
from safereach.solver.session import Sat

CORE_UPDATES = ("belief_update", "unnormalized_update", "observation_probability")
CONSTRAINTS = ("initial_constraint", "transition_constraint", "goal_constraint",
               "blocking_constraint")


class Tracer:
    """Keeps spans and call counts; one instance per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = -1
        # (belief, action) arguments of calls into the core update kernel from
        # outside core.  Hashing them is left to distinct_updates(), outside
        # the timed region.
        self.update_args: list[tuple] = []
        self.update_entries = 0
        self.distinct_update_pairs = 0
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span named ``name``; ``after(result, args)`` counts."""
        tracer = self
        clock = time.perf_counter
        is_core = name.startswith("core.")

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            if is_core and (parent is None or not parent[3]):
                tracer.update_args.append((args[0].probs, args[1]))
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, clock(), 0.0, is_core]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if parent is not None:
                    parent[2] += duration
                tracer.counts[name] += 1
                tracer.spans.append((tracer.request, span_id,
                                     parent[0] if parent is not None else None,
                                     name, frame[1], end, duration - frame[2]))

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn: Callable, amount: Optional[Callable] = None) -> Callable:
        """``fn`` counting its calls, or ``amount(result)`` per call, without a span."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result)
            return result

        counted.__wrapped__ = fn
        return counted

    def distinct_updates(self) -> None:
        """Fold the recorded update arguments of one instance into the counts."""
        self.update_entries += len(self.update_args)
        self.distinct_update_pairs += len(set(self.update_args))
        self.update_args.clear()

    # -- hooks that read results ------------------------------------------

    def _check_result(self, result, _args) -> None:
        if isinstance(result, Sat):
            self.counts["solver.check.sat"] += 1

    def _policy_result(self, result, _args) -> None:
        if result[0] is not None:
            self.counts["synthesis.policies_returned"] += 1

    def _validate_result(self, result, _args) -> None:
        self.counts["validate.paths"] += result.paths


class Instrumented:
    """Context manager that installs the tracer's wrappers and removes them."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[object, str, object]] = []

    def _functions(self):
        t = self.tracer
        for name in CORE_UPDATES:
            yield getattr(core, name), t.wrap(f"core.{name}", getattr(core, name))
        for name in CONSTRAINTS + ("step_vars",):
            yield getattr(encoding, name), t.wrap(f"encoding.{name}", getattr(encoding, name))
        yield session.extract_plan, t.wrap("solver.extract_plan", session.extract_plan)
        yield smtlib.serialize, t.count("solver.smtlib.bytes_sent", smtlib.serialize, len)
        yield synthesis.synthesis_run, t.wrap("synthesis.synthesis_run", synthesis.synthesis_run)
        yield synthesis.bps, t.wrap("synthesis.bps", synthesis.bps)
        yield synthesis.policy_generation, t.wrap(
            "synthesis.policy_generation", synthesis.policy_generation, t._policy_result)
        yield validate.validate_policy, t.wrap(
            "validate.validate_policy", validate.validate_policy, t._validate_result)

    def _methods(self):
        t = self.tracer
        enum_cls, smt_cls = enumerative.EnumerativeSession, smtlib.SmtLibSession
        yield enum_cls, "__init__", t.count("solver.sessions_opened", enum_cls.__init__)
        yield smt_cls, "__init__", t.count("solver.sessions_opened", smt_cls.__init__)
        yield enum_cls, "check", t.wrap("solver.enum.check", enum_cls.check, t._check_result)
        yield smt_cls, "check", t.wrap("solver.smtlib.check", smt_cls.check, t._check_result)
        yield smt_cls, "add", t.wrap("solver.smtlib.add", smt_cls.add)
        for method in ("push", "pop", "close"):
            yield smt_cls, method, t.wrap(f"solver.smtlib.{method}", getattr(smt_cls, method))
        for method in ("add", "push", "pop", "close"):
            yield enum_cls, method, t.wrap(f"solver.enum.{method}", getattr(enum_cls, method))
        yield smtlib._SmtProcess, "__init__", t.wrap(
            "solver.smtlib.spawn", smtlib._SmtProcess.__init__)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> Tracer:
        replacements = {id(original): wrapper for original, wrapper in self._functions()}
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for owner, attr, wrapper in self._methods():
            self._patch(owner, attr, wrapper)
        return self.tracer

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def aggregate(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and self time."""
    out: dict[str, dict[str, float]] = {}
    for _request, _span_id, _parent, name, start, end, self_s in spans:
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
    return out
