"""Span tracing of lobsim's layers from outside the package.

The tracer replaces public functions at the module attributes their callers
look up (``lobsim.engine.step``, ``lobsim.rates.submit_order``, ...) with
wrappers that record one span per call: name, start, end and the span that
was open when the call began. Nothing under ``src/`` changes; removing the
wrappers puts the original function objects back.

Spans stay in memory in flat arrays and are written out once, when the run
ends. Per-layer metrics are computed from them per repetition: calls,
busy time (summed span durations) and self time (a span's duration minus
the durations of its child spans).
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT_SPAN = "bench.rep"

# (module, attribute) -> span name. Each binding a caller looks up is
# wrapped separately; bindings of one function share its span name.
WRAPPED: dict[tuple[str, str], str] = {
    ("lobsim.engine", "simulate"): "engine.simulate",
    ("lobsim.engine", "step"): "engine.step",
    ("lobsim.engine", "derive_run_seeds"): "engine.derive_run_seeds",
    ("lobsim.engine", "apply_event"): "rates.apply_event",
    ("lobsim.engine", "event_table"): "rates.event_table",
    ("lobsim.engine", "quotes"): "observables.quotes",
    ("lobsim.engine", "xlm"): "observables.xlm",
    ("lobsim.engine", "depth"): "observables.depth",
    ("lobsim.rates", "arrival_rates"): "rates.arrival_rates",
    ("lobsim.rates", "apply_event"): "rates.apply_event",
    ("lobsim.rates", "submit_order"): "book.submit_order",
    ("lobsim.rates", "cancel_order"): "book.cancel_order",
    ("lobsim.scenario", "summarize_run"): "observables.summarize_run",
    ("lobsim.scenario", "run_ensemble"): "engine.run_ensemble",
    ("lobsim.scenario", "run_scenario"): "scenario.run_scenario",
    ("lobsim.scenario", "validate_against_oracle"): "scenario.validate_against_oracle",
    ("lobsim.scenario", "write_bundle"): "scenario.write_bundle",
    ("lobsim.oracle", "enumerate_states"): "oracle.enumerate_states",
    ("lobsim.oracle", "build_generator"): "oracle.build_generator",
    ("lobsim.oracle", "evolve"): "oracle.evolve",
    ("lobsim.oracle", "event_table"): "rates.event_table",
    ("lobsim.oracle", "apply_event"): "rates.apply_event",
}


def _count_simulate(counters: dict, result) -> None:
    counters["kept_events"] += result.event_count
    counters["depth_frames"] += len(result.depth_frames)


def _count_submit(counters: dict, result) -> None:
    counters["transactions"] += len(result[1])


def _count_states(counters: dict, result) -> None:
    counters["states"] += len(result)


def _count_nnz(counters: dict, result) -> None:
    counters["generator_nnz"] += result.nnz


def _count_bytes(counters: dict, result) -> None:
    counters["bytes_written"] += sum(Path(p).stat().st_size for p in result)


# Counts taken from return values, at the same boundaries as the spans.
RESULT_COUNTERS = {
    "engine.simulate": _count_simulate,
    "book.submit_order": _count_submit,
    "oracle.enumerate_states": _count_states,
    "oracle.build_generator": _count_nnz,
    "scenario.write_bundle": _count_bytes,
}

COUNTER_NAMES = (
    "kept_events",
    "depth_frames",
    "transactions",
    "states",
    "generator_nnz",
    "bytes_written",
)


def original_bindings() -> dict[tuple[str, str], object]:
    """The objects currently bound at every wrapped attribute."""
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr in WRAPPED
    }


class Tracer:
    """Records spans of wrapped lobsim calls while installed."""

    def __init__(self) -> None:
        self.span_names: list[str] = [ROOT_SPAN]
        for name in WRAPPED.values():
            if name not in self.span_names:
                self.span_names.append(name)
        self._id = {name: i for i, name in enumerate(self.span_names)}
        self.name_ids = array("i")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.rep_starts: list[int] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []
        self._saved: dict[tuple[str, str], object] = {}

    def wrap(self, name: str, fn):
        name_id = self._id[name]
        count = RESULT_COUNTERS.get(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                count(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = original_bindings()
        for (module, attr), name in WRAPPED.items():
            setattr(importlib.import_module(module), attr, self.wrap(name, originals[(module, attr)]))
        self._saved = originals

    def uninstall(self) -> None:
        for (module, attr), fn in self._saved.items():
            setattr(importlib.import_module(module), attr, fn)
        self._saved = {}

    def run_rep(self, call):
        """Run ``call`` once under a root span; returns its result."""
        self.rep_starts.append(len(self.name_ids))
        self.counters.update(dict.fromkeys(COUNTER_NAMES, 0))
        return self.wrap(ROOT_SPAN, call)()

    def rep_arrays(self, rep: int) -> tuple[np.ndarray, ...]:
        """(name ids, parent offsets within the rep, starts, ends) of one rep."""
        lo = self.rep_starts[rep]
        hi = self.rep_starts[rep + 1] if rep + 1 < len(self.rep_starts) else len(self.name_ids)
        # Copies, so no buffer export pins the arrays against later appends.
        names = np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi].copy()
        parents = np.frombuffer(self.parents, dtype=np.int64)[lo:hi] - lo
        parents[parents < 0] = -1
        starts = np.frombuffer(self.starts)[lo:hi].copy()
        ends = np.frombuffer(self.ends)[lo:hi].copy()
        return names, parents, starts, ends

    def layer_times(self, rep: int, sampler) -> dict:
        """Per span name: calls, busy seconds, self seconds; plus derived counts.

        Durations exclude the speed samples taken inside each span.
        """
        names, parents, starts, ends = self.rep_arrays(rep)
        durations = ends - starts - sampler.inside(starts, ends)
        has_parent = parents >= 0
        child_time = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=len(names)
        )
        self_time = durations - child_time
        n_names = len(self.span_names)
        calls = np.bincount(names, minlength=n_names)
        busy = np.bincount(names, weights=durations, minlength=n_names)
        own = np.bincount(names, weights=self_time, minlength=n_names)
        step_id = self._id["engine.step"]
        table_id = self._id["rates.event_table"]
        is_table = names == table_id
        engine_tables = int(
            np.count_nonzero(names[parents[is_table & has_parent]] == step_id)
        )
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.span_names)},
            "busy_s": {n: float(busy[i]) for i, n in enumerate(self.span_names)},
            "self_s": {n: float(own[i]) for i, n in enumerate(self.span_names)},
            "min_self_s": float(self_time.min()) if self_time.size else 0.0,
            "self_total_s": float(self_time.sum()),
            "engine_tables": engine_tables,
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            starts=np.frombuffer(self.starts),
            ends=np.frombuffer(self.ends),
            rep_starts=np.array(self.rep_starts, dtype=np.int64),
        )


@contextmanager
def kept_event_counter():
    """Count events kept by ``lobsim.engine.simulate`` without recording spans.

    The untraced run uses this one wrapper, which costs one extra Python call
    per trajectory, to learn how many events the workload kept.
    """
    engine = importlib.import_module("lobsim.engine")
    original = engine.simulate
    counters = dict.fromkeys(COUNTER_NAMES, 0)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        _count_simulate(counters, result)
        return result

    engine.simulate = counted
    try:
        yield counters
    finally:
        engine.simulate = original
