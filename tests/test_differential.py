"""Differential test: simulate's depth-count loop against the BookState reference.

The reference below is the engine's loop written directly over immutable
book states: one step() per event, through the matching core. Driven from
the same seed, both must produce the same times, events, trades, quotes,
XLM values and book states, ids and sequence numbers included.
"""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from lobsim.book import BookState, Order, Side, StateCaps, empty_book
from lobsim.engine import EngineError, RecordingConfig, simulate, step
from lobsim.observables import quotes, summarize_run, xlm
from lobsim.oracle import tiny_overlapping_model
from lobsim.scenario import build_rate_model, preset


def reference_run(model, initial, seed, event_count=None, time_horizon=None, caps=None):
    """(per-event (time, event, trades, state), final time): the step() loop."""
    state = initial
    rng = np.random.default_rng(seed)
    trajectory = []
    now = 0.0
    while event_count is None or len(trajectory) < event_count:
        result = step(state, model, rng, now, caps=caps)
        if time_horizon is not None and now + result.delta_t > time_horizon:
            return trajectory, time_horizon
        now += result.delta_t
        state = result.state
        trajectory.append((now, result.event, result.transactions, state))
    return trajectory, now


def assert_matches_reference(model, seed, initial=None, caps=None, debug_invariants=False, **stop):
    initial = initial if initial is not None else empty_book(model.grid_size)
    trajectory, final_time = reference_run(model, initial, seed, caps=caps, **stop)
    times = [t for t, *_ in trajectory]
    # A checkpoint at an event's time holds the book right after that event.
    checkpoint_times = (-1.0, *times, final_time + 1.0)
    result = simulate(
        model,
        initial,
        seed=seed,
        caps=caps,
        debug_invariants=debug_invariants,
        recording=RecordingConfig(quotes=True, liquidity=True, checkpoint_times=checkpoint_times),
        **stop,
    )
    assert result.event_count == len(trajectory) > 0
    assert result.final_time == final_time
    for record, (time, event, trades, state) in zip(result.records, trajectory):
        assert (record.time, record.event, record.transactions) == (time, event, trades)
        assert record.quote == quotes(state)
        assert record.liquidity == (xlm(state) if state.bids and state.asks else None)
        engine_state = result.checkpoints[time]
        assert engine_state.canonical_key() == state.canonical_key()
        assert engine_state == state  # ids, seqs, next_seq and last_transaction too
    final_state = trajectory[-1][3]
    assert result.final_state == final_state
    assert result.checkpoints[-1.0] == initial
    assert final_time + 1.0 not in result.checkpoints
    return final_state


def scenario_model(name, **overrides):
    return build_rate_model(replace(preset(name), **overrides))


@pytest.mark.parametrize(
    "name, overrides",
    [("scenario2", {}), ("scenario2", {"anchoring": "opposite_best"}), ("scenario1", {})],
)
def test_uncapped_event_count_runs(name, overrides):
    assert_matches_reference(scenario_model(name, **overrides), seed=11, event_count=1500)


@pytest.mark.parametrize("anchoring", ["static", "opposite_best"])
def test_zero_cancellation_rate(anchoring):
    # The rate model lists no cancellations at all: a table holds arrivals only.
    model = scenario_model("scenario2", anchoring=anchoring, cancel_rate=0.0)
    book = assert_matches_reference(model, seed=18, event_count=1500)
    assert book.order_count() > 0


def test_capped_tiny_overlap():
    model, caps = tiny_overlapping_model()
    assert_matches_reference(model, seed=12, caps=caps, event_count=1500)


def test_capped_scenario1_with_invariants():
    caps = StateCaps(max_orders=3, max_quantity=1)
    assert_matches_reference(
        scenario_model("scenario1"), seed=13, caps=caps, event_count=1500, debug_invariants=True
    )


def test_horizon_stop_with_checkpoints():
    model = scenario_model("scenario2", anchoring="opposite_best")
    assert_matches_reference(model, seed=14, time_horizon=150.0, debug_invariants=True)


def test_uniform_initial_book_continues_exactly():
    model = scenario_model("scenario1")
    book = assert_matches_reference(model, seed=15, event_count=400)
    assert book.order_count() > 0 and book.last_transaction is not None
    assert_matches_reference(model, seed=16, initial=book, event_count=400)


def test_streamed_summary_equals_record_summary():
    model = scenario_model("scenario2")
    kwargs = dict(event_count=3000, seed=17)
    recorded = simulate(model, recording=RecordingConfig(quotes=True, liquidity=True), **kwargs)
    streamed = simulate(model, recording=RecordingConfig(events=False, summary=True), **kwargs)
    assert streamed.records == []
    a, b = astuple(summarize_run(recorded)), astuple(summarize_run(streamed))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x == y or (math.isnan(x) and math.isnan(y))


@pytest.mark.parametrize(
    "order",
    [
        Order(Side.BID, 5, 2, 1, 1),  # not of unit size
        Order(Side.BID, 5, 1, 1, 7),  # id differs from seq
    ],
)
def test_non_uniform_initial_book_rejected(order):
    initial = BookState(20, (order,), (), None, 2)
    with pytest.raises(EngineError):
        simulate(scenario_model("scenario1"), initial, event_count=10, seed=1)


def test_initial_book_on_another_grid_rejected():
    with pytest.raises(EngineError):
        simulate(scenario_model("scenario1"), empty_book(30), event_count=10, seed=1)
