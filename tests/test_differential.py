"""Differential test: simulate's depth-count loop against the BookState reference.

The reference below is the engine's loop written directly over immutable
book states: one step() per event, through the matching core. Driven from
the same seed, both must produce the same times, events, trades, quotes,
streamed summary columns, XLM values, heatmap depth frames and book states,
ids and sequence numbers included, on fixed cases and on
drawn models, books, caps and stops; every book the engine holds after an
event passes ``validate_book``. The batched form of simulate, which steps
many seeds at once, is compared with one simulate call per seed on event
counts and book rows: each resident's signed level in
submission order, so queue order is checked as well as depth.
"""

import math
from dataclasses import replace
from itertools import accumulate, product
from unittest import mock

import numpy as np
import pytest
from conftest import DRAWN_CAPS, drawn_books
from golden import case_model
from hypothesis import given, settings
from hypothesis import strategies as st

import lobsim.engine
from lobsim.book import BookState, Order, Side, StateCaps, empty_book, validate_book
from lobsim.engine import (
    EngineError,
    RecordingConfig,
    derive_run_seeds,
    lockstep_width,
    simulate,
    step,
)
from lobsim.observables import depth, quotes, xlm, xlm_legs
from lobsim.oracle import tiny_overlapping_model
from lobsim.rates import AbsorbingStateError, DgxParams, EventKind, RateModel, TraderGroup
from lobsim.scenario import ORACLE_MODELS, ORACLE_TIMES, build_rate_model, preset


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


def assert_matches_reference(model, seed, initial=None, caps=None, fresh=True, events=True, **stop):
    """``fresh`` clears the engine's table cache before each simulate call; otherwise
    the calls reuse the tables earlier calls on the model built. The book after each
    event, taken at a checkpoint, must equal the reference's and pass ``validate_book``.
    Every event's time is checked through its record under ``events`` and through the
    checkpoint at it either way, and the final time exactly."""
    initial = initial if initial is not None else empty_book(model.grid_size)
    trajectory, final_time = reference_run(model, initial, seed, caps=caps, **stop)
    times = [t for t, *_ in trajectory]
    recording = RecordingConfig(events=events, depth_window=len(trajectory))
    # A checkpoint at an event's time holds the book right after that event.
    # Checkpoints at every event send each one down the loop's rare path, which
    # looks its table up again. Without them only the first event and a key not
    # built yet take it: the event that changes the key (a quote move under
    # opposite-best anchoring, any event under caps) takes its table from the
    # cache, and static uncapped runs keep one table throughout.
    runs = []
    for checkpoint_times in ((-1.0, *times, final_time + 1.0), ()):
        if fresh:
            lobsim.engine._cache.cache_clear()
        runs.append(simulate(
            model,
            initial,
            seed=seed,
            caps=caps,
            recording=replace(recording, checkpoint_times=checkpoint_times),
            **stop,
        ))
    result, plain = runs
    assert_run_matches(result, trajectory, final_time, events)
    assert run_outputs(plain) == run_outputs(result) and plain.checkpoints == {}
    for time, *_, state in trajectory:
        engine_state = result.checkpoints[time]
        validate_book(engine_state)
        assert engine_state.canonical_key() == state.canonical_key()
        assert engine_state == state  # ids, seqs, next_seq and last_transaction too
    assert result.checkpoints[-1.0] == initial
    assert final_time + 1.0 not in result.checkpoints
    return trajectory[-1][3]


def run_outputs(result):
    """A run's outputs other than its checkpoints, as comparable values."""
    columns = result.summary_columns
    return (
        result.records,
        result.final_state,
        result.final_time,
        result.event_count,
        columns.quoted.tolist(),
        columns.prices,
        result.depth_frames,
    )


def assert_run_matches(result, trajectory, final_time, events):
    """``result`` against the reference's trajectory and final time."""
    assert result.event_count == len(trajectory) > 0
    assert type(result.final_time) is float and result.final_time == final_time
    # A depth frame per event, each the depth of the book after it.
    frames = result.depth_frames
    assert frames.first == 1 and len(frames) == len(trajectory)
    for row, filled, (_, _, trades, state) in zip(frames.counts, frames.fills, trajectory):
        assert_frame_is_depth(row, filled, trades, state)
    # One streamed row per event after which both sides quote, with its XLM legs.
    quoted = [state for *_, state in trajectory if state.bids and state.asks]
    rows = result.summary_columns.quoted
    legs = zip(*xlm_legs(*rows.T))
    for row, leg, state in zip(rows.tolist(), legs, quoted, strict=True):
        assert row[:2] == [state.best_bid(), state.best_ask()]
        assert leg == tuple(xlm(state))
    prices = [t.price_level for _, _, trades, _ in trajectory for t in trades]
    assert result.summary_columns.prices == prices
    assert len(result.records) == (len(trajectory) if events else 0)
    for record, (time, event, trades, state) in zip(result.records, trajectory):
        assert (record.time, record.event, record.transactions) == (time, event, trades)
        assert record.quote == quotes(state)
    assert result.final_state == trajectory[-1][3]


def assert_frame_is_depth(row, filled, trades, state):
    """A frame's ``row`` of counts per signed level -K..K is ``depth(state)``'s bid counts
    reversed, an empty level 0, then its ask counts; ``filled`` whether ``trades`` happened."""
    profile, k = depth(state), state.grid_size
    assert row[k - 1 :: -1].tolist() == profile.bid_counts.tolist()
    assert row[k] == 0 and row[k + 1 :].tolist() == profile.ask_counts.tolist()
    assert filled == bool(trades)


def scenario_model(name, **overrides):
    return build_rate_model(replace(preset(name), **overrides))


OPPOSITE_BEST = {"anchoring": "opposite_best"}


# A "shared" case runs consecutive seeds through one table cache, as
# run_scenario and validate do; every other case starts from an empty cache.
@pytest.mark.parametrize(
    "name, overrides, seeds",
    [
        pytest.param("scenario2", {}, (11,), id="scenario2-overrides0"),
        pytest.param("scenario2", OPPOSITE_BEST, (11,), id="scenario2-overrides1"),
        pytest.param("scenario1", {}, (11,), id="scenario1-overrides2"),
        pytest.param("scenario2", {}, (11, 12), id="scenario2-shared"),
        pytest.param("scenario2", OPPOSITE_BEST, (11, 12), id="opposite_best-shared"),
    ],
)
def test_uncapped_event_count_runs(name, overrides, seeds):
    for seed in seeds:
        assert_matches_reference(
            scenario_model(name, **overrides), seed=seed, event_count=1500, fresh=False
        )


@pytest.mark.parametrize(
    "anchoring, seeds",
    [
        pytest.param("static", (18,), id="static"),
        pytest.param("opposite_best", (18,), id="opposite_best"),
        pytest.param("static", (18, 19), id="static-shared"),
        pytest.param("opposite_best", (18, 19), id="opposite_best-shared"),
    ],
)
def test_zero_cancellation_rate(anchoring, seeds):
    # The rate model lists no cancellations at all: a table holds arrivals only.
    model = scenario_model("scenario2", anchoring=anchoring, cancel_rate=0.0)
    for seed in seeds:
        book = assert_matches_reference(model, seed=seed, event_count=1500, fresh=False)
        assert book.order_count() > 0


@pytest.mark.parametrize("seeds", [(12,), (12, 13)], ids=["fresh", "shared"])
def test_capped_tiny_overlap(seeds):
    model, caps = tiny_overlapping_model()
    for seed in seeds:
        assert_matches_reference(model, seed=seed, caps=caps, event_count=1500, fresh=False)


@pytest.mark.parametrize("case", ["scenario2-static", "scenario2-opposite_best", "tiny-overlap"])
def test_runs_without_event_records(case):
    # Without event records a trade's Transaction is built only when a book
    # state is: every checkpoint after a trade must still carry it.
    if case == "tiny-overlap":
        model, caps = tiny_overlapping_model()
    else:
        model, caps = scenario_model("scenario2", anchoring=case.split("-")[1]), None
    book = assert_matches_reference(model, seed=21, caps=caps, event_count=1500, events=False)
    assert book.last_transaction is not None


def test_capped_scenario1_with_invariants():
    caps = StateCaps(max_orders=3, max_quantity=1)
    assert_matches_reference(scenario_model("scenario1"), seed=13, caps=caps, event_count=1500)


def test_horizon_stop_with_checkpoints():
    model = scenario_model("scenario2", anchoring="opposite_best")
    assert_matches_reference(model, seed=14, time_horizon=150.0)


def test_uniform_initial_book_continues_exactly():
    model = scenario_model("scenario1")
    book = assert_matches_reference(model, seed=15, event_count=400)
    assert book.order_count() > 0 and book.last_transaction is not None
    assert_matches_reference(model, seed=16, initial=book, event_count=400)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    drawn_books(),
    DRAWN_CAPS,
    st.integers(0, 2**32),
    st.integers(1, 60),
    st.one_of(st.none(), st.floats(0.0, 1.0, exclude_max=True)),
    st.booleans(),
)
def test_simulate_matches_step_on_drawn_models(case, drawn_caps, seed, events, past_event, records):
    # A drawn model and uniform book (possibly empty), caps or none, and a stop
    # after ``events`` events or, when ``past_event`` is drawn, a horizon that
    # far into the waiting time after the last of them.
    model, book = case
    caps = None
    if drawn_caps is not None:
        offset, max_quantity = drawn_caps
        max_orders = None if offset is None else max(book.order_count() + offset, 0)
        caps = StateCaps(max_orders, max_quantity)
    stop = {"event_count": events}
    try:
        if past_event is not None:
            trajectory, _ = reference_run(model, book, seed, caps=caps, **stop)
            stop = {"time_horizon": trajectory[-1][0] + past_event / model.event_intensity}
        reference_run(model, book, seed, caps=caps, **stop)
    except AbsorbingStateError:
        with pytest.raises(AbsorbingStateError):
            simulate(model, book, seed=seed, caps=caps, **stop)
        return
    assert_matches_reference(model, seed, book, caps, events=records, **stop)


# The loop draws pairs in blocks of 16, 32, 64, ...: the first two blocks end
# after events 16 and 48.
@pytest.mark.parametrize("events", [15, 16, 17, 48, 49])
def test_event_counts_at_draw_block_edges(events):
    model = scenario_model("scenario2")
    assert_matches_reference(model, seed=23, event_count=events)
    result = simulate(model, event_count=events, seed=23)
    rng = np.random.default_rng(23)
    pairs = [(rng.random(), rng.random()) for _ in range(events)]
    times = list(accumulate(-math.log1p(-u_time) / model.event_intensity for u_time, _ in pairs))
    assert [record.time for record in result.records] == times
    assert result.final_time == times[-1]


@pytest.mark.parametrize("event", [16, 17, 48, 49])
def test_horizons_at_event_times_at_draw_block_edges(event):
    # A horizon at event ``event``'s time keeps it; one a ulp below drops it.
    model = scenario_model("scenario2")
    at = simulate(model, event_count=event, seed=24).records[-1].time
    for horizon, count in ((at, event), (float(np.nextafter(at, -np.inf)), event - 1)):
        result = simulate(model, time_horizon=horizon, seed=24)
        assert (result.event_count, result.final_time) == (count, horizon)
        assert_matches_reference(model, seed=24, time_horizon=horizon)


@pytest.mark.parametrize(
    "anchoring, caps",
    [("static", None), ("opposite_best", None), ("opposite_best", StateCaps(max_orders=8))],
    ids=["static", "opposite_best", "opposite_best-capped"],
)
def test_tables_switched_at_quote_moves(anchoring, caps):
    # The event that changes a run's key (a quote move under opposite-best anchoring,
    # any event under caps) takes the new key's table from the cache, with or without
    # event records; only a key not built yet is looked up on
    # the next event's rare path. Per seed, every variant gives the same summary
    # columns, frames and final book, from a table cache the earlier runs and
    # seeds warmed (its cum lists already grown) or from a cleared one.
    model = scenario_model("scenario2", anchoring=anchoring)
    for seed in (31, 32, 33):
        outputs = []
        for fresh, events in product((False, True), (True, False)):
            if fresh:
                lobsim.engine._cache.cache_clear()
            recording = RecordingConfig(events=events, depth_window=2000)
            result = simulate(model, event_count=2000, seed=seed, recording=recording, caps=caps)
            columns = result.summary_columns
            outputs.append(
                (columns.quoted.tolist(), columns.prices, result.depth_frames, result.final_state)
            )
        assert all(output == outputs[0] for output in outputs[1:])
        assert len(outputs[0][2]) == 2000


@pytest.mark.parametrize("anchoring", ["static", "opposite_best"])
@pytest.mark.parametrize("stop", [dict(event_count=600), dict(time_horizon=100.0)])
def test_depth_window_frames(anchoring, stop):
    model = scenario_model("scenario2", anchoring=anchoring)
    trajectory, _ = reference_run(model, empty_book(model.grid_size), 19, **stop)
    recording = RecordingConfig(events=False, depth_window=250)
    frames = simulate(model, seed=19, recording=recording, **stop).depth_frames
    assert len(trajectory) > 250
    assert frames.first == len(trajectory) - 249 and len(frames) == 250
    for row, filled, (_, _, trades, state) in zip(frames.counts, frames.fills, trajectory[-250:]):
        assert_frame_is_depth(row, filled, trades, state)


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


def book_row(state, width):
    """A book as batched runs return it: its residents' signed levels (+ asks,
    - bids) in ``orders_by_seq()`` order, padded with 0 to ``width``."""
    row = np.zeros(width, dtype=np.int64)
    for j, order in enumerate(state.orders_by_seq()):
        row[j] = order.price_level if order.side is Side.ASK else -order.price_level
    return row


def assert_batch_matches_scalar(
    model_name, runs, time_horizon=2.0, base_seed=5, times=None, case=None, fresh=True,
    dtype=np.int8,
):
    """The batched call against one scalar call per seed; returns the batch.

    ``case`` is a (model, caps) pair in place of the named oracle model.
    ``fresh`` clears the engine's table cache before the batched call; otherwise
    it reuses the tables and book set earlier calls on the model built.
    ``dtype`` is the batch's row type.
    """
    model, caps = case if case is not None else ORACLE_MODELS[model_name]()
    seeds = derive_run_seeds(base_seed, runs)
    if times is None:
        # Before the first event, at and between the oracle times, past the horizon.
        times = (-1.0, 0.0, *ORACLE_TIMES, 0.75, time_horizon, time_horizon + 1.0)
    recording = RecordingConfig(events=False, checkpoint_times=times)
    if fresh:
        lobsim.engine._cache.cache_clear()
    batch = simulate(model, time_horizon=time_horizon, seed=seeds, recording=recording, caps=caps)
    assert set(batch.checkpoints) == {t for t in times if t <= time_horizon}
    assert batch.depth_frames == ()
    width = caps.max_orders + 1
    assert batch.final_books.shape == (runs, width) and batch.final_books.dtype == dtype
    total = 0
    for i, seed in enumerate(seeds):
        run = simulate(model, time_horizon=time_horizon, seed=seed, recording=recording, caps=caps)
        assert batch.event_counts[i] == run.event_count
        assert run.final_time == time_horizon
        assert np.array_equal(batch.final_books[i], book_row(run.final_state, width))
        assert set(run.checkpoints) == set(batch.checkpoints)
        for t, state in run.checkpoints.items():
            assert np.array_equal(batch.checkpoints[t][i], book_row(state, width)), (i, t)
        total += run.event_count
    assert type(batch.event_count) is int and batch.event_count == total
    return batch


@pytest.mark.parametrize("model_name", sorted(ORACLE_MODELS))
def test_batched_runs_match_scalar_runs(model_name):
    assert_batch_matches_scalar(model_name, runs=300)


@pytest.mark.parametrize("grid, dtype", [(127, np.int8), (128, np.int16)])
def test_batched_rows_hold_an_ask_at_the_top_level(grid, dtype):
    # Asks at level K: an int8 row holds +127, and at K = 128 one would wrap to a bid.
    point = DgxParams(mu=0.0, sigma=1.0, support_size=1)
    group = TraderGroup(1.0, point, point, ask_anchor=grid, bid_anchor=1)
    case = RateModel(grid, (group,), 0.1, 6.0), StateCaps(max_orders=2, max_quantity=1)
    batch = assert_batch_matches_scalar(None, 5, 1.0, base_seed=3, case=case, dtype=dtype)
    assert (batch.final_books == grid).any()


def test_checkpoint_at_the_horizon_shares_the_final_rows():
    # The last bound is the horizon's: its checkpoint and final_books are one array.
    batch = assert_batch_matches_scalar("tiny-overlap", runs=50)
    assert np.shares_memory(batch.checkpoints[2.0], batch.final_books)
    earlier = [rows for t, rows in batch.checkpoints.items() if t < 2.0]
    assert earlier and not any(np.shares_memory(rows, batch.final_books) for rows in earlier)
    batch = assert_batch_matches_scalar("tiny-overlap", runs=50, times=(1.0,))
    assert not np.shares_memory(batch.checkpoints[1.0], batch.final_books)


def test_batched_single_run():
    assert_batch_matches_scalar("tiny-overlap", runs=1)


def test_batched_runs_beyond_one_active_set():
    # Five runs more than the kernel has slots, in one batched call, against one
    # scalar call each: the first five slots to stop take them.
    runs = lockstep_width(*ORACLE_MODELS["tiny-opposite"]()) + 5
    batch = assert_batch_matches_scalar("tiny-opposite", runs=runs, time_horizon=0.5)
    assert len(batch.event_counts) == runs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    drawn_books(largest_grid=4, most_groups=2),
    st.integers(2, 5),
    st.sampled_from([1, 2, None]),
    st.integers(2, 7),
    st.data(),
)
def test_batched_runs_match_scalar_runs_on_drawn_models(
    case, max_orders, max_quantity, width, data
):
    # A drawn capped model, horizon and checkpoints, and 1 to 3 * width + 1 runs on
    # ``width`` slots: slots are refilled from the queue, then drained and dropped.
    # The checkpoint tuple comes in any order, with repeats, and may hold negative
    # times, NaN, the horizon itself and times past it.
    model, _ = case
    caps = StateCaps(max_orders, max_quantity)
    runs = data.draw(st.sampled_from(range(1, 3 * width + 2)))
    horizon = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 8.0]))
    edges = st.sampled_from([-1.0, math.nan, horizon, horizon + 1.0, math.inf])
    point = st.one_of(st.floats(-0.5, horizon + 0.5), edges)
    drawn = data.draw(st.lists(point, min_size=1, max_size=3))
    repeats = drawn[: data.draw(st.integers(0, len(drawn)))]
    times = tuple(data.draw(st.permutations(drawn + repeats)))
    stop = {"time_horizon": horizon, "base_seed": data.draw(st.integers(0, 2**32)), "times": times}
    cells = width * (2 * model.grid_size + max_orders)
    recording = RecordingConfig(events=False, checkpoint_times=times)
    seeds = derive_run_seeds(stop["base_seed"], runs)
    with mock.patch.object(lobsim.engine, "LOCKSTEP_CELLS", cells):
        assert lockstep_width(model, caps) == width
        try:
            simulate(model, time_horizon=horizon, seed=seeds, recording=recording, caps=caps)
        except AbsorbingStateError:
            # Then some run reaches an absorbing book: its one-seed call raises too.
            with pytest.raises(AbsorbingStateError):
                for seed in seeds:
                    simulate(model, time_horizon=horizon, seed=seed, recording=recording, caps=caps)
            return
        assert_batch_matches_scalar(None, runs, case=(model, caps), **stop)


def test_runs_past_the_table_take_its_last_entry(monkeypatch):
    # With a subnormal cancellation rate the tiny model at its cap of 4 orders
    # keeps only its four cancellation slots, 2e-323 in total, and u * total
    # rounds to the total for every u > 0.875: the count of entries at or below
    # it is one past the table, and each loop takes the last entry, as step()
    # does. Under a normal total no u < 1 reaches it.
    model, caps = ORACLE_MODELS["tiny"]()
    model = replace(model, per_order_cancel_rate=5e-324)
    seeds = derive_run_seeds(5, 200)
    for seed in seeds[:20]:
        assert_matches_reference(model, seed, caps=caps, time_horizon=5.0)
    scalar = 0
    for seed in seeds:
        records = simulate(model, time_horizon=5.0, seed=seed, caps=caps).records
        u_event = np.random.default_rng(seed).random(2 * len(records))[1::2].tolist()
        n = 0
        for u, record in zip(u_event, records):
            scalar += n == 4 and u * (4 * 5e-324) == 4 * 5e-324
            n += -1 if record.event.kind is EventKind.CANCELLATION else 1
    batched, apply = [], lobsim.engine._Books._apply

    def counted_apply(self, source, entry):
        size = np.isfinite(self.cum[:, self.table[source]]).sum(axis=0)
        batched.append(np.count_nonzero(entry == size))
        return apply(self, source, entry)

    monkeypatch.setattr(lobsim.engine._Books, "_apply", counted_apply)
    assert_batch_matches_scalar(None, 200, time_horizon=5.0, case=(model, caps))
    assert scalar > 100 and sum(batched) > 10, (scalar, sum(batched))


def test_batched_checkpoints_at_scalar_event_times():
    # A checkpoint at a scalar event time holds the book after that event,
    # one a ulp earlier the book before it: a waiting time one ulp off, or a
    # checkpoint taken at t <= t_next, moves one of them.
    model, caps = ORACLE_MODELS["tiny-opposite"]()
    event_times = [
        record.time
        for seed in derive_run_seeds(5, 25)
        for record in simulate(model, time_horizon=2.0, seed=seed, caps=caps).records
    ]
    times = (*event_times, *np.nextafter(event_times, -np.inf).tolist())
    assert_batch_matches_scalar("tiny-opposite", runs=25, times=times)


def test_batched_horizon_at_scalar_event_times():
    # A horizon at a scalar event time keeps that event, one a ulp below it
    # drops it. Each horizon is an event time that a clock summed from
    # np.log1p, as the batched clock is, misses: without the exact replay
    # that run would keep or drop the event wrongly.
    model, caps = ORACLE_MODELS["tiny-overlap"]()
    seeds = derive_run_seeds(7, 40)
    missed = {}
    for i, seed in enumerate(seeds):
        records = simulate(model, time_horizon=2.0, seed=seed, caps=caps).records
        u_time = np.random.default_rng(seed).random(2 * len(records))[::2]
        clock = accumulate((-np.log1p(-u_time) / model.event_intensity).tolist())
        for j, (t, record) in enumerate(zip(clock, records)):
            if t != record.time:
                missed.setdefault(i, (j, record.time))
    assert len(missed) >= 4
    for i, (j, at) in list(missed.items())[:4]:
        for horizon, count in ((at, j + 1), (float(np.nextafter(at, -np.inf)), j)):
            batch = assert_batch_matches_scalar("tiny-overlap", 40, horizon, base_seed=7)
            assert batch.event_counts[i] == count


def assert_ensembles_equal(a, b):
    assert a.event_count == b.event_count
    for name in ("event_counts", "final_books"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.checkpoints.keys() == b.checkpoints.keys()
    for t in a.checkpoints:
        assert np.array_equal(a.checkpoints[t], b.checkpoints[t]), t


def test_batched_runs_replayed_at_every_bound(monkeypatch):
    # With an unbounded slack every clock that meets a bound takes the scalar
    # loop's time: on every step of every run, the one past the horizon too.
    # Seven slots take the 30 runs in turn, so a replay counts its own run's
    # steps, not the kernel's.
    default = assert_batch_matches_scalar("tiny-opposite", runs=30, time_horizon=4.0)
    replays = []
    scalar_clock = lobsim.engine._scalar_clock

    def counted_scalar_clock(*args):
        replays.append(args)
        return scalar_clock(*args)

    monkeypatch.setattr(lobsim.engine, "_clock_slack", lambda steps: math.inf)
    monkeypatch.setattr(lobsim.engine, "_scalar_clock", counted_scalar_clock)
    model, caps = ORACLE_MODELS["tiny-opposite"]()
    cells = 7 * (2 * model.grid_size + caps.max_orders)
    monkeypatch.setattr(lobsim.engine, "LOCKSTEP_CELLS", cells)
    assert lockstep_width(model, caps) == 7
    replayed = assert_batch_matches_scalar("tiny-opposite", runs=30, time_horizon=4.0)
    steps = {seed: [] for seed in derive_run_seeds(5, 30).tolist()}
    for seed, step, _ in replays:
        steps[seed].append(step)
    counts = replayed.event_counts.tolist()
    assert list(steps.values()) == [list(range(1, n + 2)) for n in counts]
    assert_ensembles_equal(default, replayed)


def test_batched_long_horizon_runs():
    # About 120 events per run, ten times as many as to the oracle horizon.
    batch = assert_batch_matches_scalar("tiny-overlap", runs=40, time_horizon=20.0)
    assert batch.event_counts.min() > 64


@pytest.mark.parametrize("model_name", sorted(ORACLE_MODELS))
def test_batched_runs_match_scalar_runs_through_book_set_restarts(model_name, monkeypatch):
    # The tiny models reach 31 to 161 books, so under a cap of 16 the set
    # restarts from the empty book and the live books; at a restart some runs
    # take known entries, whose books are renumbered. Two calls share one table
    # cache, cleared before the first, and so one set. After a restart the set may double before the
    # next, so it restarts one to three times in the 42 steps.
    monkeypatch.setattr(lobsim.engine, "_BOOK_CAP", 16)
    steps, empty = [], []
    intern, advance = lobsim.engine._Books.intern, lobsim.engine._Books.advance

    def counted_intern(self, rows, *limit):
        empty.append(not self.ids)  # the first books, or a restart
        return intern(self, rows, *limit)

    def counted_advance(self, book, choice):
        steps.append(len(book))
        return advance(self, book, choice)

    monkeypatch.setattr(lobsim.engine._Books, "intern", counted_intern)
    monkeypatch.setattr(lobsim.engine._Books, "advance", counted_advance)
    assert_batch_matches_scalar(model_name, runs=150)
    assert_batch_matches_scalar(model_name, runs=150, base_seed=6, fresh=False)
    restarts = sum(empty) - 1
    assert 1 <= restarts <= len(steps) // 4, (restarts, len(steps))


def test_book_set_restarts_only_when_its_books_pass_the_limit(monkeypatch):
    # The tiny model reaches 31 books, so under a cap of 32 the set never
    # restarts, although on some steps it holds fewer books than its unseen
    # (book, entry) pairs would need: a restart counts the books a step adds.
    monkeypatch.setattr(lobsim.engine, "_BOOK_CAP", 32)
    wanted, advance = [], lobsim.engine._Books.advance

    def counted_advance(self, book, choice):
        at = book * self.width + choice
        wanted.append(len(self.ids) + np.unique(at[self.next.ravel()[at] < 0]).size)
        return advance(self, book, choice)

    monkeypatch.setattr(lobsim.engine._Books, "advance", counted_advance)
    assert_batch_matches_scalar("tiny", runs=150)
    assert_batch_matches_scalar("tiny", runs=150, base_seed=6, fresh=False)
    books = lobsim.engine._cache(*ORACLE_MODELS["tiny"]())[lobsim.engine._Books]
    assert max(wanted) > 32 and len(books.ids) == 31 and books.limit == 32


def test_batched_runs_match_scalar_runs_on_grid10_opposite_best():
    # Grid 10, up to 9 orders, anchored on the opposite best: most (book,
    # entry) pairs a run takes are new, so nearly every step interns books.
    model, (_, max_quantity, max_orders, _) = case_model("grid10-opposite-best")
    case = model, StateCaps(max_orders=max_orders, max_quantity=max_quantity)
    batch = assert_batch_matches_scalar(None, runs=100, case=case)
    assert np.count_nonzero(batch.final_books, axis=1).max() == 9


def test_batched_runs_build_no_book(monkeypatch):
    # Capped tables come from side rows and the order count: with no way to
    # build a BookState, the batched form still matches one scalar call per seed.
    model, caps = ORACLE_MODELS["tiny-overlap"]()
    seeds = derive_run_seeds(9, 200)
    recording = RecordingConfig(events=False)
    stop = {"time_horizon": 2.0, "recording": recording, "caps": caps}
    runs = [simulate(model, seed=seed, **stop) for seed in seeds]
    expected = [book_row(run.final_state, caps.max_orders + 1) for run in runs]

    def no_book(*args):
        raise AssertionError("a BookState was built")

    monkeypatch.setattr(lobsim.engine, "_book_state", no_book)
    batch = simulate(model, time_horizon=2.0, seed=seeds, recording=recording, caps=caps)
    assert np.array_equal(batch.final_books, expected)


def test_absorbing_state_raises_in_both_forms():
    # Without cancellations the capped non-overlapping book fills up and stops.
    model, caps = ORACLE_MODELS["tiny"]()
    model = replace(model, per_order_cancel_rate=0.0)
    seeds = derive_run_seeds(3, 20)
    recording = RecordingConfig(events=False)
    with pytest.raises(AbsorbingStateError):
        simulate(model, time_horizon=50.0, seed=seeds[0], recording=recording, caps=caps)
    with pytest.raises(AbsorbingStateError):
        simulate(model, time_horizon=50.0, seed=seeds, recording=recording, caps=caps)


@pytest.mark.parametrize(
    "change",
    [
        "non-empty initial",
        "events=True",
        "depth_window",
        "no caps",
        "caps without max_orders",
        "no horizon",
        "event_count",
        "no seeds",
    ],
)
def test_batched_form_rejects_unsupported_arguments(change):
    model, _ = tiny_overlapping_model()
    kwargs = dict(
        time_horizon=2.0,
        seed=[1, 2, 3],
        recording=RecordingConfig(events=False, checkpoint_times=ORACLE_TIMES),
        caps=StateCaps(max_orders=4, max_quantity=1),
    )
    initial = None
    if change == "non-empty initial":
        initial = BookState(2, (Order(Side.BID, 1, 1, 1, 1),), (), None, 2)
    elif change == "events=True":
        kwargs["recording"] = RecordingConfig(checkpoint_times=ORACLE_TIMES)
    elif change == "depth_window":
        kwargs["recording"] = RecordingConfig(events=False, depth_window=5)
    elif change == "no caps":
        del kwargs["caps"]
    elif change == "caps without max_orders":
        kwargs["caps"] = StateCaps(max_quantity=1)
    elif change == "no horizon":
        kwargs["time_horizon"] = None
    elif change == "event_count":
        kwargs["event_count"] = 10
    elif change == "no seeds":
        kwargs["seed"] = []
    with pytest.raises(EngineError):
        simulate(model, initial, **kwargs)
