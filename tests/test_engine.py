"""Engine: determinism, waiting-time law, event-frequency agreement with the
rate table, one table build per cache key and one lookup per run on a warm
cache, the loop's tables against event_table on drawn models, books and caps,
stop criteria, ensembles, steady-state behavior, the seed range, the
replicated numpy streams of the batched form, and tied event selection."""

import math
from bisect import bisect_right
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import ABSORBING, DRAWN_CAPS, drawn_books
from scipy import stats

import lobsim.engine
import lobsim.rates
from lobsim.book import Side, StateCaps, empty_book, submit_order, validate_book
from lobsim.engine import (
    EngineError,
    RecordingConfig,
    _Streams,
    derive_run_seeds,
    run_ensemble,
    simulate,
    step,
)
from lobsim.rates import (
    AbsorbingStateError,
    AnchoringMode,
    EventKind,
    event_table,
)
from lobsim.observables import summarize_run
from lobsim.scenario import ORACLE_MODELS, build_rate_model, preset


@pytest.fixture(scope="module")
def scenario1_model():
    return build_rate_model(preset("scenario1"))


def trajectory_fingerprint(result):
    return [
        (r.time, r.event.kind, r.event.price_level, r.event.target_order_id, r.transactions)
        for r in result.records
    ]


class TestStep:
    def test_empty_book_only_arrivals(self, scenario1_model):
        rng = np.random.default_rng(0)
        for _ in range(200):
            result = step(empty_book(20), scenario1_model, rng, now=0.0)
            assert result.event.kind in (EventKind.ARRIVAL_ASK, EventKind.ARRIVAL_BID)

    def test_waiting_time_mean(self, scenario1_model):
        rng = np.random.default_rng(1)
        state = empty_book(20)
        draws = np.array(
            [step(state, scenario1_model, rng, 0.0).delta_t for _ in range(100_000)]
        )
        assert draws.mean() == pytest.approx(1.0 / 6.0, rel=0.01)

    def test_event_frequencies_match_table(self, scenario1_model):
        # frozen state: empirical step() frequencies vs the normalized table
        state, _ = submit_order(empty_book(20), Side.BID, 10, 1)
        state, _ = submit_order(state, Side.BID, 9, 1)
        table = event_table(scenario1_model, state)
        probabilities = {d: r / table.raw_total for d, r in table.entries}
        rng = np.random.default_rng(2)
        n = 20_000
        counts: dict = {}
        for _ in range(n):
            result = step(state, scenario1_model, rng, 0.0)
            counts[result.event] = counts.get(result.event, 0) + 1
        assert set(counts) <= set(probabilities)
        observed = np.array([counts.get(d, 0) for d in probabilities])
        expected = np.array([p * n for p in probabilities.values()])
        chi2 = stats.chisquare(observed, expected)
        assert chi2.pvalue > 0.001

    def test_absorbing_state_raises(self, scenario1_model):
        caps = StateCaps(max_orders=0)
        rng = np.random.default_rng(3)
        with pytest.raises(AbsorbingStateError):
            step(empty_book(20), scenario1_model, rng, 0.0, caps=caps)


class TestSimulate:
    def test_zero_events(self, scenario1_model):
        result = simulate(scenario1_model, event_count=0, seed=4)
        assert result.records == []
        assert result.final_state == empty_book(20)
        assert result.final_time == 0.0

    def test_bit_exact_determinism(self, scenario1_model):
        a = simulate(scenario1_model, event_count=400, seed=42)
        b = simulate(scenario1_model, event_count=400, seed=42)
        assert trajectory_fingerprint(a) == trajectory_fingerprint(b)
        assert a.final_state == b.final_state
        c = simulate(scenario1_model, event_count=400, seed=43)
        assert trajectory_fingerprint(a) != trajectory_fingerprint(c)

    def test_times_strictly_increasing(self, scenario1_model):
        result = simulate(scenario1_model, event_count=500, seed=5)
        times = [r.time for r in result.records]
        assert all(t1 < t2 for t1, t2 in zip(times, times[1:]))

    def test_elapsed_time_matches_intensity(self, scenario1_model):
        # event count n at fixed rate 6 gives duration ~ Gamma(n, 1/6)
        for seed in (6, 7, 8):
            result = simulate(scenario1_model, event_count=5000, seed=seed)
            assert result.final_time == pytest.approx(5000 / 6.0, rel=0.05)

    def test_invariants_hold_each_step(self, scenario1_model):
        times = [r.time for r in simulate(scenario1_model, event_count=2000, seed=9).records]
        recording = RecordingConfig(checkpoint_times=times)
        result = simulate(scenario1_model, event_count=2000, seed=9, recording=recording)
        assert len(result.checkpoints) == len(times)
        for book in result.checkpoints.values():
            validate_book(book)
        validate_book(result.final_state)
        for record in result.records:
            if record.quote is not None and record.quote.spread is not None:
                assert record.quote.spread >= 1

    def test_time_horizon_stop(self, scenario1_model):
        result = simulate(scenario1_model, time_horizon=10.0, seed=10)
        assert result.final_time == 10.0
        assert all(r.time <= 10.0 for r in result.records)
        # roughly 6 events per unit time
        assert 20 <= result.event_count <= 120

    def test_checkpoints_present_up_to_horizon(self, scenario1_model):
        times = (0.0, 2.0, 5.0, 9.0)
        result = simulate(
            scenario1_model,
            time_horizon=5.0,
            seed=11,
            recording=RecordingConfig(checkpoint_times=times),
        )
        # the 9.0 checkpoint lies past the horizon and stays absent
        assert set(result.checkpoints) == {0.0, 2.0, 5.0}
        assert result.checkpoints[0.0] == empty_book(20)
        assert result.checkpoints[5.0] == result.final_state

    def test_checkpoint_equals_replayed_state(self, scenario1_model):
        result = simulate(
            scenario1_model,
            time_horizon=3.0,
            seed=12,
            recording=RecordingConfig(checkpoint_times=(1.5,)),
        )
        # replay event by event up to 1.5 using the same seed
        from lobsim.rates import apply_event

        replay = simulate(scenario1_model, time_horizon=3.0, seed=12)
        state = empty_book(20)
        for record in replay.records:
            if record.time >= 1.5:
                break
            state, _ = apply_event(state, record.event, record.time)
        assert state.canonical_key() == result.checkpoints[1.5].canonical_key()

    def test_requires_stop_criterion(self, scenario1_model):
        with pytest.raises(EngineError):
            simulate(scenario1_model, seed=13)

    HORIZON = "time_horizon must be a number >= 0, finite without event_count"

    @pytest.mark.parametrize("seed", [1, [1, 2]], ids=["scalar", "batched"])
    @pytest.mark.parametrize(
        "stop, match",
        [
            ({}, "need event_count"),
            ({"event_count": 2.5}, "event_count must be an integer"),
            ({"event_count": True}, "event_count must be an integer"),
            ({"event_count": -1}, "event_count must be an integer"),
            ({"time_horizon": -1.0}, HORIZON),
            ({"time_horizon": math.nan}, HORIZON),
            ({"time_horizon": math.inf}, HORIZON),
            ({"event_count": 5, "time_horizon": math.nan}, HORIZON),
            ({"event_count": 5, "time_horizon": -math.inf}, HORIZON),
            ({"event_count": "5"}, "event_count must be an integer"),
            ({"time_horizon": "1.0"}, HORIZON),
            ({"time_horizon": True}, HORIZON),
        ],
    )
    def test_stop_arguments_checked_in_both_forms(self, stop, match, seed):
        # Without the check a NaN horizon, or an infinite one no event count
        # bounds, loops forever, and event_count=True runs one event.
        model, caps = ORACLE_MODELS["tiny-overlap"]()
        recording = RecordingConfig(events=False)
        with pytest.raises(EngineError, match=match):
            simulate(model, seed=seed, recording=recording, caps=caps, **stop)

    TIMES = "checkpoint_times must be an iterable of real numbers, got "

    @pytest.mark.parametrize("seed", [1, [1, 2]], ids=["scalar", "batched"])
    @pytest.mark.parametrize(
        "recorded, caps, match",
        [
            ({"depth_window": -1}, {}, "depth_window must be an integer >= 0, got -1"),
            ({"depth_window": 2.5}, {}, "depth_window must be an integer >= 0, got 2.5"),
            ({"depth_window": True}, {}, "depth_window must be an integer >= 0, got True"),
            ({"checkpoint_times": ("1",)}, {}, TIMES + r"\('1',\)"),
            ({"checkpoint_times": (None,)}, {}, TIMES + r"\(None,\)"),
            ({"checkpoint_times": 5.0}, {}, TIMES + "5.0"),
            ({"checkpoint_times": (0.5, True)}, {}, TIMES + r"\(0.5, True\)"),
            ({}, {"max_orders": -1}, "max_orders must be an integer >= 0, got -1"),
            ({}, {"max_orders": 2.5}, "max_orders must be an integer >= 0, got 2.5"),
            ({}, {"max_orders": "4"}, "max_orders must be an integer >= 0, got '4'"),
            ({}, {"max_quantity": 0}, "max_quantity must be an integer >= 1, got 0"),
            ({}, {"max_quantity": 1.5}, "max_quantity must be an integer >= 1, got 1.5"),
            ({}, {"max_quantity": True}, "max_quantity must be an integer >= 1, got True"),
        ],
    )
    def test_recording_and_caps_checked_in_both_forms(self, recorded, caps, match, seed):
        # Without the check a window of -1 returns the last 9 of 10 frames, numbered
        # from 12, batched runs with max_orders -1 or 2.5 fail inside numpy, and
        # checkpoint times of ("1",), (None,) or 5.0 raise TypeError.
        model, tiny_caps = ORACLE_MODELS["tiny-overlap"]()
        recording = RecordingConfig(events=False, **recorded)
        with pytest.raises(EngineError, match=match):
            simulate(
                model, time_horizon=1.0, seed=seed, recording=recording,
                caps=replace(tiny_caps, **caps),
            )

    # The tiny grid has 3**2 quote pairs, so 1,864,135 orders is the first count past 2**24 keys.
    @pytest.mark.parametrize("max_orders", [10**400, 1_864_135], ids=["past-int64", "first-past"])
    def test_batched_caps_past_the_key_table_raise(self, max_orders):
        # Before the check, 10**400 raised numpy's "Maximum allowed dimension
        # exceeded" from the book set's key -> table array.
        model, tiny_caps = ORACLE_MODELS["tiny-overlap"]()
        assert 9 * 1_864_134 <= 2**24 < 9 * 1_864_136
        with pytest.raises(EngineError, match=r"\(max_orders \+ 1\) <= 2\*\*24, got grid 2"):
            simulate(
                model, time_horizon=1.0, seed=[1, 2], recording=RecordingConfig(events=False),
                caps=replace(tiny_caps, max_orders=max_orders),
            )

    @pytest.mark.parametrize("seed", [5, [5]], ids=["scalar", "batched"])
    def test_nan_checkpoint_time_is_absent(self, seed):
        # A NaN time is never reached. The scalar form once took the final book at
        # every checkpoint sorted after it; a generator of times is read once.
        model, caps = ORACLE_MODELS["tiny-overlap"]()
        held = []
        for times in ((0.5, 2.0), (math.nan, 0.5, 2.0), (0.5, math.nan, 2.0), iter((2.0, 0.5))):
            recording = RecordingConfig(events=False, checkpoint_times=times)
            result = simulate(model, time_horizon=3.0, seed=seed, recording=recording, caps=caps)
            books = result.checkpoints.items()
            held.append({t: book if seed == 5 else book.tolist() for t, book in books})
        assert held[0].keys() == {0.5, 2.0} and held[0][0.5] != held[0][2.0]
        assert all(h == held[0] for h in held[1:])

    @pytest.mark.parametrize("count", [7, np.int64(7)])
    def test_event_count_bounds_an_infinite_horizon(self, count):
        model, caps = ORACLE_MODELS["tiny-overlap"]()
        result = simulate(model, event_count=count, time_horizon=math.inf, seed=3, caps=caps)
        assert result.event_count == 7 and len(result.records) == 7

    def test_capped_run_respects_cutoffs(self, scenario1_model):
        caps = StateCaps(max_orders=3, max_quantity=1)
        run = partial(simulate, scenario1_model, event_count=3000, seed=14, caps=caps)
        times = [r.time for r in run().records]
        result = run(recording=RecordingConfig(checkpoint_times=times))
        assert result.final_state.order_count() <= 3
        # The book after every event is valid and never exceeded the cap.
        assert len(result.checkpoints) == len(times)
        for book in result.checkpoints.values():
            validate_book(book)
            assert book.order_count() <= 3

    @pytest.mark.parametrize("anchoring", ["static", "opposite_best"])
    def test_one_table_build_per_key(self, anchoring, monkeypatch):
        # Two runs share one cleared cache. Each side row (a miss of the row cache in
        # rates) and each key's entry is built once, never again as the book
        # grows; the cache holds entries only. Every entry holds the signed
        # levels of event_table's arrivals and its cumulative floats on a book
        # with the key's quotes.
        model = build_rate_model(replace(preset("scenario2"), anchoring=anchoring))
        k, table = model.grid_size, lobsim.engine._table
        key_builds = []

        def counting_table(tables, key, *args):
            if key not in tables:
                key_builds.append(key)
            return table(tables, key, *args)

        monkeypatch.setattr(lobsim.engine, "_table", counting_table)
        lobsim.rates._side_row.cache_clear()
        recording = RecordingConfig(events=False)
        for seed in (11, 12):
            result = simulate(model, event_count=2000, seed=seed, recording=recording)
        tables = lobsim.engine._cache(model, None)
        rows = lobsim.rates._side_row.cache_info()
        # A row built twice would be a miss the cache no longer holds.
        assert rows.misses == rows.currsize <= 2 * (k + 1)
        assert len(key_builds) == len(set(key_builds))
        assert set(tables) == set(key_builds)
        if anchoring == "static":
            assert key_builds == [()] and rows.misses == 2
        else:
            assert len(key_builds) > 100
        for key in key_builds:
            cum, levels = tables[key]
            if key:
                book = book_with_quotes(model, -key[0], key[1], len(cum) - len(levels))
            else:
                book = result.final_state
            entries = event_table(model, book).entries
            arrivals = [d for d, _ in entries if d.kind is not EventKind.CANCELLATION]
            assert levels == [signed_level(d) for d in arrivals]
            # The appended cancellation tail holds the floats np.cumsum gives.
            expected = np.cumsum([rate for _, rate in entries]).tolist()
            assert cum[: len(expected)] == expected
            # Python floats: on numpy scalars the loop runs several percent slower.
            assert all(type(x) is float for x in cum)

    @pytest.mark.parametrize(
        "anchoring, recording, caps",
        [
            ("static", RecordingConfig(events=False), None),
            ("opposite_best", RecordingConfig(events=False, depth_window=5000), None),
            ("opposite_best", RecordingConfig(events=True), None),
            ("static", RecordingConfig(events=True), StateCaps(max_orders=8)),
        ],
        ids=["static", "opposite_best-heatmap", "opposite_best-events", "static-capped-events"],
    )
    def test_one_table_lookup_per_run_on_a_warm_cache(
        self, anchoring, recording, caps, monkeypatch
    ):
        # Once every key a run reaches is built, the event that changes its key takes
        # the table from the cache, so the run calls _table only at its first event:
        # with or without records, capped or not.
        model = build_rate_model(replace(preset("scenario2"), anchoring=anchoring))
        seeds, calls = derive_run_seeds(7, 4), []
        run = partial(simulate, model, event_count=5000, caps=caps)
        for seed in seeds:  # the same books, so the same keys, as the counted runs
            run(seed=seed, recording=RecordingConfig(events=False))
        table = lobsim.engine._table

        def counting_table(*args):
            calls.append(args[1])
            return table(*args)

        monkeypatch.setattr(lobsim.engine, "_table", counting_table)
        for seed in seeds:
            run(seed=seed, recording=recording)
        assert len(calls) == len(seeds)
        if caps is not None:  # a capped key's entry keeps its n slots, as _Books reads it
            tables = lobsim.engine._cache(model, caps)
            entries = [(key[2], tables[key]) for key in tables if len(key) == 3]
            assert entries and all(len(cum) == len(levels) + n for n, (cum, levels) in entries)

    @pytest.mark.parametrize("model_name", ["tiny-overlap", "tiny-opposite"])
    def test_one_table_build_per_key_in_batched_runs(self, model_name, monkeypatch):
        # Two batched calls share one cleared cache. Each key a book reaches is built once,
        # and the book set holds _table's entry as the key's table: its cumulative
        # floats padded with +inf, and per entry the signed level or K + 1 + j for
        # cancellation slot j, the last repeated past the table. The entry is
        # event_table's on a book with the key's quotes and count.
        model, caps = ORACLE_MODELS[model_name]()
        k, table = model.grid_size, lobsim.engine._table
        key_builds = []

        def counting_table(tables, key, *args):
            if key not in tables:
                key_builds.append(key)
            return table(tables, key, *args)

        monkeypatch.setattr(lobsim.engine, "_table", counting_table)
        recording = RecordingConfig(events=False)
        for base_seed in (1, 2):
            seeds = derive_run_seeds(base_seed, 300)
            simulate(model, time_horizon=2.0, seed=seeds, recording=recording, caps=caps)
        tables = lobsim.engine._cache(model, caps)
        books = tables[lobsim.engine._Books]
        assert len(key_builds) == len(set(key_builds)) == len(books.total) > 10
        table_of = {}
        for row, t in zip(books.rows[: len(books.ids)].tolist(), books.table.tolist()):
            key = (min(row), min([s for s in row if s > 0], default=k + 1), len(row) - row.count(0))
            assert table_of.setdefault(key, t) == t
        assert sorted(table_of) == sorted(key_builds)
        assert sorted(table_of.values()) == list(range(len(key_builds)))
        for key, t in table_of.items():
            cum, levels = tables[key]
            size = len(cum)
            assert size == len(levels) + key[2]
            assert books.cum[:size, t].tolist() == cum and np.isinf(books.cum[size:, t]).all()
            assert books.total[t] == cum[-1]
            move = books.move[t].tolist()
            assert move[:size] == levels + list(range(k + 1, k + 1 + key[2]))
            assert move[size:] == move[size - 1 : size] * (len(move) - size)
            book = book_with_quotes(model, -key[0], key[1], key[2])
            entries = event_table(model, book, caps=caps).entries
            assert cum == np.cumsum([rate for _, rate in entries]).tolist()
            assert levels == [signed_level(d) for d, _ in entries[: len(levels)]]

    @pytest.mark.parametrize("form", ["scalar", "batched"])
    def test_equal_models_share_one_cache(self, form, monkeypatch):
        # The cache is keyed by the (model, caps) value: a call on an equal but
        # distinct model reads the tables, and the book set, an earlier call built,
        # builds none, and gives each seed the same result.
        def case():
            if form == "batched":
                return ORACLE_MODELS["tiny-opposite"]()
            return build_rate_model(replace(preset("scenario2"), anchoring="opposite_best")), None

        (model, caps), (twin, twin_caps) = case(), case()
        assert (twin, twin_caps) == (model, caps) and twin is not model
        table, builds = lobsim.engine._table, []

        def counting_table(tables, key, *args):
            builds.append(key not in tables)
            return table(tables, key, *args)

        monkeypatch.setattr(lobsim.engine, "_table", counting_table)
        if form == "batched":
            recording = RecordingConfig(events=False, checkpoint_times=(1.0,))
            stop = dict(time_horizon=2.0, seed=derive_run_seeds(3, 300), recording=recording)
        else:
            stop = dict(event_count=3000, seed=3)
        first = simulate(model, caps=caps, **stop)
        built, tables = sum(builds), lobsim.engine._cache(model, caps)
        books = tables.get(lobsim.engine._Books)
        second = simulate(twin, caps=twin_caps, **stop)
        assert built > 10 and sum(builds) == built
        assert lobsim.engine._cache(twin, twin_caps) is tables
        assert tables.get(lobsim.engine._Books) is books
        if form == "batched":
            assert second.event_counts.tolist() == first.event_counts.tolist()
            assert second.checkpoints[1.0].tolist() == first.checkpoints[1.0].tolist()
            assert second.final_books.tolist() == first.final_books.tolist()
        else:
            assert second.records == first.records and second.final_state == first.final_state

    @pytest.mark.parametrize(
        "first, second",
        [
            (("scenario1", None), ("scenario2", None)),
            (("scenario2", StateCaps(max_orders=8)), ("scenario2", StateCaps(max_orders=9))),
        ],
        ids=["scenario1-scenario2", "max_orders-8-9"],
    )
    def test_pairs_with_the_same_keys_never_share_tables(self, first, second):
        # Scenario1 and scenario2 are both static, so each keys its one table ();
        # two caps on one model key tables alike, (bid, ask, n), but admit
        # different arrivals. Each (model, caps) pair has its own cache, so a run
        # after the other pair's run is the run from a cleared cache.
        (model, caps), (other, other_caps) = (
            (build_rate_model(preset(name)), pair_caps) for name, pair_caps in (first, second)
        )
        run = partial(simulate, event_count=200, seed=3)
        run(model, caps=caps)
        after = run(other, caps=other_caps)
        assert lobsim.engine._cache(model, caps) is not lobsim.engine._cache(other, other_caps)
        lobsim.engine._cache.cache_clear()
        fresh = run(other, caps=other_caps)
        assert after.records == fresh.records and after.final_state == fresh.final_state


def signed_level(descriptor):
    level = descriptor.price_level
    return level if descriptor.kind is EventKind.ARRIVAL_ASK else -level


def book_with_quotes(model, bid, ask, n):
    """A uniform book of ``n`` orders quoting ``bid`` and ``ask`` (0 / K + 1 for
    an empty side): one order at each quote, the rest at the ask, or at the
    bid when no ask is quoted."""
    k, q = model.grid_size, model.unit_quantity
    quoted = [(Side.BID, bid)] * (bid > 0) + [(Side.ASK, ask)] * (ask <= k)
    book = empty_book(k)
    for side, level in quoted + quoted[-1:] * (n - len(quoted)):
        book, _ = submit_order(book, side, level, q, 0.0)
    return book


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drawn_books(), DRAWN_CAPS)
@example(ABSORBING, None)
def test_table_matches_event_table_on_drawn_books(case, drawn_caps):
    # The loop's entry for a book's key, built on its first event, against
    # the event_table of that book under the same caps; where event_table
    # finds the book absorbing, simulate raises before its first event. An
    # event that rests appends its cancellation slot to an uncapped entry.
    model, book = case
    k, n = model.grid_size, book.order_count()
    caps = None
    if drawn_caps is not None:
        offset, max_quantity = drawn_caps
        caps = StateCaps(None if offset is None else max(n + offset, 0), max_quantity)
    lobsim.engine._cache.cache_clear()  # the entry is built by this example's one event
    run = partial(
        simulate, model, book, event_count=1, seed=3, recording=RecordingConfig(events=False),
        caps=caps,
    )
    try:
        entries = event_table(model, book, caps).entries
    except AbsorbingStateError:
        with pytest.raises(AbsorbingStateError):
            run()
        return
    rested = run().final_state.order_count() > n
    if caps is not None:
        key = (-(book.best_bid() or 0), book.best_ask() or k + 1, n)
    elif model.anchoring_mode is AnchoringMode.STATIC_SUPPORT:
        key = ()
    else:
        key = (-(book.best_bid() or 0), book.best_ask() or k + 1, 0)
    cum, levels = lobsim.engine._cache(model, caps)[key]
    grown = rested and caps is None and model.per_order_cancel_rate > 0
    rates = [rate for _, rate in entries] + [model.per_order_cancel_rate] * grown
    assert cum == np.cumsum(rates).tolist()
    arrivals = [d for d, _ in entries if d.kind is not EventKind.CANCELLATION]
    assert levels == [signed_level(d) for d in arrivals]
    if caps is not None and model.unit_quantity > (caps.max_quantity or math.inf):
        assert levels == []


class TestEnsemble:
    def test_single_run_matches_simulate(self, scenario1_model):
        seeds = derive_run_seeds(123, 1)
        direct = simulate(scenario1_model, event_count=100, seed=seeds[0])
        ensemble = run_ensemble(scenario1_model, runs=1, events_per_run=100, base_seed=123)
        assert trajectory_fingerprint(direct) == trajectory_fingerprint(ensemble[0])

    def test_same_base_seed_identical(self, scenario1_model):
        a = run_ensemble(
            scenario1_model,
            runs=5,
            events_per_run=200,
            base_seed=77,
            reduce=lambda r: r.final_state.canonical_key(),
        )
        b = run_ensemble(
            scenario1_model,
            runs=5,
            events_per_run=200,
            base_seed=77,
            reduce=lambda r: r.final_state.canonical_key(),
        )
        assert a == b

    def test_runs_are_distinct(self, scenario1_model):
        keys = run_ensemble(
            scenario1_model,
            runs=6,
            events_per_run=300,
            base_seed=78,
            reduce=lambda r: tuple(rec.time for rec in r.records[:10]),
        )
        assert len(set(keys)) == 6

    def test_steady_state_depth_stable_across_seeds(self, scenario1_model):
        # mean resident count over the last 20% of a long run, per seed
        means = []
        for seed in (21, 22, 23):
            result = simulate(
                scenario1_model,
                event_count=20_000,
                seed=seed,
                recording=RecordingConfig(events=False, depth_window=4000),
            )
            means.append(float(result.depth_frames.counts.sum(axis=1).mean()))
        center = float(np.mean(means))
        assert center < 60.0
        for m in means:
            assert abs(m - center) / center < 0.15

    @pytest.mark.parametrize(
        "arguments, match",
        [
            ({"runs": 2.5}, r"runs must be an integer >= 1, got 2\.5"),
            ({"runs": "3"}, "runs must be an integer >= 1, got '3'"),
            ({"runs": True}, "runs must be an integer >= 1, got True"),
            ({"runs": 0}, "runs must be an integer >= 1, got 0"),
            ({"runs": -1}, "runs must be an integer >= 1, got -1"),
            ({"base_seed": -1}, "base_seed must be an integer >= 0, got -1"),
            ({"base_seed": 1.5}, r"base_seed must be an integer >= 0, got 1\.5"),
            ({"base_seed": True}, "base_seed must be an integer >= 0, got True"),
            ({"base_seed": np.False_}, r"base_seed must be an integer >= 0, got (np\.)?False"),
        ],
    )
    def test_bad_runs_or_base_seed_rejected(self, arguments, match):
        model, caps = ORACLE_MODELS["tiny"]()
        with pytest.raises(EngineError, match=match):
            run_ensemble(model, **{"runs": 2, "events_per_run": 3, "caps": caps, **arguments})
        # derive_run_seeds takes the same arguments, and 0 runs.
        if arguments.get("runs") != 0:
            with pytest.raises(EngineError, match=match.replace(">= 1", ">= 0")):
                derive_run_seeds(**{"base_seed": 0, "runs": 2, **arguments})

    def test_numpy_integer_runs_and_base_seed_accepted(self):
        model, caps = ORACLE_MODELS["tiny"]()
        runs = run_ensemble(model, np.int64(2), 3, np.uint64(5), caps=caps)
        expected = run_ensemble(model, 2, 3, 5, caps=caps)

        def fields(run):  # the summary columns hold an array: compare it as a list
            columns = run.summary_columns
            return replace(run, summary_columns=None), columns.quoted.tolist(), columns.prices

        assert [fields(run) for run in runs] == [fields(run) for run in expected]


class TestSeeds:
    # Both forms accept exactly the 64-bit seeds derive_run_seeds yields.
    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_outside_64_bits_rejected(self, seed):
        model, caps = ORACLE_MODELS["tiny"]()
        recording = RecordingConfig(events=False)
        with pytest.raises(EngineError, match="seed must be an integer"):
            simulate(model, time_horizon=1.0, seed=seed, recording=recording, caps=caps)
        with pytest.raises(EngineError, match="seed must be an integer"):
            simulate(model, time_horizon=1.0, seed=[1, seed], recording=recording, caps=caps)

    @pytest.mark.parametrize("seed", [True, False, np.True_, "7", b"7", "", np.array(7)])
    def test_bool_seed_rejected(self, seed):
        # bool is an int subclass: True would otherwise run as seed 1. A str or
        # bytes seed is a sequence, but one seed, not a batch; so is a 0-d array.
        model, caps = ORACLE_MODELS["tiny"]()
        recording = RecordingConfig(events=False)
        with pytest.raises(EngineError, match="seed must be an integer"):
            simulate(model, event_count=3, seed=seed)
        with pytest.raises(EngineError, match="seed must be an integer"):
            simulate(model, time_horizon=1.0, seed=[1, seed], recording=recording, caps=caps)

    def test_replicated_streams_match_default_rng(self):
        # Bit for bit, so a change to numpy's SeedSequence or PCG64 shows here.
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 12345]
        seeds += derive_run_seeds(2024, 10_000).tolist()
        expected = np.array([np.random.default_rng(seed).random(128) for seed in seeds])
        # Slot i draws seed rows[i]'s stream from step first[i] on, a pair per step, as the
        # batched loop's slots do: every 16 steps some slots stop, and take the next queued
        # seeds' fresh streams while any are left; once the queue is empty they are dropped.
        streams, queued = _Streams(seeds[:5000]), 5000
        rows, first = np.arange(5000), np.zeros(5000, dtype=int)
        drawn = np.zeros(len(seeds), dtype=bool)
        for j in range(64):
            if j and j % 16 == 0:
                stop = np.flatnonzero((rows >= 6) & ((rows + j // 16) % 2 == 0))
                fresh, stop = stop[: len(seeds) - queued], stop[len(seeds) - queued :]
                rows[fresh], first[fresh] = np.arange(queued, queued + fresh.size), j
                streams.words[:, fresh] = _Streams(seeds[queued : queued + fresh.size]).words
                queued += fresh.size
                go = np.ones(rows.size, dtype=bool)
                go[stop] = False
                streams.words, rows, first = streams.words[:, go], rows[go], first[go]
            got = streams.pairs().T
            want = expected[rows[:, None], 2 * (j - first)[:, None] + [0, 1]]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), j
            drawn[rows] = True
        # Every seed draws at least 16 pairs; the edge seeds draw all 64.
        assert queued == len(seeds) and drawn.all()
        assert rows[:6].tolist() == list(range(6)) and len(rows) < 5000

    @pytest.mark.parametrize("runs", [0, 1, 2, 3, 7, 20_000])
    @pytest.mark.parametrize("base_seed", [0, 1, 2**32, 2**64 - 1, 2**70 + 5, 2024])
    def test_derived_seeds_match_seed_sequence(self, base_seed, runs):
        words = np.random.SeedSequence(base_seed).generate_state(runs, np.uint64)
        seeds = derive_run_seeds(base_seed, runs)
        assert type(seeds) is np.ndarray and seeds.dtype == np.uint64 and seeds.shape == (runs,)
        assert np.array_equal(seeds, words)

    def test_batched_seeds_as_uint64_array(self):
        model, caps = ORACLE_MODELS["tiny-overlap"]()
        seeds = [0, 2**64 - 1, *derive_run_seeds(7, 200).tolist()]
        recording = RecordingConfig(events=False, checkpoint_times=(0.5, 1.0))
        runs = [
            simulate(model, time_horizon=2.0, seed=s, recording=recording, caps=caps)
            for s in (seeds, np.array(seeds, dtype=np.uint64))
        ]
        assert np.array_equal(runs[0].event_counts, runs[1].event_counts)
        assert np.array_equal(runs[0].final_books, runs[1].final_books)
        for t in (0.5, 1.0):
            assert np.array_equal(runs[0].checkpoints[t], runs[1].checkpoints[t])

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, object])
    def test_batched_seeds_as_other_arrays(self, dtype):
        # A signed array with no entry below 0 and an unsigned one pass by their dtype;
        # an object array of ints seed by seed. Each gives the list's books.
        model, caps = ORACLE_MODELS["tiny-overlap"]()
        seeds = [0, 1, 2**32 - 1, *(derive_run_seeds(7, 200) >> 32).tolist()]
        recording = RecordingConfig(events=False, checkpoint_times=(0.5, 1.0))
        runs = [
            simulate(model, time_horizon=2.0, seed=s, recording=recording, caps=caps)
            for s in (seeds, np.array(seeds, dtype=dtype))
        ]
        assert np.array_equal(runs[0].event_counts, runs[1].event_counts)
        assert np.array_equal(runs[0].final_books, runs[1].final_books)
        for t in (0.5, 1.0):
            assert np.array_equal(runs[0].checkpoints[t], runs[1].checkpoints[t])

    @pytest.mark.parametrize(
        "seeds",
        [
            np.array([1, -1], dtype=np.int64),
            np.array([True, False]),
            np.array([1.0, 2.0]),
            np.array([1, 1.5], dtype=object),
            np.array([[1, 2]], dtype=np.uint64),
        ],
    )
    def test_seed_arrays_outside_64_bit_ints_rejected(self, seeds):
        # A negative entry, a bool or float dtype, a float in an object array, a 2-D array.
        model, caps = ORACLE_MODELS["tiny"]()
        recording = RecordingConfig(events=False)
        with pytest.raises(EngineError, match="seed must be an integer"):
            simulate(model, time_horizon=1.0, seed=seeds, recording=recording, caps=caps)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    batched=st.booleans(),
    seed=st.integers(0, 2**63 - 1),
    event_count=st.one_of(st.none(), st.integers(0, 40)),
    max_orders=st.one_of(st.none(), st.integers(1, 6)),
    horizon=st.integers(0, 24).map(lambda eighths: eighths / 8),  # exact in float32
    int_type=st.sampled_from([np.int64, np.uint64]),
    real_type=st.sampled_from([np.float64, np.float32]),
)
# A run stopped by a float32 horizon returned it as its final time, and summarize_run
# then computed the transaction rate in float32.
@example(False, 3, None, None, 2.5, np.int64, np.float32)
def test_numpy_scalars_run_as_python_numbers(
    batched, seed, event_count, max_orders, horizon, int_type, real_type
):
    # A seed, event count, cap or horizon given as a numpy scalar runs as the Python number
    # it equals, and the result holds Python ints and floats. The typed call runs first, on
    # a fresh cache, so its tables and book set are built from the numpy values.
    model, _ = ORACLE_MODELS["tiny-overlap"]()
    lobsim.engine._cache.cache_clear()
    recording = RecordingConfig(events=False)
    if batched:
        seeds = [seed, seed // 2, seed // 3]
        caps = StateCaps(max_orders or 4, 1)
        typed_caps = StateCaps(int_type(caps.max_orders), int_type(1))
        typed = simulate(
            model, time_horizon=real_type(horizon), seed=[int_type(s) for s in seeds],
            recording=recording, caps=typed_caps,
        )
        python = simulate(model, time_horizon=horizon, seed=seeds, recording=recording, caps=caps)
        assert type(typed.event_count) is int and typed.event_count == python.event_count
        assert np.array_equal(typed.event_counts, python.event_counts)
        assert np.array_equal(typed.final_books, python.final_books)
        return
    caps = None if max_orders is None else StateCaps(max_orders, 1)
    typed_caps = None if caps is None else StateCaps(int_type(max_orders), int_type(1))
    typed = simulate(
        model, event_count=None if event_count is None else int_type(event_count),
        time_horizon=real_type(horizon), seed=int_type(seed), caps=typed_caps, recording=recording,
    )
    python = simulate(
        model, event_count=event_count, time_horizon=horizon, seed=seed, caps=caps,
        recording=recording,
    )
    assert type(typed.event_count) is int and type(typed.final_time) is float
    assert (typed.event_count, typed.final_time) == (python.event_count, python.final_time)
    assert typed.final_state == python.final_state
    # repr shows a numpy scalar in any field, and NaN equals NaN there.
    assert repr(summarize_run(typed)) == repr(summarize_run(python))


def test_np_log1p_within_the_clock_slack_bound():
    # _clock_slack assumes np.log1p(-u) is within _LOG1P_ERROR of math.log1p(-u),
    # relative, on every uniform the streams draw; the edges are 0, 2**-53 and the
    # largest uniform below 1.
    edges = [0.0, 2.0**-53, 1.0 - 2.0**-53]
    u = np.concatenate([edges, np.random.default_rng(2024).random(1_000_000)])
    exact = np.fromiter(map(math.log1p, (-u).tolist()), float, u.size)
    error = np.abs(np.log1p(-u) - exact)
    assert np.all(error <= lobsim.engine._LOG1P_ERROR * np.abs(exact)), error.max()


def fixed_draws(head):
    """A uniform source whose every block of n draws starts with ``head``; 0.5s fill the rest."""

    def draws(n):
        return np.array((head + [0.5] * n)[:n])

    return draws


class FixedStreams:
    """``_Streams`` whose every stream draws the n draws of ``draws(n)`` in turn, a pair per
    step; ``words`` counts each stream's pairs, so a refilled slot's stream starts over."""

    def __init__(self, draws, seeds):
        self.draws, self.words = draws, np.zeros((1, len(seeds)), dtype=np.int64)

    def pairs(self):
        self.words += 1
        drawn = 2 * self.words[0]
        return self.draws(drawn.max())[[drawn - 2, drawn - 1]]


def test_tied_selection_picks_the_event_bisect_right_picks(monkeypatch):
    # With u * total == cum[i] exactly, counting the entries at or below
    # u * total, as bisect_right does, selects entry i + 1; counting those
    # strictly below would select entry i. A waiting time of 0 keeps the first
    # event inside a zero horizon; the next one, near 37 / intensity, stops.
    model, caps = ORACLE_MODELS["tiny-overlap"]()
    k = model.grid_size
    entries = event_table(model, empty_book(k), caps=caps).entries
    cum = np.cumsum([rate for _, rate in entries]).tolist()
    total = cum[-1]
    ties = [(i, c / total) for i, c in enumerate(cum[:-1]) if c / total * total == c]
    assert ties
    recording = RecordingConfig(events=False)
    for i, u in ties:
        event = entries[bisect_right(cum, u * total)][0]
        assert event is entries[i + 1][0]
        draws = fixed_draws([0.0, u, 1.0 - 2.0**-53])
        rng = SimpleNamespace(random=draws)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
        monkeypatch.setattr(lobsim.engine, "_Streams", lambda seeds: FixedStreams(draws, seeds))
        run = simulate(model, time_horizon=0.0, seed=1, caps=caps)
        assert [record.event for record in run.records] == [event]
        row = np.zeros(caps.max_orders + 1, dtype=np.int64)
        row[0] = event.price_level if event.kind is EventKind.ARRIVAL_ASK else -event.price_level
        # Two slots for two runs, then one slot the three runs take in turn.
        for cells, seeds in ((1 << 15, [1, 2]), (1, [1, 2, 3])):
            monkeypatch.setattr(lobsim.engine, "LOCKSTEP_CELLS", cells)
            batch = simulate(model, time_horizon=0.0, seed=seeds, recording=recording, caps=caps)
            assert np.array_equal(batch.final_books, [row] * len(seeds))
            assert batch.event_counts.tolist() == [1] * len(seeds)
