"""Observables: depth, quotes, round-trip liquidity, transaction series,
returns, and ensemble estimators."""

import math

import numpy as np
import pytest

from lobsim.book import Side, Transaction, cancel_order, empty_book, submit_order
from lobsim.engine import RecordingConfig, simulate
from lobsim.observables import (
    ObservableError,
    UndefinedLiquidityError,
    depth,
    ensemble_covariance,
    ensemble_moment,
    quotes,
    returns,
    summarize_run,
    transaction_observables,
    xlm,
)
from lobsim.scenario import build_rate_model, preset


def book_with(*orders, grid_size=20):
    state = empty_book(grid_size)
    for side, level, quantity in orders:
        state, _ = submit_order(state, side, level, quantity)
    return state


class FakeRecord:
    def __init__(self, transactions, quote=None):
        self.transactions = transactions
        self.quote = quote


class TestDepth:
    def test_empty(self):
        profile = depth(empty_book(20))
        assert profile.total_quantity(Side.ASK) == 0
        assert profile.total_quantity(Side.BID) == 0
        assert (profile.counts(Side.ASK) == 0).all()

    def test_hand_counted(self):
        # asks 1@10, 2@10, 1@12: N_10=2, Q_10=3, V_10=30, totals Q=4, V=42
        state = book_with((Side.ASK, 10, 1), (Side.ASK, 10, 2), (Side.ASK, 12, 1))
        profile = depth(state)
        assert profile.counts(Side.ASK)[9] == 2
        assert profile.quantities(Side.ASK)[9] == 3
        assert profile.volumes(Side.ASK)[9] == 30
        assert profile.total_quantity(Side.ASK) == 4
        assert profile.total_volume(Side.ASK) == 42

    def test_submit_cancel_roundtrip(self):
        state = book_with((Side.BID, 8, 2), (Side.ASK, 14, 1))
        before = depth(state)
        new_id = state.next_seq
        state2, _ = submit_order(state, Side.BID, 5, 3)
        state2 = cancel_order(state2, Side.BID, 5, 3, new_id)
        after = depth(state2)
        assert (before.bid_quantities == after.bid_quantities).all()
        assert (before.ask_quantities == after.ask_quantities).all()

    def test_linearity_under_noncrossing_submit(self):
        state = book_with((Side.BID, 6, 1), (Side.ASK, 15, 2))
        before = depth(state)
        state2, trades = submit_order(state, Side.ASK, 17, 3)
        assert trades == []
        after = depth(state2)
        diff = after.ask_quantities - before.ask_quantities
        assert diff[16] == 3 and diff.sum() == 3


class TestQuotes:
    def test_two_sided(self):
        snapshot = quotes(book_with((Side.BID, 9, 1), (Side.ASK, 11, 2)))
        assert snapshot.best_bid == 9
        assert snapshot.best_ask == 11
        assert snapshot.spread == 2
        assert snapshot.mid == 10.0

    def test_one_sided(self):
        snapshot = quotes(book_with((Side.BID, 9, 1)))
        assert snapshot.best_bid == 9
        assert snapshot.best_ask is None
        assert snapshot.spread is None and snapshot.mid is None


class TestXlm:
    def test_hand_computed_two_order_book(self):
        values = xlm(book_with((Side.BID, 9, 1), (Side.ASK, 11, 1)))
        assert values.ask == pytest.approx(10_000.0 / 11.0, abs=1e-9)
        assert values.bid == pytest.approx(10_000.0 / 9.0, abs=1e-9)
        assert values.total == pytest.approx(values.ask + values.bid, abs=0.0)

    def test_undefined_on_one_sided_book(self):
        with pytest.raises(UndefinedLiquidityError):
            xlm(book_with((Side.BID, 9, 1)))
        with pytest.raises(UndefinedLiquidityError):
            xlm(empty_book())

    def test_depth_farther_from_mid_increases_cost(self):
        base = book_with((Side.BID, 9, 1), (Side.ASK, 11, 1))
        rng = np.random.default_rng(3)
        for _ in range(200):
            level = int(rng.integers(12, 21))
            deeper, _ = submit_order(base, Side.ASK, level, int(rng.integers(1, 4)))
            assert xlm(deeper).ask >= xlm(base).ask
            assert xlm(deeper).total >= xlm(base).total

    def test_mirrored_book_swaps_sides(self):
        # grid 1..21 mirrored around 11: levels map l -> 22 - l, sides swap
        state = book_with(
            (Side.BID, 9, 1), (Side.BID, 7, 2), (Side.ASK, 12, 1), (Side.ASK, 16, 2),
            grid_size=21,
        )
        mirrored = book_with(
            (Side.ASK, 13, 1), (Side.ASK, 15, 2), (Side.BID, 10, 1), (Side.BID, 6, 2),
            grid_size=21,
        )
        a, b = xlm(state), xlm(mirrored)
        vwap_ask_a = (12 + 2 * 16) / 3
        vwap_bid_a = (9 + 2 * 7) / 3
        mid_a = (9 + 12) / 2
        # the mirrored book's VWAPs and mid are the mirror images of the
        # original's, with the sides swapped
        assert b.bid == pytest.approx(
            10_000.0 * ((22 - mid_a) - (22 - vwap_ask_a)) / (22 - vwap_ask_a), rel=1e-12
        )
        assert b.ask == pytest.approx(
            10_000.0 * ((22 - vwap_bid_a) - (22 - mid_a)) / (22 - vwap_bid_a), rel=1e-12
        )
        assert b.total == pytest.approx(b.ask + b.bid, abs=0.0)
        assert a.total > 0 and b.total > 0

    def test_vwap_brackets_quotes(self):
        model = build_rate_model(preset("scenario1"))
        result = simulate(model, event_count=2000, seed=31, recording=RecordingConfig(events=False))
        state = result.final_state
        if state.bids and state.asks:
            snapshot = quotes(state)
            ask_vwap = sum(o.price_level * o.quantity for o in state.asks) / sum(
                o.quantity for o in state.asks
            )
            bid_vwap = sum(o.price_level * o.quantity for o in state.bids) / sum(
                o.quantity for o in state.bids
            )
            assert ask_vwap >= snapshot.best_ask >= snapshot.mid
            assert bid_vwap <= snapshot.best_bid <= snapshot.mid
            values = xlm(state)
            assert values.ask >= 0 and values.bid >= 0


class TestTransactionSeries:
    def test_durations(self):
        records = [
            FakeRecord((Transaction(10, 1, 1.0, Side.ASK),)),
            FakeRecord(()),
            FakeRecord((Transaction(11, 2, 2.5, Side.BID),)),
        ]
        series = transaction_observables(records)
        assert series.durations.tolist() == [1.5]
        assert series.volumes.tolist() == [10.0, 22.0]

    def test_volume_is_price_times_quantity(self):
        records = [FakeRecord((Transaction(10, 3, 0.5, Side.ASK),))]
        series = transaction_observables(records)
        assert series.volumes.tolist() == [30.0]

    def test_empty(self):
        series = transaction_observables([FakeRecord(())])
        assert len(series) == 0
        assert series.durations.size == 0


class TestReturns:
    def test_flat_prices(self):
        records = [
            FakeRecord((Transaction(10, 1, 1.0, Side.ASK),)),
            FakeRecord((Transaction(10, 1, 2.0, Side.ASK),)),
        ]
        assert returns(records).tolist() == [0.0]

    def test_log_return_value(self):
        records = [
            FakeRecord((Transaction(10, 1, 1.0, Side.ASK),)),
            FakeRecord((Transaction(11, 1, 2.0, Side.ASK),)),
        ]
        assert returns(records)[0] == pytest.approx(math.log(11 / 10))

    def test_insufficient_transactions(self):
        assert returns([FakeRecord(())]).size == 0

    def test_mid_returns_from_engine_records(self):
        model = build_rate_model(preset("scenario1"))
        result = simulate(model, event_count=500, seed=5, recording=RecordingConfig(summary=True))
        quoted = result.summary_columns.quoted
        mids = (quoted[:, 0] + quoted[:, 1]) / 2.0
        assert len(mids) > 100
        assert np.array_equal(returns(result.records, mode="mid"), np.diff(np.log(mids)))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            returns([], mode="typo")


class TestEnsembleEstimators:
    def test_first_moment(self):
        assert ensemble_moment([2.0, 4.0], 1).value == pytest.approx(3.0)

    def test_second_raw_moment(self):
        assert ensemble_moment([2.0, 4.0], 2).value == pytest.approx(10.0)

    def test_empty_rejected(self):
        with pytest.raises(ObservableError):
            ensemble_moment([], 1)

    def test_covariance_of_identical_series_is_variance(self):
        values = [1.0, 2.0, 4.0, 8.0]
        assert ensemble_covariance(values, values) == pytest.approx(
            float(np.var(values, ddof=1))
        )

    def test_covariance_of_independent_series_shrinks(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=20_000)
        b = rng.normal(size=20_000)
        assert abs(ensemble_covariance(a, b)) < 0.03

    def test_length_mismatch(self):
        with pytest.raises(ObservableError):
            ensemble_covariance([1.0], [1.0, 2.0])


class TestRunSummary:
    def test_summary_fields(self):
        model = build_rate_model(preset("scenario1"))
        result = simulate(
            model,
            event_count=3000,
            seed=41,
            recording=RecordingConfig(events=False, summary=True),
        )
        summary = summarize_run(result)
        assert summary.events == 3000
        assert summary.elapsed_time == pytest.approx(result.final_time)
        assert summary.transaction_count > 0
        assert summary.transaction_rate == pytest.approx(
            summary.transaction_count / summary.elapsed_time
        )
        assert summary.mean_spread >= 1.0
        assert 0.0 < summary.quote_coverage <= 1.0
        assert summary.mean_xlm == pytest.approx(
            summary.mean_xlm_ask + summary.mean_xlm_bid, rel=1e-9
        )
        assert summary.return_volatility >= 0.0

    def test_summary_needs_streamed_columns(self):
        model = build_rate_model(preset("scenario1"))
        result = simulate(model, event_count=100, seed=41)
        with pytest.raises(ObservableError, match="summary=True"):
            summarize_run(result)
