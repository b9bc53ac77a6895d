"""Rate model: DGX weights, arrival mapping, cancellation linearity,
normalization, and the worked relative-likelihood example."""

import math
from dataclasses import replace

import numpy as np
import pytest

import lobsim.engine
from lobsim.book import Side, StateCaps, empty_book, submit_order
from lobsim.engine import simulate
from lobsim.rates import (
    AbsorbingStateError,
    AnchoringMode,
    DgxParams,
    EventKind,
    EventRateTable,
    RateModel,
    RateModelError,
    TraderGroup,
    arrival_rates,
    cancellation_rates,
    dgx_pmf,
    event_table,
    side_arrivals,
)
from lobsim.scenario import build_rate_model, preset


def reference_dgx(mu, sigma, support):
    # direct evaluation with plain floats, independent of the vectorized path
    weights = [
        math.exp(-((math.log(r) - mu) ** 2) / (2.0 * sigma * sigma)) / r
        for r in range(1, support + 1)
    ]
    total = sum(weights)
    return [w / total for w in weights]


def two_bid_state(model):
    state, _ = submit_order(empty_book(model.grid_size), Side.BID, 10, 1)
    state, _ = submit_order(state, Side.BID, 9, 1)
    return state


def arrival_rate(rates, side, level):
    """The arrival rate an ``arrival_rates`` result gives ``side`` at ``level``."""
    kind = EventKind.ARRIVAL_ASK if side is Side.ASK else EventKind.ARRIVAL_BID
    return sum(r for d, r in rates.entries if d.kind is kind and d.price_level == level)


def normalized_rates(table):
    """An event table's entries with their rates scaled to total its event intensity."""
    return [(d, r * table.normalization) for d, r in table.entries]


def probabilities(table):
    """An event table's entries with their rates as shares of its raw total."""
    return [(d, r / table.raw_total) for d, r in table.entries]


class TestDgx:
    def test_single_point_support(self):
        assert dgx_pmf(DgxParams(0.7, 2.0, 1)).tolist() == [1.0]

    def test_matches_direct_evaluation(self):
        for mu, sigma, support in ((1.0, 3.0, 12), (4.0, 1.0, 14), (0.0, 0.5, 7)):
            got = dgx_pmf(DgxParams(mu, sigma, support))
            expected = reference_dgx(mu, sigma, support)
            assert np.allclose(got, expected, atol=1e-12)

    def test_normalized_and_nonnegative(self):
        for mu in (-1.0, 0.0, 2.5):
            pmf = dgx_pmf(DgxParams(mu, 1.5, 30))
            assert abs(pmf.sum() - 1.0) < 1e-12
            assert (pmf >= 0).all()

    def test_front_loaded_shape(self):
        # mu=1, sigma=3 concentrates on rank 1 and falls off monotonically
        pmf = dgx_pmf(DgxParams(1.0, 3.0, 12))
        assert (np.diff(pmf) < 0).all()

    def test_deep_shape(self):
        # mu=4, sigma=1 pushes mass deeper: the mean rank sits in the back half
        pmf = dgx_pmf(DgxParams(4.0, 1.0, 14))
        mean_rank = float(np.arange(1, 15) @ pmf)
        assert mean_rank > 7.5
        shallow = dgx_pmf(DgxParams(1.0, 3.0, 14))
        assert mean_rank > float(np.arange(1, 15) @ shallow)

    def test_invalid_params(self):
        with pytest.raises(RateModelError):
            DgxParams(1.0, 0.0, 12)
        with pytest.raises(RateModelError):
            DgxParams(1.0, 1.0, 0)

    @pytest.mark.parametrize(
        "mu, sigma", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_params(self, mu, sigma):
        with pytest.raises(RateModelError):
            DgxParams(mu, sigma, 12)

    def test_underflowing_weights_rejected_without_warning(self):
        # Every weight underflows to 0, so normalizing would give 0 / 0.
        with np.errstate(all="raise"), pytest.raises(RateModelError, match="underflow"):
            DgxParams(50.0, 0.01, 12)

    @pytest.mark.parametrize("sigma", [1e155, 1e308])
    def test_sigma_whose_square_overflows_gives_weights_one_over_rank(self, sigma):
        # 2 sigma**2 raised OverflowError on a float (exit 4 from the CLI); the
        # Gaussian factor is 1 at every rank, so the weights are 1 / r, normalized.
        with np.errstate(all="raise"):
            pmf = dgx_pmf(DgxParams(1.0, sigma, 4))
        weights = 1.0 / np.arange(1, 5)
        assert pmf.tolist() == (weights / weights.sum()).tolist()


class TestModelValidation:
    def test_shares_must_sum_to_one(self):
        point = DgxParams(0.0, 1.0, 1)
        group = TraderGroup(0.9, point, point, 2, 1)
        with pytest.raises(RateModelError):
            RateModel(2, (group,), 0.1, 6.0)

    def test_support_must_fit_grid(self):
        params = DgxParams(0.0, 1.0, 12)
        group = TraderGroup(1.0, params, params, ask_anchor=15, bid_anchor=12)
        with pytest.raises(RateModelError):
            RateModel(20, (group,), 0.1, 6.0)

    @pytest.mark.parametrize(
        "cancel_rate, intensity",
        [(0.1, math.nan), (0.1, math.inf), (math.nan, 6.0), (math.inf, 6.0)],
    )
    def test_non_finite_rates(self, cancel_rate, intensity):
        point = DgxParams(0.0, 1.0, 1)
        group = TraderGroup(1.0, point, point, 2, 1)
        with pytest.raises(RateModelError):
            RateModel(2, (group,), cancel_rate, intensity)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("support_size", 2.0),
            ("support_size", True),
            ("ask_anchor", 1.0),
            ("bid_anchor", "2"),
            ("grid_size", True),
            ("grid_size", 2.0),
            ("unit_quantity", 1.5),
            ("unit_quantity", np.float64(1.0)),
        ],
    )
    def test_integer_fields(self, field, value):
        # A float would build and then size an order 1.5 or index a list; a bool
        # is an int to Python but never a count or a level.
        fields = {"support_size": 1, "ask_anchor": 2, "bid_anchor": 1}
        fields |= {"grid_size": 2, "unit_quantity": 1}
        fields[field] = value
        with pytest.raises(RateModelError, match=f"{field} must be an integer"):
            point = DgxParams(0.0, 1.0, fields["support_size"])
            group = TraderGroup(1.0, point, point, fields["ask_anchor"], fields["bid_anchor"])
            quantity = fields["unit_quantity"]
            RateModel(fields["grid_size"], (group,), 0.1, 6.0, unit_quantity=quantity)

    CANCEL_RATE = "cancellation rate must be finite and nonnegative, got"

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            ("sigma", True, "sigma must be positive and finite, got True"),
            ("mu", "a", "mu must be finite, got 'a'"),
            ("share", "1", "group share must lie in [0, 1], got '1'"),
            ("share", 10**400, "group share must lie in [0, 1], got inf"),
            ("per_order_cancel_rate", "0.1", f"{CANCEL_RATE} '0.1'"),
            ("event_intensity", True, "event intensity must be finite and > 0: True"),
        ],
        ids=["sigma-bool", "mu-str", "share-str", "share-huge", "cancel-str", "intensity-bool"],
    )
    def test_real_fields(self, field, value, problem):
        # The companion of test_integer_fields: a bool is no rate, and a string must
        # raise the model's error, not a TypeError from the range check.
        fields = {"mu": 0.0, "sigma": 1.0, "share": 1.0}
        fields |= {"per_order_cancel_rate": 0.1, "event_intensity": 6.0}
        fields[field] = value
        with pytest.raises(RateModelError) as excinfo:
            point = DgxParams(fields["mu"], fields["sigma"], 1)
            group = TraderGroup(fields["share"], point, point, 2, 1)
            RateModel(2, (group,), fields["per_order_cancel_rate"], fields["event_intensity"])
        assert str(excinfo.value) == problem

    def test_numpy_real_fields(self):
        # Stored as floats: a float32 intensity would otherwise time the run in float32.
        point = DgxParams(np.float32(0.5), np.float64(1.0), 1)
        group = TraderGroup(np.float32(1.0), point, point, 2, 1)
        model = RateModel(2, (group,), np.float32(0.25), np.float32(6.5))
        values = point.mu, point.sigma, group.share, model.per_order_cancel_rate
        assert all(type(v) is float for v in (*values, model.event_intensity))
        point = DgxParams(0.5, 1.0, 1)
        plain = RateModel(2, (TraderGroup(1.0, point, point, 2, 1),), 0.25, 6.5)
        assert simulate(model, event_count=50, seed=3).final_time == (
            simulate(plain, event_count=50, seed=3).final_time
        )

    @pytest.mark.parametrize("mode", ["opposite_best", "static", None])
    def test_anchoring_mode_must_be_an_anchoring_mode(self, mode):
        # rates.side_arrivals read a string as opposite-best, the engine and the
        # oracle as static: one model would run two processes.
        point = DgxParams(0.0, 1.0, 1)
        group = TraderGroup(1.0, point, point, 2, 1)
        with pytest.raises(RateModelError, match="anchoring mode must be an AnchoringMode"):
            RateModel(2, (group,), 0.1, 6.0, anchoring_mode=mode)

    @pytest.mark.parametrize("groups", [("x",), None, "list"], ids=["str-entry", "none", "list"])
    def test_groups_must_be_a_tuple_of_trader_groups(self, groups):
        # ("x",) raised AttributeError and None TypeError; a list was accepted but
        # made the model unhashable, so side_arrivals could not cache its rows.
        point = DgxParams(0.0, 1.0, 1)
        group = TraderGroup(1.0, point, point, 2, 1)
        with pytest.raises(RateModelError, match="groups must be a tuple of TraderGroup"):
            RateModel(2, [group] if groups == "list" else groups, 0.1, 6.0)

    def test_numpy_integer_fields(self):
        # Stored as ints: the engine indexes lists by levels and their signs.
        point = DgxParams(0.0, 1.0, np.int64(1))
        group = TraderGroup(1.0, point, point, np.int32(2), np.int64(1))
        model = RateModel(np.int64(2), (group,), 0.1, 6.0, unit_quantity=np.int8(1))
        assert type(point.support_size) is type(group.ask_anchor) is type(model.grid_size) is int
        point = DgxParams(0.0, 1.0, 1)
        assert model == RateModel(2, (TraderGroup(1.0, point, point, 2, 1),), 0.1, 6.0)
        result = simulate(model, event_count=50, seed=3)
        assert result.final_state.order_count() > 0
        assert {o.quantity for o in result.final_state.orders_by_seq()} == {1}


class TestArrivalRates:
    def test_scenario1_supports_and_mirror_symmetry(self):
        model = build_rate_model(preset("scenario1"))
        rates = arrival_rates(model, empty_book(20))
        bid_levels = {d.price_level for d, _ in rates.entries if d.kind is EventKind.ARRIVAL_BID}
        ask_levels = {d.price_level for d, _ in rates.entries if d.kind is EventKind.ARRIVAL_ASK}
        assert bid_levels == set(range(1, 13))
        assert ask_levels == set(range(9, 21))
        # rank r: bid level 12-(r-1) mirrors ask level 9+(r-1)
        for rank in range(1, 13):
            bid = arrival_rate(rates, Side.BID, 12 - (rank - 1))
            ask = arrival_rate(rates, Side.ASK, 9 + (rank - 1))
            assert bid == pytest.approx(ask, abs=1e-15)

    def test_side_mass_is_one_per_side(self):
        for name in ("scenario1", "scenario2"):
            model = build_rate_model(preset(name))
            rates = arrival_rates(model, empty_book(20))
            assert rates.side_mass[Side.ASK] == pytest.approx(1.0, abs=1e-12)
            assert rates.side_mass[Side.BID] == pytest.approx(1.0, abs=1e-12)
            assert rates.dropped_mass[Side.ASK] == 0.0

    def test_single_group_equals_pmf(self):
        model = build_rate_model(preset("scenario1"))
        rates = arrival_rates(model, empty_book(20))
        pmf = dgx_pmf(DgxParams(1.0, 3.0, 12))
        for rank in range(1, 13):
            assert arrival_rate(rates, Side.ASK, 9 + rank - 1) == pytest.approx(pmf[rank - 1])

    def test_two_group_mixture(self):
        model = build_rate_model(preset("scenario2"))
        rates = arrival_rates(model, empty_book(20))
        g1 = dgx_pmf(DgxParams(1.0, 3.0, 12))
        g2 = dgx_pmf(DgxParams(4.0, 1.0, 14))
        # ask level 9 is rank 1 for group 1 and rank 3 for group 2 (anchor 7)
        assert arrival_rate(rates, Side.ASK, 9) == pytest.approx(0.7 * g1[0] + 0.3 * g2[2])
        # ask level 7 is covered only by group 2
        assert arrival_rate(rates, Side.ASK, 7) == pytest.approx(0.3 * g2[0])

    def test_opposite_best_anchoring(self):
        point = DgxParams(0.0, 1.0, 2)
        group = TraderGroup(1.0, point, point, ask_anchor=10, bid_anchor=11)
        model = RateModel(
            20, (group,), 0.1, 6.0, anchoring_mode=AnchoringMode.OPPOSITE_BEST
        )
        # empty book: falls back to the static anchors
        rates = arrival_rates(model, empty_book(20))
        assert arrival_rate(rates, Side.ASK, 10) > 0 and arrival_rate(rates, Side.BID, 11) > 0
        # with a best bid at 5, ask rank 1 re-anchors there
        state, _ = submit_order(empty_book(20), Side.BID, 5, 1)
        rates = arrival_rates(model, state)
        assert arrival_rate(rates, Side.ASK, 5) > arrival_rate(rates, Side.ASK, 6) > 0
        assert arrival_rate(rates, Side.ASK, 10) == 0.0

    def test_opposite_best_truncation_flagged(self):
        point = DgxParams(0.0, 1.0, 3)
        group = TraderGroup(1.0, point, point, ask_anchor=18, bid_anchor=3)
        model = RateModel(
            20, (group,), 0.1, 6.0, anchoring_mode=AnchoringMode.OPPOSITE_BEST
        )
        state, _ = submit_order(empty_book(20), Side.BID, 19, 1)
        rates = arrival_rates(model, state)
        # ask ranks map to 19, 20, 21; rank 3 falls off the grid
        assert rates.dropped_mass[Side.ASK] > 0.0
        assert rates.side_mass[Side.ASK] == pytest.approx(
            1.0 - rates.dropped_mass[Side.ASK]
        )


class TestSideRows:
    def test_one_shared_row_per_model_side_and_anchor(self):
        # Rows are cached by the model's value: equal models share one row object,
        # numpy fields included, and a static model has one row per side for any
        # opposite best. A table built from a row (with cancellation slots
        # appended in place) leaves the row as it was.
        point = DgxParams(0.0, 1.0, 3)
        model = RateModel(20, (TraderGroup(1.0, point, point, 10, 11),), 0.5, 6.0)
        twin_point = DgxParams(np.float64(0.0), np.float32(1.0), np.int64(3))
        twin_group = TraderGroup(np.float64(1.0), twin_point, twin_point, np.int32(10), 11)
        twin = RateModel(np.int64(20), (twin_group,), np.float32(0.5), np.int8(6))
        assert twin == model and twin is not model
        for side in Side:
            row = side_arrivals(model, side, None)
            assert side_arrivals(twin, side, None) is row
            assert all(side_arrivals(model, side, best) is row for best in (1, 5, 20))
            assert all(type(part) is tuple for part in (row.entries, row.levels, row.rates))
        ask, bid = side_arrivals(model, Side.ASK, None), side_arrivals(model, Side.BID, None)
        before = ask, bid, tuple(ask), tuple(bid)
        tables = lobsim.engine._cache(model, None)
        cum, levels = lobsim.engine._table(tables, (), model, None, 2)
        lobsim.engine._table(tables, (), model, None, 40)
        assert len(cum) == len(levels) + 40 and levels == [*ask.levels, *bid.levels]
        after = side_arrivals(model, Side.ASK, None), side_arrivals(model, Side.BID, None)
        assert after == before[:2] and after[0] is ask and after[1] is bid
        assert (tuple(ask), tuple(bid)) == before[2:]
        # Under opposite-best anchoring the opposite best is the anchor.
        opposite = replace(model, anchoring_mode=AnchoringMode.OPPOSITE_BEST)
        assert side_arrivals(opposite, Side.ASK, 5) is not side_arrivals(opposite, Side.ASK, 6)
        assert side_arrivals(opposite, Side.ASK, 5).levels == (5, 6, 7)
        assert side_arrivals(opposite, Side.BID, 5).levels == (-3, -4, -5)  # by level


class TestCancellationRates:
    def test_empty_book(self):
        model = build_rate_model(preset("scenario1"))
        assert cancellation_rates(model, empty_book(20)) == ()

    def test_flat_per_order_rate(self):
        model = build_rate_model(preset("scenario1"))
        state = two_bid_state(model)
        rates = cancellation_rates(model, state)
        assert [r for _, r in rates] == [0.1, 0.1]
        assert sum(r for _, r in rates) == pytest.approx(0.2)

    def test_level_rate_linear_in_count(self):
        model = build_rate_model(preset("scenario1"))
        state = empty_book(20)
        for _ in range(5):
            state, _ = submit_order(state, Side.ASK, 15, 1)

        def level_rate(level):
            return sum(
                rate
                for order, rate in cancellation_rates(model, state)
                if order.side is Side.ASK and order.price_level == level
            )

        assert level_rate(15) == pytest.approx(0.5)
        assert level_rate(14) == 0.0


class TestEventTable:
    def test_worked_relative_likelihoods(self):
        # two resident bids: bid arrival vs cancellation 5:1, any arrival 10:1
        model = build_rate_model(preset("scenario1"))
        table = event_table(model, two_bid_state(model))
        bid = sum(r for d, r in table.entries if d.kind is EventKind.ARRIVAL_BID)
        arrivals = sum(
            r for d, r in table.entries if d.kind is not EventKind.CANCELLATION
        )
        cancels = sum(r for d, r in table.entries if d.kind is EventKind.CANCELLATION)
        assert abs(bid / cancels - 5.0) <= 1e-12
        assert abs(arrivals / cancels - 10.0) <= 1e-12
        assert table.normalization == pytest.approx(6.0 / 2.2, abs=1e-12)

    def test_normalized_total_equals_intensity(self):
        model = build_rate_model(preset("scenario2"))
        state = two_bid_state(model)
        table = event_table(model, state)
        total = sum(r for _, r in normalized_rates(table))
        assert total == pytest.approx(6.0, abs=1e-9)
        assert all(r >= 0 for _, r in table.entries)

    def test_empty_book_arrivals_only(self):
        model = build_rate_model(preset("scenario1"))
        table = event_table(model, empty_book(20))
        assert all(d.kind is not EventKind.CANCELLATION for d, _ in table.entries)
        assert table.raw_total == pytest.approx(2.0, abs=1e-12)
        assert sum(r for _, r in normalized_rates(table)) == pytest.approx(6.0)

    def test_scaling_invariance(self):
        model = build_rate_model(preset("scenario1"))
        table = event_table(model, two_bid_state(model))
        scaled = EventRateTable(
            tuple((d, 7.5 * r) for d, r in table.entries),
            7.5 * table.raw_total,
            table.event_intensity,
        )
        for (d1, p1), (d2, p2) in zip(probabilities(table), probabilities(scaled)):
            assert d1 == d2
            assert p1 == pytest.approx(p2, rel=1e-12)
        norm1 = dict((d, r) for d, r in normalized_rates(table))
        norm2 = dict((d, r) for d, r in normalized_rates(scaled))
        for d in norm1:
            assert norm1[d] == pytest.approx(norm2[d], rel=1e-12)

    def test_caps_drop_overflowing_arrivals(self):
        model = build_rate_model(preset("scenario1"))
        caps = StateCaps(max_orders=2, max_quantity=1)
        state = two_bid_state(model)
        table = event_table(model, state, caps=caps)
        # two resident bids at 9 and 10: non-crossing arrivals would exceed the
        # cap, but an ask arrival at level <= 10 executes and stays within it
        for descriptor, _ in table.entries:
            if descriptor.kind is EventKind.ARRIVAL_BID:
                pytest.fail("bid arrival should have been capped")
            if descriptor.kind is EventKind.ARRIVAL_ASK:
                assert descriptor.price_level <= 10
        assert sum(r for _, r in normalized_rates(table)) == pytest.approx(6.0)

    def test_absorbing_state_raises(self):
        model = build_rate_model(preset("scenario1"))
        caps = StateCaps(max_orders=0, max_quantity=1)
        with pytest.raises(AbsorbingStateError):
            event_table(model, empty_book(20), caps=caps)

    def test_fixed_entry_order(self):
        model = build_rate_model(preset("scenario2"))
        table = event_table(model, two_bid_state(model))
        kinds = [d.kind for d, _ in table.entries]
        ask_block = kinds[: kinds.index(EventKind.ARRIVAL_BID)]
        assert all(k is EventKind.ARRIVAL_ASK for k in ask_block)
        cancel_start = kinds.index(EventKind.CANCELLATION)
        assert all(k is EventKind.CANCELLATION for k in kinds[cancel_start:])
        ask_levels = [
            d.price_level for d, _ in table.entries if d.kind is EventKind.ARRIVAL_ASK
        ]
        assert ask_levels == sorted(ask_levels)
        cancel_ids = [
            d.target_order_id
            for d, _ in table.entries
            if d.kind is EventKind.CANCELLATION
        ]
        assert cancel_ids == sorted(cancel_ids)
