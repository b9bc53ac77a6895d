"""Exact solver: enumeration, generator assembly against hand-computed rates,
uniformized evolution, moments, and engine agreement at reduced scale."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from golden import ORACLE_CASES, oracle_case
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import lobsim
from lobsim.book import BookState, Order, Side, StateCaps, empty_book, submit_order
from lobsim.engine import RecordingConfig, run_ensemble, simulate
from lobsim import rates
from lobsim.observables import ensemble_covariance, ensemble_moment
from lobsim.oracle import (
    TAIL_TOLERANCE,
    OracleError,
    StateIndex,
    StateSpaceBudgetError,
    build_generator,
    compare_distributions,
    enumerate_states,
    evolve,
    exact_moment,
    order_count_observable,
    tiny_nonoverlapping_model,
    tiny_opposite_model,
    tiny_overlapping_model,
    vacuum_vector,
    _state_count,
)
from lobsim.rates import (
    AbsorbingStateError,
    AnchoringMode,
    DgxParams,
    RateModel,
    TraderGroup,
    apply_event,
    event_table,
)
from lobsim.scenario import ORACLE_MODELS, generator_diagnostics, validate_against_oracle


def key_for(*orders, grid_size=2):
    state = empty_book(grid_size)
    for side, level, quantity in orders:
        state, _ = submit_order(state, side, level, quantity, matching=False)
    return state.canonical_key()


class TestEnumeration:
    def test_vacuum_only(self):
        index = enumerate_states(2, 1, 0)
        assert len(index) == 1
        assert index.key(0) == ((), ())

    def test_two_level_unit_books(self):
        # hand count for grid {1,2}, unit quantities, at most 2 orders:
        # 1 empty + 4 singles + 3 bid-only pairs + 3 ask-only pairs
        # + 1 uncrossed mixed pair (bid@1 with ask@2) = 12
        index = enumerate_states(2, 1, 2)
        assert len(index) == 12
        mixed = key_for((Side.BID, 1, 1), (Side.ASK, 2, 1))
        assert index.key(index.index(mixed)) == mixed
        # crossed structures are excluded
        with pytest.raises(KeyError):
            index.index(key_for((Side.BID, 2, 1), (Side.ASK, 1, 1)))
        with pytest.raises(KeyError):
            index.index(key_for((Side.BID, 1, 1), (Side.ASK, 1, 1)))

    def test_reference_count_with_caps_four(self):
        # 1 empty + 14 bid-only + 14 ask-only + 6 mixed (bid@1 x ask@2)
        index = enumerate_states(2, 1, 4)
        assert len(index) == 35

    @pytest.mark.parametrize("grid_size", range(1, 7))
    def test_state_count_matches_the_enumeration(self, grid_size):
        for max_orders in range(7):
            count = _state_count(grid_size, max_orders)
            assert count == len(enumerate_states(grid_size, 1, max_orders)) == len(
                enumerate_states(grid_size, 2, max_orders)
            )

    @pytest.mark.parametrize("name", [*ORACLE_MODELS, *ORACLE_CASES])
    def test_keys_round_trip(self, name):
        _, index = oracle_case(name)
        assert all(index.index(index.key(i)) == i for i in range(len(index)))

    def test_duplicate_placements_raise(self):
        # Two empty placements: rows of max_orders + 1 = 2 padding entries.
        empty = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(OracleError, match="duplicate"):
            StateIndex(2, 1, 1, empty)

    @pytest.mark.parametrize("entry", [3, 4, -1])
    def test_entries_outside_bounds_raise(self, entry):
        # Grid 2, one order: 3 would reach the append table's sink code, 4 and
        # -1 would index past a row of it.
        rows = np.zeros((3, 2), dtype=np.int64)
        rows[1, 0], rows[2, 0] = 2, entry
        with pytest.raises(OracleError, match="placement entries outside levels 1..2"):
            StateIndex(2, 1, 1, rows)

    @pytest.mark.parametrize(
        "bounds",
        [(2, 1, -1), (-1, 1, 1), (0, 1, 2), (2, 0, 2)]
        # Not integers, or bools: (2, 1, True) would index 5 states.
        + [(2.5, 1, 1), (2, 1.5, 1), (2, 1, True), (2, 1, 1.0), (True, 1, 1), (2, 1, 1, 1e5)],
    )
    def test_bounds_out_of_range_raise(self, bounds):
        with pytest.raises(OracleError, match="need grid_size >= 1"):
            enumerate_states(*bounds)

    def test_budget_exceeded(self):
        with pytest.raises(StateSpaceBudgetError):
            enumerate_states(6, 2, 6, budget=100)

    def test_numpy_integer_bounds_accepted(self):
        assert len(enumerate_states(np.int64(2), np.int32(1), np.int64(4), np.int64(35))) == 35

    @pytest.mark.parametrize(
        "bounds, count",
        # The count stays a Python int: C(2**32 + 3, 3) is far past int64.
        [((12, 1, 10), 4_173_806), ((20, 2, 6), 1_292_830)]
        + [((np.int64(2**32), np.int32(1), np.int64(3)), 52_818_775_055_626_418_592_138_919_937)],
    )
    def test_budget_is_checked_before_placements_are_built(self, bounds, count):
        # Building every placement of these first would take seconds and
        # hundreds of MiB; the count is a closed form.
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceBudgetError, match=f"state space of {count} exceeds"):
                enumerate_states(*bounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_forty_orders_on_two_levels(self):
        # 861 placements of up to 40 orders: a row code in base K + 1 = 3
        # would need 3**40 > 2**63, so the row lookup must not pack rows into int64.
        index = enumerate_states(2, 1, 40)
        assert len(index) == 2501
        assert all(index.index(index.key(i)) == i for i in range(len(index)))
        model, _ = tiny_overlapping_model()
        generator = build_generator(model, index)
        assert generator.shape == (2501, 2501)
        max_column_sum, min_off = generator_diagnostics(generator)
        assert max_column_sum <= 1e-12 and min_off >= 0.0
        # A full book of 40 bids at level 1: an ask arriving at 1 takes the
        # front bid, a bid arriving cannot rest, a cancellation removes one.
        full = index.index((((1, 1),) * 40, ()))
        fewer = index.index((((1, 1),) * 39, ()))
        assert generator[fewer, full] > 0.0

    def test_random_engine_walks_stay_inside_index(self):
        model, caps = tiny_overlapping_model()
        index = enumerate_states(2, 1, 4)
        for seed in (1, 2, 3):
            result = simulate(model, event_count=400, seed=seed, caps=caps)
            from lobsim.rates import apply_event

            state = empty_book(2)
            for record in result.records:
                state, _ = apply_event(state, record.event, record.time)
                index.index(state.canonical_key())  # KeyError outside the index


def reference_keys(grid_size, quantity, max_orders):
    """Every state's key in enumeration order, from the recursive placement
    enumeration of orders of size ``quantity``: level 1's order count
    outermost, then level 2's, and so on; bid placements in that order, each
    paired with the ask placements that fit beside it, in that order."""
    halves = []  # per placement: (bid half, ask half)
    queues = []  # one per occupied level, ascending

    def recurse(level, used):
        if level > grid_size:
            halves.append(
                (
                    tuple(o for queue in reversed(queues) for o in queue),
                    tuple(o for queue in queues for o in queue),
                )
            )
            return
        for length in range(max_orders - used + 1):
            queues.append(((level, quantity),) * length)
            recurse(level + 1, used + length)
            queues.pop()

    recurse(1, 0)
    partners, keys = {}, []
    for bids, _ in halves:
        fit = (max_orders - len(bids), bids[0][0] if bids else 0)
        if fit not in partners:
            partners[fit] = [
                asks for _, asks in halves
                if len(asks) <= fit[0] and (not asks or asks[0][0] > fit[1])
            ]
        keys += [(bids, asks) for asks in partners[fit]]
    return keys


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 4))
def test_enumeration_order_matches_recursive_reference(grid_size, quantity, max_orders):
    index = enumerate_states(grid_size, quantity, max_orders)
    expected = reference_keys(grid_size, quantity, max_orders)
    assert [index.key(i) for i in range(len(index))] == expected


def uniform_books(index, rng=None):
    """Every indexed state's book, in index order, as batched runs return it: a
    row of signed levels (+ asks, - bids) padded with 0. ``rng`` shuffles each
    row into a random submission order."""
    books = np.zeros((len(index), index.max_orders + 1), dtype=np.int8)
    for row, (bids, asks) in enumerate(map(index.key, range(len(index)))):
        levels = [-level for level, _ in bids] + [level for level, _ in asks]
        if rng is not None:
            rng.shuffle(levels)
        books[row, : len(levels)] = levels
    return books


class TestPositions:
    @pytest.mark.parametrize("quantity", [1, 2])
    def test_rows_find_every_uniform_key(self, quantity):
        # Residents in shuffled submission orders, bids and asks interleaved.
        index = enumerate_states(3, quantity, 4)
        books = uniform_books(index, np.random.default_rng(quantity))
        uniform = np.arange(len(index))
        assert np.array_equal(index.positions(books), uniform)
        # Any leading shape: (runs, times, max_orders + 1) -> (runs, times).
        stacked = np.stack([books, books[::-1]], axis=1)
        expected = np.stack([uniform, uniform[::-1]], axis=1)
        assert np.array_equal(index.positions(stacked), expected)

    @pytest.mark.parametrize(
        "bids, asks",
        [
            ((2,), (1,)),  # crossed
            ((1,), (1,)),  # locked
            ((1, 1, 1), (2, 2)),  # five orders, at most four
            ((3,), ()),  # a bid past the grid
            ((), (3,)),  # an ask past the grid
        ],
    )
    def test_books_outside_the_index_raise(self, bids, asks):
        # Sides interleaved in submission order, after a book the index holds.
        index = enumerate_states(2, 1, 4)
        books = np.zeros((2, 5), dtype=np.int8)
        books[0, :2] = (-1, 2)
        levels = [s for pair in zip_longest([-b for b in bids], asks) for s in pair if s]
        books[1, : len(levels)] = levels
        with pytest.raises(OracleError, match="outside the index"):
            index.positions(books)

    def test_sixteen_levels_of_three_orders(self):
        index = enumerate_states(16, 1, 3)
        books = uniform_books(index, np.random.default_rng(16))
        assert len(index) == 3417
        assert np.array_equal(index.positions(books), np.arange(3417))

    def test_sixty_four_levels_map_every_state(self):
        # 129 states on 64 levels: one side's counts as a code in base 2 need
        # 2**64, so a count-code lookup could not map them.
        index = enumerate_states(64, 1, 1)
        assert len(index) == 129
        assert np.array_equal(index.positions(uniform_books(index)), np.arange(129))

    def test_int8_bids_at_level_128(self):
        # An int8 -128 is a bid at level 128: negated in int8 it would stay -128.
        index = enumerate_states(129, 1, 2)
        books = np.array([[-128, 0, 0], [0, -1, -128], [-128, -128, 0]], dtype=np.int8)
        keys = [(((128, 1),), ()), (((128, 1), (1, 1)), ()), (((128, 1),) * 2, ())]
        assert index.positions(books).tolist() == [index.index(key) for key in keys]
        with pytest.raises(OracleError, match="outside the index"):
            index.positions(np.array([-128, 0, 1], dtype=np.int8))  # crossed

    @pytest.mark.parametrize("shape", [(2, 4), (2, 6), (2, 2, 2), (4,)])
    def test_rows_of_another_width_raise(self, shape):
        index = enumerate_states(2, 1, 4)
        with pytest.raises(OracleError, match=r"need \(\.\.\., 5\)"):
            index.positions(np.zeros(shape, dtype=np.int8))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_any_submission_order_maps_to_the_key(data):
    # One key's levels in any order are the same book.
    index = enumerate_states(3, data.draw(st.integers(1, 2)), 4)
    books = uniform_books(index)
    row = data.draw(st.sampled_from(range(len(index))))
    levels = books[row][books[row] != 0].tolist()
    shuffled = np.zeros_like(books[row])
    shuffled[: len(levels)] = data.draw(st.permutations(levels))
    assert index.positions(shuffled) == row


def lookup_index(name):
    """A fixture index by name, or the 2,501-state index of up to 40 orders."""
    return enumerate_states(2, 1, 40) if name == "forty-orders" else oracle_case(name)[1]


LOOKUP_INDEXES = [*ORACLE_MODELS, *ORACLE_CASES, "forty-orders"]


class TestLookups:
    """The direct-addressed lookups: rows to placement ids through the append
    table, id pairs to states by arithmetic."""

    @pytest.mark.parametrize("name", LOOKUP_INDEXES)
    def test_every_row_maps_to_its_own_id(self, name):
        index = lookup_index(name)
        assert np.array_equal(index._ids(index.placements), np.arange(len(index.placements)))

    @pytest.mark.parametrize("name", LOOKUP_INDEXES)
    def test_every_state_is_found_from_its_ids(self, name):
        index = lookup_index(name)
        found = index._find(index.bid_placement, index.ask_placement)
        assert np.array_equal(found, np.arange(len(index)))

    @pytest.mark.parametrize("name", ["tiny-opposite", "grid4-static", "forty-orders"])
    def test_every_other_pair_is_not_found(self, name):
        # All H x H pairs: crossed, too long, and -1 on either side map to -1.
        index = lookup_index(name)
        h = len(index.placements)
        bid, ask = (a.ravel() for a in np.meshgrid(np.arange(-1, h), np.arange(-1, h)))
        expected = np.full((h + 1, h + 1), -1)
        expected[index.bid_placement + 1, index.ask_placement + 1] = np.arange(len(index))
        assert np.array_equal(index._find(bid, ask), expected[bid + 1, ask + 1])
        length, (best_bid, best_ask) = index._length, index._best
        valid = (bid >= 0) & (ask >= 0)
        fits = valid & (length[bid] + length[ask] <= index.max_orders)
        fits &= best_ask[ask] > best_bid[bid]
        assert np.array_equal(expected[bid + 1, ask + 1] >= 0, fits)
        assert (~valid).sum() == 2 * h + 1 and (valid & ~fits).any()

    @pytest.mark.parametrize(
        "key",
        [
            (((1, 1), (2, 1)), ()),  # bids not best first
            ((), ((2, 1), (1, 1))),  # asks not best first
            (((0, 1),), ()),  # level 0
            ((), ((3, 1),)),  # above the grid
            (((1, 0),), ()),  # quantity 0
            ((), ((2, 2),)),  # another order size
            (((1, 1),), ((2, 1), (2, 2))),  # one order of another size
            (((1, 1),) * 5, ()),  # more than max_orders
            (((1, 1),) * 3, ((2, 1),) * 2),  # more than max_orders in all
            (((2, 1),), ((1, 1),)),  # crossed
        ],
    )
    def test_keys_outside_the_index_raise(self, key):
        index = enumerate_states(2, 1, 4)
        with pytest.raises(KeyError):
            index.index(key)

    @pytest.mark.parametrize("change", ["relabel"])
    def test_states_out_of_enumeration_order_raise(self, change):
        # Placements in another order (the empty one still first): best asks
        # rise somewhere, so the state arithmetic cannot hold.
        index = enumerate_states(3, 1, 3)
        placements = index.placements
        order = [0, *np.random.default_rng(3).permutation(np.arange(1, len(placements)))]
        with pytest.raises(OracleError, match="not in enumeration order"):
            StateIndex(index.grid_size, index.quantity, index.max_orders, placements[order])


def book_states(index):
    """Every indexed state as a ``BookState``; its orders' seqs (= ids) run
    through bids, then asks."""
    books = []
    for bids, asks in map(index.key, range(len(index))):
        n = len(bids)
        books.append(
            BookState(
                grid_size=index.grid_size,
                bids=tuple(Order(Side.BID, lv, q, s, s) for s, (lv, q) in enumerate(bids, 1)),
                asks=tuple(
                    Order(Side.ASK, lv, q, s, s) for s, (lv, q) in enumerate(asks, n + 1)
                ),
                last_transaction=None,
                next_seq=n + len(asks) + 1,
            )
        )
    return books


def reference_generator(model, index, caps=None):
    """The generator assembled through the book core: one event table per
    ``BookState``, each event applied with ``apply_event``."""
    caps = index.caps() if caps is None else caps
    # One dict per index: index(key) costs a few numpy calls per key.
    position = {index.key(i): i for i in range(len(index))}
    rows, cols, data = [], [], []
    for i, state in enumerate(book_states(index)):
        try:
            table = event_table(model, state, caps=caps)
        except AbsorbingStateError:
            continue
        outflow = 0.0
        for descriptor, raw in table.entries:
            rate = raw * table.normalization
            rows.append(position[apply_event(state, descriptor)[0].canonical_key()])
            cols.append(i)
            data.append(rate)
            outflow += rate
        rows.append(i)
        cols.append(i)
        data.append(-outflow)
    return sparse.csc_matrix((data, (rows, cols)), shape=(len(index), len(index)))


def assert_identical(a, b):
    """Same shape, sparsity pattern and float bytes after summing duplicates."""
    a, b = a.tocsc(copy=True), b.tocsc(copy=True)
    a.sum_duplicates()
    b.sum_duplicates()
    assert a.shape == b.shape
    for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
        assert np.array_equal(x, y)


class TestGeneratorMatchesBookCore:
    @pytest.mark.parametrize(
        "name", ["tiny", "tiny-overlap", "tiny-opposite", "grid4-static", "grid4-opposite-best"]
    )
    def test_index_caps(self, name):
        model, index = oracle_case(name)
        assert_identical(build_generator(model, index), reference_generator(model, index))

    @pytest.mark.parametrize(
        "name, caps",
        [
            # fewer orders than the index holds
            ("grid4-static", StateCaps(max_orders=3, max_quantity=2)),
            # arrivals of 2 above the cap of 1: only cancellations remain
            ("grid4-opposite-best", StateCaps(max_orders=4, max_quantity=1)),
        ],
    )
    def test_tighter_caps(self, name, caps):
        model, index = oracle_case(name)
        assert_identical(
            build_generator(model, index, caps), reference_generator(model, index, caps)
        )

    def test_arrivals_come_from_quotes_not_books(self, monkeypatch):
        model, index = oracle_case("tiny-opposite")
        expected = reference_generator(model, index)

        def no_book(self, *args, **kwargs):
            raise AssertionError("a BookState was built")

        monkeypatch.setattr(BookState, "__init__", no_book)
        assert_identical(build_generator(model, index), expected)

    def test_zero_cancellation_rate_leaves_absorbing_columns_empty(self):
        model, index = oracle_case("tiny")
        model = replace(model, per_order_cancel_rate=0.0)
        generator = build_generator(model, index)
        assert_identical(generator, reference_generator(model, index))
        # Absorbing: four orders, none an arrival can match (bids at 1, asks
        # at 2), so the book can neither grow nor shrink.
        absorbing = np.flatnonzero(np.diff(generator.tocsc().indptr) == 0)
        assert [index.key(i) for i in absorbing] == [
            key for key in map(index.key, range(len(index)))
            if len(key[0]) + len(key[1]) == 4
            and {level for level, _ in key[0]} <= {1} and {level for level, _ in key[1]} <= {2}
        ]

    def test_caps_looser_than_index_raise_key_error(self):
        model, index = oracle_case("tiny")
        with pytest.raises(KeyError):
            build_generator(model, index, StateCaps(max_orders=5, max_quantity=1))

    @pytest.mark.parametrize("name, unit_quantity", [("tiny", 2), ("grid4-static", 1)])
    def test_orders_of_another_size_raise_before_any_table(self, name, unit_quantity, monkeypatch):
        model, index = oracle_case(name)

        def no_rows(*args, **kwargs):
            raise AssertionError("an arrival row was built")

        monkeypatch.setattr(lobsim.oracle, "side_arrivals", no_rows)
        with pytest.raises(OracleError, match="orders of size"):
            build_generator(replace(model, unit_quantity=unit_quantity), index)

    @pytest.mark.parametrize("grid_size", [1, 3])
    def test_index_on_another_grid_raises(self, grid_size):
        # The tiny-overlap model lives on a grid of 2.
        model, _ = tiny_overlapping_model()
        with pytest.raises(OracleError, match="grid"):
            build_generator(model, enumerate_states(grid_size, 1, 3))


@st.composite
def drawn_models(draw):
    """A small model with its index and caps no looser than the index: grid
    2-4, one or two trader groups, either anchoring, a cancellation rate that
    may be 0, and orders of size 1-2 in both; a quantity cap that may lie
    below that size, leaving only cancellations; on grid 2, rows of up to 10
    orders, so removals and fills walk long rows."""
    grid = draw(st.integers(2, 4))
    quantity = draw(st.integers(1, 2))
    # At most 210 states (grid 4, four orders; grid 2 with ten orders has
    # 176), so 100 examples take a few seconds.
    longest = 10 if grid == 2 else 4
    max_orders = draw(st.integers(2, longest))
    groups = []
    shares = draw(st.sampled_from([(1.0,), (0.3, 0.7)]))
    for share in shares:
        params = []
        for _ in range(2):
            support = draw(st.integers(1, grid))
            params.append(DgxParams(draw(st.floats(0.0, 2.0)), draw(st.floats(0.5, 4.0)), support))
        ask, bid = params
        groups.append(
            TraderGroup(
                share,
                ask,
                bid,
                ask_anchor=draw(st.integers(1, grid - ask.support_size + 1)),
                bid_anchor=draw(st.integers(bid.support_size, grid)),
            )
        )
    model = RateModel(
        grid_size=grid,
        groups=tuple(groups),
        per_order_cancel_rate=draw(st.sampled_from([0.0, 0.1, 0.35])),
        event_intensity=draw(st.sampled_from([1.0, 6.0])),
        anchoring_mode=draw(st.sampled_from(list(AnchoringMode))),
        unit_quantity=quantity,
    )
    caps = StateCaps(
        max_orders=max_orders - draw(st.integers(0, 1)),
        max_quantity=quantity - draw(st.integers(0, quantity - 1)),
    )
    return model, enumerate_states(grid, quantity, max_orders), caps


@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn_models())
def test_generator_matches_book_core_on_drawn_models(case):
    model, index, caps = case
    generator = build_generator(model, index, caps)
    assert_identical(generator, reference_generator(model, index, caps))
    # Every column of a generator sums to zero: what leaves a state arrives somewhere.
    assert generator_diagnostics(generator)[0] <= 1e-12


@pytest.mark.parametrize("name", ["tiny-opposite", "grid4-opposite-best"])
def test_build_reads_each_side_row_once(name):
    # One (side, opposite best) row per side and best level of the other side
    # (or none), each a miss of the row cache in rates: at most 2(K + 1) builds,
    # however many quote groups share them, and none built twice.
    model, index = oracle_case(name)
    rates._side_row.cache_clear()
    build_generator(model, index)
    rows = rates._side_row.cache_info()
    assert rows.misses == rows.currsize <= 2 * (model.grid_size + 1)


@pytest.fixture(scope="module")
def tiny():
    model, caps = tiny_nonoverlapping_model()
    index = enumerate_states(2, 1, 4)
    return model, caps, index, build_generator(model, index)


@pytest.fixture(scope="module")
def system():
    model, caps = tiny_nonoverlapping_model()
    index = enumerate_states(2, 1, 4)
    return index, build_generator(model, index)


class TestGenerator:
    def test_columns_sum_to_zero(self, tiny):
        _, _, _, generator = tiny
        max_column_sum, min_off = generator_diagnostics(generator)
        assert max_column_sum <= 1e-12
        assert min_off >= 0.0

    def test_diagonal_is_negative_event_intensity(self, tiny):
        model, _, index, generator = tiny
        diag = generator.diagonal()
        # every state in this model has arrivals or cancellations available
        assert np.allclose(diag, -model.event_intensity, atol=1e-9)

    def test_hand_computed_columns(self, tiny):
        model, _, index, generator = tiny
        dense = generator.toarray()
        vacuum = index.index(((), ()))
        one_bid = index.index(key_for((Side.BID, 1, 1)))
        one_ask = index.index(key_for((Side.ASK, 2, 1)))
        bid_ask = index.index(key_for((Side.BID, 1, 1), (Side.ASK, 2, 1)))
        two_bids = index.index(key_for((Side.BID, 1, 1), (Side.BID, 1, 1)))

        # vacuum: two arrivals of raw mass 1 each, normalized to 3 and 3
        assert dense[one_bid, vacuum] == pytest.approx(3.0)
        assert dense[one_ask, vacuum] == pytest.approx(3.0)
        assert dense[vacuum, vacuum] == pytest.approx(-6.0)

        # one bid: raw total 2.1 -> arrivals 6/2.1, cancellation 0.6/2.1
        assert dense[two_bids, one_bid] == pytest.approx(6.0 / 2.1)
        assert dense[bid_ask, one_bid] == pytest.approx(6.0 / 2.1)
        assert dense[vacuum, one_bid] == pytest.approx(0.6 / 2.1)

        # four resident orders: arrivals capped, four cancellations at 1.5 each
        full = index.index(
            key_for((Side.BID, 1, 1), (Side.BID, 1, 1), (Side.ASK, 2, 1), (Side.ASK, 2, 1))
        )
        three_b = index.index(
            key_for((Side.BID, 1, 1), (Side.BID, 1, 1), (Side.ASK, 2, 1))
        )
        three_a = index.index(
            key_for((Side.BID, 1, 1), (Side.ASK, 2, 1), (Side.ASK, 2, 1))
        )
        # cancelling either of the two identical bids lands on the same state
        assert dense[three_a, full] == pytest.approx(3.0)
        assert dense[three_b, full] == pytest.approx(3.0)
        assert dense[full, full] == pytest.approx(-6.0)

    def test_build_holds_no_states_by_slots_arrays(self):
        # Each slot keeps only its live transitions; a dense layout of every
        # state by every slot peaks above the bound on these 30,459 states.
        model, index = oracle_case("grid8-static")
        build_generator(model, index)  # imports scipy, fills the DGX cache
        tracemalloc.start()
        try:
            build_generator(model, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_matching_transition_in_overlap_model(self):
        model, caps = tiny_overlapping_model()
        index = enumerate_states(2, 1, 4)
        generator = build_generator(model, index).toarray()
        # a bid arriving at level 2 against a resident ask at 2 executes:
        # resident ask vanishes instead of a new bid resting
        one_ask_at_2 = index.index(key_for((Side.ASK, 2, 1)))
        vacuum = index.index(((), ()))
        assert generator[vacuum, one_ask_at_2] > 0.0
        max_column_sum, min_off = generator_diagnostics(
            build_generator(model, index)
        )
        assert max_column_sum <= 1e-12 and min_off >= 0.0


class TestEvolve:
    def test_identity_at_time_zero(self, system):
        index, generator = system
        p0 = vacuum_vector(index)
        assert evolve(p0, generator, 0.0).tolist() == p0.tolist()

    def test_mass_conserved(self, system):
        index, generator = system
        p0 = vacuum_vector(index)
        # A float32 time ran the Poisson sums in float32, which never reach 1 - 1e-10.
        assert np.array_equal(evolve(p0, generator, np.float32(0.5)), evolve(p0, generator, 0.5))
        for t in (0.1, 0.5, 1.0, 2.0, 10.0):
            p = evolve(p0, generator, t)
            assert abs(p.sum() - 1.0) < 1e-9
            assert p.min() >= 0.0

    def test_semigroup(self, system):
        index, generator = system
        p0 = vacuum_vector(index)
        direct = evolve(p0, generator, 1.7)
        chained = evolve(evolve(p0, generator, 0.9), generator, 0.8)
        assert np.abs(direct - chained).max() < 1e-8

    def test_long_time_fixed_point(self, system):
        index, generator = system
        p0 = vacuum_vector(index)
        late = evolve(p0, generator, 40.0)
        later = evolve(late, generator, 5.0)
        assert np.abs(later - late).max() < 1e-8

    def test_long_horizon_matches_stationary_solve(self, system):
        # At t = 500 evolve runs 47 segments, each dropping up to 1e-10 of
        # Poisson tail: more than the 1e-9 of rounding a short horizon needs.
        index, generator = system
        dense = generator.toarray()
        # Q pi = 0 with the mass of pi as one equation in place of the last.
        dense[-1] = 1.0
        rhs = np.zeros(len(index))
        rhs[-1] = 1.0
        stationary = np.linalg.solve(dense, rhs)
        p = evolve(vacuum_vector(index), generator, 500.0)
        assert compare_distributions(p, stationary) < 1e-8

    def test_matches_a_textbook_uniformization_loop(self):
        # p(t) = sum_n w_n (I + G / rate)^n p0 per segment, each term a fresh
        # array summed after the Poisson weights w_n reach 1 - TAIL_TOLERANCE, in
        # evolve's float operations. Without cancellations the full books of
        # tiny are absorbing (empty columns), and t = 40 takes 4 segments.
        model, index = oracle_case("tiny")
        generator = build_generator(replace(model, per_order_cancel_rate=0.0), index)
        assert (np.diff(generator.indptr) == 0).any()
        t, rate = 40.0, float(-generator.diagonal().min())
        segments = math.ceil(rate * t / 64.0)
        mean = rate * (t / segments)
        step = sparse.identity(len(index), format="csr") + generator.tocsr() / rate
        p = vacuum_vector(index)
        for _ in range(segments):
            weights, terms, mass = [math.exp(-mean)], [p], math.exp(-mean)
            while mass < 1.0 - TAIL_TOLERANCE:
                weights.append(weights[-1] * (mean / len(weights)))
                terms.append(step @ terms[-1])
                mass += weights[-1]
            p = weights[0] * terms[0]
            for weight, term in zip(weights[1:], terms[1:]):
                p += weight * term
        assert segments == 4 and len(weights) > mean
        expected = p / p.sum()  # evolve renormalizes its output
        found = evolve(vacuum_vector(index), generator, t)
        assert np.array_equal(found.view(np.uint64), expected.view(np.uint64))

    def test_rejects_bad_inputs(self, system):
        index, generator = system
        p0 = vacuum_vector(index)
        with pytest.raises(OracleError):
            evolve(p0, generator, -1.0)
        for t in (True, "a"):  # t=True ran to 1, "a" failed comparing with 0
            with pytest.raises(OracleError, match="invalid evolution time"):
                evolve(p0, generator, t)
        with pytest.raises(OracleError):
            evolve(p0[:-1], generator, 1.0)
        bad = p0.copy()
        bad[0] = float("nan")
        with pytest.raises(OracleError):
            evolve(bad, generator, 1.0)


class TestMoments:
    def test_constant_observable(self):
        model, caps = tiny_nonoverlapping_model()
        index = enumerate_states(2, 1, 4)
        generator = build_generator(model, index)
        p0 = vacuum_vector(index)
        constant = np.full(len(index), 4.25)
        assert exact_moment(generator, p0, 1.3, constant, 1) == pytest.approx(4.25)

    def test_vacuum_count_at_time_zero(self):
        model, caps = tiny_nonoverlapping_model()
        index = enumerate_states(2, 1, 4)
        generator = build_generator(model, index)
        counts = order_count_observable(index)
        assert exact_moment(generator, vacuum_vector(index), 0.0, counts, 1) == 0.0

    def test_monte_carlo_agreement(self):
        model, caps = tiny_nonoverlapping_model()
        index = enumerate_states(2, 1, 4)
        generator = build_generator(model, index)
        counts = order_count_observable(index)
        t = 1.0
        exact = exact_moment(generator, vacuum_vector(index), t, counts, 1)
        results = run_ensemble(
            model,
            runs=10_000,
            time_horizon=t,
            base_seed=55,
            recording=RecordingConfig(events=False, checkpoint_times=(t,)),
            caps=caps,
            reduce=lambda r: r.checkpoints[t].order_count(),
        )
        estimate = ensemble_moment(results, 1)
        assert abs(estimate.value - exact) <= 3.0 * estimate.standard_error


class TestDistributionComparison:
    def test_identical_vectors(self):
        assert compare_distributions([0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_disjoint_point_masses(self):
        assert compare_distributions([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_index_mismatch(self):
        with pytest.raises(OracleError):
            compare_distributions([1.0], [0.5, 0.5])

    def test_engine_agreement_reduced_scale(self):
        report = validate_against_oracle("tiny", runs=4000, base_seed=314)
        # at 4k runs sampling noise dominates; just require rough agreement
        assert max(report.tv_distances.values()) < 0.06
        assert report.max_column_sum <= 1e-12


def test_opposite_best_engine_matches_oracle():
    # Each TV distance against the sampling bound of the benchmark: mean TV of
    # R independent states is at most 0.5 * sum sqrt(p(1-p)/R), and TV exceeds
    # that by eps with probability below exp(-2 R eps^2) (McDiarmid).
    runs, alarm = 20_000, 1e-6
    report = validate_against_oracle("tiny-opposite", runs=runs, base_seed=2024)
    model, caps = tiny_opposite_model()
    index = enumerate_states(model.grid_size, caps.max_quantity, caps.max_orders)
    generator = build_generator(model, index)
    assert report.state_count == len(index) == 95
    eps = math.sqrt(math.log(1.0 / alarm) / (2.0 * runs))
    for t, tv in report.tv_distances.items():
        p = evolve(vacuum_vector(index), generator, t)
        assert tv <= 0.5 * float(np.sqrt(p * (1.0 - p) / runs).sum()) + eps
    for _, _, exact, estimate, se in report.moment_checks:
        assert abs(estimate - exact) <= 4.0 * se


class TestConditionalCovariance:
    def test_best_quote_covariance_matches_oracle(self):
        # conditional on both sides being populated at t=1
        model, caps = tiny_overlapping_model()
        index = enumerate_states(2, 1, 4)
        generator = build_generator(model, index)
        t = 1.0
        p = evolve(vacuum_vector(index), generator, t)
        books = book_states(index)
        both = np.array([1.0 if (s.bids and s.asks) else 0.0 for s in books])
        best_bid = np.array([s.best_bid() or 0 for s in books], dtype=float)
        best_ask = np.array([s.best_ask() or 0 for s in books], dtype=float)
        mass = float(both @ p)
        mean_bid = float((best_bid * both) @ p) / mass
        mean_ask = float((best_ask * both) @ p) / mass
        cov_exact = (
            float((best_bid * best_ask * both) @ p) / mass - mean_bid * mean_ask
        )

        runs = 20_000
        states = run_ensemble(
            model,
            runs=runs,
            time_horizon=t,
            base_seed=808,
            recording=RecordingConfig(events=False, checkpoint_times=(t,)),
            caps=caps,
            reduce=lambda r: r.checkpoints[t],
        )
        pairs = [
            (float(s.best_bid()), float(s.best_ask()))
            for s in states
            if s.bids and s.asks
        ]
        bids = [p_[0] for p_ in pairs]
        asks = [p_[1] for p_ in pairs]
        cov_mc = ensemble_covariance(bids, asks)
        # normal-approximation standard error of the sample covariance
        a = np.asarray(bids) - np.mean(bids)
        b = np.asarray(asks) - np.mean(asks)
        se = float(np.std(a * b, ddof=1) / math.sqrt(len(pairs)))
        assert abs(cov_mc - cov_exact) <= 4.0 * se


def test_importing_lobsim_does_not_load_scipy():
    # scipy loads with the first build_generator or evolve call, so `lobsim run`
    # and `lobsim print-rates` never pay for it.
    code = "import sys, lobsim, lobsim.cli, lobsim.scenario; assert 'scipy' not in sys.modules"
    env = dict(os.environ, PYTHONPATH=str(Path(lobsim.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
