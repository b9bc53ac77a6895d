"""Book core: matching, cancellation, auctions, structural invariants, and the input rule."""

import ast
from pathlib import Path

import pytest

from conftest import brute_force_clearing, random_crossed_book, random_operation_walk

import numpy as np

from lobsim.book import (
    DeltaMismatchError,
    OrderBookError,
    OrderSizeError,
    PriceGridError,
    Side,
    Transaction,
    VacuumAnnihilationError,
    auction_match,
    cancel_order,
    empty_book,
    indicative_price,
    submit_order,
    validate_book,
)


def book_with(*orders, grid_size=20, matching=True):
    """(side, level, quantity) triples submitted in order."""
    state = empty_book(grid_size)
    for side, level, quantity in orders:
        state, _ = submit_order(state, side, level, quantity, matching=matching)
    return state


class TestEmptyBook:
    def test_vacuum(self):
        book = empty_book()
        assert book.bids == () and book.asks == ()
        assert book.last_transaction is None

    def test_no_quotes(self):
        book = empty_book()
        assert book.best_bid() is None
        assert book.best_ask() is None

    @pytest.mark.parametrize("grid_size", [0, True, 5.0, "5", None, np.int64(5)])
    def test_grid_size_is_an_integer_of_at_least_one(self, grid_size):
        if type(grid_size) is np.int64:
            assert type(empty_book(grid_size).grid_size) is int
        else:
            with pytest.raises(PriceGridError, match="grid_size must be >= 1"):
                empty_book(grid_size)


class TestSubmit:
    def test_rests_when_no_counterparty(self):
        state, trades = submit_order(empty_book(), Side.ASK, 10, 1, time=0.0)
        assert trades == []
        assert [(o.quantity, o.price_level) for o in state.asks] == [(1, 10)]

    def test_partial_match_shrinks_resident(self):
        # resident bid 5@10, incoming ask 3@9: trade 3 at the resident's level
        state = book_with((Side.BID, 10, 5))
        state, trades = submit_order(state, Side.ASK, 9, 3, time=1.0)
        assert trades == [Transaction(10, 3, 1.0, Side.ASK)]
        assert [(o.quantity, o.price_level) for o in state.bids] == [(2, 10)]
        assert state.asks == ()
        assert state.last_transaction == trades[0]

    def test_perfect_match_empties_book(self):
        state = book_with((Side.BID, 10, 3))
        state, trades = submit_order(state, Side.ASK, 9, 3, time=1.0)
        assert trades == [Transaction(10, 3, 1.0, Side.ASK)]
        assert state.bids == () and state.asks == ()

    def test_walks_multiple_levels_and_rests_remainder(self):
        # hand-traced: ask 3@8 lifts bid 1@10 then 1@9, remainder 1@8 rests
        state = book_with((Side.BID, 10, 1), (Side.BID, 9, 1))
        state, trades = submit_order(state, Side.ASK, 8, 3, time=2.0)
        assert [(t.price_level, t.quantity) for t in trades] == [(10, 1), (9, 1)]
        assert state.bids == ()
        assert [(o.quantity, o.price_level) for o in state.asks] == [(1, 8)]

    def test_equal_price_crossing_executes(self):
        state = book_with((Side.BID, 10, 1))
        state, trades = submit_order(state, Side.ASK, 10, 1)
        assert len(trades) == 1 and trades[0].price_level == 10
        assert state.order_count() == 0

    # A bool is never a level or a quantity; a numpy integer is, stored as an int.
    @pytest.mark.parametrize("level", [21, 0, True, np.True_, 2.0, "2", np.int64(2)])
    def test_off_grid_rejected(self, level):
        if type(level) is np.int64:
            state, _ = submit_order(empty_book(20), Side.BID, level, 1)
            assert type(state.bids[0].price_level) is int and state.best_bid() == 2
        else:
            with pytest.raises(PriceGridError):
                submit_order(empty_book(20), Side.BID, level, 1)

    @pytest.mark.parametrize("quantity", [0, True, 1.0, "1", np.int64(2)])
    def test_bad_quantity_rejected(self, quantity):
        if type(quantity) is np.int64:
            state, _ = submit_order(empty_book(), Side.BID, 10, quantity)
            assert type(state.bids[0].quantity) is int and state.bids[0].quantity == 2
        else:
            with pytest.raises(OrderSizeError):
                submit_order(empty_book(), Side.BID, 10, quantity)

    @pytest.mark.parametrize(
        "operation",
        [
            lambda state: submit_order(state, "ask", 2, 1),
            lambda state: cancel_order(state, "ask", 10, 2, 1),
        ],
        ids=["submit", "cancel"],
    )
    def test_side_must_be_a_side(self, operation):
        # A string side was filed on the bid side, or failed formatting a mismatch.
        with pytest.raises(OrderBookError, match="side must be a Side, got 'ask'"):
            operation(book_with((Side.ASK, 10, 2)))

    def test_matching_disabled_queues_crossed(self):
        state = book_with((Side.BID, 10, 1))
        state, trades = submit_order(state, Side.ASK, 9, 1, matching=False)
        assert trades == []
        assert state.best_bid() == 10 and state.best_ask() == 9
        validate_book(state, allow_crossed=True)

    def test_time_priority_within_level(self):
        state = book_with((Side.BID, 9, 1), (Side.BID, 9, 2))
        assert [o.quantity for o in state.bids] == [1, 2]
        # incoming ask consumes the older order first
        state, trades = submit_order(state, Side.ASK, 9, 1)
        assert trades[0].quantity == 1
        assert [o.quantity for o in state.bids] == [2]


class TestCancel:
    def test_cancel_only_order(self):
        state = book_with((Side.ASK, 10, 1))
        order = state.asks[0]
        state = cancel_order(state, Side.ASK, 10, 1, order.id)
        assert state.order_count() == 0

    def test_cancel_on_empty_book_is_vacuum_annihilation(self):
        with pytest.raises(VacuumAnnihilationError):
            cancel_order(empty_book(), Side.ASK, 10, 1, order_id=1)

    def test_mismatched_attributes_raise_delta_mismatch(self):
        state = book_with((Side.ASK, 10, 2))
        order = state.asks[0]
        with pytest.raises(DeltaMismatchError):
            cancel_order(state, Side.ASK, 10, 1, order.id)
        with pytest.raises(DeltaMismatchError):
            cancel_order(state, Side.BID, 10, 2, order.id)

    def test_priority_promotes_younger_order(self):
        # two bids at 9; cancelling the older leaves the younger at the front
        state = book_with((Side.BID, 9, 1), (Side.BID, 9, 1))
        first, second = state.bids
        state = cancel_order(state, Side.BID, 9, 1, first.id)
        assert state.bids == (second,)

    def test_cancel_undoes_submit(self):
        before = book_with((Side.BID, 10, 2), (Side.ASK, 14, 1))
        new_id = before.next_seq
        after, trades = submit_order(before, Side.BID, 8, 3)
        assert trades == []
        after = cancel_order(after, Side.BID, 8, 3, new_id)
        assert after.bids == before.bids
        assert after.asks == before.asks
        assert after.last_transaction == before.last_transaction


class TestAuction:
    def test_volume_maximizing_price(self):
        # enumerated by hand: at 9 -> min(3,1)=1, at 10 -> min(2,2)=2
        state = book_with(
            (Side.BID, 10, 2), (Side.BID, 9, 1), (Side.ASK, 9, 1), (Side.ASK, 10, 1),
            matching=False,
        )
        assert indicative_price(state) == 10
        cleared, trades = auction_match(state, time=3.0)
        assert trades == [Transaction(10, 2, 3.0, trades[0].aggressor_side)]
        validate_book(cleared)
        assert cleared.best_bid() == 9 and cleared.asks == ()

    def test_uncrossed_book_unchanged(self):
        state = book_with((Side.BID, 9, 1), (Side.ASK, 11, 1))
        cleared, trades = auction_match(state)
        assert trades == [] and cleared == state
        assert indicative_price(state) is None

    def test_unique_crossing_price(self):
        state = book_with((Side.BID, 10, 1), (Side.ASK, 10, 1), matching=False)
        cleared, trades = auction_match(state)
        assert [(t.price_level, t.quantity) for t in trades] == [(10, 1)]
        assert cleared.order_count() == 0

    def test_empty_book(self):
        assert indicative_price(empty_book()) is None
        cleared, trades = auction_match(empty_book())
        assert trades == []

    def test_residuals_keep_priority(self):
        # clears 4 at 10, leaving 1@10 of the partially filled bid behind
        state = book_with(
            (Side.BID, 12, 1), (Side.BID, 10, 4), (Side.ASK, 10, 3), (Side.ASK, 9, 1),
            matching=False,
        )
        seqs = {o.id: o.seq for o in state.bids + state.asks}
        cleared, trades = auction_match(state)
        assert [(t.price_level, t.quantity) for t in trades] == [(10, 4)]
        assert [(o.quantity, o.price_level) for o in cleared.bids] == [(1, 10)]
        for order in cleared.bids + cleared.asks:
            assert order.seq == seqs[order.id]

    def test_matches_brute_force_on_random_books(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            state = random_crossed_book(rng)
            expected = brute_force_clearing(state)
            if expected is None:
                assert indicative_price(state) is None
                continue
            cleared, trades = auction_match(state, time=1.0)
            assert len(trades) == 1
            assert (trades[0].price_level, trades[0].quantity) == expected
            validate_book(cleared)
            pre_quantity = sum(o.quantity for o in state.bids + state.asks)
            post_quantity = sum(o.quantity for o in cleared.bids + cleared.asks)
            assert pre_quantity - post_quantity == 2 * expected[1]


class TestInvariants:
    def test_random_walk_small(self):
        stats = random_operation_walk(operations=4000, seed=5)
        assert stats.submissions > 0 and stats.transactions > 0

    def test_same_side_submissions_commute_across_levels(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            base = random_crossed_book(rng, grid_size=12)
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            k1, k2 = rng.choice(np.arange(1, 13), size=2, replace=False)
            q1, q2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            a, _ = submit_order(base, side, int(k1), q1, matching=False)
            a, _ = submit_order(a, side, int(k2), q2, matching=False)
            b, _ = submit_order(base, side, int(k2), q2, matching=False)
            b, _ = submit_order(b, side, int(k1), q1, matching=False)
            assert a.canonical_key() == b.canonical_key()

    def test_order_ids_unique_and_seq_monotone(self):
        state = empty_book()
        for i in range(20):
            side = Side.BID if i % 2 else Side.ASK
            state, _ = submit_order(state, side, 5 if side is Side.BID else 15, 1)
        validate_book(state)
        assert state.order_count() == 20
        seqs = [o.seq for o in state.orders_by_seq()]
        assert seqs == sorted(set(seqs))


def _bool_exclusion(node: ast.AST) -> bool:
    """Whether ``node`` tells a bool apart: ``isinstance(x, bool)`` (also in a tuple of
    types) or a comparison of a type with ``bool`` (``type(x) is not bool``); ``np.bool_``
    counts as ``bool``."""
    named = lambda n: (getattr(n, "id", None) or getattr(n, "attr", None)) in ("bool", "bool_")
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
        kinds = node.args[1:]
        return any(named(n) for k in kinds for n in (k.elts if isinstance(k, ast.Tuple) else [k]))
    if isinstance(node, ast.Compare):
        return any(named(n) for n in (node.left, *node.comparators))
    return False


def test_bool_is_excluded_only_by_the_two_predicates():
    # The input rule lives in book.is_integer and book.is_real; a bool check anywhere
    # else is a second copy of it that can drift.
    sources = Path(__file__).resolve().parent.parent / "src" / "lobsim"
    predicates, found = {}, []
    for path in sorted(sources.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = set()
        for node in ast.walk(tree):
            if path.name == "book.py" and getattr(node, "name", None) in ("is_integer", "is_real"):
                body = list(ast.walk(node))
                predicates[node.name] = sum(map(_bool_exclusion, body))
                inside.update(map(id, body))
        found += [
            f"{path.name}:{n.lineno}"
            for n in ast.walk(tree)
            if _bool_exclusion(n) and id(n) not in inside
        ]
    assert predicates == {"is_integer": 1, "is_real": 1}
    assert found == []
