"""Shared helpers: randomized book walks and independent brute-force oracles.

These are used at small scale by the unit tests and at full scale by the
acceptance suite. The brute-force routines deliberately re-derive their
answers from first principles rather than calling the implementation paths
they check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

import lobsim.engine
from lobsim.book import (
    BookState,
    Side,
    empty_book,
    submit_order,
    cancel_order,
    validate_book,
)
from lobsim.rates import AnchoringMode, DgxParams, RateModel, TraderGroup


@pytest.fixture(autouse=True)
def cleared_table_cache():
    """Every test starts from an empty engine table cache: its counts of table builds
    and book-set restarts start at zero, and a book set built under a test's patched
    ``_BOOK_CAP`` never reaches another test."""
    lobsim.engine._cache.cache_clear()


@dataclass
class WalkStats:
    operations: int
    submissions: int
    cancellations: int
    transactions: int


def random_operation_walk(
    operations: int,
    seed: int,
    grid_size: int = 20,
    max_quantity: int = 3,
    cancel_probability: float = 0.35,
) -> WalkStats:
    """Drive random submissions and cancellations, asserting the core rules.

    After every operation the book must be uncrossed and well ordered, each
    submission must conserve quantity (trades plus resting remainder), and
    every transaction must print at a price level where an opposite-side
    order was resident before the submission.
    """
    rng = np.random.default_rng(seed)
    state = empty_book(grid_size)
    submissions = cancellations = transactions = 0
    for _ in range(operations):
        residents = state.bids + state.asks
        if residents and rng.random() < cancel_probability:
            victim = residents[rng.integers(len(residents))]
            state = cancel_order(
                state, victim.side, victim.price_level, victim.quantity, victim.id
            )
            cancellations += 1
        else:
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            level = int(rng.integers(1, grid_size + 1))
            quantity = int(rng.integers(1, max_quantity + 1))
            opposite_levels = {
                o.price_level for o in state.side_orders(side.opposite)
            }
            new_id = state.next_seq
            state, trades = submit_order(state, side, level, quantity, time=float(submissions))
            submissions += 1
            transactions += len(trades)
            traded = sum(t.quantity for t in trades)
            rested = state.find_order(new_id)
            remainder = rested.quantity if rested is not None else 0
            assert traded + remainder == quantity, "quantity not conserved"
            for trade in trades:
                assert trade.price_level in opposite_levels, (
                    "transaction printed off any resident level"
                )
        validate_book(state)
    return WalkStats(operations, submissions, cancellations, transactions)


def brute_force_clearing(state: BookState) -> tuple[int, int] | None:
    """Independent volume-maximizing clearing price with the documented
    tie-break: max executable volume, then minimum absolute imbalance, then
    the tied price closest to the midpoint of the tied range, taking the
    higher price when equidistant."""
    levels = sorted({o.price_level for o in state.bids} | {o.price_level for o in state.asks})
    best: list[tuple[int, int]] = []  # (price, imbalance) at max volume
    best_volume = 0
    for price in levels:
        bid_quantity = sum(o.quantity for o in state.bids if o.price_level >= price)
        ask_quantity = sum(o.quantity for o in state.asks if o.price_level <= price)
        volume = min(bid_quantity, ask_quantity)
        if volume > best_volume:
            best_volume = volume
            best = [(price, bid_quantity - ask_quantity)]
        elif volume == best_volume and volume > 0:
            best.append((price, bid_quantity - ask_quantity))
    if best_volume <= 0:
        return None
    smallest = min(abs(imb) for _, imb in best)
    tied = [price for price, imb in best if abs(imb) == smallest]
    if len(tied) > 1:
        midpoint = (min(tied) + max(tied)) / 2.0
        best_distance = min(abs(p - midpoint) for p in tied)
        tied = [p for p in tied if abs(p - midpoint) == best_distance]
    return max(tied), best_volume


def random_crossed_book(rng: np.random.Generator, grid_size: int = 12) -> BookState:
    """Collect random orders without matching, as in an auction call phase."""
    state = empty_book(grid_size)
    n_orders = int(rng.integers(2, 9))
    for _ in range(n_orders):
        side = Side.BID if rng.random() < 0.5 else Side.ASK
        level = int(rng.integers(1, grid_size + 1))
        quantity = int(rng.integers(1, 4))
        state, _ = submit_order(state, side, level, quantity, matching=False)
    return state


@st.composite
def drawn_books(draw, largest_grid=6, most_groups=3):
    """A model on grid 2-6 with 1-3 groups (shares may be 0), either anchoring,
    a cancellation rate that may be 0 and orders of size 1-2, and a uniform
    book on its grid: up to two orders per level, bids at or below a drawn
    level and asks above it, submitted in a drawn order. ``largest_grid`` and
    ``most_groups`` narrow the grid and group ranges."""
    grid = draw(st.integers(2, largest_grid))
    weights = [draw(st.integers(1, 3))]
    weights += draw(st.lists(st.integers(0, 3), max_size=most_groups - 1))
    groups = []
    for weight in weights:
        ask, bid = (
            # mu up to ln(support) keeps a weight above 0; a small sigma
            # underflows the ranks far from e^mu, which can empty a side.
            DgxParams(draw(st.floats(0.0, math.log(s))), draw(st.floats(0.01, 4.0)), s)
            for s in (draw(st.integers(1, grid)), draw(st.integers(1, grid)))
        )
        groups.append(
            TraderGroup(
                weight / sum(weights),
                ask,
                bid,
                ask_anchor=draw(st.integers(1, grid - ask.support_size + 1)),
                bid_anchor=draw(st.integers(bid.support_size, grid)),
            )
        )
    model = RateModel(
        grid_size=grid,
        groups=tuple(groups),
        per_order_cancel_rate=draw(st.sampled_from([0.0, 0.25])),
        event_intensity=1.0,
        anchoring_mode=draw(st.sampled_from(list(AnchoringMode))),
        unit_quantity=draw(st.integers(1, 2)),
    )
    split = draw(st.integers(0, grid))
    counts = draw(st.lists(st.integers(0, 2), min_size=grid, max_size=grid))
    orders = [
        (Side.BID if level <= split else Side.ASK, level)
        for level, count in enumerate(counts, 1)
        for _ in range(count)
    ]
    book = empty_book(grid)
    for side, level in draw(st.permutations(orders)):
        book, _ = submit_order(book, side, level, model.unit_quantity, 0.0)
    return model, book


# Under opposite-best anchoring, a bid at 3 and an ask at 4 leave DGX ranks
# 1-4 on the grid of 6 for either side, and these weights are 0 there: no
# arrival, no cancellation, so the book is absorbing.
_NARROW = DgxParams(math.log(6), 0.01, 6)
ABSORBING = (
    RateModel(
        6, (TraderGroup(1.0, _NARROW, _NARROW, 1, 6),), 0.0, 1.0, AnchoringMode.OPPOSITE_BEST
    ),
    submit_order(submit_order(empty_book(6), Side.BID, 3, 1, 0.0)[0], Side.ASK, 4, 1, 0.0)[0],
)


# Caps for a book of n orders: None, or max_orders from n - 1 (not below 0),
# n, n + 1 or unbounded, and max_quantity 1, 2 or unbounded.
DRAWN_CAPS = st.one_of(
    st.tuples(st.sampled_from([-1, 0, 1, None]), st.sampled_from([1, 2, None])), st.none()
)
