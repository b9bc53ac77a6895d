"""Deterministic limit order book core.

Implements the book state machine driven by the stochastic engine:
price-time priority, continuous-trading execution with partial matching,
cancellation by order id, and call-auction uncrossing at the
volume-maximizing price.

Book states are immutable values; every operation returns a new state, so
states can be shared freely between threads and stored in trajectories
without defensive copies.

Price levels live on a finite integer grid ``1..grid_size``. Quantities are
positive integers. Market orders are expressed as limit orders at the grid
extremes (level 1 for asks, ``grid_size`` for bids).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional


def is_integer(v) -> bool:
    """Every entry point's integer rule: numpy's count, bools do not. Exact ints skip the ABC."""
    return type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """Every entry point's real-number rule, as :func:`is_integer`; NaN is left to range checks."""
    return type(v) in (int, float) or isinstance(v, numbers.Real) and not isinstance(v, bool)


class Side(Enum):
    """Market side of an order."""

    ASK = "ask"
    BID = "bid"

    @property
    def opposite(self) -> "Side":
        return Side.BID if self is Side.ASK else Side.ASK


class OrderBookError(Exception):
    """Base class for order book domain errors."""


class PriceGridError(OrderBookError):
    """Price level outside the configured grid."""


class OrderSizeError(OrderBookError):
    """Order quantity below one or not an integer."""


class VacuumAnnihilationError(OrderBookError):
    """Cancellation of an order that is not resident in the book."""


class DeltaMismatchError(OrderBookError):
    """Cancellation id exists but side, level, or quantity disagree."""


class InvariantViolation(OrderBookError):
    """A book state failed an internal consistency check."""


@dataclass(frozen=True)
class Order:
    """A resident limit order.

    ``seq`` is the global submission counter; it encodes time priority and
    doubles as the order id (ids are engine-assigned, never reused).
    """

    side: Side
    price_level: int
    quantity: int
    seq: int
    id: int


@dataclass(frozen=True)
class Transaction:
    """An executed trade: price level, quantity, time, and who crossed."""

    price_level: int
    quantity: int
    time: float
    aggressor_side: Side


@dataclass(frozen=True)
class StateCaps:
    """Truncation cutoffs for capped runs (None means unbounded)."""

    max_orders: Optional[int] = None
    max_quantity: Optional[int] = None


# Canonical structure of a book: per side, (level, quantity) pairs in
# priority order, with ids and times stripped.
CanonicalKey = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class BookState:
    """Immutable book snapshot.

    ``bids`` is ordered by price descending then seq ascending; ``asks`` by
    price ascending then seq ascending, so the front of each tuple is the
    side's best-priority order.
    """

    grid_size: int
    bids: tuple[Order, ...]
    asks: tuple[Order, ...]
    last_transaction: Optional[Transaction]
    next_seq: int

    def best_bid(self) -> Optional[int]:
        return self.bids[0].price_level if self.bids else None

    def best_ask(self) -> Optional[int]:
        return self.asks[0].price_level if self.asks else None

    def order_count(self) -> int:
        return len(self.bids) + len(self.asks)

    def orders_by_seq(self) -> list[Order]:
        return sorted(self.bids + self.asks, key=lambda o: o.seq)

    def find_order(self, order_id: int) -> Optional[Order]:
        for order in self.bids:
            if order.id == order_id:
                return order
        for order in self.asks:
            if order.id == order_id:
                return order
        return None

    def canonical_key(self) -> CanonicalKey:
        """Structure of the book with ids, seqs, and trade history stripped."""
        return (
            tuple((o.price_level, o.quantity) for o in self.bids),
            tuple((o.price_level, o.quantity) for o in self.asks),
        )

    def side_orders(self, side: Side) -> tuple[Order, ...]:
        return self.asks if side is Side.ASK else self.bids


def empty_book(grid_size: int = 20) -> BookState:
    """Fresh book with no resident orders and no transaction history."""
    if not (is_integer(grid_size) and grid_size >= 1):
        raise PriceGridError(f"grid_size must be >= 1, got {grid_size!r}")
    return BookState(grid_size=int(grid_size), bids=(), asks=(), last_transaction=None, next_seq=1)


def _insert_resting(
    orders: tuple[Order, ...], new: Order, side: Side
) -> tuple[Order, ...]:
    # Bids are kept price-descending, asks price-ascending; within a level the
    # newcomer goes behind every resident (larger seq).
    if side is Side.BID:
        idx = next(
            (i for i, o in enumerate(orders) if o.price_level < new.price_level),
            len(orders),
        )
    else:
        idx = next(
            (i for i, o in enumerate(orders) if o.price_level > new.price_level),
            len(orders),
        )
    return orders[:idx] + (new,) + orders[idx:]


def submit_order(
    state: BookState,
    side: Side,
    price_level: int,
    quantity: int,
    time: float = 0.0,
    matching: bool = True,
) -> tuple[BookState, list[Transaction]]:
    """Submit a limit order, executing it against the opposite side as far
    as it crosses.

    While the incoming order crosses the best resident order on the opposite
    side (incoming ask at or below the best bid, incoming bid at or above the
    best ask), a transaction executes at the *resident* order's price level
    for ``min(remaining, resident quantity)``; the resident shrinks or is
    removed and the walk continues. Any unmatched remainder is inserted at
    its price-time position.

    With ``matching=False`` the order is queued at its price-time position
    without execution (call-auction collection), which may leave the book
    crossed until :func:`auction_match` runs.

    Returns the new state and the transactions in execution order. :class:`OrderBookError`
    unless ``side`` is a :class:`Side` and the level and quantity integers on the grid and >= 1.
    """
    if not isinstance(side, Side):
        raise OrderBookError(f"side must be a Side, got {side!r}")
    if not (is_integer(price_level) and 1 <= price_level <= state.grid_size):
        raise PriceGridError(f"price level {price_level} outside grid 1..{state.grid_size}")
    if not (is_integer(quantity) and quantity >= 1):
        raise OrderSizeError(f"quantity must be a positive integer, got {quantity}")
    price_level, quantity = int(price_level), int(quantity)

    seq = state.next_seq
    transactions: list[Transaction] = []
    remaining = quantity
    bids, asks = state.bids, state.asks

    if matching:
        if side is Side.ASK:
            opposite = list(bids)
            crosses: Callable[[Order], bool] = lambda o: o.price_level >= price_level
        else:
            opposite = list(asks)
            crosses = lambda o: o.price_level <= price_level
        while remaining > 0 and opposite and crosses(opposite[0]):
            resident = opposite[0]
            traded = min(remaining, resident.quantity)
            transactions.append(
                Transaction(resident.price_level, traded, time, aggressor_side=side)
            )
            remaining -= traded
            if traded == resident.quantity:
                opposite.pop(0)
            else:
                opposite[0] = replace(resident, quantity=resident.quantity - traded)
        if side is Side.ASK:
            bids = tuple(opposite)
        else:
            asks = tuple(opposite)

    if remaining > 0:
        new_order = Order(side, price_level, remaining, seq, seq)
        if side is Side.ASK:
            asks = _insert_resting(asks, new_order, side)
        else:
            bids = _insert_resting(bids, new_order, side)

    last = transactions[-1] if transactions else state.last_transaction
    new_state = BookState(
        grid_size=state.grid_size,
        bids=bids,
        asks=asks,
        last_transaction=last,
        next_seq=seq + 1,
    )
    return new_state, transactions


def cancel_order(
    state: BookState,
    side: Side,
    price_level: int,
    quantity: int,
    order_id: int,
) -> BookState:
    """Remove one resident order, matched by id, side, level, and quantity.

    Raises :class:`OrderBookError` when ``side`` is not a :class:`Side`,
    :class:`VacuumAnnihilationError` when no order carries the id
    (cancelling into an empty slot), and :class:`DeltaMismatchError` when the
    id exists but side, price level, or quantity disagree.
    """
    if not isinstance(side, Side):
        raise OrderBookError(f"side must be a Side, got {side!r}")
    target = state.find_order(order_id)
    if target is None:
        raise VacuumAnnihilationError(f"no resident order with id {order_id}")
    if target.side is not side or target.price_level != price_level or target.quantity != quantity:
        raise DeltaMismatchError(
            f"order {order_id} is {target.quantity}@{target.price_level} on the "
            f"{target.side.value} side; cancel asked for {quantity}@{price_level} "
            f"on the {side.value} side"
        )
    if side is Side.ASK:
        asks = tuple(o for o in state.asks if o.id != order_id)
        bids = state.bids
    else:
        bids = tuple(o for o in state.bids if o.id != order_id)
        asks = state.asks
    return replace(state, bids=bids, asks=asks)


def _executable_at(state: BookState, price: int) -> tuple[int, int]:
    """(executable volume, signed bid-minus-ask imbalance) at a candidate price."""
    bid_quantity = sum(o.quantity for o in state.bids if o.price_level >= price)
    ask_quantity = sum(o.quantity for o in state.asks if o.price_level <= price)
    return min(bid_quantity, ask_quantity), bid_quantity - ask_quantity


def _clearing(state: BookState) -> Optional[tuple[int, int]]:
    """Volume-maximizing clearing price and volume, or None when nothing crosses.

    Tie-break among equal-volume prices: smallest absolute unexecuted
    imbalance first, then the price closest to the midpoint of the tied
    range, taking the higher price when equidistant (the bid side sits above
    the asks in a crossed pre-auction book).
    """
    candidates = sorted(
        {o.price_level for o in state.bids} | {o.price_level for o in state.asks}
    )
    if not candidates:
        return None
    rows = [(price, *_executable_at(state, price)) for price in candidates]
    best_volume = max(volume for _, volume, _ in rows)
    if best_volume <= 0:
        return None
    tied = [(price, imbalance) for price, volume, imbalance in rows if volume == best_volume]
    least_imbalance = min(abs(imbalance) for _, imbalance in tied)
    tied_prices = [price for price, imbalance in tied if abs(imbalance) == least_imbalance]
    if len(tied_prices) == 1:
        return tied_prices[0], best_volume
    midpoint = (tied_prices[0] + tied_prices[-1]) / 2.0
    clearing_price = min(tied_prices, key=lambda p: (abs(p - midpoint), -p))
    return clearing_price, best_volume


def indicative_price(state: BookState) -> Optional[int]:
    """Clearing price an auction would settle at right now, if any volume crosses."""
    cleared = _clearing(state)
    return cleared[0] if cleared is not None else None


def _consume(
    orders: tuple[Order, ...],
    eligible: Callable[[Order], bool],
    volume: int,
) -> tuple[tuple[Order, ...], int]:
    remaining = volume
    kept: list[Order] = []
    for order in orders:
        if remaining > 0 and eligible(order):
            taken = min(remaining, order.quantity)
            remaining -= taken
            if taken < order.quantity:
                kept.append(replace(order, quantity=order.quantity - taken))
        else:
            kept.append(order)
    return tuple(kept), volume - remaining


def auction_match(state: BookState, time: float = 0.0) -> tuple[BookState, list[Transaction]]:
    """Uncross the book at the volume-maximizing price.

    Orders execute in price-time priority at the clearing price until one
    side's eligible quantity is exhausted; a single transaction records the
    clearing price and the total traded quantity. Partially filled residuals
    keep their original priority. The aggressor side of the recorded
    transaction is the side with the larger eligible quantity (bid on a tie).

    A book with no positive executable volume is returned unchanged.
    """
    cleared = _clearing(state)
    if cleared is None:
        return state, []
    price, volume = cleared
    bid_eligible = sum(o.quantity for o in state.bids if o.price_level >= price)
    ask_eligible = sum(o.quantity for o in state.asks if o.price_level <= price)
    bids, bid_filled = _consume(state.bids, lambda o: o.price_level >= price, volume)
    asks, ask_filled = _consume(state.asks, lambda o: o.price_level <= price, volume)
    if bid_filled != volume or ask_filled != volume:
        raise InvariantViolation(
            f"auction fill mismatch at price {price}: "
            f"bid {bid_filled}, ask {ask_filled}, volume {volume}"
        )
    aggressor = Side.ASK if ask_eligible > bid_eligible else Side.BID
    transaction = Transaction(price, volume, time, aggressor_side=aggressor)
    new_state = replace(state, bids=bids, asks=asks, last_transaction=transaction)
    return new_state, [transaction]


def validate_book(state: BookState, allow_crossed: bool = False) -> None:
    """Raise :class:`InvariantViolation` if the state is inconsistent.

    Checks grid bounds, positive quantities, price-time ordering on both
    sides, id uniqueness, seq consistency, and (unless ``allow_crossed``)
    that the best bid is strictly below the best ask.
    """
    seen_ids: set[int] = set()
    for order in state.bids + state.asks:
        if not 1 <= order.price_level <= state.grid_size:
            raise InvariantViolation(f"order {order.id} off-grid at {order.price_level}")
        if order.quantity < 1:
            raise InvariantViolation(f"order {order.id} has quantity {order.quantity}")
        if order.seq >= state.next_seq:
            raise InvariantViolation(f"order {order.id} seq {order.seq} >= next_seq")
        if order.id in seen_ids:
            raise InvariantViolation(f"duplicate order id {order.id}")
        seen_ids.add(order.id)
    for i in range(1, len(state.bids)):
        prev, cur = state.bids[i - 1], state.bids[i]
        if cur.price_level > prev.price_level:
            raise InvariantViolation("bids not price-descending")
        if cur.price_level == prev.price_level and cur.seq <= prev.seq:
            raise InvariantViolation("bid time priority violated")
    for i in range(1, len(state.asks)):
        prev, cur = state.asks[i - 1], state.asks[i]
        if cur.price_level < prev.price_level:
            raise InvariantViolation("asks not price-ascending")
        if cur.price_level == prev.price_level and cur.seq <= prev.seq:
            raise InvariantViolation("ask time priority violated")
    if not allow_crossed and state.bids and state.asks:
        if state.bids[0].price_level >= state.asks[0].price_level:
            raise InvariantViolation(
                f"book crossed: best bid {state.bids[0].price_level} >= "
                f"best ask {state.asks[0].price_level}"
            )
