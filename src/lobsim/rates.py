"""State-dependent transition rates for the order book.

Order arrivals are drawn from per-side mixtures of DGX (discrete Gaussian
exponential, i.e. discrete truncated log-normal) distributions over
price-level ranks, one mixture component per trader group. Every resident
order carries a flat cancellation rate. The full per-state event table is
rescaled so its total equals a fixed event intensity, which pins the number
of events per unit of simulated time while leaving the relative odds of the
individual events untouched. A side's arrivals depend only on the model and
the other side's best level, so :func:`side_arrivals` builds each side row
once and keeps it for the reference, the engine's tables and the oracle.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .book import BookState, Order, Side, StateCaps, cancel_order, is_integer, is_real, submit_order


class RateModelError(Exception):
    """Base class for rate model configuration and evaluation errors."""


class AbsorbingStateError(RateModelError):
    """Raised when a state has no outgoing transition at all."""


def _check_ints(obj, *names: str) -> None:
    """:class:`RateModelError` unless each named field of frozen ``obj`` is an int, not a
    bool; a numpy int is stored as an int, as the engine indexes lists with levels."""
    for name in names:
        value = getattr(obj, name)
        if not is_integer(value):
            raise RateModelError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(obj, name, int(value))


def _as_floats(obj, *names: str) -> None:
    """Store each named real field of frozen ``obj`` as a float, +-inf past the float range."""
    for name in names:
        value = getattr(obj, name)
        if is_integer(value) and abs(value) > sys.float_info.max:
            value = np.inf if value > 0 else -np.inf
        if is_real(value):
            object.__setattr__(obj, name, float(value))


class AnchoringMode(Enum):
    """How DGX rank 1 is pinned to an absolute price level."""

    STATIC_SUPPORT = "static"
    OPPOSITE_BEST = "opposite_best"


@dataclass(frozen=True)
class DgxParams:
    """Parameters of a DGX distribution over ranks ``1..support_size``."""

    mu: float
    sigma: float
    support_size: int

    def __post_init__(self) -> None:
        _check_ints(self, "support_size")
        _as_floats(self, "mu", "sigma")
        if not (is_real(self.mu) and np.isfinite(self.mu)):
            raise RateModelError(f"mu must be finite, got {self.mu!r}")
        if not (is_real(self.sigma) and 0 < self.sigma < np.inf):
            raise RateModelError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.support_size < 1:
            raise RateModelError(f"support_size must be >= 1, got {self.support_size}")
        with np.errstate(all="ignore"):
            pmf = dgx_pmf(self)
        if not (np.isfinite(pmf).all() and (pmf > 0).any()):
            raise RateModelError(
                f"DGX weights over ranks 1..{self.support_size} underflow or are not "
                f"finite at mu={self.mu}, sigma={self.sigma}"
            )


def dgx_pmf(params: DgxParams) -> np.ndarray:
    """Probability weights over ranks 1..support_size.

    weight(r) is proportional to (1/r) * exp(-(ln r - mu)^2 / (2 sigma^2)),
    normalized to sum to one.
    """
    ranks = np.arange(1, params.support_size + 1, dtype=float)
    log_ranks = np.log(ranks)
    try:
        scale = 2.0 * params.sigma**2
    except OverflowError:  # a float sigma past 1e154: every exp term is 1
        scale = np.inf
    weights = np.exp(-((log_ranks - params.mu) ** 2) / scale) / ranks
    return weights / weights.sum()


@dataclass(frozen=True)
class TraderGroup:
    """One group's share of the order flow and its placement behavior."""

    share: float
    ask_params: DgxParams
    bid_params: DgxParams
    ask_anchor: int
    bid_anchor: int

    def __post_init__(self) -> None:
        _check_ints(self, "ask_anchor", "bid_anchor")
        _as_floats(self, "share")
        if not (is_real(self.share) and 0.0 <= self.share <= 1.0):
            raise RateModelError(f"group share must lie in [0, 1], got {self.share!r}")


@dataclass(frozen=True)
class RateModel:
    """Arrival and cancellation rates plus the global event intensity.

    ``per_order_cancel_rate`` applies to every resident order individually;
    ``event_intensity`` is the normalized total rate of any event occurring,
    enforced per state. Arrival quantities are fixed to ``unit_quantity``.
    """

    grid_size: int
    groups: tuple[TraderGroup, ...]
    per_order_cancel_rate: float
    event_intensity: float
    anchoring_mode: AnchoringMode = AnchoringMode.STATIC_SUPPORT
    unit_quantity: int = 1

    def __post_init__(self) -> None:
        _check_ints(self, "grid_size", "unit_quantity")
        _as_floats(self, "per_order_cancel_rate", "event_intensity")
        groups = self.groups
        if not (isinstance(groups, tuple) and all(isinstance(g, TraderGroup) for g in groups)):
            raise RateModelError(f"groups must be a tuple of TraderGroup, got {groups!r}")
        problems = []
        if not isinstance(self.anchoring_mode, AnchoringMode):
            problems.append(f"anchoring mode must be an AnchoringMode, got {self.anchoring_mode!r}")
        if not (is_real(self.event_intensity) and 0 < self.event_intensity < np.inf):
            problems.append(f"event intensity must be finite and > 0: {self.event_intensity!r}")
        if not (is_real(self.per_order_cancel_rate) and 0 <= self.per_order_cancel_rate < np.inf):
            rate = self.per_order_cancel_rate
            problems.append(f"cancellation rate must be finite and nonnegative, got {rate!r}")
        if self.unit_quantity < 1:
            problems.append(f"unit quantity must be >= 1, got {self.unit_quantity}")
        if not groups:
            problems.append("at least one trader group is required")
        else:
            total_share = sum(g.share for g in groups)
            if abs(total_share - 1.0) > 1e-9:
                problems.append(f"group shares must sum to 1, got {total_share}")
        for i, g in enumerate(groups):
            for side, params, anchor in (
                (Side.ASK, g.ask_params, g.ask_anchor),
                (Side.BID, g.bid_params, g.bid_anchor),
            ):
                low, high = _support_bounds(side, anchor, params.support_size)
                if low < 1 or high > self.grid_size:
                    problems.append(
                        f"groups[{i}] {side.value} support leaves the grid: "
                        f"{low}..{high} is not within 1..{self.grid_size}"
                    )
        if problems:
            raise RateModelError("; ".join(problems))


def _support_bounds(side: Side, anchor: int, support_size: int) -> tuple[int, int]:
    if side is Side.ASK:
        return anchor, anchor + support_size - 1
    return anchor - support_size + 1, anchor


class EventKind(Enum):
    ARRIVAL_ASK = "arrival_ask"
    ARRIVAL_BID = "arrival_bid"
    CANCELLATION = "cancellation"


_ARRIVAL_KIND = {Side.ASK: EventKind.ARRIVAL_ASK, Side.BID: EventKind.ARRIVAL_BID}
_ARRIVAL_SIDE = {EventKind.ARRIVAL_ASK: Side.ASK, EventKind.ARRIVAL_BID: Side.BID}


@dataclass(frozen=True)
class EventDescriptor:
    """One elementary transition: an arrival at a level or a cancellation."""

    kind: EventKind
    price_level: int
    quantity: int
    target_order_id: Optional[int] = None

    @property
    def side(self) -> Side:
        if self.kind is EventKind.CANCELLATION:
            raise ValueError("cancellation side is determined by the target order")
        return _ARRIVAL_SIDE[self.kind]


@dataclass(frozen=True)
class ArrivalRates:
    """Per-(side, level) arrival rates with truncation diagnostics.

    ``side_mass`` holds each side's total rate before global normalization;
    ``dropped_mass`` records DGX weight that mapped outside the grid (only
    possible in opposite-best anchoring).
    """

    entries: tuple[tuple[EventDescriptor, float], ...]
    side_mass: dict[Side, float]
    dropped_mass: dict[Side, float]


class SideRow(NamedTuple):
    """A side's arrivals by level, as (descriptor, rate) and as signed level (+ ask, - bid)."""

    entries: tuple[tuple[EventDescriptor, float], ...]
    levels: tuple[int, ...]
    rates: tuple[float, ...]
    mass: float
    dropped: float


def side_arrivals(model: RateModel, side: Side, opposite_best: Optional[int]) -> SideRow:
    """``side``'s arrival row: the one place arrival rates are computed and kept.

    DGX rank 1 of each group sits on its static anchor, or under opposite-best anchoring on
    ``opposite_best``, the other side's best level (``None`` if that side is empty). Ranks map
    to levels ascending from the anchor on the ask side and descending on the bid side, summed
    over groups in group order. Weight off the grid is summed into the dropped mass, not
    renormalized; levels at rate 0 are left out of the row. A bounded cache keyed by the
    model's value holds one row per (model, side, anchor): two per model under static
    anchoring, which ignores ``opposite_best``. Nothing may mutate a row.
    """
    if model.anchoring_mode is AnchoringMode.STATIC_SUPPORT:
        opposite_best = None
    return _side_row(model, side, opposite_best)


@lru_cache(maxsize=1024)
def _side_row(model: RateModel, side: Side, opposite_best: Optional[int]) -> SideRow:
    step = 1 if side is Side.ASK else -1
    level_rates: dict[int, float] = {}
    dropped = 0.0
    for group in model.groups:
        if group.share == 0.0:
            continue
        if side is Side.ASK:
            params, anchor = group.ask_params, group.ask_anchor
        else:
            params, anchor = group.bid_params, group.bid_anchor
        if opposite_best is not None:
            anchor = opposite_best
        for rank_index, weight in enumerate(dgx_pmf(params)):
            level = anchor + step * rank_index
            if 1 <= level <= model.grid_size:
                level_rates[level] = level_rates.get(level, 0.0) + group.share * weight
            else:
                dropped += group.share * weight
    kind, q = _ARRIVAL_KIND[side], model.unit_quantity
    levels = [level for level in sorted(level_rates) if level_rates[level] > 0.0]
    rates = tuple(float(level_rates[level]) for level in levels)
    entries = tuple(zip((EventDescriptor(kind, level, q) for level in levels), rates))
    signed = tuple(step * level for level in levels)
    return SideRow(entries, signed, rates, float(sum(level_rates.values())), float(dropped))


def arrival_rates(model: RateModel, state: BookState) -> ArrivalRates:
    """Arrival rate per (side, price level): :func:`side_arrivals` of both sides.

    With valid static supports each side's mass is exactly the sum of group
    shares, i.e. 1.
    """
    ask = side_arrivals(model, Side.ASK, state.best_bid())
    bid = side_arrivals(model, Side.BID, state.best_ask())
    return ArrivalRates(
        ask.entries + bid.entries,
        {Side.ASK: ask.mass, Side.BID: bid.mass},
        {Side.ASK: ask.dropped, Side.BID: bid.dropped},
    )


def cancellation_rates(
    model: RateModel, state: BookState
) -> tuple[tuple[Order, float], ...]:
    """Per-resident-order cancellation rates, in submission (seq) order."""
    omega = model.per_order_cancel_rate
    if omega == 0.0:
        return ()
    return tuple((order, omega) for order in state.orders_by_seq())


@dataclass(frozen=True)
class EventRateTable:
    """All possible transitions out of one state with their raw rates.

    Entry order is fixed: ask arrivals by level ascending, bid arrivals by
    level ascending, then cancellations by resident seq. ``raw_total`` is the
    pre-normalization total; multiplying every entry by ``normalization``
    rescales the table so it sums to the configured event intensity.
    """

    entries: tuple[tuple[EventDescriptor, float], ...]
    raw_total: float
    event_intensity: float

    @property
    def normalization(self) -> float:
        return self.event_intensity / self.raw_total


class VacuumLookupError(RateModelError):
    """A cancellation event referenced an id that is not resident."""

    def __init__(self, order_id: Optional[int]) -> None:
        super().__init__(f"cancellation target {order_id} is not resident")


def apply_event(
    state: BookState, event: EventDescriptor, time: float = 0.0
) -> tuple[BookState, list]:
    """Apply one elementary transition through the book core."""
    if event.kind is EventKind.CANCELLATION:
        target = state.find_order(event.target_order_id)
        if target is None:
            raise VacuumLookupError(event.target_order_id)
        new_state = cancel_order(
            state, target.side, target.price_level, target.quantity, target.id
        )
        return new_state, []
    return submit_order(state, event.side, event.price_level, event.quantity, time)


def _within_caps(state: BookState, caps: StateCaps) -> bool:
    if caps.max_orders is not None and state.order_count() > caps.max_orders:
        return False
    if caps.max_quantity is not None:
        for order in state.bids + state.asks:
            if order.quantity > caps.max_quantity:
                return False
    return True


def event_table(
    model: RateModel, state: BookState, caps: Optional[StateCaps] = None
) -> EventRateTable:
    """Enumerate every possible next event from ``state`` with its rate.

    With ``caps`` set, transitions whose resulting book would exceed the
    cutoffs are removed *before* normalization, so the surviving table still
    totals the configured event intensity; the engine and the exact solver
    share this table and therefore realize the same truncated process.

    Raises :class:`AbsorbingStateError` when nothing can happen at all.
    """
    arrivals = arrival_rates(model, state)
    entries: list[tuple[EventDescriptor, float]] = []
    for descriptor, rate in arrivals.entries:
        if caps is not None:
            if caps.max_quantity is not None and descriptor.quantity > caps.max_quantity:
                continue
            result, _ = apply_event(state, descriptor)
            if not _within_caps(result, caps):
                continue
        entries.append((descriptor, rate))
    for order, rate in cancellation_rates(model, state):
        event = EventDescriptor(EventKind.CANCELLATION, order.price_level, order.quantity, order.id)
        entries.append((event, rate))
    raw_total = sum(rate for _, rate in entries)
    if raw_total <= 0.0:
        raise AbsorbingStateError("state has no outgoing transitions")
    return EventRateTable(tuple(entries), raw_total, model.event_intensity)
