"""Observables over book states and simulation trajectories.

Snapshot observables (depth, best quotes, spread, mid, round-trip liquidity)
are pure functions of a single state. Trajectory observables (transaction
series, inter-trade durations, returns) are computed from recorded event
logs. Ensemble estimators reduce per-run values to moments and covariances
with Monte Carlo standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .book import BookState, Side


class ObservableError(Exception):
    """Base class for observable evaluation errors."""


class UndefinedLiquidityError(ObservableError):
    """Liquidity measure requested on a book missing one or both sides."""


@dataclass(frozen=True)
class DepthProfile:
    """Order counts and quantities per (side, level), with derived volumes.

    Arrays are indexed by ``level - 1``. The volume at a level is the level
    index times the resting quantity there, mirroring a price-times-size
    notional on the integer grid.
    """

    grid_size: int
    bid_counts: np.ndarray
    bid_quantities: np.ndarray
    ask_counts: np.ndarray
    ask_quantities: np.ndarray

    def counts(self, side: Side) -> np.ndarray:
        return self.ask_counts if side is Side.ASK else self.bid_counts

    def quantities(self, side: Side) -> np.ndarray:
        return self.ask_quantities if side is Side.ASK else self.bid_quantities

    def volumes(self, side: Side) -> np.ndarray:
        levels = np.arange(1, self.grid_size + 1)
        return levels * self.quantities(side)

    def total_quantity(self, side: Side) -> int:
        return int(self.quantities(side).sum())

    def total_volume(self, side: Side) -> int:
        return int(self.volumes(side).sum())


def depth(state: BookState) -> DepthProfile:
    """Exact per-level order counts and quantities for both sides."""
    k = state.grid_size
    bid_counts = np.zeros(k, dtype=np.int64)
    bid_quantities = np.zeros(k, dtype=np.int64)
    ask_counts = np.zeros(k, dtype=np.int64)
    ask_quantities = np.zeros(k, dtype=np.int64)
    for order in state.bids:
        bid_counts[order.price_level - 1] += 1
        bid_quantities[order.price_level - 1] += order.quantity
    for order in state.asks:
        ask_counts[order.price_level - 1] += 1
        ask_quantities[order.price_level - 1] += order.quantity
    return DepthProfile(k, bid_counts, bid_quantities, ask_counts, ask_quantities)


@dataclass(frozen=True)
class QuoteSnapshot:
    """Best quotes and the derived spread and mid price (absent if one-sided)."""

    best_bid: Optional[int]
    best_ask: Optional[int]
    spread: Optional[int]
    mid: Optional[float]


def quotes(state: BookState) -> QuoteSnapshot:
    return quote_snapshot(state.best_bid(), state.best_ask())


def quote_snapshot(best_bid: Optional[int], best_ask: Optional[int]) -> QuoteSnapshot:
    """Quotes with spread and mid, which stay None unless both sides quote."""
    if best_bid is None or best_ask is None:
        return QuoteSnapshot(best_bid, best_ask, None, None)
    return QuoteSnapshot(best_bid, best_ask, best_ask - best_bid, (best_ask + best_bid) / 2.0)


class XlmValues(NamedTuple):
    """Round-trip liquidity cost in basis points, split by side."""

    ask: float
    bid: float
    total: float


def xlm(state: BookState) -> XlmValues:
    """Exchange liquidity measure from full-book volume-weighted prices.

    The ask-side cost is 10,000 * (VWAP_ask - mid) / VWAP_ask and the
    bid-side cost 10,000 * (mid - VWAP_bid) / VWAP_bid, where each VWAP is
    total volume over total quantity on that side; the total is their sum.

    Raises :class:`UndefinedLiquidityError` when either side is empty.
    """
    if not state.bids or not state.asks:
        raise UndefinedLiquidityError("liquidity undefined on a one-sided book")
    return XlmValues(
        *xlm_legs(
            state.bids[0].price_level,
            state.asks[0].price_level,
            sum(o.price_level * o.quantity for o in state.asks),
            sum(o.quantity for o in state.asks),
            sum(o.price_level * o.quantity for o in state.bids),
            sum(o.quantity for o in state.bids),
        )
    )


def xlm_legs(best_bid, best_ask, ask_volume, ask_quantity, bid_volume, bid_quantity):
    """(ask, bid, total) XLM in basis points from the quotes and side totals.

    The arithmetic of :func:`xlm`; it applies elementwise to integer arrays
    with the same floating-point results.
    """
    mid = (best_bid + best_ask) / 2.0
    vwap_ask = ask_volume / ask_quantity
    vwap_bid = bid_volume / bid_quantity
    ask_bps = 10_000.0 * (vwap_ask - mid) / vwap_ask
    bid_bps = 10_000.0 * (mid - vwap_bid) / vwap_bid
    return ask_bps, bid_bps, ask_bps + bid_bps


@dataclass(frozen=True)
class TransactionSeries:
    """Flattened transaction observables along one trajectory."""

    prices: np.ndarray
    quantities: np.ndarray
    volumes: np.ndarray
    times: np.ndarray

    @property
    def durations(self) -> np.ndarray:
        """Inter-trade durations; empty with fewer than two transactions."""
        return np.diff(self.times)

    def __len__(self) -> int:
        return len(self.prices)


def transaction_observables(records: Iterable) -> TransactionSeries:
    """Extract price/quantity/volume/time series from recorded events.

    ``records`` is any iterable of objects with a ``transactions`` attribute
    (trajectory records); transactions are taken in execution order.
    """
    prices: list[int] = []
    quantities: list[int] = []
    times: list[float] = []
    for record in records:
        for transaction in record.transactions:
            prices.append(transaction.price_level)
            quantities.append(transaction.quantity)
            times.append(transaction.time)
    prices_arr = np.asarray(prices, dtype=float)
    quantities_arr = np.asarray(quantities, dtype=float)
    return TransactionSeries(
        prices=prices_arr,
        quantities=quantities_arr,
        volumes=prices_arr * quantities_arr,
        times=np.asarray(times, dtype=float),
    )


def returns(records: Iterable, mode: str = "transaction") -> np.ndarray:
    """Log returns along a trajectory.

    ``transaction`` (default): log differences of successive transaction
    prices. ``mid``: log differences of the mid price sampled after each
    event, skipping one-sided books; every engine record carries the quotes
    after its event. Fewer than two observations yield an empty series.
    """
    if mode == "transaction":
        series = transaction_observables(records).prices
    elif mode == "mid":
        series = np.asarray([r.quote.mid for r in records if r.quote.mid is not None], dtype=float)
    else:
        raise ValueError(f"unknown returns mode {mode!r}")
    if len(series) < 2:
        return np.empty(0, dtype=float)
    return np.diff(np.log(series))


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimate of a raw moment with its standard error."""

    value: float
    standard_error: float
    count: int


def ensemble_moment(values: Sequence[float], order: int = 1) -> MomentEstimate:
    """Estimate E[O^order] across runs, with the standard error of the mean."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ObservableError("moment of an empty ensemble")
    powered = data**order
    value = float(powered.mean())
    if data.size < 2:
        return MomentEstimate(value, float("nan"), int(data.size))
    se = float(powered.std(ddof=1) / math.sqrt(data.size))
    return MomentEstimate(value, se, int(data.size))


def ensemble_covariance(values_a: Sequence[float], values_b: Sequence[float]) -> float:
    """Sample covariance between two equal-length per-run series."""
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.size != b.size:
        raise ObservableError(f"length mismatch: {a.size} vs {b.size}")
    if a.size == 0:
        raise ObservableError("covariance of empty series")
    if a.size == 1:
        return 0.0
    return float(np.cov(a, b, ddof=1)[0, 1])


@dataclass(frozen=True)
class RunSummary:
    """Per-run aggregates of the key observables.

    Snapshot observables are event-sampled: each is averaged over the states
    observed after every event, restricted to events where the observable is
    defined. ``quote_coverage`` reports the defined fraction. Fields are NaN
    when never defined during the run.
    """

    events: int
    elapsed_time: float
    transaction_count: int
    transaction_rate: float
    mean_spread: float
    std_spread: float
    mean_mid: float
    std_mid: float
    mean_best_bid: float
    mean_best_ask: float
    mean_transaction_price: float
    std_transaction_price: float
    mean_return: float
    return_volatility: float
    mean_xlm_ask: float
    mean_xlm_bid: float
    mean_xlm: float
    quote_coverage: float


@dataclass(frozen=True)
class SummaryColumns:
    """Per-event samples a :class:`RunSummary` reduces, streamed by the engine.

    ``quoted`` has one int row per event after which both sides were quoted:
    best bid, best ask, then the ask side's level sum and order count and
    the bid side's. On a book of equal-size orders, level sum over count is
    the side's VWAP. ``prices`` lists trade prices in execution order.
    """

    quoted: np.ndarray
    prices: list[int]


def _mean(values) -> float:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()) if arr.size else float("nan")


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std


def summarize_run(result) -> RunSummary:
    """Reduce one simulation result to a :class:`RunSummary`.

    Reduces the ``summary_columns`` the engine streams for every one-seed run.
    XLM per quoted event is ``xlm_legs(*result.summary_columns.quoted.T)``.
    """
    columns = result.summary_columns
    quoted = columns.quoted
    best_bids, best_asks = quoted[:, 0], quoted[:, 1]
    spreads = best_asks - best_bids
    xlm_ask, xlm_bid, xlm_total = xlm_legs(best_bids, best_asks, *quoted[:, 2:].T)
    prices = np.asarray(columns.prices, dtype=float)
    log_returns = np.diff(np.log(prices)) if len(prices) >= 2 else np.empty(0)
    mean_return = float(log_returns.mean()) if log_returns.size else float("nan")
    volatility = float(log_returns.std(ddof=1)) if log_returns.size > 1 else (
        0.0 if log_returns.size == 1 else float("nan")
    )
    mean_spread, std_spread = _mean_std(spreads)
    mean_mid, std_mid = _mean_std((best_asks + best_bids) / 2.0)
    mean_price, std_price = _mean_std(prices)
    rate = len(prices) / result.final_time if result.final_time > 0 else float("nan")
    return RunSummary(
        events=result.event_count,
        elapsed_time=result.final_time,
        transaction_count=len(prices),
        transaction_rate=rate,
        mean_spread=mean_spread,
        std_spread=std_spread,
        mean_mid=mean_mid,
        std_mid=std_mid,
        mean_best_bid=_mean(best_bids),
        mean_best_ask=_mean(best_asks),
        mean_transaction_price=mean_price,
        std_transaction_price=std_price,
        mean_return=mean_return,
        return_volatility=volatility,
        mean_xlm_ask=_mean(xlm_ask),
        mean_xlm_bid=_mean(xlm_bid),
        mean_xlm=_mean(xlm_total),
        quote_coverage=(len(spreads) / result.event_count) if result.event_count else float("nan"),
    )
