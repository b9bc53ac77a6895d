"""Exact stochastic simulation of the order book's continuous-time dynamics.

Each step draws an exponential waiting time at the state's normalized total
event rate and then selects one event with probability proportional to its
rate. Trajectories are fully determined by the seed: every step consumes exactly
two uniform draws, time first, then event selection against the cumulative
rate table in its fixed order (ask arrivals by level, bid arrivals by level,
cancellations by submission seq).

Every order the engine creates has size ``unit_quantity``, so a match fills
its resident completely: the book is the depth-vector chain of Cont, Stoikov
& Talreja (Oper. Res. 58(3), 2010). :func:`simulate` runs on per-level counts
and builds a :class:`BookState` only where it returns one; :func:`step` is
the single-event reference on a :class:`BookState`, through the book core.

Tables are cached in :func:`_cache`'s dict for the (model, caps) value, by
the key their arrivals depend on. Without caps that is ``()`` under static
anchoring and the best quotes under opposite-best anchoring; under caps, the
best quotes and the order count. Each table is built once per key by
:func:`_table`, and holds only numbers: cumulative rates and the arrivals'
signed levels (+ asks, - bids), so the loop applies an arrival, and a record
builds its descriptor, by level alone. One flat-rate cancellation slot per
resident follows the arrivals, appended in
place as an uncapped book grows, so the table for n residents is a prefix of
the table for n + 1. The event that changes a run's key (a quote move under
opposite-best anchoring, any event under caps) takes the new key's table
from the cache; only a run's first event, a key not built yet, and the
checkpoint and horizon bounds take the rare path that calls :func:`_table`.
A table joins the signed levels and rates of two
:func:`~lobsim.rates.side_arrivals` rows, one per side at the other side's
best level (under static anchoring, at none), which ``rates`` builds once
per model: at most 2(K + 1) rows, and no book. One running sum of Python
floats over the joined rates, left to right as ``np.cumsum`` adds, gives
``event_table``'s floats; a sum per side, offset, would not. Under caps a
key (bid, ask, n) keeps no arrival above ``max_quantity``, else those after
which the book holds at most ``max_orders``: every order has size
``unit_quantity``, so one that rests leaves n + 1 orders and one that
crosses (filling a resident whole) n - 1.
That is ``event_table``'s cap rule on any book with the key's quotes and count.

The loop builds per-event objects only where a recording reads them: an
event's :class:`EventDescriptor` only under ``events``, and a trade's
:class:`Transaction` only for a record or a book state (a checkpoint or the
final state); until then the last trade is a plain (price, time, aggressor).
Each block of draws gets its clock at once, in C, and keeps no waiting time:
a run's clock is its records' times and its ``final_time``. Per event the
loop logs one int, the move's signed level and kind, and per quote move
(event, best): numpy rebuilds summary columns and depth counts from them.

Given a sequence of seeds, :func:`simulate` steps exactly those capped,
horizon-stopped runs in lockstep on numpy arrays and returns their books as
an :class:`EnsembleResult`. The runs take turns in :func:`lockstep_width`
slots: a slot whose run stops takes the next seed, in seed order, so memory
is bounded by the slots, not the runs. The seeds are checked and converted
to one uint64 array once. Each run keeps its scalar stream (:class:`_Streams`
replicates ``default_rng(seed)``'s uniforms on numpy arrays, checked bit for
bit in ``tests/test_engine.py``), draws a pair per
step and selects from the same cumulative-rate floats. Its times, from
``np.log1p``, feed nothing but comparisons with the checkpoint times and the
horizon; a run within :func:`_clock_slack` of a bound takes the scalar
loop's exact time, so every book equals the one-seed call's.

The batched form walks the jump chain over interned books. A live run is
the id of its book, its residents' signed levels in submission order, in
a :class:`_Books` set kept in the table cache, so every call on one
(model, caps) shares the set. The set also holds the tables its books use,
each built once by :func:`_table`; a book keeps its row, its table's id and a
next-book row that is filled the first time a run takes each table
entry. A step selects every run's entry, reads the next books, and
computes only the (book, entry) pairs no run took before, in one
vectorized update that reads each pair's move from the table and whose
rows are interned in one batch. A checkpoint copies the book's row, as a
restart renumbers the books, and the copied rows are what the result holds.
When a step's new books would pass :data:`_BOOK_CAP`, the set restarts from
the empty book and the books the live runs hold; it may then double before
the next restart. README.md gives what a book and a slot cost, and where the
set gains (runs that revisit a few hundred books) and loses (most pairs new).

A seed is an integer in [0, 2**64), the range of the uint64 array
:func:`derive_run_seeds` returns; both forms of :func:`simulate` raise
:class:`EngineError` otherwise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate, compress, count, filterfalse, islice, repeat
from math import log1p
from operator import neg, truediv
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .book import BookState, Order, Side, StateCaps, Transaction, empty_book, is_integer, is_real
from .observables import QuoteSnapshot, SummaryColumns, quote_snapshot
from .observables import depth, quotes, xlm  # noqa: F401  (unused; bench/spans.py wraps them here)
from .rates import AbsorbingStateError, AnchoringMode, EventDescriptor, EventKind, RateModel
from .rates import apply_event, event_table, side_arrivals  # bench/spans.py wraps event_table here


class EngineError(Exception):
    """Base class for simulation driver errors."""


@dataclass(frozen=True)
class RecordingConfig:
    """What a simulation keeps as it runs.

    ``events`` retains one record per step, each with the best quotes after
    it. ``depth_window`` keeps per-level counts after each of the
    final N steps (heatmap-style output), as :class:`DepthFrames`. Book states
    are snapshotted at each time in ``checkpoint_times``, any iterable of real
    numbers; a checkpoint past the simulated horizon, or at NaN, is absent
    from the result.
    """

    events: bool = True
    depth_window: int = 0
    checkpoint_times: tuple[float, ...] = ()


@dataclass
class TrajectoryRecord:
    """One applied event with its time, trades, and the quotes after it."""

    time: float
    event: EventDescriptor
    transactions: tuple[Transaction, ...]
    quote: QuoteSnapshot


@dataclass
class DepthFrames:
    """A run's last ``depth_window`` events: row i of ``counts`` holds the orders per signed
    level -K..K (bids at -1..-K, asks at 1..K) after event ``first + i``, ``fills[i]`` whether
    it traded. Every order has the model's ``unit_quantity``, so a count times it is a level's
    quantity."""

    first: int
    counts: np.ndarray
    fills: np.ndarray

    def __len__(self) -> int:
        return len(self.fills)

    def __eq__(self, other) -> bool:
        if type(other) is not DepthFrames:
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(vars(self).values(), vars(other).values()))


@dataclass
class SimulationResult:
    """A finished run: records per recording config, plus final state/time, and the
    columns :func:`~lobsim.observables.summarize_run` reduces, which every run streams.
    ``final_time`` is a float: the horizon for a run it stopped, else its last event's time."""

    records: list[TrajectoryRecord]
    final_state: BookState
    final_time: float
    event_count: int
    checkpoints: dict[float, BookState]
    depth_frames: Union[DepthFrames, tuple]  # () without a depth window
    summary_columns: SummaryColumns


@dataclass
class EnsembleResult:
    """Runs stepped in lockstep by :func:`simulate`, in seed order; every run ends at
    the horizon, so no final time is kept.

    A book array holds the kernel's rows, shape (runs, max_orders + 1): each
    run's residents' signed levels (+ asks, - bids) in submission order, 0-padded,
    int8 up to K = 127. ``checkpoints`` maps each checkpoint time within the
    horizon to one (a checkpoint at the horizon shares ``final_books``);
    ``depth_frames`` is always empty, as no frames are kept.
    """

    event_count: int
    event_counts: np.ndarray
    final_books: np.ndarray
    checkpoints: dict[float, np.ndarray]
    depth_frames: tuple = ()


@dataclass(frozen=True)
class StepResult:
    delta_t: float
    event: EventDescriptor
    state: BookState
    transactions: tuple[Transaction, ...]


def step(
    state: BookState,
    model: RateModel,
    rng: np.random.Generator,
    now: float,
    caps: Optional[StateCaps] = None,
) -> StepResult:
    """Advance the book by one event.

    Draws the waiting time from Exp(event intensity) — the per-state
    normalization pins the total rate there — then selects the event with
    probability proportional to its rate and applies it. Raises
    :class:`AbsorbingStateError` when the state admits no transition.
    """
    entries = event_table(model, state, caps=caps).entries
    u_time = rng.random()
    delta_t = -math.log1p(-u_time) / model.event_intensity
    cum = np.cumsum([rate for _, rate in entries]).tolist()
    event = entries[min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)][0]
    new_state, transactions = apply_event(state, event, now + delta_t)
    return StepResult(delta_t, event, new_state, tuple(transactions))


def _book_state(
    k: int,
    q: int,
    seqs: list,
    levels: list,
    last_trade: Optional[Transaction],
    next_seq: int,
    known: dict[int, Order],
) -> tuple[BookState, dict[int, Order]]:
    """The book of residents given by seq and signed level, in submission order, and its
    orders by seq. A resident in ``known`` (the last book's orders) keeps its ``Order``."""
    orders = {
        seq: known.get(seq) or Order(Side.ASK if s > 0 else Side.BID, abs(s), q, seq, seq)
        for seq, s in zip(seqs, levels)
    }
    asks = [o for o, s in zip(orders.values(), levels) if s > 0]
    bids = [o for o, s in zip(orders.values(), levels) if s < 0]
    # Stable sorts keep submission order within a level.
    asks.sort(key=lambda o: o.price_level)
    bids.sort(key=lambda o: -o.price_level)
    return BookState(k, tuple(bids), tuple(asks), last_trade, next_seq), orders


@lru_cache(maxsize=8)
def _cache(model: RateModel, caps: Optional[StateCaps]) -> dict:
    """The one table cache of (``model``, ``caps``), keyed by their values: :func:`_table`'s
    entries by key and the batched form's :class:`_Books` set under its class. It holds the
    8 pairs used last; a process's calls share it, so no two threads may run one pair batched."""
    return {}


def _table(
    tables: dict, key: tuple, model: RateModel, caps: Optional[StateCaps], slots: int
) -> tuple[list[float], list[int]]:
    """``key``'s entry (cumulative raw rates, Python floats summed as ``np.cumsum`` sums,
    and the arrivals' signed levels), built once from the side rows of its quotes, under caps
    keeping the arrivals the count rule admits; slots are appended in place until ``slots`` fit."""
    entry = tables.get(key)
    if entry is None:
        k = model.grid_size
        bid, ask = (-key[0] or None, key[1] if key[1] <= k else None) if key else (None, None)
        asks, bids = side_arrivals(model, Side.ASK, bid), side_arrivals(model, Side.BID, ask)
        levels, rates = [*asks.levels, *bids.levels], [*asks.rates, *bids.rates]
        if caps is not None:
            # An arrival rests (n + 1 orders) unless it crosses the opposite best (n - 1).
            n, most = key[2], math.inf if caps.max_orders is None else caps.max_orders
            fits = caps.max_quantity is None or model.unit_quantity <= caps.max_quantity
            keep = [fits and n + (1 if key[s < 0] + s > 0 else -1) <= most for s in levels]
            levels, rates = list(compress(levels, keep)), list(compress(rates, keep))
        rates = rates + [model.per_order_cancel_rate] * slots
        if not rates:
            raise AbsorbingStateError("state has no outgoing transitions")
        entry = tables[key] = list(accumulate(rates)), levels
    cum, levels = entry
    while len(cum) < len(levels) + slots:
        cum.append(cum[-1] + model.per_order_cancel_rate)
    return entry


def simulate(
    model: RateModel,
    initial: Optional[BookState] = None,
    *,
    event_count: Optional[int] = None,
    time_horizon: Optional[float] = None,
    seed: Union[int, Sequence[int]],
    recording: RecordingConfig = RecordingConfig(),
    caps: Optional[StateCaps] = None,
) -> Union[SimulationResult, EnsembleResult]:
    """Run one trajectory until the stop criterion, or one per seed in lockstep.

    Exactly reproducible: the same (model, initial, stop, seed, recording,
    caps) produce the same trajectory bit for bit. Stops after
    ``event_count`` events or when the next event would pass ``time_horizon``
    (>= 0, finite without ``event_count``), whichever comes first; at least one
    must be given. ``initial`` must be a uniform book on the model's grid, as
    the engine builds them (every order of size ``unit_quantity``, id equal to
    seq). :class:`EngineError` otherwise. Tables come from :func:`_cache`. A
    one-seed run always streams its ``summary_columns``; to check a book's
    invariants, take it at a checkpoint and pass it to
    :func:`~lobsim.book.validate_book`.

    A seed is an integer in [0, 2**64), ``recording.depth_window`` one >= 0,
    ``recording.checkpoint_times`` an iterable of real numbers (not bools), and
    ``caps``' ``max_orders`` and ``max_quantity`` None or ones >= 0 and >= 1, else
    :class:`EngineError`. Numpy scalars are taken as the Python numbers they equal, so
    the result's counts and times are Python ints and floats.

    Given a sequence of seeds, steps them in lockstep on numpy arrays, a
    :func:`lockstep_width` of them at a time, and returns an
    :class:`EnsembleResult` whose rows list the residents of each seed's
    one-seed call in ``orders_by_seq()`` order. That form supports
    only what oracle validation needs: an empty initial book, a
    ``time_horizon`` stop without ``event_count``, ``caps`` with
    ``max_orders`` where (grid_size + 1)**2 * (max_orders + 1) <= 2**24 (the
    book set keeps a table id per quotes and order count), and
    ``RecordingConfig(events=False, checkpoint_times=...)``; any other argument
    raises :class:`EngineError`, before anything is allocated.
    """
    _check_stop(event_count, time_horizon)
    horizon = math.inf if time_horizon is None else float(time_horizon)  # a numpy float too
    _check_integer("depth_window", recording.depth_window, 0)
    given = recording.checkpoint_times
    times = tuple(given) if isinstance(given, Iterable) else (None,)  # an iterator read once
    if not all(map(is_real, times)):
        raise EngineError(f"checkpoint_times must be an iterable of real numbers, got {given!r}")
    recording = replace(recording, checkpoint_times=times)
    for name, least in (("max_orders", 0), ("max_quantity", 1)):
        if getattr(caps, name, None) is not None:
            _check_integer(name, getattr(caps, name), least)
            caps = replace(caps, **{name: int(getattr(caps, name))})  # a numpy int as an int
    # A str or bytes is one seed, and so is a 0-d array: the scalar check rejects them.
    batched = isinstance(seed, (Sequence, np.ndarray)) and getattr(seed, "ndim", 1) != 0
    if batched and not isinstance(seed, (str, bytes, bytearray)):
        return _simulate_lockstep(model, initial, event_count, horizon, seed, recording, caps)
    _check_seed(seed)
    tables = _cache(model, caps)
    initial_state = initial if initial is not None else empty_book(model.grid_size)
    k, q = model.grid_size, model.unit_quantity
    residents = initial_state.orders_by_seq()
    if initial_state.grid_size != k or any(o.quantity != q or o.id != o.seq for o in residents):
        raise EngineError(f"initial book must be on grid {k} with orders of size {q}, ids = seqs")

    # The book: levels are signed, +level for asks and -level for bids, so
    # "better" is "smaller" on both sides; side index 0 is bids, 1 asks.
    # at_level[s] counts orders at signed level s (bids by negative indexing);
    # best[x] is side x's best signed level, or 0 / k + 1 when it is empty.
    # Resident i of seqs/levels, in submission order, is cancellation slot i.
    seqs = [o.seq for o in residents]
    levels = [o.price_level if o.side is Side.ASK else -o.price_level for o in residents]
    at_level = [0] * (2 * k + 2)
    for s in levels:
        at_level[s] += 1
    sides = [s for s in levels if s < 0], [s for s in levels if s > 0]
    best, ends = [min(sides[0], default=0), min(sides[1], default=k + 1)], (0, k + 1)
    # The last trade is a Transaction, or (price, time, aggressor) until a book needs it.
    next_seq, last_trade = initial_state.next_seq, initial_state.last_transaction
    aggressor, arrival = (Side.BID, Side.ASK), (EventKind.ARRIVAL_BID, EventKind.ARRIVAL_ASK)
    # Under ``events``, the records share one arrival descriptor per signed level.
    signed = range(-k, k + 1) if recording.events else ()
    arrivals = {s: EventDescriptor(arrival[s > 0], abs(s), q) for s in signed if s}

    def last_transaction() -> Optional[Transaction]:
        nonlocal last_trade
        if type(last_trade) is tuple:
            price, time, side = last_trade
            last_trade = Transaction(price, q, time, side)
        return last_trade

    # The orders of the last book state by seq, rebuilt with each one, so it holds no
    # order that has left; a resident's Order is built once.
    orders: dict[int, Order] = {}

    def book_state() -> BookState:
        nonlocal orders
        state, orders = _book_state(k, q, seqs, levels, last_transaction(), next_seq, orders)
        return state

    cancel_rate, capped = model.per_order_cancel_rate, caps is not None
    slot = 1 if cancel_rate > 0.0 else 0  # no cancellation slots at rate 0
    by_quotes = capped or model.anchoring_mode is AnchoringMode.OPPOSITE_BEST
    rng = np.random.default_rng(seed)
    intensity = model.event_intensity
    limit = math.inf if event_count is None else event_count
    stale = bound = -math.inf

    recorded, rekey = recording.events, capped
    records: list[TrajectoryRecord] = []
    checkpoints: dict[float, BookState] = {}
    pending, cp_index = [*sorted(t for t in times if t <= math.inf), math.inf], 0  # drops NaN
    # One code per event, 4 (s + k) + kind for the signed level s an order enters
    # (kind 2) or leaves by a cancellation (0) or a fill (1); per side, from event
    # 1 on, event and best for the quote and each move of it.
    moves: list[int] = []
    move = moves.append
    quote_log = [1, best[0]], [1, best[1]]
    cancelled, filled, rested = 4 * k, 4 * k + 1, 4 * k + 2

    block, now, events = 16, 0.0, 0
    while events < limit:
        # Blocks of rng.random(n) yield exactly the stream of n scalar draws.
        pairs = min(block, limit - events)
        draws, block = rng.random(2 * pairs).tolist(), min(2 * block, 4096)
        waits = _waiting_times(islice(draws, 0, None, 2), intensity)
        times = islice(accumulate(waits, initial=now), 1, None)
        for events, t_next, u_event in zip(count(events + 1), times, islice(draws, 1, None, 2)):
            if t_next > bound:
                key = (best[0], best[1], len(levels) if capped else 0) if by_quotes else ()
                cum, arrival_levels = _table(tables, key, model, caps, len(levels) * slot)
                n_arrivals, hi = len(arrival_levels), len(arrival_levels) + len(levels) * slot
                if t_next > horizon:
                    break
                while pending[cp_index] < t_next:
                    checkpoints[pending[cp_index]] = book_state()
                    cp_index += 1
                bound = min(horizon, pending[cp_index])

            # i >= 0 is cancellation slot i; i < 0 is arrival i, counted from the end.
            i = bisect_right(cum, u_event * cum[hi - 1], 0, hi)
            i = (i if i < hi else hi - 1) - n_arrivals
            if i >= 0:
                s, seq = levels.pop(i), seqs.pop(i)
                at_level[s] -= 1
                hi -= 1
                move(4 * s + cancelled)
            else:
                a = s = arrival_levels[i]
                opposite = best[s < 0]
                if opposite + s <= 0:
                    # Crosses: fills the oldest order at the best opposite level.
                    j = levels.index(opposite)
                    del levels[j], seqs[j]
                    last_trade = (abs(opposite), t_next, aggressor[s > 0])
                    s = opposite
                    at_level[s] -= 1
                    hi -= slot
                    move(4 * s + filled)
                else:
                    seqs.append(next_seq)
                    levels.append(s)
                    at_level[s] += 1
                    hi += slot
                    if hi > len(cum) and not capped:  # a capped key keeps its n slots
                        cum.append(cum[-1] + cancel_rate)
                    move(4 * s + rested)
                next_seq += 1
            x = s > 0
            if s < best[x] or s == best[x] and not at_level[s]:
                b = s
                while not at_level[b] and b != ends[x]:
                    b += 1
                best[x] = b
                quote_log[x].extend((events, b))
                rekey = by_quotes
            if rekey:  # the key changed: switch tables as the module docstring describes
                rekey = capped
                if entry := tables.get((best[0], best[1], len(levels) if capped else 0)):
                    cum, arrival_levels = entry
                    n_arrivals, hi = len(arrival_levels), len(arrival_levels) + len(levels) * slot
                    while len(cum) < hi:  # grown as _table grows it
                        cum.append(cum[-1] + cancel_rate)
                else:
                    bound = stale

            if recorded:
                event = arrivals[a] if i < 0 else EventDescriptor(
                    EventKind.CANCELLATION, abs(s), q, target_order_id=seq
                )
                trade = (last_transaction(),) if moves[-1] & 3 == 1 else ()
                quote = quote_snapshot(-best[0] or None, best[1] if best[1] <= k else None)
                records.append(TrajectoryRecord(t_next, event, trade, quote))
        else:
            now = t_next
            continue
        now, events = horizon, events - 1
        break

    final_state = book_state()
    checkpoints.update((t, final_state) for t in pending[cp_index:] if t <= now)
    codes, window = np.fromiter(moves, np.int32, len(moves)), recording.depth_window

    return SimulationResult(
        records=records,
        final_state=final_state,
        final_time=now,
        event_count=events,
        checkpoints=checkpoints,
        depth_frames=_depth_frames(k, codes, at_level, window) if window else (),
        summary_columns=_summary_columns(k, codes, quote_log, sides),
    )


def _summary_columns(k: int, codes: np.ndarray, quote_log: tuple, sides) -> SummaryColumns:
    """A run's summary columns from its int32 moves and its initial sides' signed levels:
    per-side counts and level sums are cumulative sums, and a quote holds from its move to
    the next."""
    s, step = (codes >> 2) - k, (codes & 2) - 1
    # Each side's best signed level after every event (0 / k + 1 when it is empty).
    bid, ask = (
        np.repeat(m[1::2], np.diff(m[::2], append=len(codes) + 1))
        for m in (np.array(m, dtype=np.int32) for m in quote_log)
    )
    rows = (bid != 0) & (ask <= k)
    quoted = np.empty((np.count_nonzero(rows), 6), dtype=np.int64)
    quoted[:, 0], quoted[:, 1] = -bid[rows], ask[rows]
    del bid, ask  # freed before the sums, which peak the transient memory
    # Columns 2-3 are the ask side's level sum and count, 4-5 the bid side's (sum negated).
    for side, column, sign in ((sides[1], 2, 1), (sides[0], 4, -1)):
        moved = step * (s > 0 if sign > 0 else s < 0)
        quoted[:, column] = np.cumsum(moved * s * sign)[rows] + sign * sum(side)
        quoted[:, column + 1] = np.cumsum(moved)[rows] + len(side)
    return SummaryColumns(quoted, np.abs(s[codes & 3 == 1]).tolist())


def _depth_frames(k: int, codes: np.ndarray, at_level: list, window: int) -> DepthFrames:
    """The :class:`DepthFrames` of a run's last ``window`` events, from its move codes
    and its final per-level counts: the final counts less the later moves."""
    first, codes = max(len(codes) - window, 0), codes[-window:]  # window >= 1
    change = np.zeros((len(codes), 2 * k + 1), dtype=np.int64)
    change[np.arange(len(codes)), codes >> 2] = np.where(codes & 2, 1, -1)
    counts = np.array(at_level[-k:] + at_level[: k + 1]) - change.sum(axis=0)
    return DepthFrames(first + 1, counts + change.cumsum(axis=0), codes & 3 == 1)


def _check_stop(event_count, time_horizon) -> None:
    """:class:`EngineError` unless the stop bounds the run: ``event_count`` None or an
    integer >= 0, not a bool; ``time_horizon`` None or a number >= 0, not NaN, and
    finite unless ``event_count`` is given; at least one of the two."""
    counted = event_count is not None
    if not counted and time_horizon is None:
        raise EngineError("need event_count and/or time_horizon")
    if counted:
        _check_integer("event_count", event_count, 0)
    if time_horizon is not None and not (
        is_real(time_horizon) and time_horizon >= 0 and (counted or time_horizon < math.inf)
    ):
        limit = "a number >= 0, finite without event_count"
        raise EngineError(f"time_horizon must be {limit}, got {time_horizon!r}")


def _check_integer(name: str, value, least: int) -> None:
    """:class:`EngineError` unless ``value`` is an integer >= ``least``, not a bool."""
    if not (is_integer(value) and value >= least):
        raise EngineError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_seed(seed) -> None:
    """:class:`EngineError` unless ``seed`` is an integer in [0, 2**64), not a bool."""
    if not (is_integer(seed) and 0 <= int(seed) < 1 << 64):
        raise EngineError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _check_seeds(seeds) -> np.ndarray:
    """``seeds`` as one uint64 array, checked once: :class:`EngineError` unless every seed is
    an integer in [0, 2**64), not a bool. A 1-D integer array, as :func:`derive_run_seeds`
    returns them, is checked by its dtype (unsigned, or signed with no entry below 0), a bool
    array never; anything else, and any array that fails, seed by seed."""
    if isinstance(seeds, np.ndarray):
        kind = seeds.dtype.kind
        if seeds.ndim == 1 and (kind == "u" or kind == "i" and seeds.min(initial=0) >= 0):
            return seeds.astype(np.uint64, copy=False)
    for seed in seeds:
        _check_seed(seed)
    return np.array([int(seed) for seed in seeds], dtype=np.uint64)


# Table entries the batched kernel gathers per step, 2K + max_orders per slot: 4,096
# slots on the tiny models, 1,129 on grid 10 with 9 orders (README.md: a slot's cost).
LOCKSTEP_CELLS = 1 << 15


def lockstep_width(model: RateModel, caps: StateCaps) -> int:
    """The batched kernel's slot count for capped ``model``: :data:`LOCKSTEP_CELLS` per table."""
    return max(LOCKSTEP_CELLS // (2 * model.grid_size + caps.max_orders), 1)


def _multiplier(*factors: int) -> tuple[np.ndarray, ...]:
    """LCG multipliers mod 2**128 for :func:`_lcg_step`: uint64 high and low halves and the
    low halves' 32-bit limbs, each of shape (len(factors), 1) to broadcast over streams."""
    hi, lo = np.array([divmod(f % 2**128, 2**64) for f in factors], np.uint64).T[..., None]
    return hi, lo, lo & 0xFFFFFFFF, lo >> 32


# PCG64's 128-bit LCG multiplier M. A pair of steps takes s to s * M + inc and
# s * M**2 + inc * (M + 1); one step of multipliers (1, M + 1) gives both increments.
_MUL = 0x2360ED051FC65DA44385DF649FCCF645
_STEP, _PAIR, _INCREMENTS = _multiplier(_MUL), _multiplier(_MUL, _MUL**2), _multiplier(1, _MUL + 1)


def _hashmix(value: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of the uint32 array ``value``, and the next hash constant: xor
    with the old constant, multiply by the new one. uint32 products wrap mod 2**32."""
    const, value = const * 0x931E8875 & 0xFFFFFFFF, value ^ const
    value *= const
    return value ^ value >> 16, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 pool words, wrapping mod 2**32 as uint32 does."""
    value = 0xCA01F9DD * x - 0x4973F715 * y
    return value ^ value >> 16


def _generate_state(pool: np.ndarray, words: int) -> np.ndarray:
    """SeedSequence's ``generate_state(words // 2, uint64)`` from its uint32 ``pool``,
    on the last axis: word i hashes pool word i % 4 with INIT_B * MULT_B**i and
    **(i + 1) mod 2**32, and a uint64 is two words, low first."""
    const = np.full(words + 1, 0x58F38DED, dtype=np.uint32)
    const[0] = 0x8B51F9DD
    np.multiply.accumulate(const, out=const)
    value = np.tile(pool, -(-words // 4))[..., :words] ^ const[:-1]
    value *= const[1:]
    value ^= value >> 16
    return value.astype("<u4", copy=False).view("<u8")


def _lcg_step(hi, lo, inc_hi, inc_lo, multiplier: tuple) -> tuple[np.ndarray, np.ndarray]:
    """state * multiplier + inc mod 2**128 on 64-bit halves, one row per ``_multiplier`` factor.

    uint64 products wrap mod 2**64; the high half of the low halves' product
    is summed from 32-bit limbs, whose products fit in 64 bits (Warren,
    Hacker's Delight, 8-2).
    """
    mul_hi, mul_lo, m0, m1 = multiplier
    lo0, lo1 = lo & 0xFFFFFFFF, lo >> 32
    t = lo1 * m0 + (lo0 * m0 >> 32)
    middle = lo0 * m1 + (t & 0xFFFFFFFF)
    new_lo = lo * mul_lo + inc_lo
    high = lo1 * m1 + (t >> 32) + (middle >> 32)  # of lo * mul_lo
    return high + lo * mul_hi + hi * mul_lo + inc_hi + (new_lo < inc_lo), new_lo


class _Streams:
    """The uniforms ``np.random.default_rng(seed).random()`` yields, for many seeds at once.

    numpy seeds its default generator, PCG64 (O'Neill's XSL-RR 128/64; PCG:
    A family of simple fast space-efficient statistically good algorithms
    for random number generation, HMC-CS-2014-0905), with
    ``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit
    words are hashed into a pool of four and mixed, and the pool is hashed
    out into eight 32-bit words. Each step is a few integer operations, done
    here on arrays with one element per seed, for seeds in [0, 2**64) as
    :func:`_check_seeds` returns them: the hashes on uint32 arrays, whose
    products wrap mod 2**32, and PCG64 on uint64 ones. ``words`` holds a
    column per stream: its state's high and low
    halves, then the high halves of inc and inc * (M + 1) and their low
    halves, so one pass of :func:`_lcg_step` takes two steps.
    ``tests/test_engine.py`` checks the draws bit for bit against numpy, so
    a change to either algorithm in numpy shows there.
    """

    def __init__(self, seeds: Union[np.ndarray, Sequence[int]]):
        words = np.asarray(seeds, dtype=np.uint64)
        zeros = np.zeros(words.shape, np.uint32)
        # A seed below 2**32 is one 32-bit word; its missing high word hashes as 0.
        const, pool = 0x43B0D7E5, []
        for word in (words.astype(np.uint32), (words >> 32).astype(np.uint32), zeros, zeros):
            value, const = _hashmix(word, const)
            pool.append(value)
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    value, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], value)
        # initstate and initseq, each as (high, low) 64-bit words.
        init_hi, init_lo, seq_hi, seq_lo = _generate_state(np.array(pool, np.uint32).T, 8).T
        # PCG64 srandom: inc = initseq << 1 | 1; step from 0 (to inc), add initstate, step.
        inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
        lo = inc_lo + init_lo
        hi = inc_hi + init_hi + (lo < init_lo).astype(np.uint64)
        (hi,), (lo,) = _lcg_step(hi, lo, inc_hi, inc_lo, _STEP)
        self.words = np.vstack([hi, lo, *_lcg_step(inc_hi, inc_lo, 0, 0, _INCREMENTS)])

    def pairs(self) -> np.ndarray:
        """Each stream's next two uniforms, as two ``rng.random()`` calls give them: shape
        (2, streams)."""
        words = self.words
        hi, lo = _lcg_step(words[0], words[1], words[2:4], words[4:], _PAIR)
        words[0], words[1] = hi[1], lo[1]
        # XSL-RR: the halves xor-ed, rotated right by the state's top six bits.
        x, rot = hi ^ lo, hi >> 58
        x = x >> rot | x << (64 - rot & 63)
        # random(): the top 53 bits scaled to [0, 1).
        return (x >> 11).astype(np.float64) * 2.0**-53


# Books a batched cache holds before it first restarts from the books its runs hold.
_BOOK_CAP = 1 << 15
# The most table keys (best bid, best ask, order count) a batched book set addresses:
# its key -> table array has (grid_size + 1)**2 * (max_orders + 1) entries.
_KEY_CELLS = 1 << 24


class _Books:
    """Capped books interned for the batched form, with their tables and next books.

    A book is its residents' signed levels (+ asks, - bids) in submission
    order: a row of ``max_orders + 1`` small ints, padded with 0, so the
    last column is always 0. Book i keeps its row, its table's id and a
    next-book row: entry c is the book that table entry c leads to, -1
    until a run takes it. Book 0 is the empty book. A key's table is built
    once by ``_table`` under the scalar loop's key, as table t =
    ``table_of[code]`` (-1 until then): column t of ``cum``, its cumulative
    raw rates padded with +inf, ``total[t]``, its last rate, and row t of
    ``move``, each entry's signed level or K + 1 + j for cancellation slot
    j. The entry past the table repeats the last, as the count of entries at
    or below u * total reaches it when the product rounds to the total, which
    only a subnormal total allows. When the books a step adds would take the
    set past its limit, it restarts from book 0 and the books the runs hold.
    The limit is :data:`_BOOK_CAP` at first, and after a restart the larger
    of that and twice the set's size.
    """

    def __init__(self, model: RateModel, caps: StateCaps, tables: dict):
        k, m = model.grid_size, caps.max_orders
        self.model, self.caps, self.tables, self.k, self.m = model, caps, tables, k, m
        self.ids: dict[bytes, int] = {}
        self.limit, self.width = _BOOK_CAP, 2 * k + m + 1
        self.table_of = np.full((k + 1) ** 2 * (m + 1), -1)
        self.cum, self.total = np.zeros((self.width - 1, 0)), np.zeros(0)
        self.move = np.zeros((0, self.width), dtype=np.int64)
        self.rows = np.zeros((0, m + 1), dtype=np.min_scalar_type(-k - 1))  # holds -K..K
        self.table = np.zeros(0, dtype=np.int32)
        self.next = np.zeros((0, self.width), dtype=np.int32)
        self.intern(np.zeros((1, m + 1)))  # book 0

    def intern(self, rows: np.ndarray, limit: float = math.inf) -> Optional[np.ndarray]:
        """The ids of ``rows``, adding the books not yet in the set in one batch; None, and
        nothing added, if they would take the set past ``limit`` books."""
        rows = np.ascontiguousarray(rows, dtype=self.rows.dtype)
        keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()
        ids = self.ids
        fresh = list(filterfalse(ids.__contains__, dict.fromkeys(keys)))
        if fresh:
            start = len(ids)
            if start + len(fresh) > limit:
                return None
            self._add(np.frombuffer(b"".join(fresh), rows.dtype).reshape(len(fresh), -1), start)
            ids.update(zip(fresh, range(start, start + len(fresh))))
        return np.fromiter(map(ids.__getitem__, keys), np.int32, len(keys))

    def _add(self, rows: np.ndarray, start: int) -> None:
        # The tables first, keyed by (bid, ask, n) as digits: an absorbing key raises
        # before the set changes. The key holds the order count, so a table has all its slots.
        k = self.k
        bid, ask, n = _quotes(rows.astype(np.int64), k)
        code = (bid * (k + 1) + ask - 1) * (self.m + 1) + n
        missing = np.flatnonzero(self.table_of[code] < 0)
        if missing.size:
            slot = 1 if self.model.per_order_cancel_rate > 0.0 else 0
            new = missing[np.unique(code[missing], return_index=True)[1]]
            cum = np.full((new.size, self.width - 1), np.inf)
            move, total = np.zeros((new.size, self.width), dtype=np.int64), []
            for i, key in enumerate(zip((-bid[new]).tolist(), ask[new].tolist(), n[new].tolist())):
                rates, levels = _table(self.tables, key, self.model, self.caps, key[2] * slot)
                size, slots = len(rates), range(k + 1, k + 1 + key[2] * slot)
                cum[i, :size], move[i, :size] = rates, [*levels, *slots]
                move[i, size:] = move[i, size - 1]
                total.append(rates[-1])
            self.table_of[code[new]] = np.arange(new.size) + len(self.total)
            self.cum = np.concatenate([self.cum, cum.T], axis=1)
            self.total = np.concatenate([self.total, total])
            self.move = np.concatenate([self.move, move])
        end = start + len(rows)
        if end > len(self.table):
            size = max(end, min(1 << (end - 1).bit_length(), self.limit))
            self.rows, self.table, self.next = (
                np.concatenate([a[:start], np.empty((size - start, *a.shape[1:]), a.dtype)])
                for a in (self.rows, self.table, self.next)
            )
        self.rows[start:end], self.next[start:end] = rows, -1
        self.table[start:end] = self.table_of[code]

    def advance(self, book: np.ndarray, choice: np.ndarray) -> np.ndarray:
        """The book each run reaches from ``book`` by table entry ``choice``."""
        # (book, entry) pairs as flat indexes of ``next``, in intp once they can pass int32.
        flat = self.next.ravel()
        at = (book.astype(np.intp) if flat.size >> 31 else book) * self.width + choice
        after = flat.take(at)
        new = np.flatnonzero(after < 0)
        if not new.size:
            return after
        source, entry = np.divmod(np.unique(at[new]), self.width)
        ids = self.intern(self._apply(source, entry), self.limit)
        if ids is None:
            # Restart from the empty book and the books the runs hold; every next-book
            # row is unknown again. The set may then double before the next restart.
            keep, inverse = np.unique(book, return_inverse=True)
            self.ids.clear()
            book = self.intern(np.concatenate([self.rows[:1], self.rows[keep]]))[1:][inverse]
            at = book.astype(np.intp) * self.width + choice
            source, entry = np.divmod(np.unique(at), self.width)
            ids = self.intern(self._apply(source, entry))
            self.limit = max(_BOOK_CAP, 2 * len(self.ids))
        self.next[source, entry] = ids
        return self.next.ravel().take(at)

    def _apply(self, source: np.ndarray, entry: np.ndarray) -> np.ndarray:
        """The rows after table entry ``entry`` of each book in ``source``."""
        k, m = self.k, self.m
        rows = self.rows[source].astype(np.int64)
        s = self.move[self.table[source], entry]
        bid, ask, n = _quotes(rows, k)
        cancel = s > k
        opposite = np.where(s > 0, -bid, ask)
        cross = ~cancel & (opposite + s <= 0)
        rest = ~(cancel | cross)
        # The resident that leaves: slot j, or the oldest at the opposite best.
        j = np.where(cancel, s - k - 1, m)
        j = np.where(cross, (rows == opposite[:, None]).argmax(axis=1), j)
        rows[np.flatnonzero(rest), n[rest]] = s[rest]
        columns = np.arange(m)
        rows[:, :m] = np.take_along_axis(rows, columns + (columns >= j[:, None]), axis=1)
        return rows


def _quotes(rows: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best bid and ask levels (0 / K + 1 when a side is empty) and order counts of
    int64 book rows; the zero padding makes the row minimum at most 0."""
    ask = np.where(rows > 0, rows, k + 1).min(axis=1)
    return -rows.min(axis=1), ask, np.count_nonzero(rows, axis=1)


# np.log1p's relative error against math.log1p on -uniform, generously: 1 ulp was measured.
_LOG1P_ERROR = 2.0**-44


def _clock_slack(steps: int) -> float:
    """A relative bound on the gap between a batched run's clock and the scalar loop's.

    With u = 2**-53 and e = :data:`_LOG1P_ERROR`, the scalar waiting time d = fl(-L / λ),
    L = ``math.log1p(-u_time)``, and the batched one differ by at most (e + 3u)d. A sum
    rounds once, so step i adds at most (e + 3u)d_i + u(t_i+1 + t'_i+1) to the gap. As the
    d_i sum to at most (1 + nu)t_n, after n = ``steps`` steps (nu < 2**-10) the gap is below
    (1.2e + 2.3nu) times either clock; the slack, 4e + 4nu, leaves a margin for rounding."""
    return 4 * _LOG1P_ERROR + steps * 2.0**-51


def _waiting_times(u_times: Iterable[float], intensity: float) -> Iterator[float]:
    """-log1p(-u) / intensity for each uniform u, in C: x / -λ is -x / λ bit for bit."""
    return map(truediv, map(log1p, map(neg, u_times)), repeat(-intensity))


def _scalar_clock(seed: int, steps: int, intensity: float) -> float:
    """The scalar loop's clock after ``steps`` steps of ``seed``, summed in its order."""
    u_times = np.random.default_rng(seed).random(2 * steps)[::2].tolist()
    return list(accumulate(_waiting_times(u_times, intensity), initial=0.0))[-1]


def _simulate_lockstep(
    model: RateModel,
    initial: Optional[BookState],
    event_count: Optional[int],
    time_horizon: float,
    seeds: Sequence[int],
    recording: RecordingConfig,
    caps: Optional[StateCaps],
) -> EnsembleResult:
    """The batched form of :func:`simulate`: every run stepped to the horizon.

    A slot holds a run: its book's id in the :class:`_Books` set kept in
    the table cache, its stream's words, the bounds it passed and its first step,
    from which a replay of its clock counts. Per slot, in the scalar loop's
    order: the waiting time, pending checkpoints before the next event (each
    copies the book's row), the horizon test, then the event, counted in the
    book's table as ``bisect_right`` counts, and the book it leads to (an
    absorbing book raises when it is first reached). A stopped run's slot
    takes the next queued seed until the queue is empty.
    """
    k = model.grid_size
    if initial is not None and (initial.grid_size != k or initial.bids or initial.asks):
        raise EngineError(f"batched runs start from an empty book on grid {k}")
    if event_count is not None:  # without it, _check_stop has required a finite horizon
        raise EngineError("batched runs need a time_horizon and no event_count")
    if recording != RecordingConfig(events=False, checkpoint_times=recording.checkpoint_times):
        raise EngineError("batched runs record checkpoints only: events=False, nothing else")
    if caps is None or caps.max_orders is None:
        raise EngineError("batched runs need caps with max_orders")
    if (k + 1) ** 2 * (caps.max_orders + 1) > _KEY_CELLS:
        raise EngineError(
            f"batched runs need (grid_size + 1)**2 * (max_orders + 1) <= 2**24, got grid"
            f" {k} and max_orders {caps.max_orders}"
        )
    if len(seeds) == 0:
        raise EngineError("need at least one seed")
    seeds = _check_seeds(seeds)
    tables = _cache(model, caps)
    books = tables.get(_Books)
    if books is None:
        books = tables[_Books] = _Books(model, caps, tables)
    runs, intensity = len(seeds), model.event_intensity
    width = min(lockstep_width(model, caps), runs)
    # A checkpoint past the horizon is absent from every run, as in one-seed runs.
    times = sorted({t for t in recording.checkpoint_times if t <= time_horizon})
    # The bounds a run passes in turn, each taking its book row into ``held``: the
    # checkpoint times, then the horizon, which stops it (one bound if a checkpoint is there).
    stops = times if times[-1:] == [time_horizon] else [*times, time_horizon]
    bounds = np.array([*stops, math.inf])
    held = np.zeros((len(stops), runs, caps.max_orders + 1), dtype=books.rows.dtype)
    # Row passed * runs + run of ``flat`` is run's book at the bound it passes.
    flat = held.reshape(-1, caps.max_orders + 1)
    event_counts = np.zeros(runs, dtype=np.int64)
    # Streams are seeded a block of ``width`` seeds at a time, as the queue reaches them.
    blocks = (_Streams(seeds[i : i + width]) for i in range(0, runs, width))
    streams, queued = next(blocks), width
    queue = streams.words[:, :0]
    # Per slot: its run, book, bounds passed, clock and first step.
    run, book, passed = np.arange(width), np.zeros(width, dtype=np.int32), np.zeros(width, np.int64)
    now, admitted = np.zeros(width), np.zeros(width, dtype=np.int64)
    step = 0
    while run.size:
        u_time, u_event = streams.pairs()
        t_next = now - np.log1p(-u_time) / intensity
        # Near a bound it compares with (the next, or any it passes), a run takes the
        # scalar time; no run has taken more than step + 1 steps.
        slack = _clock_slack(step + 1)
        hit = np.flatnonzero(bounds[passed] <= t_next * (1 + slack))
        go, stop = slice(None), hit[:0]
        if hit.size:
            near = np.maximum(np.searchsorted(bounds, t_next[hit] * (1 - slack)), passed[hit])
            for i in hit[bounds[near] <= t_next[hit] * (1 + slack)].tolist():
                steps = step + 1 - int(admitted[i])
                t_next[i] = _scalar_clock(int(seeds[run[i]]), steps, intensity)
            # Each run passes the bounds below its clock, taking its book at each.
            over = hit[bounds[passed[hit]] < t_next[hit]]
            while over.size:
                flat[passed[over] * runs + run[over]] = books.rows.take(book[over], axis=0)
                passed[over] += 1
                over = over[bounds[passed[over]] < t_next[over]]
            stop = hit[passed[hit] >= len(stops)]
            if stop.size:
                event_counts[run[stop]] = step - admitted[stop]
                go = np.flatnonzero(passed < len(stops))
        now = t_next
        step += 1

        # The event stage, for the slots whose run goes on.
        at = book[go]
        table = books.table[at]
        choice = (books.cum.take(table, axis=1) <= u_event[go] * books.total[table]).sum(axis=0)
        book[go] = books.advance(at, choice)
        if stop.size:
            # Stopped slots take the next queued runs; once the queue is empty, they go.
            fill, drop = stop[: runs - queued], stop[runs - queued :]
            if queue.shape[1] < fill.size:
                queue = np.concatenate([queue, next(blocks).words], axis=1)
            streams.words[:, fill], queue = queue[:, : fill.size], queue[:, fill.size :]
            run[fill], queued = np.arange(queued, queued + fill.size), queued + fill.size
            book[fill], passed[fill] = 0, 0
            now[fill], admitted[fill] = 0.0, step
            if drop.size:
                keep = np.flatnonzero(passed < len(stops))
                streams.words = streams.words[:, keep]
                per_slot = run, book, passed, now, admitted
                run, book, passed, now, admitted = (a[keep] for a in per_slot)
    return EnsembleResult(
        event_count=int(event_counts.sum()),
        event_counts=event_counts,
        final_books=held[-1],
        checkpoints=dict(zip(times, held)),
    )


def derive_run_seeds(base_seed: int, runs: int) -> np.ndarray:
    """Deterministic, independent per-run seeds from one base seed: the 1-D uint64 array
    ``SeedSequence(base_seed).generate_state(runs, np.uint64)``, which both forms of
    :func:`simulate` take as it is. :class:`EngineError` unless both are integers >= 0,
    not bools."""
    _check_integer("base_seed", base_seed, 0)
    _check_integer("runs", runs, 0)
    return _generate_state(np.random.SeedSequence(base_seed).pool, 2 * runs)


def run_ensemble(
    model: RateModel,
    runs: int,
    events_per_run: Optional[int] = None,
    base_seed: int = 0,
    *,
    time_horizon: Optional[float] = None,
    initial: Optional[BookState] = None,
    recording: RecordingConfig = RecordingConfig(),
    caps: Optional[StateCaps] = None,
    reduce: Optional[Callable[[SimulationResult], object]] = None,
) -> list:
    """Run independent trajectories with per-run seeds derived from the base.

    Results come back in run order; ``reduce`` maps each finished run to
    whatever should be kept (per-run summaries, final states, ...) so large
    ensembles do not hold every trajectory in memory. ``runs`` is an integer
    >= 1 and ``base_seed`` one >= 0 (:func:`derive_run_seeds` checks it), else
    :class:`EngineError`.
    """
    _check_integer("runs", runs, 1)
    seeds = derive_run_seeds(base_seed, runs)
    out: list = []
    for run_seed in seeds:
        result = simulate(
            model,
            initial,
            event_count=events_per_run,
            time_horizon=time_horizon,
            seed=run_seed,
            recording=recording,
            caps=caps,
        )
        out.append(reduce(result) if reduce is not None else result)
    return out
