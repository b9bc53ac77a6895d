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
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .book import BookState, Order, Side, StateCaps, Transaction, empty_book, validate_book
from .observables import DepthProfile, QuoteSnapshot, SummaryColumns, XlmValues, depth, xlm_legs
from .observables import quote_snapshot, quotes, xlm  # noqa: F401  (bench/spans.py wraps both)
from .rates import AnchoringMode, EventDescriptor, EventKind, RateModel, apply_event, event_table


class EngineError(Exception):
    """Base class for simulation driver errors."""


@dataclass(frozen=True)
class RecordingConfig:
    """What a simulation keeps as it runs.

    ``events`` retains one record per step; ``quotes``/``liquidity`` attach
    per-step snapshots to those records. ``summary`` streams the columns
    :func:`~lobsim.observables.summarize_run` reduces, without records.
    ``depth_window`` keeps depth profiles for the final N steps
    (heatmap-style output). Book states are snapshotted at each time in
    ``checkpoint_times``; a checkpoint past the simulated horizon is simply
    absent from the result.
    """

    events: bool = True
    quotes: bool = False
    liquidity: bool = False
    summary: bool = False
    depth_window: int = 0
    checkpoint_times: tuple[float, ...] = ()
    collect_inter_event_times: bool = False


@dataclass
class TrajectoryRecord:
    """One applied event with its time, trades, and optional snapshots."""

    time: float
    event: EventDescriptor
    transactions: tuple[Transaction, ...]
    quote: Optional[QuoteSnapshot] = None
    liquidity: Optional[XlmValues] = None


@dataclass
class DepthFrame:
    """Depth snapshot for one step in the trailing heatmap window."""

    event_index: int
    profile: DepthProfile
    transacted: bool


@dataclass
class SimulationResult:
    """A finished run: records per recording config, plus final state/time."""

    records: list[TrajectoryRecord]
    final_state: BookState
    final_time: float
    event_count: int
    checkpoints: dict[float, BookState]
    depth_frames: list[DepthFrame]
    inter_event_times: Optional[np.ndarray]
    summary_columns: Optional[SummaryColumns] = None


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


def simulate(
    model: RateModel,
    initial: Optional[BookState] = None,
    *,
    event_count: Optional[int] = None,
    time_horizon: Optional[float] = None,
    seed: int,
    recording: RecordingConfig = RecordingConfig(),
    caps: Optional[StateCaps] = None,
    debug_invariants: bool = False,
    _tables: Optional[dict] = None,
) -> SimulationResult:
    """Run one trajectory until the stop criterion.

    Exactly reproducible: the same (model, initial, stop, seed, recording,
    caps) produce the same trajectory bit for bit. Stops after
    ``event_count`` events or when the next event would pass
    ``time_horizon``, whichever comes first; at least one must be given.
    ``initial`` must be a uniform book on the model's grid, as the engine
    builds them (every order of size ``unit_quantity``, id equal to seq),
    else :class:`EngineError`. ``_tables`` caches tables across runs of one
    model and caps.
    """
    if event_count is None and time_horizon is None:
        raise EngineError("need event_count and/or time_horizon")
    if event_count is not None and event_count < 0:
        raise EngineError("event_count must be nonnegative")
    if time_horizon is not None and time_horizon < 0:
        raise EngineError("time_horizon must be nonnegative")
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
    best = [min(sides[0], default=0), min(sides[1], default=k + 1)]
    orders, level_sums = [len(x) for x in sides], [abs(sum(x)) for x in sides]
    next_seq, last_trade = initial_state.next_seq, initial_state.last_transaction

    def book_state() -> BookState:
        asks = [Order(Side.ASK, s, q, seq, seq) for seq, s in zip(seqs, levels) if s > 0]
        bids = [Order(Side.BID, -s, q, seq, seq) for seq, s in zip(seqs, levels) if s < 0]
        # Stable sorts keep submission order within a level.
        asks.sort(key=lambda o: o.price_level)
        bids.sort(key=lambda o: -o.price_level)
        return BookState(k, tuple(bids), tuple(asks), last_trade, next_seq)

    # A cached table is (cumulative raw rates, blueprints, arrival count); a
    # blueprint is an arrival's descriptor or slot i, cancelling resident i.
    # Arrivals depend on the best quotes under opposite-best anchoring or caps
    # and also on the order count under caps; cancellations follow, one per
    # resident (none at rate 0), so the table for n orders prefixes larger ones.
    cancels = model.per_order_cancel_rate > 0.0
    by_quotes = caps is not None or model.anchoring_mode is AnchoringMode.OPPOSITE_BEST
    tables = _tables if _tables is not None else {}
    rng = np.random.default_rng(seed)

    records: list[TrajectoryRecord] = []
    checkpoints: dict[float, BookState] = {}
    pending_checkpoints, cp_index = sorted(recording.checkpoint_times), 0
    window: deque = deque(maxlen=recording.depth_window or None)
    # Without a horizon the run's length is known: take frames for the window only.
    first_frame = event_count - recording.depth_window if time_horizon is None else 0
    dts: list[float] = []
    quoted_rows: list[tuple[int, ...]] = []
    prices: list[int] = []

    draws: list[float] = []  # uniforms, drawn in growing blocks of pairs
    i_draw, block = 0, 16
    now, events = 0.0, 0
    while event_count is None or events < event_count:
        count = orders[0] + orders[1]
        slots = count if cancels else 0
        key = (best[0], best[1], count if caps is not None else 0) if by_quotes else ()
        table = tables.get(key)
        if table is None or table[2] + slots > len(table[0]):
            entries = event_table(model, book_state(), caps=caps).entries
            arrivals = [d for d, _ in entries if d.kind is not EventKind.CANCELLATION]
            cum = np.cumsum([rate for _, rate in entries]).tolist()
            table = tables[key] = cum, arrivals + list(range(slots)), len(arrivals)
        if i_draw == len(draws):
            # Blocks of rng.random(n) yield exactly the stream of n scalar draws.
            pairs = block if event_count is None else min(block, event_count - events)
            draws, i_draw, block = rng.random(2 * pairs).tolist(), 0, min(2 * block, 4096)
        u_time, u_event = draws[i_draw], draws[i_draw + 1]
        i_draw += 2
        delta_t = -math.log1p(-u_time) / model.event_intensity
        t_next = now + delta_t
        if time_horizon is not None and t_next > time_horizon:
            now = time_horizon
            break
        while cp_index < len(pending_checkpoints) and pending_checkpoints[cp_index] < t_next:
            checkpoints[pending_checkpoints[cp_index]] = book_state()
            cp_index += 1
        now = t_next
        events += 1

        cum, blueprints, n_arrivals = table
        hi = n_arrivals + slots
        blueprint = blueprints[min(bisect_right(cum, u_event * cum[hi - 1], 0, hi), hi - 1)]
        trade = None
        # One order enters (delta +1) or leaves (-1) signed level s.
        if blueprint.__class__ is int:
            s, seq, delta = levels.pop(blueprint), seqs.pop(blueprint), -1
            event = EventDescriptor(EventKind.CANCELLATION, abs(s), q, target_order_id=seq)
        else:
            event = blueprint
            s = event.price_level if event.kind is EventKind.ARRIVAL_ASK else -event.price_level
            opposite = best[s < 0]
            if opposite + s <= 0:
                # Crosses: fills the oldest order at the best opposite level.
                i = levels.index(opposite)
                del levels[i], seqs[i]
                side = Side.ASK if s > 0 else Side.BID
                trade = last_trade = Transaction(abs(opposite), q, now, side)
                s, delta = opposite, -1
            else:
                seqs.append(next_seq)
                levels.append(s)
                delta = 1
            next_seq += 1
        at_level[s] += delta
        x = s > 0
        orders[x] += delta
        level_sums[x] += delta * abs(s)
        if delta > 0 and s < best[x]:
            best[x] = s
        elif delta < 0 and s == best[x] and not at_level[s]:
            end = k + 1 if x else 0
            while s != end and not at_level[s]:
                s += 1
            best[x] = s

        bid, ask = -best[0], best[1]  # 0 / k + 1 when the side is empty
        quoted = bid != 0 and ask <= k
        if debug_invariants:
            validate_book(book_state())
        if recording.collect_inter_event_times:
            dts.append(delta_t)
        if recording.summary:
            if trade is not None:
                prices.append(trade.price_level)
            if quoted:
                quoted_rows.append((bid, ask, level_sums[1], orders[1], level_sums[0], orders[0]))
        if recording.events:
            quote = liquidity = None
            if recording.quotes:
                quote = quote_snapshot(bid or None, ask if ask <= k else None)
            if recording.liquidity and quoted:
                sums = (level_sums[1], orders[1], level_sums[0], orders[0])
                liquidity = XlmValues(*xlm_legs(bid, ask, *sums))
            trades = (trade,) if trade else ()
            records.append(TrajectoryRecord(now, event, trades, quote, liquidity))
        if recording.depth_window and events > first_frame:
            window.append(DepthFrame(events, depth(book_state()), trade is not None))

    final_state = book_state()
    checkpoints.update((t, final_state) for t in pending_checkpoints[cp_index:] if t <= now)
    quoted_array = np.array(quoted_rows, dtype=np.int64).reshape(-1, 6)

    return SimulationResult(
        records=records,
        final_state=final_state,
        final_time=now,
        event_count=events,
        checkpoints=checkpoints,
        depth_frames=list(window),
        inter_event_times=np.asarray(dts) if recording.collect_inter_event_times else None,
        summary_columns=SummaryColumns(quoted_array, prices) if recording.summary else None,
    )


def derive_run_seeds(base_seed: int, runs: int) -> list[int]:
    """Deterministic, independent per-run seeds from one base seed."""
    words = np.random.SeedSequence(base_seed).generate_state(runs, dtype=np.uint64)
    return [int(w) for w in words]


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
    ensembles do not hold every trajectory in memory.
    """
    if runs < 1:
        raise EngineError("runs must be >= 1")
    seeds = derive_run_seeds(base_seed, runs)
    tables: dict = {}
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
            _tables=tables,
        )
        out.append(reduce(result) if reduce is not None else result)
    return out
