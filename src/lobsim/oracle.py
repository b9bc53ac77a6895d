"""Exact forward-equation solver on a truncated book state space.

Enumerates every price-time-normal-form book within the cutoffs as a pair
of per-side placement ids, and assembles the sparse transition-rate
generator from the same side arrival rows (``side_arrivals`` of the best
quotes) and cap rule as the event tables the engine samples from. One
lookup resolves a (bid, ask) pair of placement ids to its state index and
serves canonical keys, order counts (each side written as a K-digit code
in base ``max_orders + 1``, tabulated once per order quantity, so
``(max_orders + 1)^K`` must fit int64) and generator targets alike. An
event changes one side's placement and reaches the other side only
through the remainder of a fill, so the assembly works out each
transition once per placement and gathers every state's targets from those
tables with numpy. Probability vectors evolve by uniformization. Used as
the ground truth the stochastic engine is validated against, on the models
``tiny``, ``tiny-overlap`` and ``tiny-opposite`` (opposite-best anchoring).
``tests/test_oracle.py`` checks the generator against one assembled through
the book core (``event_table`` and ``apply_event`` on ``BookState``s), on
fixed and on drawn models.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .book import BookState, CanonicalKey, Order, Side, StateCaps
from .rates import AnchoringMode, DgxParams, RateModel, TraderGroup, side_arrivals
from .rates import apply_event, event_table  # noqa: F401  (bench/spans.py wraps both)

# A placement's bid half (levels descending) and ask half (levels ascending).
PlacementHalves = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]

if TYPE_CHECKING:
    # Loaded by build_generator and evolve only, so importing lobsim does not load scipy.
    from scipy import sparse


class OracleError(Exception):
    """Base class for exact-solver errors."""


class StateSpaceBudgetError(OracleError):
    """The truncated state space exceeded the configured size budget."""


@dataclass(frozen=True)
class StateIndex:
    """Bijection between truncated canonical book structures and indices.

    A state is a pair of per-side placement ids (see :func:`_side_halves`):
    state i pairs ``bid_placement[i]`` with ``ask_placement[i]``, and states
    ascend by the code ``bid_placement * H + ask_placement`` (H placements).
    One ``np.searchsorted`` on those codes resolves every lookup: by key
    (:meth:`index`), by order counts (:meth:`positions`: per-side codes of K
    digits in base ``max_orders + 1``, so ``(max_orders + 1)^K`` must fit
    int64) and of generator targets. Equality compares the three bounds,
    which determine the enumeration.
    """

    grid_size: int
    max_quantity: int
    max_orders: int
    placements: tuple[PlacementHalves, ...] = field(repr=False, compare=False)
    bid_placement: np.ndarray = field(repr=False, compare=False)
    ask_placement: np.ndarray = field(repr=False, compare=False)
    # Per form (0 the bid half, 1 the ask half): half -> placement id.
    _ids_of: tuple[dict, dict] = field(init=False, repr=False, compare=False)
    _codes: np.ndarray = field(init=False, repr=False, compare=False)
    _counted_by_quantity: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        h = len(self.placements)
        ids_of = tuple({half[form]: p for p, half in enumerate(self.placements)} for form in (0, 1))
        if any(len(ids) != h for ids in ids_of):
            raise OracleError("duplicate placements in enumeration")
        object.__setattr__(self, "_ids_of", ids_of)
        object.__setattr__(self, "_codes", self.bid_placement * h + self.ask_placement)

    def __len__(self) -> int:
        return len(self._codes)

    def _find(self, bid: np.ndarray, ask: np.ndarray) -> np.ndarray:
        """Indices of the states pairing placements ``bid`` and ``ask``
        (elementwise), -1 where the index has no such state or an id is -1."""
        code = bid * len(self.placements) + ask
        at = np.minimum(np.searchsorted(self._codes, code), len(self._codes) - 1)
        return np.where((self._codes[at] == code) & (bid >= 0) & (ask >= 0), at, -1)

    def key(self, i: int) -> CanonicalKey:
        return (
            self.placements[self.bid_placement[i]][0],
            self.placements[self.ask_placement[i]][1],
        )

    def index(self, key: CanonicalKey) -> int:
        """The index of a canonical key; ``KeyError`` if the index lacks it."""
        bids, asks = key
        i = int(self._find(self._ids_of[0].get(bids, -1), self._ids_of[1].get(asks, -1)))
        if i < 0:
            raise KeyError(key)
        return i

    def positions(self, depths: np.ndarray, quantity: int = 1) -> np.ndarray:
        """Indices of books given as order counts, shape (..., 2, K) -> (...).

        ``depths[..., 0, l - 1]`` and ``depths[..., 1, l - 1]`` count the bids
        and the asks at level l, every order of size ``quantity``, as batched
        :func:`~lobsim.engine.simulate` returns them. Each side's counts are
        written as one mixed-radix code, digits in base ``max_orders + 1``,
        and looked up among the sorted codes of the placements whose orders
        all have that size (built once per quantity); the two placement ids
        then go through the index's one state lookup. :class:`OracleError`
        if a book lies outside the index.
        """
        k, radix = self.grid_size, self.max_orders + 1
        if depths.shape[-2:] != (2, k):
            raise OracleError(f"order counts of shape {depths.shape} are not (..., 2, {k})")
        if radix**k > np.iinfo(np.int64).max:
            raise OracleError(f"codes of {k} counts in base {radix} overflow int64")
        counts = depths.reshape(-1, 2, k)
        codes, ids = self._counted(quantity)
        code = counts @ radix ** np.arange(k, dtype=np.int64)
        at = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        placement = np.where(codes[at] == code, ids[at], -1)
        found = self._find(placement[:, 0], placement[:, 1])
        outside = ((counts < 0) | (counts >= radix)).any(axis=(1, 2)) | (found < 0)
        if outside.any():
            bad = counts[outside.argmax()].tolist()
            raise OracleError(f"observed state outside the index: counts {bad}")
        return found.reshape(depths.shape[:-2])

    def _counted(self, quantity: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted codes (see :meth:`positions`) of the placements whose orders
        all have size ``quantity``, and their ids; built once per quantity."""
        if quantity not in self._counted_by_quantity:
            radix = self.max_orders + 1
            ids, codes = [], []
            for p, (_, asks) in enumerate(self.placements):
                if all(q == quantity for _, q in asks):
                    ids.append(p)
                    codes.append(sum(radix ** (lv - 1) for lv, _ in asks))
            codes, ids = np.array(codes, dtype=np.int64), np.array(ids, dtype=np.int64)
            order = np.argsort(codes)
            self._counted_by_quantity[quantity] = (codes[order], ids[order])
        return self._counted_by_quantity[quantity]

    def state(self, i: int) -> BookState:
        """The book with key i; its orders' seqs (= ids) run through bids, then asks."""
        bids, asks = self.key(i)
        n = len(bids)
        return BookState(
            grid_size=self.grid_size,
            bids=tuple(Order(Side.BID, lv, q, s, s) for s, (lv, q) in enumerate(bids, 1)),
            asks=tuple(Order(Side.ASK, lv, q, s, s) for s, (lv, q) in enumerate(asks, n + 1)),
            last_transaction=None,
            next_seq=n + len(asks) + 1,
        )

    @property
    def states(self) -> tuple[BookState, ...]:
        return tuple(self.state(i) for i in range(len(self)))

    def caps(self) -> StateCaps:
        return StateCaps(max_orders=self.max_orders, max_quantity=self.max_quantity)


def _quantity_tuples(max_len: int, max_quantity: int) -> Iterable[tuple[int, ...]]:
    for length in range(max_len + 1):
        yield from product(range(1, max_quantity + 1), repeat=length)


def _side_halves(grid_size: int, max_quantity: int, max_orders: int) -> list[PlacementHalves]:
    """Every per-side placement, as the (bid, ask) halves of a canonical key.

    A placement is a queue of quantities per level, in time-priority order;
    distinct orderings are distinct states because matching consumes the
    front of the queue first. The bid half lists levels descending, the ask
    half ascending.
    """
    halves = []
    queues: list[tuple[tuple[int, int], ...]] = []  # one per occupied level, ascending

    def recurse(level: int, used: int) -> None:
        if level > grid_size:
            halves.append(
                (
                    tuple(o for queue in reversed(queues) for o in queue),
                    tuple(o for queue in queues for o in queue),
                )
            )
            return
        for qtuple in _quantity_tuples(max_orders - used, max_quantity):
            if qtuple:
                queues.append(tuple((level, q) for q in qtuple))
            recurse(level + 1, used + len(qtuple))
            if qtuple:
                queues.pop()

    recurse(1, 0)
    return halves


def enumerate_states(
    grid_size: int,
    max_quantity: int,
    max_orders: int,
    budget: int = 200_000,
) -> StateIndex:
    """Enumerate every uncrossed book within the cutoffs, exactly once.

    Crossed configurations are excluded: continuous trading resolves them
    inside a single transition, so they are never observable states of the
    process. Raises :class:`StateSpaceBudgetError` past ``budget`` states.
    States come bid placement by bid placement, each paired with the ask
    placements in placement order.
    """
    halves = _side_halves(grid_size, max_quantity, max_orders)
    lengths = np.array([len(asks) for _, asks in halves])
    best_ask = np.array([asks[0][0] if asks else grid_size + 1 for _, asks in halves])
    # (orders left, best bid) -> the ids of the ask placements that fit
    # beside such a bid placement, in placement order.
    partners: dict = {}
    ask_ids = []
    for bids, _ in halves:
        fit = (max_orders - len(bids), bids[0][0] if bids else 0)
        if fit not in partners:
            partners[fit] = np.flatnonzero((lengths <= fit[0]) & (best_ask > fit[1]))
        ask_ids.append(partners[fit])
    sizes = [len(ids) for ids in ask_ids]
    if sum(sizes) > budget:
        raise StateSpaceBudgetError(f"state space of {sum(sizes)} exceeds budget of {budget}")
    return StateIndex(
        grid_size=grid_size,
        max_quantity=max_quantity,
        max_orders=max_orders,
        placements=tuple(halves),
        bid_placement=np.repeat(np.arange(len(halves)), sizes),
        ask_placement=np.concatenate(ask_ids),
    )


def _fill(
    opposite: tuple[tuple[int, int], ...], ask: bool, price: int, remaining: int
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The opposite half after an arrival, and the arrival's unfilled remainder.

    As in :func:`~lobsim.book.submit_order`, while the arrival crosses the
    front of the opposite half it fills that resident, partially when the
    resident is larger.
    """
    filled = 0
    front: tuple[tuple[int, int], ...] = ()
    for level, q in opposite:
        if not remaining or (level < price if ask else level > price):
            break
        filled += 1
        if q > remaining:
            front, remaining = ((level, q - remaining),), 0
        else:
            remaining -= q
    return front + opposite[filled:], remaining


def _rest(
    asks: tuple[tuple[int, int], ...], price: int, quantity: int
) -> tuple[tuple[int, int], ...]:
    """An ask half with an order resting at ``price`` behind every resident of its level."""
    i = bisect_right(asks, (price, math.inf))
    return asks[:i] + ((price, quantity),) + asks[i:]


def build_generator(
    model: RateModel, index: StateIndex, caps: Optional[StateCaps] = None
) -> sparse.csc_matrix:
    """Assemble the transition-rate generator over the indexed states.

    Entry (j, i) is the normalized rate of the transition i -> j, with the
    rates and the cap rule of :func:`~lobsim.rates.event_table`: arrivals
    from :func:`~lobsim.rates.side_arrivals` of the state's best quotes, one
    cancellation per resident, and arrivals whose result would exceed the
    caps (defaulting to the index cutoffs) removed before normalization, so
    the matrix describes the same finite process the capped engine runs. The
    diagonal balances each column to zero; a state with no transition keeps
    an empty column. A transition leaving the index raises ``KeyError``; a
    model on another grid than the index raises :class:`OracleError`.

    Every event changes one side's placement and reaches the other side only
    through the remainder of a fill, so transitions are worked out per
    placement, not per state: once per distinct arrival, a table over all
    placements of the opposite half after the fill and of the remainder, and
    a table of the own half with a remainder rested; once, a table of each
    placement with its j-th order cancelled. Each state's targets are then
    gathered from those tables, slot by slot, with numpy. Totals and
    outflows are summed slot by slot in the order of the event table, and
    the triplets come in that order too (kept arrivals, cancellations in
    submission order, the diagonal), so the float bytes match a generator
    assembled one state at a time.
    """
    from scipy import sparse

    if model.grid_size != index.grid_size:
        raise OracleError(
            f"model on a grid of {model.grid_size} levels, index on {index.grid_size}"
        )
    if caps is None:
        caps = index.caps()
    max_orders = math.inf if caps.max_orders is None else caps.max_orders
    max_quantity = math.inf if caps.max_quantity is None else caps.max_quantity
    omega = model.per_order_cancel_rate
    halves = index.placements
    n, h = len(index), len(halves)
    ids_of = index._ids_of
    length = np.array([len(asks) for _, asks in halves])
    # Whether a placement holds an order above the quantity cap. Arrivals above
    # it are dropped, so a result holds one only where its state did.
    over = np.array([any(q > max_quantity for _, q in asks) for _, asks in halves])
    # Best levels: 0 for no bids, grid_size + 1 for no asks.
    best = (
        np.array([bids[0][0] if bids else 0 for bids, _ in halves]),
        np.array([asks[0][0] if asks else model.grid_size + 1 for _, asks in halves]),
    )
    bid, ask = index.bid_placement, index.ask_placement

    # Arrival lists, keyed like the engine's table cache: one under static
    # anchoring, one per pair of best quotes under opposite-best.
    if model.anchoring_mode is AnchoringMode.OPPOSITE_BEST:
        quotes = best[0][bid] * (model.grid_size + 2) + best[1][ask]
    else:
        quotes = np.zeros(n, dtype=np.int64)
    _, first, group = np.unique(quotes, return_index=True, return_inverse=True)
    arrival_ids: dict = {}  # (ask?, price, quantity) -> arrival id
    lists = []  # per group: (arrival id, raw rate) in event-table order
    for b, a in zip(best[0][bid[first]].tolist(), best[1][ask[first]].tolist()):
        lists.append([])
        sides = (Side.ASK, b or None), (Side.BID, a if a <= model.grid_size else None)
        for d, rate in (entry for side in sides for entry in side_arrivals(model, *side)[0]):
            if d.quantity <= max_quantity:
                arrival = (d.side is Side.ASK, d.price_level, d.quantity)
                lists[-1].append((arrival_ids.setdefault(arrival, len(arrival_ids)), rate))

    # Per arrival and opposite placement: the placement after the fill and
    # the remainder; per arrival, remainder and own placement: the placement
    # with the remainder rested, -1 outside the index. A remainder joins the
    # back of its level's queue, the same placement from either side, so
    # rests are worked out on ask halves, once per (price, remainder), for the
    # placements with room for one more order.
    top = max((q for _, _, q in arrival_ids), default=0)
    fill_to = np.tile(np.arange(h), (len(arrival_ids), 1))
    fill_left = np.zeros((len(arrival_ids), h), dtype=np.int64)
    rest_to = np.full((len(arrival_ids), top + 1, h), -1)
    rest_to[:, 0] = np.arange(h)
    is_ask = np.zeros(len(arrival_ids), dtype=bool)
    room = np.flatnonzero(length < index.max_orders).tolist()
    rests: dict = {}
    for (on_ask, price, quantity), a in arrival_ids.items():
        is_ask[a] = on_ask
        opposite = 0 if on_ask else 1
        crossing = best[opposite] >= price if on_ask else best[opposite] <= price
        crossing = np.flatnonzero(crossing).tolist()
        filled = [_fill(halves[p][opposite], on_ask, price, quantity) for p in crossing]
        fill_to[a, crossing] = [ids_of[opposite][half] for half, _ in filled]
        fill_left[a] = quantity
        fill_left[a, crossing] = [left for _, left in filled]
        for r in range(1, quantity + 1):
            if (price, r) not in rests:
                rests[price, r] = [ids_of[1].get(_rest(halves[p][1], price, r), -1) for p in room]
            rest_to[a, r, room] = rests[price, r]

    # Per slot (arrivals, cancellations, the diagonal) and state: target
    # index, raw rate (0 where dropped), and whether the slot is kept.
    cancels = int((length[bid] + length[ask]).max()) if omega != 0.0 else 0
    arrivals = max(map(len, lists))
    slots = arrivals + cancels + 1
    target = np.zeros((n, slots), dtype=np.int32)
    raw = np.zeros((n, slots))
    kept = np.zeros((n, slots), dtype=bool)
    if arrivals:
        arrival_at = np.full((len(lists), arrivals), -1)
        rate_at = np.zeros((len(lists), arrivals))
        for g, entries in enumerate(lists):
            arrival_at[g, : len(entries)] = [a for a, _ in entries]
            rate_at[g, : len(entries)] = [rate for _, rate in entries]
        oversized = over[bid] | over[ask]
        for k in range(arrivals):
            a = arrival_at[group, k]
            on_ask = is_ask[a]
            opposite = np.where(on_ask, bid, ask)
            own = np.where(on_ask, ask, bid)
            to = fill_to[a, opposite]
            left = fill_left[a, opposite]
            rested = rest_to[a, left, own]
            live = (
                (a >= 0)
                & (length[to] + length[own] + (left > 0) <= max_orders)
                & ~(oversized & (over[to] | over[own]))
            )
            target[:, k] = index._find(np.where(on_ask, to, rested), np.where(on_ask, rested, to))
            kept[:, k] = live
            raw[:, k] = np.where(live, rate_at[group, k], 0.0)
    if cancels:
        # removed[form][j, p]: placement p without element j of its half in
        # that form, -1 past its length. Slot j cancels element j of bids +
        # asks: submission order in an enumerated book.
        owner = np.repeat(np.arange(h), length)
        element = np.arange(len(owner)) - np.repeat(np.cumsum(length) - length, length)
        removed = []
        for form, ids in enumerate(ids_of):
            table = np.full((cancels, h), -1)
            table[element, owner] = [
                ids[half[:j] + half[j + 1:]]
                for half in (pair[form] for pair in halves)
                for j in range(len(half))
            ]
            removed.append(table)
        on_bid = length[bid]
        for j in range(cancels):
            from_bid = j < on_bid
            live = j < on_bid + length[ask]
            from_ask = removed[1][np.maximum(j - on_bid, 0), ask]
            target[:, arrivals + j] = index._find(
                np.where(from_bid, removed[0][j, bid], bid), np.where(from_bid, ask, from_ask)
            )
            kept[:, arrivals + j] = live
            raw[:, arrivals + j] = np.where(live, omega, 0.0)
    leaving = (kept & (target < 0)).any(axis=1)
    if leaving.any():
        raise KeyError(f"a transition from {index.key(int(leaving.argmax()))} leaves the index")

    total = np.zeros(n)
    for k in range(slots - 1):
        total += raw[:, k]
    alive = total > 0.0
    factor = model.event_intensity / np.where(alive, total, 1.0)
    rate = raw * factor[:, None]
    outflow = np.zeros(n)
    for k in range(slots - 1):
        outflow += rate[:, k]
    target[:, -1] = np.arange(n)
    rate[:, -1] = -outflow
    kept[:, -1] = True
    kept &= alive[:, None]
    columns = np.repeat(np.arange(n, dtype=np.int32), kept.sum(axis=1))
    return sparse.csc_matrix((rate[kept], (target[kept], columns)), shape=(n, n))


def _check_probability_vector(p: np.ndarray, where: str) -> np.ndarray:
    if not np.all(np.isfinite(p)):
        raise OracleError(f"non-finite probability vector in {where}")
    if p.min() < -1e-12:
        raise OracleError(f"negative probability {p.min()} in {where}")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise OracleError(f"probability mass {total} deviates from 1 in {where}")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def evolve(
    p0: Sequence[float],
    generator: sparse.spmatrix,
    t: float,
    tail_tolerance: float = 1e-10,
) -> np.ndarray:
    """Propagate a probability vector: p(t) = exp(generator * t) @ p0.

    Uses uniformization: Poisson-weighted powers of the stochastic matrix
    I + generator / rate_cap, truncating the Poisson tail below
    ``tail_tolerance``. Long horizons are split into segments to keep each
    Poisson mean moderate. The result is validated and renormalized.
    """
    from scipy import sparse

    p = np.asarray(p0, dtype=float).copy()
    if t < 0 or not math.isfinite(t):
        raise OracleError(f"invalid evolution time {t}")
    if generator.shape[0] != generator.shape[1] or generator.shape[0] != p.size:
        raise OracleError("generator and vector dimensions disagree")
    p = _check_probability_vector(p, "evolve input")
    if t == 0.0:
        return p
    diagonal = generator.diagonal()
    rate_cap = float(-diagonal.min())
    if rate_cap <= 0.0:
        return p
    segments = max(1, math.ceil(rate_cap * t / 64.0))
    dt = t / segments
    poisson_mean = rate_cap * dt
    transition = sparse.identity(p.size, format="csr") + generator.tocsr() / rate_cap
    max_terms = int(poisson_mean + 20.0 * math.sqrt(poisson_mean + 1.0) + 200)
    for _ in range(segments):
        weight = math.exp(-poisson_mean)
        term = p.copy()
        acc = weight * term
        cumulative = weight
        n = 0
        while cumulative < 1.0 - tail_tolerance:
            n += 1
            if n > max_terms:
                raise OracleError("uniformization failed to converge")
            term = transition @ term
            weight *= poisson_mean / n
            acc += weight * term
            cumulative += weight
        p = acc
    return _check_probability_vector(p, "evolve output")


def exact_moment(
    generator: sparse.spmatrix,
    p0: Sequence[float],
    t: float,
    observable: Sequence[float],
    order: int = 1,
) -> float:
    """E[observable^order] under the exact distribution at time t."""
    values = np.asarray(observable, dtype=float)
    p_t = evolve(p0, generator, t)
    if values.size != p_t.size:
        raise OracleError("observable not defined on every indexed state")
    return float((values**order) @ p_t)


def compare_distributions(empirical: Sequence[float], exact: Sequence[float]) -> float:
    """Total variation distance between two distributions on the same index."""
    a = np.asarray(empirical, dtype=float)
    b = np.asarray(exact, dtype=float)
    if a.size != b.size:
        raise OracleError(f"index mismatch: {a.size} vs {b.size}")
    return 0.5 * float(np.abs(a - b).sum())


def vacuum_vector(index: StateIndex) -> np.ndarray:
    """Point mass on the empty book."""
    p0 = np.zeros(len(index))
    p0[index.index(((), ()))] = 1.0
    return p0


def order_count_observable(index: StateIndex) -> np.ndarray:
    """Total resident order count per indexed state."""
    length = np.array([len(asks) for _, asks in index.placements], dtype=float)
    return length[index.bid_placement] + length[index.ask_placement]


def _tiny_model(
    grid_size: int, anchoring: AnchoringMode, params: DgxParams, ask_anchor: int, bid_anchor: int
) -> tuple[RateModel, StateCaps]:
    """One trader group with ``params`` on both sides, cancellation rate 0.1
    and event intensity 6, capped at four orders of size 1."""
    group = TraderGroup(1.0, params, params, ask_anchor=ask_anchor, bid_anchor=bid_anchor)
    model = RateModel(
        grid_size=grid_size,
        groups=(group,),
        per_order_cancel_rate=0.1,
        event_intensity=6.0,
        anchoring_mode=anchoring,
    )
    return model, StateCaps(max_orders=4, max_quantity=1)


def tiny_nonoverlapping_model() -> tuple[RateModel, StateCaps]:
    """Two-level model with disjoint supports: bids at level 1, asks at 2.

    No arrival can cross, so the truncated process is a pure birth-death
    system in the two depth counts; every transition rate is hand-checkable.
    """
    point = DgxParams(mu=0.0, sigma=1.0, support_size=1)
    return _tiny_model(2, AnchoringMode.STATIC_SUPPORT, point, ask_anchor=2, bid_anchor=1)


def tiny_overlapping_model() -> tuple[RateModel, StateCaps]:
    """Two-level model whose supports fully overlap, exercising matching.

    Bids arrive on levels {2, 1} and asks on {1, 2}, so arrivals regularly
    cross the standing best quote and execute inside a transition.
    """
    spread = DgxParams(mu=1.0, sigma=3.0, support_size=2)
    return _tiny_model(2, AnchoringMode.STATIC_SUPPORT, spread, ask_anchor=1, bid_anchor=2)


def tiny_opposite_model() -> tuple[RateModel, StateCaps]:
    """Three-level model under opposite-best anchoring.

    Each side's rank 1 sits on the opposite best quote (level 2 while that
    side is empty), so the arrival rates move with the book: the most
    state-dependent path of the engine, on 95 states.
    """
    params = DgxParams(mu=1.0, sigma=3.0, support_size=2)
    return _tiny_model(3, AnchoringMode.OPPOSITE_BEST, params, ask_anchor=2, bid_anchor=2)
