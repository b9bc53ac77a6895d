"""Exact forward-equation solver on a truncated book state space.

Every order has the model's ``unit_quantity``, so a book is its occupation
numbers per level, as in the paper's |n_1 ... n_K>: a match fills its
resident whole. The index enumerates every uncrossed book within the cutoffs
as a pair of per-side placements, each one side's resting orders held once,
as a padded numpy row of levels ascending; a bid side reads it from the end.
Rows map to placement ids, and id pairs to states, by direct addressing. The
sparse transition-rate generator comes from the same cached side rows
(``side_arrivals`` of the best quotes) and cap rule as the engine's event
tables, with fills, rests and cancellations worked out by array operations
over all placements at once. Probability vectors evolve by uniformization.
The engine is validated against it on the tiny models; ``tests/test_oracle.py``
checks the generator against the book core's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .book import CanonicalKey, Side, StateCaps, is_integer, is_real
from .rates import AnchoringMode, DgxParams, RateModel, TraderGroup, side_arrivals
from .rates import apply_event, event_table  # noqa: F401  (bench/spans.py wraps both)

if TYPE_CHECKING:
    # Loaded by build_generator and evolve only, so importing lobsim does not load scipy.
    from scipy import sparse


# The Poisson weight each uniformization segment of evolve may leave out.
TAIL_TOLERANCE = 1e-10


class OracleError(Exception):
    """Base class for exact-solver errors."""


class StateSpaceBudgetError(OracleError):
    """The truncated state space exceeded the configured size budget."""


@dataclass(frozen=True)
class StateIndex:
    """Bijection between truncated canonical book structures and indices.

    Every order has size ``quantity``. ``placements[p]`` is placement p:
    ``max_orders + 1`` levels, the resting orders ascending, then 0 padding.
    Either side holds it in that one form; a bid placement's best order is its
    last entry. The placements fix the states: bid placement b, in id order,
    pairs with the placements of at most ``max_orders`` minus its length
    orders whose best ask lies above its best bid, in id order, and state i
    pairs ``bid_placement[i]`` with ``ask_placement[i]``. No lookup searches:
    a side's levels, ascending, walk to its placement id through the one
    append table, one gather per entry, and a pair of ids maps to its state
    by arithmetic (:meth:`_find`). Equality compares the three bounds, which
    determine the enumeration.
    """

    grid_size: int
    quantity: int
    max_orders: int
    placements: np.ndarray = field(repr=False, compare=False)
    bid_placement: np.ndarray = field(init=False, repr=False, compare=False)
    ask_placement: np.ndarray = field(init=False, repr=False, compare=False)
    # The append table: child[p, level] is p with an order at that level appended,
    # H if the index lacks it (row H is a sink, as is code grid_size + 1, which no
    # placement has); code 0, padding, keeps p, and placement 0 is empty.
    _child: np.ndarray = field(init=False, repr=False, compare=False)
    # Orders per placement; its best level as a bid, then as an ask (0 / K + 1: none).
    _length: np.ndarray = field(init=False, repr=False, compare=False)
    _best: tuple = field(init=False, repr=False, compare=False)
    # States run by bid placement, then by the ask placements that fit beside
    # it, and those with a best ask above any level are a prefix of the ids
    # (checked). So state = start[bid] + fits[L, ask] if ask < limit[bid], L =
    # its room for asks and fits[L, a] the placements before a of at most L
    # orders (-1 if a has more), kept flat with row[bid] = L * (H + 1). -1 ids
    # read last entries.
    _pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        asks, m = self.placements, self.max_orders
        if asks.min(initial=0) < 0 or asks.max(initial=0) > self.grid_size:
            raise OracleError(f"placement entries outside levels 1..{self.grid_size}")
        h, length = len(asks), (asks > 0).sum(axis=1)
        best = asks.max(axis=1), np.where(length > 0, asks[:, 0], self.grid_size + 1)
        if (np.diff(best[1]) > 0).any():
            raise OracleError("placements are not in enumeration order")
        # Each row enters the append table under its prefix of j entries (node),
        # so the rows must be distinct and closed under prefixes.
        child = np.full((h + 1, self.grid_size + 2), h, dtype=np.int32)
        child[:, 0], span = np.arange(h + 1), np.intp(child.shape[1])  # cell node * span + code
        table, code = child.ravel(), np.ascontiguousarray(asks.T)
        node = np.zeros(h, dtype=np.int32)
        for j in range(m):
            at = np.flatnonzero((length == j + 1) & (node < h))
            table[node.take(at) * span + code[j].take(at)] = at
            node = table.take(node * span + code[j])
        if (node != np.arange(h)).any():
            raise OracleError("duplicate placements, or not prefix-closed from an empty 0")
        short = np.append(length, m + 1) <= np.arange(m + 1)[:, None]  # a last column for -1
        before = np.cumsum(short, axis=1) - short
        limit = np.count_nonzero(best[1] > np.arange(self.grid_size + 1)[:, None], axis=1)[best[0]]
        row = (m - length) * (h + 1)
        partners = before.ravel().take(row + limit)
        fits = np.where(short, before, -1)
        per_bid = np.cumsum(partners) - partners, row, limit
        pairs = *(np.append(a, 0) for a in per_bid), fits.astype(np.int32).ravel()
        # Bid b pairs with the first partners[b] placements of at most
        # m - length[b] orders: a stable argsort lists each L's in id order.
        bid = np.repeat(np.arange(h), partners)
        rank = np.arange(len(bid)) - per_bid[0].take(bid)
        ask = np.argsort(~short, axis=1, kind="stable").ravel().take(row.take(bid) + rank)
        fields = ("_child", child), ("_length", length), ("_best", best), ("_pairs", pairs)
        fields += ("bid_placement", bid), ("ask_placement", ask)
        for name, value in fields:
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.bid_placement)

    def _ids(self, codes: np.ndarray, start: Optional[np.ndarray] = None) -> np.ndarray:
        """Placement ids of rows of levels ascending (0 keeps the node), -1 for a
        row the index lacks. A row walks from the empty placement, or from its
        ``start`` id: the placement its levels then extend."""
        child, width = self._child.ravel(), np.intp(self._child.shape[1])
        node = np.zeros(len(codes), dtype=np.int32) if start is None else start
        for code in codes.T:
            node = child.take(node * width + code)  # flat gathers: faster than child[node, code]
        return np.where(node < len(self.placements), node, -1)

    def _find(self, bid: np.ndarray, ask: np.ndarray) -> np.ndarray:
        """Indices of the states pairing placements ``bid`` and ``ask``
        (elementwise), -1 where the pair is crossed or too long or an id is -1."""
        start, row, limit, fits = self._pairs
        before = fits.take(row.take(bid) + ask)
        return np.where((before >= 0) & (ask < limit.take(bid)), start.take(bid) + before, -1)

    def key(self, i: int) -> CanonicalKey:
        """State i's canonical key: bids best first (a row read from the end), then asks."""
        rows = self.placements[self.bid_placement[i], ::-1], self.placements[self.ask_placement[i]]
        bids, asks = (tuple((lv, self.quantity) for lv in row.tolist() if lv) for row in rows)
        return bids, asks

    def index(self, key: CanonicalKey) -> int:
        """The index of a canonical key; ``KeyError`` if the index lacks it,
        an order of another size included."""
        k, q, width = self.grid_size, self.quantity, self.placements.shape[1]
        codes = np.zeros((2, width), dtype=np.int64)
        for side, half in enumerate((key[0][::-1], key[1])):  # levels ascending
            if len(half) >= width or not all(0 < lv <= k and s == q for lv, s in half):
                raise KeyError(key)
            codes[side, : len(half)] = [lv for lv, _ in half]
        i = int(self._find(*self._ids(codes)))
        if i < 0:
            raise KeyError(key)
        return i

    def positions(self, books: np.ndarray) -> np.ndarray:
        """Indices of books given as rows of signed levels, shape (..., max_orders + 1) -> (...).

        A row holds a book's residents as batched :func:`~lobsim.engine.simulate`
        returns them: signed levels (+ asks, - bids) in submission order, 0 for
        padding, every order of the index's size. One sort puts the bids, the
        padding and the asks in signed order; each side walks the append table
        over the whole row, its levels ascending (the bids as the negated row
        read from the end), where code 0 (padding and the other side) keeps
        the node, and :meth:`_find` pairs the two ids.
        :class:`OracleError` for a row of another width or a book outside the index.
        """
        k, width = self.grid_size, self.max_orders + 1
        if books.shape[-1:] != (width,):
            raise OracleError(f"books of shape {books.shape}: need (..., {width})")
        # In intp before the negation: an int8 -128 would negate to itself.
        rows = np.sort(books.reshape(-1, width), axis=1).astype(np.intp)
        # Each side's code per entry: its level on that side, else 0; a level past
        # the grid is K + 1, which no placement has.
        bids, asks = np.clip(-rows[:, ::-1], 0, k + 1), np.clip(rows, 0, k + 1)
        found = self._find(self._ids(bids), self._ids(asks))
        if (found < 0).any():
            bad = rows[found.argmin()].tolist()
            raise OracleError(f"observed state outside the index: book {bad}")
        return found.reshape(books.shape[:-1])

    def caps(self) -> StateCaps:
        return StateCaps(max_orders=self.max_orders, max_quantity=self.quantity)


def _state_count(k: int, m: int) -> int:
    """The number of states :func:`enumerate_states` indexes on k levels with
    at most m orders. Those without bids are the C(m + k, m) ask placements.
    A bid placement of n >= 1 orders with best level b has C(n - 2 + b, n - 1)
    forms and C(m - n + k - b, m - n) ask partners above b; by Vandermonde's
    identity their sum over b is C(m + k - 1, m) for every n."""
    return math.comb(m + k, m) + m * math.comb(m + k - 1, m)


def enumerate_states(
    grid_size: int, quantity: int, max_orders: int, budget: int = 200_000
) -> StateIndex:
    """Enumerate every uncrossed book within the cutoffs, exactly once.

    Every order has size ``quantity``. Crossed configurations are excluded:
    continuous trading resolves them inside a single transition, so they are
    never observable states of the process. Raises :class:`OracleError` unless
    the bounds and ``budget`` are integers, not bools, ``grid_size`` and
    ``quantity`` are at least 1 and ``max_orders`` at least 0, and
    :class:`StateSpaceBudgetError` past ``budget`` states, counted before any
    placement is built. Placements are grown length by length, then ordered
    lexicographically over their order counts at levels 1..K;
    :class:`StateIndex` pairs them into states, each bid placement in that
    order with the ask placements that fit beside it, in that order.
    """
    k, m, q = grid_size, max_orders, quantity
    if not (all(map(is_integer, (k, q, m, budget))) and k >= 1 and q >= 1 and m >= 0):
        raise OracleError(
            f"bounds (grid_size {k!r}, quantity {q!r}, max_orders {m!r}) need"
            " grid_size >= 1, quantity >= 1 and max_orders >= 0; they and the"
            f" budget ({budget!r}) must be integers, not bools"
        )
    k, m, q = int(k), int(m), int(q)
    count = _state_count(k, m)
    if count > budget:
        raise StateSpaceBudgetError(f"state space of {count} exceeds budget of {budget}")
    grown = [np.zeros((1, m + 1), dtype=np.int64)]
    for n in range(1, m + 1):
        # Append one order at or above the last order's level to each row of n - 1.
        low = np.maximum(grown[-1][:, n - 2], 1)
        choices = k + 1 - low
        rows = np.repeat(grown[-1], choices, axis=0)
        c = np.arange(len(rows)) - np.repeat(np.cumsum(choices) - choices, choices)
        rows[:, n - 1] = np.repeat(low, choices) + c
        grown.append(rows)
    rows = np.concatenate(grown)
    # Sort on each level's order count, levels 1..K: one bincount of (row, level)
    # codes (level 0 is padding), the last lexsort key first.
    h = len(rows)
    codes = np.arange(0, h * (k + 1), k + 1)[:, None] + rows
    counts = np.bincount(codes.ravel(), minlength=h * (k + 1)).reshape(h, k + 1)
    rows = rows[np.lexsort(counts.T[:0:-1])]
    del codes, counts  # before the index's arrays
    return StateIndex(k, q, m, rows)


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
    model on another grid than the index, or with orders of another size,
    raises :class:`OracleError`.

    Every event changes one side's placement: an arrival at or beyond the
    opposite best fills its first order whole, any other rests, and a
    cancellation removes one order. So transitions are tabulated per placement
    with array operations: cancellations per entry of the one ascending row
    both sides share (the entries after it walked on from the id of those
    before: one prefix walk; a bid placement's order j from the best is entry
    length - 1 - j), and rests scattered from the cancellations that undo
    them. Slots run in event-table order (a group's arrivals, then
    cancellation j for the states with more than j residents: bids best
    first, then asks), each keeping its live transitions. Totals and outflows
    add each state's rates in slot order, its diagonal follows every slot, and
    COO to CSC keeps each column's entries in input order, so the float bytes
    match a state-by-state assembly.
    """
    from scipy import sparse

    grid, omega = model.grid_size, model.per_order_cancel_rate
    if grid != index.grid_size:
        raise OracleError(f"model on a grid of {grid} levels, index on {index.grid_size}")
    if model.unit_quantity != index.quantity:
        raise OracleError(
            f"model orders of size {model.unit_quantity}, index orders of size {index.quantity}"
        )
    caps = index.caps() if caps is None else caps
    max_orders = math.inf if caps.max_orders is None else caps.max_orders
    # Arrivals above the quantity cap are dropped, as in the engine's tables.
    fits = caps.max_quantity is None or index.quantity <= caps.max_quantity
    length, best = index._length, index._best
    n, (h, width) = len(index), index.placements.shape
    bid, ask = index.bid_placement, index.ask_placement

    # Arrival lists, keyed like the engine's table cache (one under static anchoring, one per
    # pair of best quotes under opposite-best), from the signed levels of the side rows.
    by_quotes = model.anchoring_mode is AnchoringMode.OPPOSITE_BEST
    quotes = best[0][bid] * (grid + 2) + best[1][ask] if by_quotes else np.full(n, grid + 1)
    held = np.bincount(quotes) > 0  # the quote codes present, one group each, in code order
    group = (np.cumsum(held) - 1)[quotes]
    lists = []  # per group: (ask?, price, raw rate) in order
    for b, a in (divmod(code, grid + 2) for code in np.flatnonzero(held).tolist()):
        lists.append([])
        for side, opposite_best in (Side.ASK, b or None), (Side.BID, a if a <= grid else None):
            row = side_arrivals(model, side, opposite_best)
            for s, rate in zip(row.levels, row.rates) if fits else ():
                lists[-1].append((s > 0, abs(s), rate))

    # removed[j, p]: placement p without entry j of its row, -1 past its length, by one prefix
    # walk: the levels after entry j (levels[j + 1 :, p]; the last column is padding) walk on
    # from node, the id of the row's first j. A side's orders run from its best, so a bid
    # placement's order j is its entry length - 1 - j, and an arrival that crosses fills the
    # opposite front: a bid placement's last entry, an ask placement's entry 0.
    levels = np.ascontiguousarray(index.placements.T)
    removed, node = np.full((width, h), -1, dtype=np.int32), np.zeros(h, dtype=np.int32)
    for j in range(width - 1):
        removed[j] = np.where(length > j, index._ids(levels[j + 1 : -1].T, node), -1)
        node = index._ids(levels[j : j + 1].T, node)
    fronts = removed.ravel().take(np.maximum(length - 1, 0) * h + np.arange(h)), removed[0]
    # rest_to[price, p]: placement p with an order rested at price, -1 if not indexed.
    # Resting undoes cancelling the last order of a level block: each such order, at
    # position `at` of placement `placed`, fills one entry.
    rest_to = np.full((grid + 1, h), -1, dtype=np.int32)
    ends = (levels[:-1] > 0) & (levels[:-1] != levels[1:])
    at, placed = np.nonzero(ends & (removed[:-1] >= 0))
    rest_to[levels[at, placed], removed[at, placed]] = placed
    del ends, placed, at, levels  # held through the slots, they raise a build's peak RSS

    slots = []  # per slot, its kept transitions as (states, targets, raw rate)

    def keep(states: np.ndarray, bid_to: np.ndarray, ask_to: np.ndarray, rate: float) -> None:
        targets = index._find(bid_to, ask_to)
        if (targets < 0).any():
            i = int(states[(targets < 0).argmax()])
            raise KeyError(f"a transition from {index.key(i)} leaves the index")
        slots.append((states.astype(np.int32, copy=False), targets.astype(np.int32), rate))

    # A group's slots: one arrival list, so each side is a Python bool; temporaries freed on
    # return. An ask at price s crosses when the best bid is at s or above, a bid when the
    # best ask is at s or below: it takes the opposite front (one order fewer), else rests.
    def arrive(states: np.ndarray, entries: list) -> None:
        sides = bid.take(states), ask.take(states)
        quotes = best[0].take(sides[0]), best[1].take(sides[1])  # read once per group
        total = length.take(sides[0]) + length.take(sides[1])
        for on_ask, price, rate in entries:
            opposite, own = sides if on_ask else sides[::-1]
            crosses = quotes[0] >= price if on_ask else quotes[1] <= price
            kept = np.flatnonzero(total + np.where(crosses, -1, 1) <= max_orders)
            opposite, own, crosses = opposite.take(kept), own.take(kept), crosses.take(kept)
            to = np.where(crosses, fronts[int(not on_ask)].take(opposite), opposite)
            rested = np.where(crosses, own, rest_to[price].take(own))
            keep(states.take(kept), *((to, rested) if on_ask else (rested, to)), rate)

    order = np.argsort(group, kind="stable").astype(np.int32)  # int32, as slots keep states
    for states, entries in zip(np.split(order, np.cumsum(np.bincount(group))[:-1]), lists):
        arrive(states, entries)

    residents = length.take(bid) + length.take(ask)
    for j in range(int(residents.max()) if omega != 0.0 else 0):
        states = np.flatnonzero(residents > j)
        b, a = bid.take(states), ask.take(states)
        k = length.take(b)
        from_bid = j < k
        # Slot j cancels the bids best first (entry k - 1 - j), then the asks (entry j - k).
        bid_to = np.where(from_bid, removed.ravel().take(np.maximum(k - 1 - j, 0) * h + b), b)
        ask_to = np.where(from_bid, a, removed.ravel().take(np.maximum(j - k, 0) * h + a))
        keep(states, bid_to, ask_to, omega)
    del rest_to, removed, fronts, residents

    # Every kept transition, slot after slot, then the diagonal of each state
    # with one. Kept rates are positive, so those states' totals are too, and
    # np.bincount adds weights in input order, as an event table sums its rows.
    empty = np.zeros(0, dtype=np.int32)  # for a generator with no transition
    data = np.repeat([rate for _, _, rate in slots], [len(s) for s, _, _ in slots])
    states = np.concatenate([s for s, _, _ in slots] + [empty])
    targets = np.concatenate([t for _, t, _ in slots] + [empty])
    slots.clear()  # frees the per-slot arrays before the copies below
    total = np.bincount(states, data, minlength=n)
    data *= (model.event_intensity / np.where(total > 0.0, total, 1.0))[states]
    diagonal = np.flatnonzero(total).astype(np.int32)
    data = np.concatenate((data, -np.bincount(states, data, minlength=n)[diagonal]))
    states = np.concatenate((states, diagonal))
    targets = np.concatenate((targets, diagonal))
    return sparse.csc_matrix((data, (targets, states)), shape=(n, n))


def _check_probability_vector(p: np.ndarray, where: str, dropped: float = 0.0) -> np.ndarray:
    """``p`` renormalized, after checking it is finite, nonnegative and of mass 1
    within 1e-9 plus ``dropped``, the mass its computation may leave out by design."""
    if not np.all(np.isfinite(p)):
        raise OracleError(f"non-finite probability vector in {where}")
    if p.min() < -1e-12:
        raise OracleError(f"negative probability {p.min()} in {where}")
    total = p.sum()
    if abs(total - 1.0) > 1e-9 + dropped:
        raise OracleError(f"probability mass {total} deviates from 1 in {where}")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def evolve(p0: Sequence[float], generator: sparse.spmatrix, t: float) -> np.ndarray:
    """Propagate a probability vector: p(t) = exp(generator * t) @ p0.

    Uses uniformization: Poisson-weighted powers of the stochastic matrix
    I + generator / rate_cap, truncating the Poisson tail below
    :data:`TAIL_TOLERANCE`. Long horizons are split into segments to keep
    each Poisson mean moderate. The result is validated and renormalized;
    each segment may drop up to :data:`TAIL_TOLERANCE` of the mass, so the
    check allows ``segments * TAIL_TOLERANCE`` beyond rounding.
    """
    from scipy import sparse

    p = np.asarray(p0, dtype=float).copy()
    if not (is_real(t) and 0 <= t < math.inf):
        raise OracleError(f"invalid evolution time {t!r}")
    t = float(t)  # a numpy float32 t would run the Poisson sums in float32
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
    scaled = np.empty_like(p)
    for _ in range(segments):
        weight = math.exp(-poisson_mean)
        term, acc = p, weight * p
        cumulative = weight
        n = 0
        while cumulative < 1.0 - TAIL_TOLERANCE:
            n += 1
            if n > max_terms:
                raise OracleError("uniformization failed to converge")
            term = transition @ term
            weight *= poisson_mean / n
            acc += np.multiply(term, weight, out=scaled)  # one buffer for every term
            cumulative += weight
        p = acc
    return _check_probability_vector(p, "evolve output", segments * TAIL_TOLERANCE)


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
    length = index._length.astype(float)
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
