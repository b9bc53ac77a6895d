"""Exact forward-equation solver on a truncated book state space.

Enumerates every price-time-normal-form book within the cutoffs as a pair
of per-side placements, each one side's resting orders held as a padded
numpy row of (level, quantity) entries in ask order (the bid form reverses
the level blocks). Rows map to placement ids, and id pairs to states, by
direct addressing. The sparse transition-rate generator comes from the same
cached side rows (``side_arrivals`` of the best quotes) and cap rule as the
engine's event tables, with fills, rests and cancellations worked out by array
operations over all placements at once. Probability vectors evolve by
uniformization. The engine is validated against it on the tiny models;
``tests/test_oracle.py`` checks the generator against the book core's.
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

    ``placements[p]`` is placement p in ask form: ``max_orders + 1`` entries
    (level, quantity), the resting orders by ascending level and time
    priority, then (0, 0) padding; the bid form reverses the level blocks.
    The placements fix the states: bid placement b, in id order, pairs with
    the placements of at most ``max_orders`` minus its length orders whose
    best ask lies above its best bid, in id order, and state i pairs
    ``bid_placement[i]`` with ``ask_placement[i]``. No lookup searches: a row
    walks to its placement id through its form's append table, one gather per
    entry, and a pair of ids maps to its state by arithmetic (:meth:`_find`).
    Equality compares the three bounds, which determine the enumeration.
    """

    grid_size: int
    max_quantity: int
    max_orders: int
    placements: np.ndarray = field(repr=False, compare=False)
    bid_placement: np.ndarray = field(init=False, repr=False, compare=False)
    ask_placement: np.ndarray = field(init=False, repr=False, compare=False)
    # Per form (0 bid, 1 ask): every placement's row, and its append table:
    # child[p, level * max_quantity + quantity] is p with that entry appended,
    # H if the index lacks it (row H is a sink); code 0, padding, keeps p, and
    # placement 0 is empty. Order j of bid row p is order flip[p, j] of ask row p.
    _rows: tuple = field(init=False, repr=False, compare=False)
    _child: np.ndarray = field(init=False, repr=False, compare=False)
    _flip: np.ndarray = field(init=False, repr=False, compare=False)
    # Orders per placement, and its best level per form (0 or grid_size + 1: none).
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
        asks, m, q = self.placements, self.max_orders, self.max_quantity
        # An entry is padding (0, 0), else (level, quantity) within the bounds;
        # whole-array reductions, as reducing each two-element entry is slow.
        level, quantity = asks[..., 0], asks[..., 1]
        if asks.min(initial=0) < 0 or level.max(initial=0) > self.grid_size or (
            quantity.max(initial=0) > q or ((level == 0) != (quantity == 0)).any()
        ):
            raise OracleError(f"placement entries outside levels 1..{self.grid_size}, sizes 1..{q}")
        # A stable sort on descending level reverses the level blocks; padding stays last.
        flip = np.argsort(np.where(level > 0, -level, 1), axis=1, kind="stable")
        (h, width), length = asks.shape[:2], (level > 0).sum(axis=1)
        rows = asks.reshape(-1, 2).take(flip + np.arange(h)[:, None] * width, axis=0), asks
        best = level.max(axis=1), np.where(length > 0, level[:, 0], self.grid_size + 1)
        if (np.diff(best[1]) > 0).any():
            raise OracleError("placements are not in enumeration order")
        # Each row enters its form's append table under its prefix of j entries
        # (node), so the rows must be distinct and closed under prefixes.
        child = np.full((2, h + 1, (self.grid_size + 1) * q + 1), h, dtype=np.int32)
        child[..., 0], span = np.arange(h + 1), np.intp(child.shape[2])  # cell node * span + code
        for table, form in zip(child.reshape(2, -1), rows):
            code = np.ascontiguousarray((form[..., 0] * q + form[..., 1]).T)
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
        fields = ("_rows", rows), ("_child", child), ("_flip", flip), ("_length", length)
        fields += ("_best", best), ("_pairs", pairs), ("bid_placement", bid), ("ask_placement", ask)
        for name, value in fields:
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.bid_placement)

    def _ids(self, codes: np.ndarray, form: int, start: Optional[np.ndarray] = None) -> np.ndarray:
        """Placement ids of rows of entry codes, level * max_quantity + quantity
        (0 keeps the node), within the bounds written in ``form`` (0 bid, 1 ask),
        -1 for a row the index lacks. A row walks from the empty placement, or
        from its ``start`` id: the placement its codes then extend."""
        child, width = self._child[form].ravel(), np.intp(self._child.shape[2])
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
        bids, asks = (
            tuple((lv, q) for lv, q in rows[p].tolist() if lv)
            for rows, p in zip(self._rows, (self.bid_placement[i], self.ask_placement[i]))
        )
        return bids, asks

    def index(self, key: CanonicalKey) -> int:
        """The index of a canonical key; ``KeyError`` if the index lacks it."""
        k, q, width = self.grid_size, self.max_quantity, self.placements.shape[1]
        codes = np.zeros((2, width), dtype=np.int64)
        for form, half in enumerate(key):
            if len(half) >= width or not all(0 < lv <= k and 0 < s <= q for lv, s in half):
                raise KeyError(key)
            codes[form, : len(half)] = [lv * q + s for lv, s in half]
        i = int(self._find(self._ids(codes[:1], 0), self._ids(codes[1:], 1))[0])
        if i < 0:
            raise KeyError(key)
        return i

    def positions(self, books: np.ndarray, quantity: int = 1) -> np.ndarray:
        """Indices of books given as rows of signed levels, shape (..., max_orders + 1) -> (...).

        A row holds a book's residents as batched :func:`~lobsim.engine.simulate`
        returns them: signed levels (+ asks, - bids) in submission order, 0 for
        padding, every order of size ``quantity``. One sort puts the bids best
        first, then the padding, then the asks best first; each form walks its
        append table over the whole sorted row, where code 0 (padding and the
        other side) keeps the node, and :meth:`_find` pairs the two ids.
        :class:`OracleError` for a row of another width, a quantity outside
        1..``max_quantity``, or a book outside the index.
        """
        k, q, width = self.grid_size, self.max_quantity, self.max_orders + 1
        if books.shape[-1:] != (width,) or not (is_integer(quantity) and 1 <= quantity <= q):
            raise OracleError(
                f"books of shape {books.shape}, size {quantity}: need (..., {width}), sizes 1..{q}"
            )
        rows = np.sort(books.reshape(-1, width), axis=1)
        # Per form, the code of each signed level -K - 1..K + 1: its entry on the
        # form's side, else 0; past the grid q, an entry code no placement has.
        level = np.maximum(np.arange(-k - 1, k + 2) * np.array([[-1], [1]]), 0)
        code = np.where(level > 0, level * q + quantity, 0)
        code[:, [0, -1]] = q
        at = np.clip(rows, -k - 1, k + 1, dtype=np.intp) + (k + 1)
        found = self._find(self._ids(code[0].take(at), 0), self._ids(code[1].take(at), 1))
        if (found < 0).any():
            bad = rows[found.argmin()].tolist()
            raise OracleError(f"observed state outside the index: book {bad}")
        return found.reshape(books.shape[:-1])

    def caps(self) -> StateCaps:
        return StateCaps(max_orders=self.max_orders, max_quantity=self.max_quantity)


def _state_count(k: int, q: int, m: int) -> int:
    """The number of states :func:`enumerate_states` indexes on k levels, orders
    of size up to q, at most m orders, from per-(length, best level) counts."""
    # asks[n, a]: ask placements of n orders whose best level is a (k + 1 when
    # empty). The other n - 1 levels form a multiset on a..k.
    asks = np.zeros((m + 1, k + 2), dtype=object)
    asks[0, k + 1] = 1
    for n in range(1, m + 1):
        for a in range(1, k + 1):
            asks[n, a] = math.comb(n - 1 + k - a, n - 1) * q**n
    # fits[n, a]: ask placements of at most n orders whose best level is >= a.
    fits = asks.cumsum(axis=0)[:, ::-1].cumsum(axis=1)[:, ::-1]
    # Mirroring the levels makes a bid placement of n orders, best level b,
    # an ask placement with best level k + 1 - b; its asks sit above b.
    pairs = ((n, b) for n in range(m + 1) for b in range(k + 1))
    return int(sum(asks[n, k + 1 - b] * fits[m - n, b + 1] for n, b in pairs))


def enumerate_states(
    grid_size: int, max_quantity: int, max_orders: int, budget: int = 200_000
) -> StateIndex:
    """Enumerate every uncrossed book within the cutoffs, exactly once.

    Crossed configurations are excluded: continuous trading resolves them
    inside a single transition, so they are never observable states of the
    process. Raises :class:`OracleError` unless the bounds and ``budget`` are
    integers, not bools, ``grid_size`` and ``max_quantity`` are at least 1 and
    ``max_orders`` at least 0, and
    :class:`StateSpaceBudgetError` past ``budget`` states, counted before any
    placement is built. Distinct queue orderings are distinct states because
    matching consumes the front of the queue first. Placements are grown
    length by length, then ordered lexicographically over levels 1..K of each
    level's queue, queues ranked by (length, quantities); :class:`StateIndex`
    pairs them into states, each bid placement in that order with the ask
    placements that fit beside it, in that order.
    """
    k, m, q = grid_size, max_orders, max_quantity
    if not (all(map(is_integer, (k, q, m, budget))) and k >= 1 and q >= 1 and m >= 0):
        raise OracleError(
            f"bounds (grid_size {k!r}, max_quantity {q!r}, max_orders {m!r}) need"
            " grid_size >= 1, max_quantity >= 1 and max_orders >= 0; they and the"
            f" budget ({budget!r}) must be integers, not bools"
        )
    k, m, q = int(k), int(m), int(q)  # a numpy int's q**m would wrap in the count
    count = _state_count(k, q, m)
    if count > budget:
        raise StateSpaceBudgetError(f"state space of {count} exceeds budget of {budget}")
    grown = [np.zeros((1, m + 1, 2), dtype=np.int64)]
    for n in range(1, m + 1):
        # Append one order at or above the last order's level to each row of n - 1.
        low = np.maximum(grown[-1][:, n - 2, 0], 1)
        choices = (k + 1 - low) * q
        rows = np.repeat(grown[-1], choices, axis=0)
        c = np.arange(len(rows)) - np.repeat(np.cumsum(choices) - choices, choices)
        rows[:, n - 1, 0] = np.repeat(low, choices) + c // q
        rows[:, n - 1, 1] = c % q + 1
        grown.append(rows)
    rows = np.concatenate(grown)
    # Sort on the row of each level's order count followed by its quantities,
    # levels 1..K; the count of level l sits at l - 1 + (orders below l) and
    # order j of the row (level l_j) at l_j + j. Counts come from one bincount
    # of (row, level) codes (level 0 is padding), and both writes are flat.
    h, entries, w = len(rows), rows.reshape(-1, 2), k + m
    codes = np.arange(0, h * (k + 1), k + 1)[:, None] + rows[..., 0]
    counts = np.bincount(codes.ravel(), minlength=h * (k + 1)).reshape(h, k + 1)[:, 1:]
    at = np.cumsum(counts, axis=1) + np.arange(h * w).reshape(h, w)[:, :k] - counts
    order_key = np.zeros(h * w, dtype=np.int64)
    order_key[at.ravel()] = counts.ravel()
    p, j = np.divmod(cells := np.flatnonzero(entries[:, 0]), m + 1)
    order_key[p * w + j + entries[:, 0].take(cells)] = entries[:, 1].take(cells)
    rows = rows[np.lexsort(order_key.reshape(h, w).T[::-1])]
    del entries, codes, counts, at, order_key, cells, p, j  # before the index's arrays
    return StateIndex(grid_size, max_quantity, max_orders, rows)


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

    Every event changes one side's placement and reaches the other side only through
    the remainder of a fill, so transitions are tabulated per placement with array
    operations: cancellations per order position (the orders after it walked on from
    the id of those before: one prefix walk), fills per form and quantity, chained
    from first-order removals where a fill takes whole orders, and rests scattered
    from the cancellations that undo them. Slots run in event-table order (a group's
    arrivals, then cancellation j for the states with more than j residents), each
    keeping its live transitions, with the quantity-cap test only if an order exceeds
    that cap. Totals and outflows add each state's rates in slot order, its diagonal
    follows every slot, and COO to CSC keeps each column's entries in input order, so
    the float bytes match a state-by-state assembly.
    """
    from scipy import sparse

    grid, omega = model.grid_size, model.per_order_cancel_rate
    if grid != index.grid_size:
        raise OracleError(f"model on a grid of {grid} levels, index on {index.grid_size}")
    caps = index.caps() if caps is None else caps
    max_orders = math.inf if caps.max_orders is None else caps.max_orders
    max_quantity = math.inf if caps.max_quantity is None else caps.max_quantity
    rows, length, best = index._rows, index._length, index._best
    n, (h, width, _) = len(index), rows[1].shape
    # Whether a placement holds an order above the quantity cap, if any does. Arrivals
    # above it are dropped, so a result holds one only where its state did.
    capped = index.placements[..., 1].max(initial=0) > max_quantity
    over = (index.placements[..., 1] > max_quantity).any(axis=1) if capped else None
    bid, ask, p = index.bid_placement, index.ask_placement, np.arange(h)

    # Arrival lists, keyed like the engine's table cache (one under static anchoring, one per
    # pair of best quotes under opposite-best), from the signed levels of the side rows.
    by_quotes = model.anchoring_mode is AnchoringMode.OPPOSITE_BEST
    quotes = best[0][bid] * (grid + 2) + best[1][ask] if by_quotes else np.full(n, grid + 1)
    held = np.bincount(quotes) > 0  # the quote codes present, one group each, in code order
    group = (np.cumsum(held) - 1)[quotes]
    arrival_ids: dict = {}  # (ask?, price, quantity) -> arrival id
    lists, q = [], model.unit_quantity  # per group: (arrival id, ask?, price, raw rate) in order
    for b, a in (divmod(code, grid + 2) for code in np.flatnonzero(held).tolist()):
        lists.append([])
        for side, opposite_best in (Side.ASK, b or None), (Side.BID, a if a <= grid else None):
            row = side_arrivals(model, side, opposite_best)
            for s, rate in zip(row.levels, row.rates) if q <= max_quantity else ():
                arrival_id = arrival_ids.setdefault((s > 0, abs(s), q), len(arrival_ids))
                lists[-1].append((arrival_id, s > 0, abs(s), rate))

    # removed[form][j, p]: placement p without element j of its row in that form, -1 past its
    # length (slot j cancels element j of bids + asks, in submission order), by one prefix walk:
    # the codes after entry j (codes[1][j + 1 :, p]; the last column is padding) walk on from
    # node, the id of the row's first j. drop[form][f, p]: p without its first f, where it has f.
    codes = [np.ascontiguousarray((r[..., 0] * index.max_quantity + r[..., 1]).T) for r in rows]
    removed, node = np.full((2, width, h), -1, dtype=np.int32), np.zeros(h, dtype=np.int32)
    for j in range(width - 1):
        removed[1, j] = np.where(length > j, index._ids(codes[1][j + 1 : -1].T, 1, node), -1)
        node = index._ids(codes[1][j : j + 1].T, 1, node)
    removed[0] = removed[1].ravel().take(index._flip.T * h + p)
    # spent[form][f, p]: the size of row p's first f orders, summed column by column (cumsum
    # over short rows is slower); below[l, p]: p's orders at or below level l. All read flat.
    sizes = np.stack([r[..., 1].T for r in rows])
    drop, first = np.empty_like(removed), removed[:, 0].ravel()  # both forms, flat
    drop[:, 0], spent = p, np.zeros_like(sizes)
    for f in range(1, width):
        drop[:, f] = first[drop[:, f - 1] + [[0], [h]]]
        spent[:, f] = spent[:, f - 1] + sizes[:, f - 1]
    below = np.bincount((rows[1][..., 0] * h + p[:, None]).ravel(), minlength=(grid + 1) * h)
    below = below.reshape(-1, h).cumsum(axis=0) - (width - length)  # less padding, at level 0
    # Per form and quantity, every placement after a fill of it at any price:
    # the orders it takes whole dropped, and a row looked up where it takes part of one.
    unlimited = {}
    for form, quantity in {(int(not on_ask), q) for on_ask, _, q in arrival_ids}:
        gone = np.minimum((spent[form] + sizes[form] <= quantity).sum(axis=0), length)
        cut = quantity - spent[form].take(gone * h + p)
        part = np.flatnonzero((gone < length) & (cut > 0))
        shift = np.minimum(np.arange(width)[:, None] + gone[part], width - 1)
        rest = np.take_along_axis(codes[form][:, part], shift, axis=0)
        rest[0] -= cut[part]  # the quantity left of the first order
        unlimited[form, quantity] = drop[form].take(gone * h + p)
        unlimited[form, quantity][part] = index._ids(rest.T, form)

    # Per arrival and opposite placement, the placement after the fill, the remainder r as
    # its offset r * h in rest_to, and the orders left plus one if r > 0: as in submit_order,
    # all of the crossing front (its first f, drop[f]) if covered, else the unlimited fill.
    fill_to, fill_at, grown = np.empty((3, len(arrival_ids), h), dtype=np.int32)
    for (on_ask, price, quantity), a in arrival_ids.items():
        opposite = int(not on_ask)
        front = (length - below[price - 1] if on_ask else below[price]) * h + p
        taken = spent[opposite].take(front)
        whole, fill_at[a] = drop[opposite].take(front), np.maximum(quantity - taken, 0) * h
        fill_to[a] = np.where(quantity >= taken, whole, unlimited[opposite, quantity])
        grown[a] = length.take(fill_to[a]) + (quantity > taken)
    # rest_to[price, r, p]: p (an ask row) with a remainder r rested behind its orders at
    # levels up to price, -1 if not indexed. Resting undoes cancelling the last order of a
    # level block: each such order, at position `at` of placement `placed`, fills one entry.
    top = max((q for _, _, q in arrival_ids), default=0)
    rest_to = np.full((grid + 1, top + 1, h), -1, dtype=np.int32)
    rest_to[:, 0] = p
    level, size = rows[1][..., 0].T, rows[1][..., 1].T
    ends = (level[:-1] > 0) & (level[:-1] != level[1:]) & (size[:-1] <= top)
    at, placed = np.nonzero(ends & (removed[1, :-1] >= 0))
    rest_to[level[at, placed], size[at, placed], removed[1, at, placed]] = placed
    del ends, placed, at, codes, sizes  # held through the slots, they raise a build's peak RSS

    slots = []  # per slot, its kept transitions as (states, targets, raw rate)

    def keep(states: np.ndarray, bid_to: np.ndarray, ask_to: np.ndarray, rate: float) -> None:
        targets = index._find(bid_to, ask_to)
        if (targets < 0).any():
            i = int(states[(targets < 0).argmax()])
            raise KeyError(f"a transition from {index.key(i)} leaves the index")
        slots.append((states.astype(np.int32, copy=False), targets.astype(np.int32), rate))

    # A group's slots: one arrival list, so each side is a Python bool; temporaries freed on return.
    def arrive(states: np.ndarray, entries: list) -> None:
        sides = bid.take(states), ask.take(states)
        counts = length.take(sides[0]), length.take(sides[1])  # read once per group
        oversized = over.take(sides[0]) | over.take(sides[1]) if capped else None
        for a, on_ask, price, rate in entries:
            opposite, own = sides if on_ask else sides[::-1]
            live = grown[a].take(opposite) + counts[on_ask] <= max_orders
            if capped:
                live &= ~(oversized & (over.take(fill_to[a].take(opposite)) | over.take(own)))
            kept = np.flatnonzero(live)
            opposite, own = opposite.take(kept), own.take(kept)
            to = fill_to[a].take(opposite)
            rested = rest_to[price].ravel().take(fill_at[a].take(opposite) + own)
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
        bid_to = np.where(from_bid, removed[0, j].take(b), b)
        ask_to = np.where(from_bid, a, removed[1].ravel().take(np.maximum(j - k, 0) * h + a))
        keep(states, bid_to, ask_to, omega)
    del fill_to, fill_at, grown, rest_to, removed, drop, unlimited, spent, below, residents

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
