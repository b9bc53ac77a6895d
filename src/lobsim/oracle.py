"""Exact forward-equation solver on a truncated book state space.

Enumerates every price-time-normal-form book within the cutoffs as a
canonical key, assembles the sparse transition-rate generator on those keys
from the same arrival rates and cap rule as the event tables the engine
samples from, and evolves probability vectors with uniformization. Used as
the ground truth the stochastic engine is validated against, on the models
``tiny``, ``tiny-overlap`` and ``tiny-opposite`` (opposite-best anchoring).
``tests/test_oracle.py`` checks the generator against one assembled through
the book core (``event_table`` and ``apply_event`` on ``BookState``s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .book import BookState, CanonicalKey, Order, Side, StateCaps
from .rates import AnchoringMode, DgxParams, EventKind, RateModel, TraderGroup, arrival_rates
from .rates import apply_event, event_table  # noqa: F401  (bench/spans.py wraps both)

if TYPE_CHECKING:
    # Loaded by build_generator and evolve only, so importing lobsim does not load scipy.
    from scipy import sparse


class OracleError(Exception):
    """Base class for exact-solver errors."""


class StateSpaceBudgetError(OracleError):
    """The truncated state space exceeded the configured size budget."""


@dataclass(frozen=True)
class StateIndex:
    """Bijection between truncated canonical book structures and indices."""

    grid_size: int
    max_quantity: int
    max_orders: int
    keys: tuple[CanonicalKey, ...]
    index_of: dict
    _codes_by_quantity: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.keys)

    def index(self, key: CanonicalKey) -> int:
        return self.index_of[key]

    def positions(self, depths: np.ndarray, quantity: int = 1) -> np.ndarray:
        """Indices of books given as order counts, shape (..., 2, K) -> (...).

        ``depths[..., 0, l - 1]`` and ``depths[..., 1, l - 1]`` count the bids
        and the asks at level l, every order of size ``quantity``, as batched
        :func:`~lobsim.engine.simulate` returns them. Each book is looked up
        by its mixed-radix code, the counts as digits in base ``max_orders +
        1`` (bid levels, then ask levels), among the sorted codes of the
        index's books of that quantity. :class:`OracleError` if a book lies
        outside the index.
        """
        k, radix = self.grid_size, self.max_orders + 1
        if depths.shape[-2:] != (2, k):
            raise OracleError(f"order counts of shape {depths.shape} are not (..., 2, {k})")
        if radix ** (2 * k) > np.iinfo(np.int64).max:
            raise OracleError(f"codes of {2 * k} counts in base {radix} overflow int64")
        counts = depths.reshape(-1, 2 * k)
        codes, found = self._codes(quantity)
        code = counts @ radix ** np.arange(2 * k, dtype=np.int64)
        at = np.minimum(np.searchsorted(codes, code), len(codes) - 1)
        outside = ((counts < 0) | (counts >= radix)).any(axis=1) | (codes[at] != code)
        if outside.any():
            bad = counts[outside.argmax()].reshape(2, k).tolist()
            raise OracleError(f"observed state outside the index: counts {bad}")
        return found[at].reshape(depths.shape[:-2])

    def _codes(self, quantity: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted codes (see :meth:`positions`) of the books whose orders all
        have size ``quantity``, and their indices; built once per quantity."""
        if quantity not in self._codes_by_quantity:
            k, radix = self.grid_size, self.max_orders + 1
            pairs = sorted(
                (
                    sum(radix ** (lv - 1) for lv, _ in bids)
                    + sum(radix ** (k + lv - 1) for lv, _ in asks),
                    i,
                )
                for i, (bids, asks) in enumerate(self.keys)
                if all(q == quantity for _, q in bids + asks)
            )
            self._codes_by_quantity[quantity] = tuple(np.array(pairs, dtype=np.int64).T)
        return self._codes_by_quantity[quantity]

    def state(self, i: int) -> BookState:
        """The book with key i; its orders' seqs (= ids) run through bids, then asks."""
        bids, asks = self.keys[i]
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
        return tuple(self.state(i) for i in range(len(self.keys)))

    def caps(self) -> StateCaps:
        return StateCaps(max_orders=self.max_orders, max_quantity=self.max_quantity)


def _quantity_tuples(max_len: int, max_quantity: int) -> Iterable[tuple[int, ...]]:
    for length in range(max_len + 1):
        yield from product(range(1, max_quantity + 1), repeat=length)


def _side_halves(
    grid_size: int, max_quantity: int, max_orders: int
) -> list[tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]]:
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
    Keys come bid placement by bid placement, each paired with the ask
    placements in placement order.
    """
    halves = _side_halves(grid_size, max_quantity, max_orders)
    # asks_within[n]: the ask halves of at most n orders with their best level
    # (grid_size + 1 when empty), in placement order.
    asks_within = [
        [(asks, asks[0][0] if asks else grid_size + 1) for _, asks in halves if len(asks) <= n]
        for n in range(max_orders + 1)
    ]
    keys: list[CanonicalKey] = []
    for bids, _ in halves:
        best_bid = bids[0][0] if bids else 0
        keys.extend(
            (bids, asks)
            for asks, best_ask in asks_within[max_orders - len(bids)]
            if best_bid < best_ask
        )
        if len(keys) > budget:
            raise StateSpaceBudgetError(
                f"state space exceeds budget of {budget} (at least {len(keys)})"
            )
    index_of = {key: i for i, key in enumerate(keys)}
    if len(index_of) != len(keys):
        raise OracleError("duplicate canonical keys in enumeration")
    return StateIndex(
        grid_size=grid_size,
        max_quantity=max_quantity,
        max_orders=max_orders,
        keys=tuple(keys),
        index_of=index_of,
    )


def _arrival_key(key: CanonicalKey, ask: bool, price: int, remaining: int) -> CanonicalKey:
    """The key after an arrival, matched as :func:`~lobsim.book.submit_order` does.

    While the arrival crosses the front of the opposite half it fills that
    resident, partially when the resident is larger; a remainder rests
    behind every resident of its level.
    """
    bids, asks = key
    own, opposite = (asks, bids) if ask else (bids, asks)
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
    opposite = front + opposite[filled:]
    if remaining:
        i = 0
        for level, _ in own:
            if level > price if ask else level < price:
                break
            i += 1
        own = own[:i] + ((price, remaining),) + own[i:]
    return (opposite, own) if ask else (own, opposite)


def build_generator(
    model: RateModel, index: StateIndex, caps: Optional[StateCaps] = None
) -> sparse.csc_matrix:
    """Assemble the transition-rate generator over the indexed states.

    Entry (j, i) is the normalized rate of the transition i -> j. Transitions
    are worked out on canonical keys with the rates and the cap rule of
    :func:`~lobsim.rates.event_table`: arrivals from ``arrival_rates``, one
    cancellation per resident, and arrivals whose result would exceed the
    caps (defaulting to the index cutoffs) removed before normalization, so
    the matrix describes the same finite process the capped engine runs. The
    diagonal balances each column to zero; a state with no transition keeps
    an empty column. A transition leaving the index raises ``KeyError``.
    """
    from scipy import sparse

    if caps is None:
        caps = index.caps()
    max_orders = math.inf if caps.max_orders is None else caps.max_orders
    max_quantity = math.inf if caps.max_quantity is None else caps.max_quantity
    omega = model.per_order_cancel_rate
    by_quotes = model.anchoring_mode is AnchoringMode.OPPOSITE_BEST
    # Arrivals as (ask?, level, quantity, raw rate), keyed like the engine's
    # table cache: by the best quotes under opposite-best anchoring.
    arrivals_at: dict = {}
    index_of = index.index_of
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, key in enumerate(index.keys):
        bids, asks = key
        quotes = (bids[0][0] if bids else None, asks[0][0] if asks else None) if by_quotes else ()
        arrivals = arrivals_at.get(quotes)
        if arrivals is None:
            arrivals = arrivals_at[quotes] = [
                (d.kind is EventKind.ARRIVAL_ASK, d.price_level, d.quantity, rate)
                for d, rate in arrival_rates(model, index.state(i)).entries
                if d.quantity <= max_quantity
            ]
        # Arrivals above the quantity cap are gone, so only a resident above
        # it can put a result above it.
        oversized = any(q > max_quantity for _, q in bids + asks)
        targets: list[int] = []
        raws: list[float] = []
        for ask, price, quantity, raw in arrivals:
            target = _arrival_key(key, ask, price, quantity)
            if len(target[0]) + len(target[1]) > max_orders or (
                oversized and any(q > max_quantity for _, q in target[0] + target[1])
            ):
                continue
            targets.append(index_of[target])
            raws.append(raw)
        if omega != 0.0:
            # Slot j cancels element j of bids + asks: submission order in
            # an enumerated book.
            for j in range(len(bids)):
                targets.append(index_of[(bids[:j] + bids[j + 1:], asks)])
            for j in range(len(asks)):
                targets.append(index_of[(bids, asks[:j] + asks[j + 1:])])
            raws.extend([omega] * (len(bids) + len(asks)))
        raw_total = sum(raws)
        if raw_total <= 0.0:
            continue
        factor = model.event_intensity / raw_total
        outflow = 0.0
        for j, raw in zip(targets, raws):
            rate = raw * factor
            rows.append(j)
            cols.append(i)
            data.append(rate)
            outflow += rate
        rows.append(i)
        cols.append(i)
        data.append(-outflow)
    return sparse.csc_matrix((data, (rows, cols)), shape=(len(index), len(index)))


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
    transition = (
        sparse.identity(p.size, format="csr") + generator.tocsr() / rate_cap
    )
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


def compare_distributions(
    empirical: Sequence[float], exact: Sequence[float]
) -> float:
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
    return np.asarray([len(bids) + len(asks) for bids, asks in index.keys], dtype=float)


def tiny_nonoverlapping_model() -> tuple[RateModel, StateCaps]:
    """Two-level model with disjoint supports: bids at level 1, asks at 2.

    No arrival can cross, so the truncated process is a pure birth-death
    system in the two depth counts; every transition rate is hand-checkable.
    """
    point = DgxParams(mu=0.0, sigma=1.0, support_size=1)
    group = TraderGroup(
        share=1.0, ask_params=point, bid_params=point, ask_anchor=2, bid_anchor=1
    )
    model = RateModel(
        grid_size=2,
        groups=(group,),
        per_order_cancel_rate=0.1,
        event_intensity=6.0,
        anchoring_mode=AnchoringMode.STATIC_SUPPORT,
    )
    return model, StateCaps(max_orders=4, max_quantity=1)


def tiny_overlapping_model() -> tuple[RateModel, StateCaps]:
    """Two-level model whose supports fully overlap, exercising matching.

    Bids arrive on levels {2, 1} and asks on {1, 2}, so arrivals regularly
    cross the standing best quote and execute inside a transition.
    """
    spread_params = DgxParams(mu=1.0, sigma=3.0, support_size=2)
    group = TraderGroup(
        share=1.0,
        ask_params=spread_params,
        bid_params=spread_params,
        ask_anchor=1,
        bid_anchor=2,
    )
    model = RateModel(
        grid_size=2,
        groups=(group,),
        per_order_cancel_rate=0.1,
        event_intensity=6.0,
        anchoring_mode=AnchoringMode.STATIC_SUPPORT,
    )
    return model, StateCaps(max_orders=4, max_quantity=1)


def tiny_opposite_model() -> tuple[RateModel, StateCaps]:
    """Three-level model under opposite-best anchoring.

    Each side's rank 1 sits on the opposite best quote (level 2 while that
    side is empty), so the arrival rates move with the book: the most
    state-dependent path of the engine, on 95 states.
    """
    params = DgxParams(mu=1.0, sigma=3.0, support_size=2)
    group = TraderGroup(share=1.0, ask_params=params, bid_params=params, ask_anchor=2, bid_anchor=2)
    model = RateModel(
        grid_size=3,
        groups=(group,),
        per_order_cancel_rate=0.1,
        event_intensity=6.0,
        anchoring_mode=AnchoringMode.OPPOSITE_BEST,
    )
    return model, StateCaps(max_orders=4, max_quantity=1)
