"""Exact forward-equation solver on a truncated book state space.

Enumerates every price-time-normal-form book within the cutoffs, assembles
the sparse transition-rate generator from the same event tables the engine
samples from, and evolves probability vectors with uniformization. Used as
the ground truth the stochastic engine is validated against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .book import BookState, CanonicalKey, Order, Side, StateCaps
from .rates import (
    AbsorbingStateError,
    AnchoringMode,
    DgxParams,
    RateModel,
    TraderGroup,
    apply_event,
    event_table,
)


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
    states: tuple[BookState, ...]

    def __len__(self) -> int:
        return len(self.keys)

    def index(self, key: CanonicalKey) -> int:
        return self.index_of[key]

    def position(self, state: BookState) -> int:
        """Index of an observed state; :class:`OracleError` if it lies outside."""
        key = state.canonical_key()
        if key not in self.index_of:
            raise OracleError(f"observed state outside the index: {key}")
        return self.index_of[key]

    def state(self, i: int) -> BookState:
        return self.states[i]

    def caps(self) -> StateCaps:
        return StateCaps(max_orders=self.max_orders, max_quantity=self.max_quantity)


def _quantity_tuples(max_len: int, max_quantity: int) -> Iterable[tuple[int, ...]]:
    for length in range(max_len + 1):
        yield from product(range(1, max_quantity + 1), repeat=length)


def _side_configs(
    grid_size: int, max_quantity: int, max_orders: int
) -> list[tuple[tuple[tuple[int, tuple[int, ...]], ...], int]]:
    """All per-side placements: ((level, quantity tuple), ...) with totals.

    The quantity tuple at a level is in time-priority order; distinct
    orderings are distinct states because matching consumes the front of the
    queue first.
    """
    configs: list[tuple[tuple[tuple[int, tuple[int, ...]], ...], int]] = []
    acc: list[tuple[int, tuple[int, ...]]] = []

    def recurse(level: int, used: int) -> None:
        if level > grid_size:
            configs.append((tuple(acc), used))
            return
        for qtuple in _quantity_tuples(max_orders - used, max_quantity):
            if qtuple:
                acc.append((level, qtuple))
            recurse(level + 1, used + len(qtuple))
            if qtuple:
                acc.pop()

    recurse(1, 0)
    return configs


def _build_state(
    grid_size: int,
    bid_config: tuple[tuple[int, tuple[int, ...]], ...],
    ask_config: tuple[tuple[int, tuple[int, ...]], ...],
) -> BookState:
    seq = 1
    bids: list[Order] = []
    for level, quantities in sorted(bid_config, key=lambda lc: -lc[0]):
        for q in quantities:
            bids.append(Order(Side.BID, level, q, seq, seq))
            seq += 1
    asks: list[Order] = []
    for level, quantities in ask_config:
        for q in quantities:
            asks.append(Order(Side.ASK, level, q, seq, seq))
            seq += 1
    return BookState(
        grid_size=grid_size,
        bids=tuple(bids),
        asks=tuple(asks),
        last_transaction=None,
        next_seq=seq,
    )


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
    """
    sides = _side_configs(grid_size, max_quantity, max_orders)
    keys: list[CanonicalKey] = []
    states: list[BookState] = []
    for bid_config, bid_total in sides:
        best_bid = max((level for level, _ in bid_config), default=None)
        for ask_config, ask_total in sides:
            if bid_total + ask_total > max_orders:
                continue
            if best_bid is not None and ask_config:
                best_ask = min(level for level, _ in ask_config)
                if best_bid >= best_ask:
                    continue
            state = _build_state(grid_size, bid_config, ask_config)
            states.append(state)
            keys.append(state.canonical_key())
            if len(states) > budget:
                raise StateSpaceBudgetError(
                    f"state space exceeds budget of {budget} (at least {len(states)})"
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
        states=tuple(states),
    )


def build_generator(
    model: RateModel, index: StateIndex, caps: Optional[StateCaps] = None
) -> sparse.csc_matrix:
    """Assemble the transition-rate generator over the indexed states.

    Entry (j, i) is the normalized rate of the transition i -> j, obtained by
    applying each event in state i's table through the book core; the
    diagonal balances each column to zero. Transitions that would leave the
    truncation are excluded by the caps (defaulting to the index cutoffs),
    so the matrix describes the same finite process the capped engine runs.
    """
    if caps is None:
        caps = index.caps()
    n = len(index)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i in range(n):
        state = index.state(i)
        try:
            table = event_table(model, state, caps=caps)
        except AbsorbingStateError:
            continue
        factor = table.normalization
        outflow = 0.0
        for descriptor, raw in table.entries:
            target, _ = apply_event(state, descriptor)
            j = index.index_of[target.canonical_key()]
            rate = raw * factor
            rows.append(j)
            cols.append(i)
            data.append(rate)
            outflow += rate
        rows.append(i)
        cols.append(i)
        data.append(-outflow)
    return sparse.csc_matrix((data, (rows, cols)), shape=(n, n))


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


def empirical_distribution(
    index: StateIndex, states: Iterable[BookState]
) -> np.ndarray:
    """Frequency vector of observed states over the index."""
    counts = np.zeros(len(index), dtype=float)
    total = 0
    for state in states:
        counts[index.position(state)] += 1.0
        total += 1
    if total == 0:
        raise OracleError("no observed states")
    return counts / total


def vacuum_vector(index: StateIndex) -> np.ndarray:
    """Point mass on the empty book."""
    p0 = np.zeros(len(index))
    p0[index.index(((), ()))] = 1.0
    return p0


def order_count_observable(index: StateIndex) -> np.ndarray:
    """Total resident order count per indexed state."""
    return np.asarray([s.order_count() for s in index.states], dtype=float)


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
