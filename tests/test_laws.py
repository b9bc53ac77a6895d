"""Exact laws of the uncapped loop, checked on the engine's own runs.

On a non-crossing model (static anchoring, every bid level below every ask
level) each level is an M/M/inf queue in raw rates: orders arrive at level l
at rate a_l and each resident cancels at rate omega. The engine rescales
every state's total rate to the event intensity, which changes time but not
the jump chain. Re-timing a run's jump chain with independent Exp(A + omega N)
holding times, where A is the sum of the a_l and N the order count before the
event, gives the raw process. From the empty book its level counts at time t
are then independent Poisson(m_l (1 - exp(-omega t))) with m_l = a_l / omega:
exact at any grid size and time, with no cap and no burn-in.

The a_l are computed here from ``dgx_pmf``, the shares and the anchors, not
from the side rows the engine, ``step()`` and the oracle share, so a fault in
that shared code shows. Matching, opposite-best anchoring and the order in
which residents cancel are out of reach of this law.
"""

import math

import numpy as np
import pytest
from scipy import stats

from lobsim.engine import RecordingConfig, derive_run_seeds, simulate
from lobsim.rates import DgxParams, RateModel, TraderGroup, dgx_pmf

K, OMEGA = 20, 0.1
# The chance that a correct engine fails one parametrized case: each check must reach
# p >= FAMILY_ALPHA / (number of the case's checks), Bonferroni's rule.
FAMILY_ALPHA = 1e-3
# Events per run: about 140 are expected by t = 40, so every run passes the last horizon.
EVENTS = 240

# Groups as (share, (mu, sigma), bid levels, ask levels); every bid level is below every ask
# level, so no arrival crosses. DGX rank 1 sits on the level nearest the other side.
ONE_GROUP = [(1.0, (1.0, 3.0), range(1, 11), range(11, 21))]
TWO_GROUPS = [
    (0.6, (1.0, 3.0), range(1, 11), range(11, 21)),
    (0.4, (4.0, 1.0), range(3, 7), range(15, 18)),
]


def model_and_arrivals(groups):
    """The rate model of ``groups``, and the raw arrival rate a_l per signed level -K..K."""
    traders, arrivals = [], np.zeros(2 * K + 1)
    for share, (mu, sigma), bids, asks in groups:
        bid_params, ask_params = DgxParams(mu, sigma, len(bids)), DgxParams(mu, sigma, len(asks))
        traders.append(TraderGroup(share, ask_params, bid_params, asks[0], bids[-1]))
        # Rank r (from 0) lies r levels below the bid anchor and r above the ask anchor.
        arrivals[K - bids[-1] + np.arange(len(bids))] += share * dgx_pmf(bid_params)
        arrivals[K + asks[0] + np.arange(len(asks))] += share * dgx_pmf(ask_params)
    return RateModel(K, tuple(traders), OMEGA, 6.0), arrivals


def books_at(model, total_arrival, times, runs, base_seed, hold_seed):
    """Each run's counts per signed level at each raw time, shape (times, runs, 2K + 1): its
    jump chain from ``simulate``, re-timed with holding times from their own generator."""
    holds = np.random.default_rng(hold_seed)
    books = np.zeros((len(times), runs, 2 * K + 1), dtype=np.int64)
    recording = RecordingConfig(events=False, depth_window=EVENTS)
    for run, seed in enumerate(derive_run_seeds(base_seed, runs)):
        result = simulate(model, event_count=EVENTS, seed=seed, recording=recording)
        counts = result.depth_frames.counts  # row i: the book after event i + 1
        before = np.concatenate([[0], counts[:-1].sum(axis=1)])
        clock = np.cumsum(holds.standard_exponential(EVENTS) / (total_arrival + OMEGA * before))
        assert clock[-1] > times[-1], f"run {run} falls short of t = {times[-1]}"
        for i, events in enumerate(np.searchsorted(clock, times, side="right").tolist()):
            if events:  # else the book is still empty
                books[i, run] = counts[events - 1]
    return books


def poisson_chi2_p(values, mean):
    """Pearson's chi-squared p-value of the counts ``values`` against Poisson(``mean``), in at
    most ten bins cut at the law's deciles; each bin must expect at least 5 counts."""
    edges = np.unique(stats.poisson.ppf(np.arange(1, 10) / 10, mean))
    expected = len(values) * np.diff(stats.poisson.cdf(edges, mean), prepend=0.0, append=1.0)
    observed = np.bincount(np.searchsorted(edges, values), minlength=len(edges) + 1)
    assert expected.min() >= 5, expected
    statistic = ((observed - expected) ** 2 / expected).sum()
    return stats.chi2.sf(statistic, len(expected) - 1)


@pytest.mark.parametrize(
    "groups, times, runs",
    [(ONE_GROUP, (10.0, 40.0), 3000), (TWO_GROUPS, (40.0,), 1500)],
    ids=["one-group", "two-groups"],
)
def test_level_counts_are_poisson_after_a_time_change(groups, times, runs):
    # Per horizon: a z of each level's mean count and of the order count N's, and a
    # chi-squared of each level's counts and of N's, all against the Poisson laws.
    model, arrivals = model_and_arrivals(groups)
    books = books_at(model, arrivals.sum(), times, runs, base_seed=21, hold_seed=2021)
    p_values = {}
    for t, book in zip(times, books):
        means = arrivals / OMEGA * -math.expm1(-OMEGA * t)
        assert not book[:, means == 0].any()
        columns = [(f"level {s}", book[:, K + s], means[K + s]) for s in range(-K, K + 1)]
        columns.append(("N", book.sum(axis=1), means.sum()))
        for name, values, mean in columns:
            if mean > 0:
                z = (values.mean() - mean) / math.sqrt(mean / runs)
                p_values[f"t = {t}, {name}, z = {z:+.2f}"] = 2 * stats.norm.sf(abs(z))
                p_values[f"t = {t}, {name}, chi-squared"] = poisson_chi2_p(values, mean)
    threshold = FAMILY_ALPHA / len(p_values)
    failed = {check: p for check, p in p_values.items() if p < threshold}
    assert not failed, (threshold, failed)
