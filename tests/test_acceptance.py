"""Acceptance suite: every release criterion at its stated scale.

Each test prints one ``ACCEPTANCE PASS/FAIL: <criterion>`` line (visible with
``pytest -s``) and asserts the criterion at its pinned tolerance. Seeds are
fixed, so the whole suite is deterministic.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import brute_force_clearing, random_crossed_book, random_operation_walk

from lobsim.book import Side, auction_match, empty_book, indicative_price, submit_order
from lobsim.engine import RecordingConfig, simulate
from lobsim.observables import xlm
from lobsim.rates import EventKind, event_table
from lobsim.scenario import (
    build_rate_model,
    compare_summaries,
    preset,
    run_scenario,
    validate_against_oracle,
    write_bundle,
)

pytestmark = pytest.mark.acceptance

ORDERING_SEED = 20250101


def report(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {name}{suffix}")
    assert passed, f"{name}{suffix}"


@pytest.mark.parametrize("model_name", ["tiny", "tiny-overlap", "tiny-opposite"])
def test_oracle_equivalence(model_name):
    """Engine empirical state law vs exact solution: TV <= 0.02 at t in
    {0.5, 1, 2} with 1e5 capped runs, on every tiny model."""
    result = validate_against_oracle(model_name, runs=100_000, base_seed=2024)
    worst = max(result.tv_distances.values())
    detail = ", ".join(
        f"TV(t={t})={tv:.4f}" for t, tv in sorted(result.tv_distances.items())
    )
    report(
        f"oracle equivalence [{model_name}]",
        all(tv <= 0.02 for tv in result.tv_distances.values()),
        detail + f"; worst {worst:.4f} vs 0.02",
    )


@pytest.mark.parametrize("model_name", ["tiny", "tiny-overlap", "tiny-opposite"])
def test_generator_validity(model_name):
    """Every generator column sums to zero within 1e-12; off-diagonals >= 0."""
    result = validate_against_oracle(model_name, runs=2, base_seed=1)
    report(
        f"generator validity [{model_name}]",
        result.max_column_sum <= 1e-12 and result.min_off_diagonal >= 0.0,
        f"max |col sum| {result.max_column_sum:.2e}, "
        f"min off-diag {result.min_off_diagonal:.2e}",
    )


def test_event_intensity_contract():
    """Events per unit time within 6 +- 1% over 1e6 events; inter-event
    times pass a KS test against Exp(6) at the 0.1% level."""
    model = build_rate_model(preset("scenario1"))
    result = simulate(
        model,
        event_count=1_000_000,
        seed=1812,
        recording=RecordingConfig(events=False, collect_inter_event_times=True),
    )
    rate = result.event_count / result.final_time
    ks = stats.kstest(result.inter_event_times, "expon", args=(0.0, 1.0 / 6.0))
    report(
        "event intensity contract",
        abs(rate - 6.0) <= 0.06 and ks.pvalue > 0.001,
        f"rate {rate:.4f} vs 6 +- 1%, KS p-value {ks.pvalue:.4f}",
    )


def test_relative_likelihood_ratios():
    """Frozen two-bid state: bid-arrival:cancellation = 5 and
    any-arrival:cancellation = 10, exactly (1e-12)."""
    model = build_rate_model(preset("scenario1"))
    state, _ = submit_order(empty_book(20), Side.BID, 10, 1)
    state, _ = submit_order(state, Side.BID, 9, 1)
    table = event_table(model, state)
    bid_mass = sum(r for d, r in table.entries if d.kind is EventKind.ARRIVAL_BID)
    arrival_mass = sum(
        r for d, r in table.entries if d.kind is not EventKind.CANCELLATION
    )
    cancel_mass = sum(r for d, r in table.entries if d.kind is EventKind.CANCELLATION)
    bid_ratio = float(bid_mass / cancel_mass)
    any_ratio = float(arrival_mass / cancel_mass)
    report(
        "relative likelihood ratios",
        abs(bid_ratio - 5.0) <= 1e-12 and abs(any_ratio - 10.0) <= 1e-12,
        f"bid:cancel {bid_ratio!r}, any:cancel {any_ratio!r}",
    )


def test_scenario_ordering():
    """Two-group flow vs one-group flow at 200 runs x 5000 events: wider
    spread, lower transaction rate, higher return volatility, worse XLM,
    each with non-overlapping 95% confidence intervals."""
    rows = {}
    for name in ("scenario1", "scenario2"):
        config = replace(
            preset(name), runs=200, events_per_run=5000, base_seed=ORDERING_SEED
        )
        bundle = run_scenario(config)
        rows[name] = [
            {
                "mean_spread": s.mean_spread,
                "transaction_rate": s.transaction_rate,
                "return_volatility": s.return_volatility,
                "mean_xlm": s.mean_xlm,
            }
            for s in bundle.summaries
        ]
    comparison = compare_summaries(
        rows["scenario1"],
        rows["scenario2"],
        label_a="scenario1",
        label_b="scenario2",
        observables=["mean_spread", "transaction_rate", "return_volatility", "mean_xlm"],
    )
    expectations = {
        "mean_spread": "greater",
        "transaction_rate": "less",
        "return_volatility": "greater",
        "mean_xlm": "greater",
    }
    verdicts = {row.observable: row.verdict for row in comparison.rows}
    detail = ", ".join(f"{k}: {v}" for k, v in verdicts.items())
    report(
        "scenario ordering",
        all(verdicts[k] == v for k, v in expectations.items()),
        detail,
    )


def test_matching_rule_property_suite():
    """1e5 random operations: never a crossed book, quantity always
    conserved, every transaction at a resident order's level."""
    stats_ = random_operation_walk(operations=100_000, seed=424242)
    report(
        "matching rule property suite",
        stats_.operations == 100_000,
        f"{stats_.submissions} submissions, {stats_.cancellations} cancellations, "
        f"{stats_.transactions} transactions, zero violations",
    )


def test_auction_oracle():
    """1e4 random crossed books: clearing price equals the brute-force
    volume maximizer under the documented tie-break, zero mismatches."""
    rng = np.random.default_rng(31415)
    mismatches = 0
    checked = 0
    for _ in range(10_000):
        state = random_crossed_book(rng)
        expected = brute_force_clearing(state)
        got = indicative_price(state)
        if expected is None:
            if got is not None:
                mismatches += 1
            continue
        checked += 1
        cleared, trades = auction_match(state, time=1.0)
        if got != expected[0] or len(trades) != 1:
            mismatches += 1
            continue
        if (trades[0].price_level, trades[0].quantity) != expected:
            mismatches += 1
    report(
        "auction oracle",
        mismatches == 0,
        f"{checked} crossed books, {mismatches} mismatches",
    )


def test_xlm_determinism():
    """bid 1@9 / ask 1@11: ask leg 909.0909..., bid leg 1111.1111...,
    total 2020.2020..., each within 1e-6."""
    state, _ = submit_order(empty_book(20), Side.BID, 9, 1)
    state, _ = submit_order(state, Side.ASK, 11, 1)
    values = xlm(state)
    ok = (
        abs(values.ask - 10_000.0 / 11.0) <= 1e-6
        and abs(values.bid - 10_000.0 / 9.0) <= 1e-6
        and abs(values.total - (10_000.0 / 11.0 + 10_000.0 / 9.0)) <= 1e-6
    )
    report(
        "xlm determinism",
        ok,
        f"ask {values.ask:.6f}, bid {values.bid:.6f}, total {values.total:.6f}",
    )


def test_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical CSV outputs across
    two consecutive invocations."""
    config = replace(
        preset("scenario1"), runs=5, events_per_run=400, base_seed=606, record="heatmap"
    )
    write_bundle(run_scenario(config), tmp_path / "first")
    write_bundle(run_scenario(config), tmp_path / "second")
    identical = all(
        (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes()
        for name in ("summary.csv", "heatmap.csv", "metadata.json")
    )
    report("reproducibility", identical, "summary.csv, heatmap.csv, metadata.json")
