"""Scenario runner: presets, config validation, CSV outputs, comparisons,
validation reports, and the command line."""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobsim import engine, oracle, rates, scenario
from lobsim.cli import EXIT_CONFIG, EXIT_INTERNAL, EXIT_IO, EXIT_OK, main
from lobsim.engine import RecordingConfig, derive_run_seeds, simulate
from lobsim.scenario import (
    EVENTS_COLUMNS,
    HEATMAP_COLUMNS,
    SUMMARY_COLUMNS,
    ConfigError,
    GroupConfig,
    arrival_rate_rows,
    build_rate_model,
    compare_bundles,
    compare_summaries,
    config_from_dict,
    config_hash,
    load_config,
    preset,
    read_summaries,
    run_scenario,
    write_bundle,
)


GROUP = {"share": 1.0, "mu": 1.0, "sigma": 3.0, "support": 12, "bid_anchor": 12, "ask_anchor": 9}


def small_config(name="scenario1", runs=3, events=150, seed=99):
    return replace(preset(name), runs=runs, events_per_run=events, base_seed=seed)


class TestPresets:
    def test_scenario1_matches_published_parameters(self):
        config = preset("scenario1")
        assert len(config.groups) == 1
        group = config.groups[0]
        assert group.share == 1.0
        assert (group.mu, group.sigma, group.support) == (1.0, 3.0, 12)
        assert (group.bid_anchor, group.ask_anchor) == (12, 9)
        assert config.cancel_rate == 0.1
        assert config.event_intensity == 6.0
        assert config.grid_size == 20

    def test_scenario2_group_mixture(self):
        config = preset("scenario2")
        shares = [g.share for g in config.groups]
        assert shares == [0.7, 0.3]
        g2 = config.groups[1]
        assert (g2.mu, g2.sigma, g2.support) == (4.0, 1.0, 14)
        assert (g2.bid_anchor, g2.ask_anchor) == (14, 7)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("scenario9")


class TestConfigValidation:
    def test_shares_must_sum_to_one(self):
        raw = {
            "groups": [
                {"share": 0.5, "mu": 1, "sigma": 3, "support": 12,
                 "bid_anchor": 12, "ask_anchor": 9},
                {"share": 0.4, "mu": 4, "sigma": 1, "support": 14,
                 "bid_anchor": 14, "ask_anchor": 7},
            ]
        }
        with pytest.raises(ConfigError, match="sum to 1"):
            config_from_dict(raw)

    def test_errors_are_itemized(self):
        raw = {
            "grid_size": 0,
            "record": "movie",
            "groups": [
                {"share": 1.0, "mu": 1, "sigma": -1, "support": 12,
                 "bid_anchor": 12, "ask_anchor": 9},
            ],
        }
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(raw)
        assert len(excinfo.value.problems) >= 3

    def test_every_model_problem_is_named(self):
        raw = {"groups": [GROUP], "cancel_rate": -1, "unit_quantity": 0}
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(raw)
        message = str(excinfo.value)
        assert "cancellation rate" in message and "unit quantity" in message

    @pytest.mark.parametrize("support", [10**400, 21], ids=["past-int64", "grid-plus-one"])
    @pytest.mark.parametrize("verb", ["run", "print-rates"])
    def test_support_past_the_grid_is_config_error(self, tmp_path, capsys, verb, support):
        # Checked before any DGX weights are built: 10**400 exited 4 from numpy's
        # "Maximum allowed size exceeded".
        path = tmp_path / "support.json"
        path.write_text(json.dumps({"groups": [{**GROUP, "support": support}], "runs": 1}))
        out = tmp_path / "o"
        args = ["--out", str(out)] if verb == "run" else []
        assert main([verb, "--config", str(path), *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        expected = f"groups[0] support leaves the grid: {support} levels exceed grid_size 20"
        assert captured.err == f"config error: {expected}\n"
        assert captured.out == "" and not out.exists()

    def test_support_must_fit_grid(self):
        raw = {
            "grid_size": 10,
            "groups": [
                {"share": 1.0, "mu": 1, "sigma": 3, "support": 12,
                 "bid_anchor": 10, "ask_anchor": 1},
            ],
        }
        with pytest.raises(ConfigError, match="support leaves the grid"):
            config_from_dict(raw)

    def test_load_json_roundtrip(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(
            json.dumps(
                {
                    "groups": [
                        {"share": 1.0, "mu": 1.0, "sigma": 3.0, "support": 12,
                         "bid_anchor": 12, "ask_anchor": 9}
                    ],
                    "runs": 5,
                    "events_per_run": 100,
                }
            )
        )
        config = load_config(path)
        assert config.runs == 5
        assert config.name == "custom"
        build_rate_model(config)

    def test_negative_seed_rejected(self):
        raw = {"groups": [{"share": 1.0, "mu": 1, "sigma": 3, "support": 12,
                           "bid_anchor": 12, "ask_anchor": 9}], "base_seed": -1}
        with pytest.raises(ConfigError, match="base_seed"):
            config_from_dict(raw)

    def test_overrides_are_validated(self):
        config = replace(preset("scenario1"), runs=5, base_seed=3)
        assert (config.runs, config.base_seed, config.groups) == (5, 3, preset("scenario1").groups)
        assert config.name == "scenario1"
        with pytest.raises(ConfigError, match="runs"):
            replace(preset("scenario1"), runs=0)

    @pytest.mark.parametrize("field, value", [("support", 12.7), ("share", True), ("bid_anchor", "12")])
    def test_group_fields_are_typed(self, field, value):
        raw = {"groups": [{**GROUP, field: value}]}
        with pytest.raises(ConfigError, match=rf"groups\[0\]\.{field} must be"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "group, top, problem",
        [
            ({"support": 2.0}, {}, "groups[0].support must be an integer, got 2.0"),
            ({"ask_anchor": True}, {}, "groups[0].ask_anchor must be an integer, got True"),
            ({}, {"grid_size": True}, "grid_size must be an integer, got True"),
            ({}, {"unit_quantity": 1.5}, "unit_quantity must be an integer, got 1.5"),
        ],
    )
    def test_integer_fields_keep_their_scenario_messages(self, group, top, problem):
        # The scenario types its fields before it builds the model, so the model's
        # own integer check never names them.
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict({"groups": [{**GROUP, **group}], **top})
        assert excinfo.value.problems == [problem]

    def test_unknown_group_key_rejected(self):
        raw = {"groups": [{**GROUP, "weight": 1.0}]}
        with pytest.raises(ConfigError, match="unknown key 'weight' in groups\\[0\\]"):
            config_from_dict(raw)

    def test_nan_event_intensity_rejected(self):
        raw = {"groups": [GROUP], "event_intensity": float("nan")}
        with pytest.raises(ConfigError, match="event_intensity"):
            config_from_dict(raw)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_hash_stable_and_sensitive(self):
        a = config_hash(preset("scenario1"))
        b = config_hash(preset("scenario1"))
        c = config_hash(replace(preset("scenario1"), base_seed=1))
        assert a == b
        assert a != c


class TestRunScenario:
    def test_summary_rows_match_runs(self):
        bundle = run_scenario(small_config(runs=4, events=200))
        assert len(bundle.summaries) == 4
        assert bundle.aborted_runs == []
        assert bundle.metadata["config_hash"] == config_hash(small_config(runs=4, events=200))

    def test_zero_event_runs(self):
        bundle = run_scenario(small_config(runs=1, events=0))
        assert len(bundle.summaries) == 1
        assert bundle.summaries[0].events == 0
        assert math.isnan(bundle.summaries[0].mean_spread)

    def test_zero_cancellation_rate(self):
        config = replace(small_config(runs=2, events=300), cancel_rate=0.0)
        bundle = run_scenario(config)
        assert bundle.aborted_runs == []
        assert [s.events for s in bundle.summaries] == [300, 300]

    def test_write_and_read_back(self, tmp_path):
        bundle = run_scenario(small_config(runs=3, events=150))
        written = write_bundle(bundle, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {"summary.csv", "metadata.json"}
        metadata, rows = read_summaries(tmp_path / "out")
        assert len(rows) == 3
        assert list(rows[0]) == SUMMARY_COLUMNS
        assert metadata["schema_version"] == 1
        assert metadata["base_seed"] == 99

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config(runs=2, events=300)
        write_bundle(run_scenario(config), tmp_path / "a")
        write_bundle(run_scenario(config), tmp_path / "b")
        for name in ("summary.csv", "metadata.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_numpy_numbers_write_the_plain_config_bytes(self, tmp_path):
        # Stored as int and float, so metadata.json serializes and the runs match.
        plain = replace(preset("scenario1"), runs=2, events_per_run=50, cancel_rate=0.1)
        config = replace(
            preset("scenario1"), runs=np.int64(2), events_per_run=np.int64(50),
            cancel_rate=np.float64(0.1),
        )
        write_bundle(run_scenario(plain), tmp_path / "plain")
        write_bundle(run_scenario(config), tmp_path / "numpy")
        for name in ("summary.csv", "metadata.json"):
            expected = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "numpy" / name).read_bytes() == expected

    def test_heatmap_recording(self, tmp_path):
        config = replace(small_config(runs=2, events=250), record="heatmap", heatmap_window=50)
        bundle = run_scenario(config)
        assert bundle.heatmap is not None
        # 50 steps x 2 sides x 20 levels
        assert len(bundle.heatmap) == 50 * 2 * 20
        written = write_bundle(bundle, tmp_path / "heat")
        heatmap_path = tmp_path / "heat" / "heatmap.csv"
        assert heatmap_path in written
        header = heatmap_path.read_text().splitlines()[0]
        assert header.split(",") == HEATMAP_COLUMNS

    def test_events_recording(self, tmp_path):
        config = replace(small_config(runs=2, events=120), record="events")
        bundle = run_scenario(config)
        assert bundle.events is not None
        assert sum(run.count("\n") for run in bundle.events) == 2 * 120
        write_bundle(bundle, tmp_path / "ev")
        lines = (tmp_path / "ev" / "events.csv").read_text().splitlines()
        assert lines[0] == ",".join(EVENTS_COLUMNS)
        assert len(lines) == 1 + 2 * 120

    def test_rewritten_bundle_holds_only_its_own_files(self, tmp_path):
        out = tmp_path / "out"
        (out / "notes").mkdir(parents=True)
        (out / "notes.txt").write_text("kept\n")
        write_bundle(run_scenario(replace(small_config(runs=2, events=50), record="events")), out)
        config = small_config(runs=3, events=50)
        written = write_bundle(run_scenario(config), out)
        write_bundle(run_scenario(config), tmp_path / "fresh")
        assert sorted(p.name for p in out.iterdir()) == [
            "metadata.json", "notes", "notes.txt", "summary.csv"
        ]
        assert [p.name for p in written] == ["summary.csv", "metadata.json"]
        for name in ("summary.csv", "metadata.json"):
            assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


@st.composite
def drawn_configs(draw):
    """A valid config: grid 2-20, 1-3 groups, either anchoring, any record mode,
    a cancellation rate that may be 0, up to 3 runs of up to 300 events, any seed."""
    grid = draw(st.integers(2, 20))
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    groups = []
    for weight in weights:
        support = draw(st.integers(1, grid))
        groups.append(
            GroupConfig(
                weight / sum(weights),
                draw(st.floats(0.0, math.log(support))),
                draw(st.floats(0.5, 4.0)),
                support,
                bid_anchor=draw(st.integers(support, grid)),
                ask_anchor=draw(st.integers(1, grid - support + 1)),
            )
        )
    record = draw(st.sampled_from(["summary", "events", "heatmap"]))
    events = draw(st.integers(1 if record == "heatmap" else 0, 300))
    return scenario.ScenarioConfig(
        name="drawn",
        groups=tuple(groups),
        grid_size=grid,
        cancel_rate=draw(st.sampled_from([0.0, 0.1, 0.5])),
        anchoring=draw(st.sampled_from(["static", "opposite_best"])),
        runs=draw(st.integers(1, 3)),
        events_per_run=events,
        base_seed=draw(st.integers(0, 2**63)),
        record=record,
        heatmap_window=draw(st.integers(1, max(events, 1))),
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(drawn_configs())
def test_byte_identical_reruns_of_drawn_configs(config):
    # The first run builds every table and side row anew, the second reuses them.
    engine._cache.cache_clear()
    rates._side_row.cache_clear()
    with tempfile.TemporaryDirectory() as out:
        written = write_bundle(run_scenario(config), Path(out, "first"))
        again = write_bundle(run_scenario(config), Path(out, "second"))
        assert [p.name for p in written] == [p.name for p in again]
        for path, other in zip(written, again):
            assert path.read_bytes() == other.read_bytes(), path.name


# Values from the edges of each JSON type, for any field: bools, 0 and -1, integers past
# int64 and past Python's digit limit, floats at and past the float range, the smallest
# subnormal, -0.0, NaN and the infinities, and strings, null, lists and objects.
HUGE = object()  # written as the digits of 10**5000, which json.dumps refuses
EDGES = [True, False, 0, -1, 10**400, HUGE, 1e308, -1e308, 5e-324, -0.0, math.nan, math.inf,
         -math.inf, "", "static", None, [], [None], {}, {"groups": None}]
MISSING = object()  # the key is left out
# Valid values besides the default, so that edits that keep a config valid run too.
VALID = {
    "grid_size": [1, 12, 30], "unit_quantity": [3], "cancel_rate": [0.0, 1e308],
    "event_intensity": [5e-324, 1e308], "anchoring": ["opposite_best"],
    "record": ["events", "heatmap"], "heatmap_window": [30], "base_seed": [10**400],
    "share": [0.0], "mu": [-0.0], "sigma": [5e-324, 1e308], "support": [1, 20],
    "bid_anchor": [1, 20], "ask_anchor": [1, 20],
}
# Cells a completed run defines: always, once it was quoted, after one trade, after two.
DEFINED = [
    (lambda row: True, ["events", "elapsed_time", "transaction_count", "quote_coverage"]),
    (lambda row: row["quote_coverage"] > 0, [
        "mean_spread", "std_spread", "mean_mid", "std_mid", "mean_best_bid", "mean_best_ask",
        "mean_xlm_ask", "mean_xlm_bid", "mean_xlm"]),
    (lambda row: row["transaction_count"] >= 1,
     ["mean_transaction_price", "std_transaction_price"]),
    (lambda row: row["transaction_count"] >= 2, ["mean_return"]),
    (lambda row: row["transaction_count"] >= 3, ["return_volatility"]),
]


@st.composite
def drawn_json_configs(draw):
    """A config file's text: a valid scenario1-like config with up to three top-level or
    group fields set to edge or other valid values, left out, or joined by an unknown key."""
    raw = {"grid_size": 20, "runs": 1, "events_per_run": 30, "heatmap_window": 10,
           "groups": [dict(GROUP)]}
    if draw(st.booleans()):
        raw["groups"] = [{**GROUP, "share": 0.5}, {**GROUP, "share": 0.5, "support": 8}]
    names = [f.name for f in fields(scenario.ScenarioConfig)] + list(GROUP) + ["unknown"]
    chosen = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    for name in sorted(chosen, key=lambda name: name not in GROUP):  # groups' fields first
        value = draw(st.sampled_from([MISSING, *VALID.get(name, []), *EDGES]))
        where = raw
        if name in GROUP:
            where = raw["groups"][draw(st.integers(0, len(raw["groups"]) - 1))]
        if value is MISSING:
            where.pop(name, None)
        else:
            where[name] = value
    return json_text(raw)


def json_text(raw) -> str:
    """``raw`` as JSON, NaN and the infinities as Python's json writes them."""
    return json.dumps(raw, default=lambda value: "<huge>").replace('"<huge>"', "1" + "0" * 5000)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(drawn_json_configs())
# Each exited 4: DGX weights over 10**400 ranks (also on a grid as wide), and a float
# sigma squared past the range.
@example(json_text({"groups": [{**GROUP, "support": 10**400}]}))
@example(json_text({"grid_size": 10**400, "groups": [{**GROUP, "support": 10**400}]}))
@example(json_text({"groups": [{**GROUP, "sigma": 1e308}]}))
# An events_per_run with no bound ran until it was killed; both verbs now exit 2 on it.
@example(json_text({"events_per_run": 10**400, "groups": [GROUP]}))
def test_any_json_config_exits_0_or_2(text):
    # Whatever a JSON file holds, run and print-rates exit 0 or 2; an exit 0 leaves
    # no NaN in a cell a completed run defines.
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "drawn.json"), Path(tmp, "out")
        path.write_text(text, encoding="utf-8")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            codes = [
                main(["run", "--config", str(path), "--runs", "2", "--events", "30", "--out",
                      str(out)]),
                main(["print-rates", "--config", str(path)]),
            ]
        assert codes in ([EXIT_OK] * 2, [EXIT_CONFIG] * 2), (codes, err.getvalue())
        if codes[0] == EXIT_OK:
            for row in read_summaries(out)[1]:
                for defines, columns in DEFINED if row["completed"] else ():
                    if defines(row):
                        assert not any(math.isnan(row[c]) for c in columns), row


class TestCompare:
    def test_self_comparison_indistinguishable(self, tmp_path):
        config = small_config(runs=6, events=300)
        write_bundle(run_scenario(config), tmp_path / "x")
        report = compare_bundles(tmp_path / "x", tmp_path / "x")
        for row in report.rows:
            assert row.verdict == "indistinguishable"

    def test_antisymmetry(self):
        rng = np.random.default_rng(0)
        rows_a = [{"mean_spread": v} for v in rng.normal(3.0, 0.05, size=40)]
        rows_b = [{"mean_spread": v} for v in rng.normal(4.0, 0.05, size=40)]
        forward = compare_summaries(rows_a, rows_b, observables=["mean_spread"])
        backward = compare_summaries(rows_b, rows_a, observables=["mean_spread"])
        assert forward.verdict("mean_spread") == "greater"
        assert backward.verdict("mean_spread") == "less"

    def test_grid_mismatch_rejected(self, tmp_path):
        write_bundle(run_scenario(small_config(runs=1, events=50)), tmp_path / "a")
        other = replace(
            small_config(runs=1, events=50),
            grid_size=10,
            groups=(replace(preset("scenario1").groups[0], support=5, bid_anchor=5, ask_anchor=6),),
        )
        write_bundle(run_scenario(other), tmp_path / "b")
        with pytest.raises(ConfigError):
            compare_bundles(tmp_path / "a", tmp_path / "b")


class TestDistinctRowPositions:
    # validate maps rows to states through scenario._positions, which maps each
    # distinct row once; it must give index.positions(rows) on any rows.
    @pytest.mark.parametrize("name", sorted(scenario.ORACLE_MODELS))
    def test_equals_index_positions(self, name):
        model, caps = scenario.ORACLE_MODELS[name]()
        k, m = model.grid_size, caps.max_orders
        index = oracle.enumerate_states(k, model.unit_quantity, m)
        times = scenario.ORACLE_TIMES
        recording = RecordingConfig(events=False, checkpoint_times=times)
        batch = simulate(
            model, time_horizon=times[-1], seed=derive_run_seeds(5, 300), recording=recording,
            caps=caps,
        )
        held = np.stack([batch.checkpoints[t] for t in times])
        assert len(np.unique(held.reshape(-1, m + 1), axis=0)) < held.size // (m + 1)  # repeats
        # Every submission order of one book (duplicate rows among them), the empty row
        # and a full one.
        orders = np.zeros((24, m + 1), dtype=held.dtype)
        orders[:, :4] = list(permutations([-1, -1, 2, k]))
        full = np.zeros((1, m + 1), dtype=held.dtype)
        full[0, :m] = k
        extra = np.concatenate([orders, np.zeros_like(full), full])
        for rows in (held, extra, np.concatenate([extra, held[-1], extra[::-1]])):
            found = scenario._positions(index, rows)
            assert np.array_equal(found, index.positions(rows)) and found.shape == rows.shape[:-1]
        assert len(set(scenario._positions(index, orders).tolist())) == 1

    @pytest.mark.parametrize(
        "row",
        [[-2, 1, 0, 0, 0], [1, 1, 1, 1, 1], [-3, 0, 0, 0, 0], [0, 0, 0, 9, 0]],
        ids=["crossed", "five-orders", "bid-off-grid", "ask-off-grid"],
    )
    def test_rows_outside_the_index_raise_as_positions_does(self, row):
        model, caps = scenario.ORACLE_MODELS["tiny-overlap"]()
        index = oracle.enumerate_states(model.grid_size, model.unit_quantity, caps.max_orders)
        rows = np.array([[-1, 2, 0, 0, 0], row, [0, 0, 0, 0, 0]], dtype=np.int8)
        with pytest.raises(oracle.OracleError) as expected:
            index.positions(rows)
        with pytest.raises(oracle.OracleError, match="outside the index") as found:
            scenario._positions(index, rows)
        assert str(found.value) == str(expected.value)

    def test_every_oracle_model_codes_rows_in_int64(self):
        for model, caps in (make() for make in scenario.ORACLE_MODELS.values()):
            assert (2 * model.grid_size + 1) ** (caps.max_orders + 1) < 2**63
        # An index whose codes could pass 2**63 is an internal error, before any row is read.
        with pytest.raises(RuntimeError, match="overflow int64"):
            scenario._positions(SimpleNamespace(grid_size=64, max_orders=9), None)

    def test_index_sized_by_order_size_not_quantity_cap(self, monkeypatch):
        # A quantity cap above the order size binds nothing: the index holds the
        # model's orders, so the report equals the uncapped-quantity model's.
        model, caps = scenario.ORACLE_MODELS["tiny-overlap"]()
        loose = replace(caps, max_quantity=model.unit_quantity + 1)
        monkeypatch.setitem(scenario.ORACLE_MODELS, "tiny-overlap-loose", lambda: (model, loose))
        expected = scenario.validate_against_oracle("tiny-overlap", runs=2000, base_seed=3)
        found = scenario.validate_against_oracle("tiny-overlap-loose", runs=2000, base_seed=3)
        assert found.state_count == expected.state_count
        assert found.tv_distances == expected.tv_distances
        assert found.moment_checks == expected.moment_checks


class TestOracleReportLogic:
    def _report(self, **overrides):
        from lobsim.scenario import OracleReport

        base = dict(
            model_name="tiny",
            state_count=35,
            max_column_sum=1e-15,
            min_off_diagonal=0.0,
            tv_distances={1.0: 0.005},
            tv_tolerance=0.02,
            moment_checks=[(1.0, 1, 2.0, 2.01, 0.01)],
            runs=10,
        )
        base.update(overrides)
        return OracleReport(**base)

    def test_passes_within_tolerances(self):
        assert self._report().passed

    def test_fails_on_tv_violation(self):
        assert not self._report(tv_distances={1.0: 0.03}).passed

    def test_fails_on_column_sum(self):
        assert not self._report(max_column_sum=1e-9).passed

    def test_fails_on_moment_disagreement(self):
        bad = self._report(moment_checks=[(1.0, 1, 2.0, 2.5, 0.01)])
        assert not bad.passed
        assert "FAIL" in "\n".join(bad.lines())


class TestArrivalRateTable:
    def test_scenario1_rows(self):
        rows = arrival_rate_rows(preset("scenario1"))
        assert len(rows) == 24  # 12 ask levels + 12 bid levels
        ask_total = sum(float(r[2]) for r in rows if r[0] == "ask")
        bid_total = sum(float(r[2]) for r in rows if r[0] == "bid")
        assert ask_total == pytest.approx(1.0, abs=1e-12)
        assert bid_total == pytest.approx(1.0, abs=1e-12)


class TestCli:
    def test_run_and_compare(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        code = main(
            [
                "run", "--preset", "scenario1", "--runs", "2", "--events", "150",
                "--seed", "7", "--out", str(out_a),
            ]
        )
        assert code == EXIT_OK
        assert (out_a / "summary.csv").exists()
        code = main(
            [
                "run", "--preset", "scenario2", "--runs", "2", "--events", "150",
                "--seed", "7", "--out", str(out_b),
            ]
        )
        assert code == EXIT_OK
        code = main(["compare", str(out_a), str(out_b)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "mean_spread" in captured.out

    def test_missing_config_file_is_io_error(self, tmp_path):
        code = main(
            ["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "file, text",
        [
            ("metadata.json", '{"config": '),
            ("metadata.json", "[1]"),
            ("metadata.json", "{}"),
            ("summary.csv", "run,events\n0,50\n"),
            ("summary.csv", ""),
            # Rows short of metadata.json's runs: none, and one of two.
            pytest.param("summary.csv", lambda text: text.splitlines(True)[0], id="header-only"),
            pytest.param(
                "summary.csv", lambda text: "".join(text.splitlines(True)[:-1]), id="a-row-short"
            ),
            pytest.param(
                "metadata.json", "[" * 100_000 + "]" * 100_000, id="nested-past-recursion-limit"
            ),
        ],
    )
    def test_malformed_bundle_is_io_error(self, tmp_path, capsys, file, text):
        for name in ("a", "b"):
            main(["run", "--preset", "scenario1", "--runs", "2", "--events", "50",
                  "--out", str(tmp_path / name)])
        path = tmp_path / "b" / file
        path.write_text(text(path.read_text()) if callable(text) else text)
        capsys.readouterr()
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("bundle error: malformed bundle") and err.count("\n") == 1

    def test_unexpected_error_exits_4_with_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(config):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(scenario, "run_scenario", broken)
        code = main(["run", "--preset", "scenario1", "--out", str(tmp_path / "o")])
        assert code == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: simulated defect" in err

    def test_bad_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"groups": []}))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("verb", ["run", "print-rates"])
    @pytest.mark.parametrize(
        "content",
        [b'{"runs": "\xe9"}', b"[" * 100_000 + b"]" * 100_000, b'{"runs": ' + b"1" * 5000 + b"}"],
        ids=["not-utf-8", "nested-past-recursion-limit", "integer-past-digit-limit"],
    )
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, verb, content):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        out = tmp_path / "o"
        args = ["--out", str(out)] if verb == "run" else []
        assert main([verb, "--config", str(path), *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--runs", "0"], ["--events", "-5"]]
    )
    def test_bad_overrides_are_config_errors(self, tmp_path, flags):
        out = tmp_path / "o"
        assert main(["run", "--preset", "scenario1", *flags, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("event_intensity", float("nan")),
            ("cancel_rate", float("inf")),
            ("mu", float("nan")),
            # Rejected uncast: math.isfinite raised OverflowError on them (exit 4).
            pytest.param("cancel_rate", 10**400, id="cancel_rate-past-float-range"),
            pytest.param("mu", -(10**400), id="mu-past-float-range"),
        ],
    )
    def test_non_finite_config_is_config_error(self, tmp_path, field, value):
        group = {"share": 1.0, "mu": 1.0, "sigma": 3.0, "support": 12,
                 "bid_anchor": 12, "ask_anchor": 9}
        raw = {"groups": [group], "runs": 1, "events_per_run": 10}
        (group if field in group else raw)[field] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("value", [10**400, "bound + 1"])
    @pytest.mark.parametrize(
        "field, bound",
        [
            ("grid_size", 10_000),
            ("runs", 10**6),
            ("events_per_run", 10**7),
            ("heatmap_window", 10**6),
        ],
    )
    def test_oversized_config_is_config_error(self, tmp_path, capsys, field, bound, value):
        # Rejected before anything is allocated: 10**400 exited 4 from numpy's
        # "Maximum allowed dimension exceeded" or from the seed list, and an
        # events_per_run of 10**400 ran until it was killed.
        value = bound + 1 if value == "bound + 1" else value
        raw = {"groups": [GROUP], field: value, "record": "heatmap", "events_per_run": value}
        path = tmp_path / "oversized.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        # events_per_run takes the value too, so that the window fits it; past its own bound
        # that is a second problem, listed in field order.
        problems = {field: f"{field} must be <= {bound:,}, got {value}"}
        if value > 10**7:
            problems["events_per_run"] = f"events_per_run must be <= 10,000,000, got {value}"
        listed = [problems[name] for name in scenario._RANGES if name in problems]
        assert capsys.readouterr().err == "".join(f"config error: {p}\n" for p in listed)
        assert not out.exists()

    def test_oversized_events_flag_is_config_error(self, tmp_path, capsys):
        # An events_per_run of 10**400 ran until it was killed; one run peaks at
        # about 110 B per event, so the bound keeps a run near 1.1 GiB.
        with pytest.raises(ConfigError, match="events_per_run must be <= 10,000,000, got 10000001"):
            replace(preset("scenario1"), events_per_run=10_000_001)
        out, events = tmp_path / "o", 10**400
        args = ["run", "--preset", "scenario1", "--runs", "1", "--events", str(events)]
        assert main([*args, "--out", str(out)]) == EXIT_CONFIG
        error = f"config error: events_per_run must be <= 10,000,000, got {events}\n"
        assert capsys.readouterr().err == error
        assert not out.exists()

    @pytest.mark.parametrize("runs", [10**6 + 1, 10**400])
    @pytest.mark.parametrize("verb", ["run", "validate"])
    def test_oversized_runs_flag_is_config_error(self, tmp_path, capsys, verb, runs):
        out = tmp_path / "o"
        args = ["--preset", "scenario1", "--out", str(out)] if verb == "run" else []
        assert main([verb, "--runs", str(runs), *args]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: runs must be <= 1,000,000, got {runs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("support", 12.7), ("share", True), ("bid_anchor", "12")])
    def test_mistyped_group_field_is_config_error(self, tmp_path, field, value):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"groups": [{**GROUP, field: value}], "runs": 1}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["run", "print-rates"])
    def test_underflowing_dgx_weights_are_config_error(self, tmp_path, capsys, verb):
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps({"groups": [{**GROUP, "mu": 50, "sigma": 0.01}], "runs": 1}))
        out = tmp_path / "o"
        args = ["--out", str(out)] if verb == "run" else []
        assert main([verb, "--config", str(path), *args]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "config error: groups[0]: DGX weights" in captured.err
        assert "RuntimeWarning" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_heatmap_window_longer_than_run_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        args = ["run", "--preset", "scenario1", "--runs", "2", "--events", "50"]
        assert main([*args, "--record", "heatmap", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "heatmap_window (100)" in err and "events_per_run (50)" in err
        assert not (out / "heatmap.csv").exists()

    @pytest.mark.parametrize("flags", [["--runs", "0"], ["--seed", "-1"]])
    def test_bad_validate_arguments_are_config_errors(self, flags):
        assert main(["validate", "--model", "tiny", *flags]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "arguments, match",
        [
            ({"runs": 2.5}, "runs must be an integer, got 2.5"),
            ({"runs": "10"}, "runs must be an integer, got '10'"),
            ({"runs": True}, "runs must be an integer, got True"),
            ({"runs": 0}, "runs must be >= 1, got 0"),
            ({"base_seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"base_seed": -1}, "seed must be >= 0, got -1"),
            ({"model_name": ["tiny"]}, "unknown oracle model"),
        ],
    )
    def test_bad_validate_library_arguments_are_config_errors(self, arguments, match):
        with pytest.raises(ConfigError, match=match):
            scenario.validate_against_oracle(**{"model_name": "tiny", **arguments})

    def test_numpy_validate_library_arguments_accepted(self):
        report = scenario.validate_against_oracle("tiny", runs=np.int64(50), base_seed=np.int64(7))
        assert report.runs == 50 and report.state_count > 0

    def test_bad_usage_is_config_error(self):
        assert main(["run"]) == EXIT_CONFIG

    def test_print_rates(self, capsys):
        assert main(["print-rates", "--preset", "scenario2"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "side,price_level,arrival_rate"
        assert len(lines) == 1 + 2 * 14  # 14 populated levels per side

    def test_validate_small(self, capsys):
        code = main(["validate", "--model", "tiny", "--runs", "10000"])
        assert code == EXIT_OK
        assert "result: PASS" in capsys.readouterr().out
