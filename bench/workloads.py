"""The benchmark's workloads: inputs made from a seed, one public lobsim call
per repetition, output digests and correctness checks.

Every workload is a batch job: one closed-loop caller issues the public call
and waits for it. Each repetition of a run repeats the call on the same
inputs, so every repetition must produce the same output digests. Why each
workload was chosen is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import lobsim
from lobsim import oracle, scenario


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _warm_rates(model) -> None:
    """Fill the DGX weight cache the way the first table build would."""
    lobsim.arrival_rates(model, lobsim.empty_book(model.grid_size))


@dataclass
class Outcome:
    """What one repetition produced, reduced to what the harness keeps."""

    aborted: int
    events: int
    states: int
    digests: dict


class ScenarioWorkload:
    """``run_scenario`` on preset scenario2 followed by ``write_bundle``."""

    events_per_run = 5000

    def __init__(self, name: str, anchoring: str, record: str, default_size: int):
        self.name = name
        self.anchoring = anchoring
        self.record = record
        self.default_size = default_size

    def prepare(self, seed: int, size: int):
        config = replace(
            scenario.PRESETS["scenario2"],
            runs=size,
            events_per_run=self.events_per_run,
            base_seed=seed,
            anchoring=self.anchoring,
            record=self.record,
        )
        _warm_rates(scenario.build_rate_model(config))
        return config

    def call(self, config, out_dir: Path):
        bundle = scenario.run_scenario(config)
        scenario.write_bundle(bundle, out_dir)
        return bundle

    def operations(self, config) -> int:
        return config.runs

    def _files(self) -> list[str]:
        return ["summary.csv", "heatmap.csv"] if self.record == "heatmap" else ["summary.csv"]

    def outcome(self, config, bundle, out_dir: Path, kept_events: int) -> Outcome:
        return Outcome(
            aborted=len(bundle.aborted_runs),
            events=kept_events,
            states=kept_events,
            digests={f: _sha256_file(out_dir / f) for f in self._files()},
        )

    def check(self, config, bundle, out_dir: Path) -> list[str]:
        problems: list[str] = []
        with (out_dir / "summary.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != scenario.SUMMARY_COLUMNS:
            problems.append("summary.csv header differs from SUMMARY_COLUMNS")
        if len(rows) - 1 != config.runs:
            problems.append(f"summary.csv has {len(rows) - 1} rows for {config.runs} runs")
        for row in rows[1:]:
            record = dict(zip(rows[0], row))
            if record["completed"] != "1":
                continue
            if int(record["events"]) != config.events_per_run:
                problems.append(f"run {record['run']} kept {record['events']} events")
            if float(record["quote_coverage"]) > 0 and any(
                math.isnan(float(v)) for v in row
            ):
                problems.append(f"run {record['run']} has NaN despite quote coverage")
        if self.record == "heatmap":
            with (out_dir / "heatmap.csv").open(encoding="utf-8", newline="") as handle:
                cells = list(csv.DictReader(handle))
            expected = config.heatmap_window * 2 * config.grid_size
            if len(cells) != expected:
                problems.append(f"heatmap.csv has {len(cells)} cells, expected {expected}")
            if any(
                not math.isfinite(float(c[k]))
                for c in cells
                for k in ("mean_quantity", "transaction_frequency")
            ):
                problems.append("heatmap.csv has non-finite cells")
        return problems


class ValidateWorkload:
    """``validate_against_oracle`` on the tiny-overlap model with R runs."""

    name = "validate_tiny_overlap"
    model_name = "tiny-overlap"
    default_size = 20_000
    # False-alarm probability of the TV bound used at every seed.
    tv_alarm = 1e-6

    def prepare(self, seed: int, size: int):
        model, _ = scenario.ORACLE_MODELS[self.model_name]()
        _warm_rates(model)
        return {"runs": size, "base_seed": seed}

    def call(self, inputs, out_dir: Path):
        report = scenario.validate_against_oracle(
            self.model_name, runs=inputs["runs"], base_seed=inputs["base_seed"]
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text("\n".join(report.lines()) + "\n", encoding="utf-8")
        return report

    def operations(self, inputs) -> int:
        return inputs["runs"]

    def outcome(self, inputs, report, out_dir: Path, kept_events: int) -> Outcome:
        text = "\n".join(report.lines()).encode("utf-8")
        return Outcome(
            aborted=0,
            events=kept_events,
            states=kept_events,
            digests={"report": hashlib.sha256(text).hexdigest()},
        )

    def check(self, inputs, report, out_dir: Path) -> list[str]:
        """Structural checks plus a total-variation bound valid at any seed.

        An empirical distribution of R independent states has a TV distance
        from the exact one whose mean is at most 0.5 * sum sqrt(p(1-p)/R), and
        which exceeds that mean by eps with probability below exp(-2 R eps^2)
        (McDiarmid: one sample moves TV by at most 1/R).
        """
        problems: list[str] = []
        runs = inputs["runs"]
        if report.state_count != 35 or report.runs != runs:
            problems.append(f"report covers {report.state_count} states and {report.runs} runs")
        if not report.max_column_sum <= 1e-12 or report.min_off_diagonal < 0:
            problems.append("oracle generator is not a valid rate matrix")
        model, caps = scenario.ORACLE_MODELS[self.model_name]()
        index = oracle.enumerate_states(model.grid_size, caps.max_quantity, caps.max_orders)
        generator = oracle.build_generator(model, index)
        p0 = oracle.vacuum_vector(index)
        eps = math.sqrt(math.log(1.0 / self.tv_alarm) / (2.0 * runs))
        for t, tv in report.tv_distances.items():
            p = oracle.evolve(p0, generator, t)
            bound = 0.5 * float(np.sqrt(p * (1.0 - p) / runs).sum()) + eps
            if not 0.0 <= tv <= bound:
                problems.append(f"TV(t={t}) = {tv} exceeds the sampling bound {bound:.5f}")
        if not all(math.isfinite(x) for check in report.moment_checks for x in check):
            problems.append("non-finite moment check")
        return problems


class OracleWorkload:
    """Enumerate, assemble and evolve an oracle built from the public API."""

    name = "oracle_build"
    default_size = 6  # max_orders
    grid_size = 8
    # (states, nonzeros) at the default size; the seed changes only the rates.
    default_shape = (13_299, 89_727)

    def prepare(self, seed: int, size: int):
        rng = np.random.default_rng(seed)
        mu, sigma, cancel, horizon = (
            0.5 + rng.random(),
            2.0 + 2.0 * rng.random(),
            0.05 + 0.15 * rng.random(),
            0.5 + 1.5 * rng.random(),
        )
        params = lobsim.DgxParams(mu, sigma, 4)
        group = lobsim.TraderGroup(1.0, params, params, ask_anchor=4, bid_anchor=5)
        model = lobsim.RateModel(
            grid_size=self.grid_size,
            groups=(group,),
            per_order_cancel_rate=cancel,
            event_intensity=6.0,
        )
        _warm_rates(model)
        return {"model": model, "max_orders": size, "horizon": horizon}

    def call(self, inputs, out_dir: Path):
        index = oracle.enumerate_states(self.grid_size, 1, inputs["max_orders"])
        generator = oracle.build_generator(inputs["model"], index)
        p = oracle.evolve(oracle.vacuum_vector(index), generator, inputs["horizon"])
        return index, generator, p

    def operations(self, inputs) -> int:
        return 1

    def outcome(self, inputs, output, out_dir: Path, kept_events: int) -> Outcome:
        index, generator, p = output
        canonical = generator.tocsc(copy=True)
        canonical.sum_duplicates()
        digest = hashlib.sha256()
        for part in (
            canonical.indptr.astype(np.int64),
            canonical.indices.astype(np.int64),
            canonical.data.astype(np.float64),
        ):
            digest.update(part.tobytes())
        transitions = generator.nnz - int(np.count_nonzero(generator.diagonal()))
        return Outcome(
            aborted=0,
            events=transitions,
            states=len(index),
            digests={
                "generator_csc": digest.hexdigest(),
                "evolved": hashlib.sha256(p.astype(np.float64).tobytes()).hexdigest(),
            },
        )

    def check(self, inputs, output, out_dir: Path) -> list[str]:
        index, generator, p = output
        problems: list[str] = []
        max_column_sum, min_off = scenario.generator_diagnostics(generator)
        if not max_column_sum <= 1e-12:
            problems.append(f"generator max |column sum| = {max_column_sum:.3e} > 1e-12")
        if min_off < 0:
            problems.append("generator has a negative off-diagonal rate")
        shape = (len(index), generator.nnz)
        if inputs["max_orders"] == self.default_size and shape != self.default_shape:
            problems.append(f"(states, nonzeros) = {shape}, expected {self.default_shape}")
        if len(p) != len(index) or not np.all(np.isfinite(p)) or p.min() < -1e-12:
            problems.append("evolved vector is not a probability vector")
        elif abs(p.sum() - 1.0) > 1e-9:
            problems.append(f"evolved vector sums to {p.sum()}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        ScenarioWorkload("scenario2_static", "static", "summary", 20),
        ScenarioWorkload("opposite_best_heatmap", "opposite_best", "heatmap", 4),
        ValidateWorkload(),
        OracleWorkload(),
    )
}
