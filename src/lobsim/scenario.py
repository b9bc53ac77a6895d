"""Scenario configuration, ensemble execution, reporting, and validation.

Scenarios are described by JSON files (or built-in presets) naming the price
grid, the trader groups with their DGX placement parameters, the
cancellation rate, and the event intensity. Running a scenario executes a
deterministic seeded ensemble, reduces each run to its summary observables,
and writes plain-CSV outputs plus a metadata echo for reproducibility.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, TextIO

import numpy as np

from . import engine, observables, oracle
from .book import Side, is_integer, is_real
from .engine import RecordingConfig, SimulationResult
from .engine import run_ensemble  # noqa: F401  (bench/spans.py wraps it)
from .observables import RunSummary, summarize_run
from .rates import (
    AbsorbingStateError,
    AnchoringMode,
    DgxParams,
    RateModel,
    RateModelError,
    TraderGroup,
    side_arrivals,
)

SCHEMA_VERSION = 1

SUMMARY_COLUMNS = ["run", "completed", *(f.name for f in fields(RunSummary))]

HEATMAP_COLUMNS = ["step_offset", "side", "price_level", "mean_quantity", "transaction_frequency"]

EVENTS_COLUMNS = [
    "run",
    "step",
    "time",
    "kind",
    "price_level",
    "quantity",
    "transaction_count",
    "transaction_price",
    "best_bid",
    "best_ask",
]

# Every file a bundle may hold.
BUNDLE_FILES = ("summary.csv", "metadata.json", "heatmap.csv", "events.csv")

RATES_COLUMNS = ["side", "price_level", "arrival_rate"]

# Observables compared between scenario bundles (per-run means).
COMPARED_OBSERVABLES = [
    "mean_spread",
    "transaction_rate",
    "mean_return",
    "return_volatility",
    "mean_xlm",
    "mean_transaction_price",
    "mean_mid",
    "mean_best_bid",
    "mean_best_ask",
]


class ConfigError(Exception):
    """Scenario configuration failed validation; ``problems`` itemizes why."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class BundleError(Exception):
    """An output bundle's files could not be parsed back."""


@dataclass(frozen=True)
class GroupConfig:
    """One trader group: flow share and symmetric DGX placement parameters."""

    share: float
    mu: float
    sigma: float
    support: int
    bid_anchor: int
    ask_anchor: int


# Field annotation -> (accepts a value, its stored type, what the message says it must be).
_TYPE_RULES = {
    "int": (is_integer, int, "an integer"),
    "float": (lambda v: is_real(v) and abs(v) <= sys.float_info.max, float, "a finite number"),
    "str": (lambda v: isinstance(v, str), str, "a string"),
}
# The scenario-only (low, high) ranges, also validate's; every model rule is checked by
# building the model. A high bound stops a size before numpy or the seed array is asked for
# it, and a run before it outgrows memory: about 110 B per event, 1.1 GiB at the bound.
_RANGES = {"grid_size": (1, 10_000), "runs": (1, 1_000_000), "events_per_run": (0, 10_000_000),
           "base_seed": (0, math.inf), "heatmap_window": (1, 1_000_000)}
_CHOICES = {"anchoring": ("static", "opposite_best"), "record": ("summary", "events", "heatmap")}


def _out_of_range(key: str, value: int) -> list[str]:
    """The problem with integer ``value`` for field ``key`` under :data:`_RANGES`, if any."""
    low, high = _RANGES[key]
    if value < low:
        return [f"{key} must be >= {low}, got {value}"]
    return [f"{key} must be <= {high:,}, got {value}"] if value > high else []


def _typed(obj, where: str = "") -> tuple[dict, list[str]]:
    """``obj``'s field values, each stored as its field's plain type, and its type problems."""
    values, problems = {}, []
    for f in fields(obj):
        value = values[f.name] = getattr(obj, f.name)
        if f.type in _TYPE_RULES:
            accepts, stored, kind = _TYPE_RULES[f.type]
            if not accepts(value):
                problems.append(f"{where}{f.name} must be {kind}, got {value!r}")
            else:
                values[f.name] = stored(value)
    return values, problems


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario; every way of building one (presets, JSON, CLI overrides,
    ``dataclasses.replace``) validates it here, else :class:`ConfigError`."""

    name: str
    groups: tuple[GroupConfig, ...]
    grid_size: int = 20
    unit_quantity: int = 1
    cancel_rate: float = 0.1
    event_intensity: float = 6.0
    anchoring: str = "static"
    runs: int = 200
    events_per_run: int = 5000
    base_seed: int = 12345
    record: str = "summary"
    heatmap_window: int = 100

    def __post_init__(self) -> None:
        values, problems = _typed(self)
        groups = values["groups"]
        if isinstance(groups, tuple) and all(isinstance(g, GroupConfig) for g in groups):
            typed = []
            for i, group in enumerate(groups):
                group_values, group_problems = _typed(group, f"groups[{i}].")
                typed.append(GroupConfig(**group_values))
                problems += group_problems
            values["groups"] = tuple(typed)
        else:
            problems.append(f"groups must be a tuple of GroupConfig, got {groups!r}")
        if not problems:
            for name, value in values.items():
                object.__setattr__(self, name, value)
            problems = [p for key in _RANGES for p in _out_of_range(key, values[key])]
            problems += [
                f"{key} must be one of {'|'.join(choices)}, got {values[key]!r}"
                for key, choices in _CHOICES.items()
                if values[key] not in choices
            ]
            window, events = values["heatmap_window"], values["events_per_run"]
            if values["record"] == "heatmap" and window > events:
                problems.append(
                    f"heatmap_window ({window}) must not exceed events_per_run ({events})"
                    " when record is heatmap"
                )
            try:
                # A grid past its range could fit a support numpy cannot allocate.
                if values["grid_size"] <= _RANGES["grid_size"][1]:
                    build_rate_model(self)
            except ConfigError as exc:
                problems += exc.problems
        if problems:
            raise ConfigError(problems)


def build_rate_model(config: ScenarioConfig) -> RateModel:
    """The config's rate model; ``ConfigError`` names each bad group, then
    the model's problem. A group whose support exceeds ``grid_size`` leaves the
    grid on either side, and its DGX weights are not built."""
    mode = (
        AnchoringMode.STATIC_SUPPORT
        if config.anchoring == "static"
        else AnchoringMode.OPPOSITE_BEST
    )
    groups, problems = [], []
    for i, g in enumerate(config.groups):
        if g.support > config.grid_size:
            problems.append(
                f"groups[{i}] support leaves the grid: {g.support} levels exceed grid_size"
                f" {config.grid_size}"
            )
            continue
        try:
            params = DgxParams(g.mu, g.sigma, g.support)
            groups.append(TraderGroup(g.share, params, params, g.ask_anchor, g.bid_anchor))
        except RateModelError as exc:
            problems.append(f"groups[{i}]: {exc}")
    if not problems:
        try:
            return RateModel(
                grid_size=config.grid_size,
                groups=tuple(groups),
                per_order_cancel_rate=config.cancel_rate,
                event_intensity=config.event_intensity,
                anchoring_mode=mode,
                unit_quantity=config.unit_quantity,
            )
        except RateModelError as exc:
            problems.append(str(exc))
    raise ConfigError(problems)


PRESETS: dict[str, ScenarioConfig] = {
    "scenario1": ScenarioConfig(
        name="scenario1",
        groups=(GroupConfig(1.0, 1.0, 3.0, 12, bid_anchor=12, ask_anchor=9),),
    ),
    "scenario2": ScenarioConfig(
        name="scenario2",
        groups=(
            GroupConfig(0.7, 1.0, 3.0, 12, bid_anchor=12, ask_anchor=9),
            GroupConfig(0.3, 4.0, 1.0, 14, bid_anchor=14, ask_anchor=7),
        ),
    ),
}


def _key_problems(raw: dict, cls, where: str = "") -> list[str]:
    """Keys of ``raw`` that are no field of ``cls``, and required fields it lacks."""
    required = {f.name: f.default is MISSING for f in fields(cls)}
    problems = [f"unknown key {key!r}{where}" for key in raw if key not in required]
    problems += [f"missing key {k!r}{where}" for k, r in required.items() if r and k not in raw]
    return problems


def config_from_dict(raw: dict, name: str = "custom") -> ScenarioConfig:
    """Build a config from parsed JSON: the keys are checked here, the values
    by :class:`ScenarioConfig`; absent keys take the dataclass defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(["top-level config must be an object"])
    raw = {"name": name, **raw}
    problems = _key_problems(raw, ScenarioConfig)
    groups = raw.get("groups", [])
    if not isinstance(groups, list):
        problems.append("groups must be a list of objects")
        groups = []
    for i, group in enumerate(groups):
        if isinstance(group, dict):
            problems += _key_problems(group, GroupConfig, f" in groups[{i}]")
        else:
            problems.append(f"groups[{i}] must be an object")
    if problems:
        raise ConfigError(problems)
    return ScenarioConfig(**{**raw, "groups": tuple(GroupConfig(**g) for g in groups)})


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a JSON scenario file; :class:`ConfigError` when it is
    not UTF-8 JSON, holds an integer past Python's digit limit or nests past
    the recursion limit."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ConfigError([f"{path}: invalid JSON: {exc}"]) from exc
    return config_from_dict(raw, name=path.stem)


def preset(name: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; choose from {sorted(PRESETS)}"])
    return PRESETS[name]


def config_hash(config: ScenarioConfig) -> str:
    payload = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class OutputBundle:
    """Everything a scenario run produces, ready to serialize."""

    config: ScenarioConfig
    summaries: list[RunSummary]
    aborted_runs: list[int]
    heatmap: Optional[list[str]]  # heatmap.csv rows, one per (step, side, level)
    events: Optional[list[str]]  # events.csv rows, one encoded string per run
    metadata: dict


def _recording_for(config: ScenarioConfig) -> RecordingConfig:
    # Summaries come from the streamed columns; only events.csv needs records.
    return RecordingConfig(
        events=config.record == "events",
        depth_window=config.heatmap_window if config.record == "heatmap" else 0,
    )


def _heatmap_rows(quantities: np.ndarray, traded: np.ndarray, runs: int) -> list[str]:
    """heatmap.csv's rows from the quantities per step and signed level -K..K and the
    trades per step, summed over the ``runs`` completed runs: per step of the window,
    side and level, the mean quantity and the share of runs that traded."""
    window, k = len(traded), quantities.shape[1] // 2
    # Integer sums, exact in any order; each mean is one division by the run count.
    quantities = np.concatenate([quantities[:, k - 1 :: -1], quantities[:, k + 1 :]], axis=1)
    with np.errstate(invalid="ignore"):  # no completed run: every mean is NaN
        means, shares = (quantities / runs).tolist(), (traded / runs).tolist()
    # Steps, sides, levels and shares are formatted once; repr is _format's shortest float.
    starts, ends = [f"{step}," for step in range(-window, 0)], [f",{s!r}\n" for s in shares]
    cells = [f"{side.value},{level}," for side in (Side.BID, Side.ASK) for level in range(1, k + 1)]
    return [
        start + cell + repr(mean) + end
        for start, end, row in zip(starts, ends, means)
        for cell, mean in zip(cells, row)
    ]


def _event_csv(run_index: int, result: SimulationResult) -> str:
    """The run's events.csv rows as one string, far smaller in memory than row lists."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [
            str(run_index),
            str(step_index),
            _format(record.time),
            record.event.kind.value,
            str(record.event.price_level),
            str(record.event.quantity),
            str(len(record.transactions)),
            str(record.transactions[-1].price_level if record.transactions else ""),
            "" if record.quote.best_bid is None else str(record.quote.best_bid),
            "" if record.quote.best_ask is None else str(record.quote.best_ask),
        ]
        for step_index, record in enumerate(result.records)
    )
    return out.getvalue()


def run_scenario(config: ScenarioConfig) -> OutputBundle:
    """Execute the configured ensemble and reduce it to per-run summaries."""
    model = build_rate_model(config)
    recording = _recording_for(config)
    summaries: list[RunSummary] = []
    aborted: list[int] = []
    # Completed runs' depth windows, summed as they finish.
    counts = np.zeros((recording.depth_window, 2 * config.grid_size + 1), dtype=np.int64)
    traded = np.zeros(recording.depth_window, dtype=np.int64)
    event_csv: list[str] = []

    seeds = engine.derive_run_seeds(config.base_seed, config.runs)
    for run_index, run_seed in enumerate(seeds):
        try:
            result = engine.simulate(
                model,
                event_count=config.events_per_run,
                seed=run_seed,
                recording=recording,
            )
        except AbsorbingStateError:
            aborted.append(run_index)
            summaries.append(_nan_summary())
            continue
        summaries.append(summarize_run(result))
        if config.record == "heatmap":
            counts += result.depth_frames.counts
            traded += result.depth_frames.fills
        elif config.record == "events":
            event_csv.append(_event_csv(run_index, result))

    heatmap = (
        _heatmap_rows(counts * model.unit_quantity, traded, config.runs - len(aborted))
        if config.record == "heatmap"
        else None
    )
    metadata = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
        "config_hash": config_hash(config),
        "base_seed": config.base_seed,
        "runs": config.runs,
        "aborted_runs": aborted,
    }
    return OutputBundle(
        config,
        summaries,
        aborted,
        heatmap,
        event_csv if config.record == "events" else None,
        metadata,
    )


def _nan_summary() -> RunSummary:
    """An aborted run's summary: counts 0, every statistic NaN."""
    return RunSummary(**{f.name: 0 if f.type == "int" else math.nan for f in fields(RunSummary)})


def _format(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def summary_rows(bundle: OutputBundle) -> list[list[str]]:
    rows = []
    for run_index, summary in enumerate(bundle.summaries):
        completed = run_index not in bundle.aborted_runs
        row = [str(run_index), str(int(completed))]
        row.extend(
            _format(getattr(summary, column)) for column in SUMMARY_COLUMNS[2:]
        )
        rows.append(row)
    return rows


def write_bundle(bundle: OutputBundle, out_dir: str | Path) -> list[Path]:
    """Write summary.csv, metadata.json, and heatmap.csv or events.csv (when recorded).

    Output bytes are a pure function of config and seed: floats are written
    with shortest round-trip formatting and no timestamps are embedded. Every
    file is written under a temporary name first and moved into place only
    once all of them are written; then any of :data:`BUNDLE_FILES` this
    bundle does not hold is deleted, so the directory never mixes two runs'
    files. Other files in the directory are left alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staged: dict[Path, Path] = {}  # temporary -> bundle file

    def stage(name: str) -> TextIO:
        temporary = out / f".{name}.tmp"
        staged[temporary] = out / name
        return temporary.open("w", encoding="utf-8", newline="")

    try:
        with stage("summary.csv") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(SUMMARY_COLUMNS)
            writer.writerows(summary_rows(bundle))
        with stage("metadata.json") as handle:
            handle.write(json.dumps(bundle.metadata, sort_keys=True, indent=2) + "\n")
        if bundle.heatmap is not None:
            with stage("heatmap.csv") as handle:
                csv.writer(handle, lineterminator="\n").writerow(HEATMAP_COLUMNS)
                handle.writelines(bundle.heatmap)
        if bundle.events is not None:
            with stage("events.csv") as handle:
                csv.writer(handle, lineterminator="\n").writerow(EVENTS_COLUMNS)
                handle.writelines(bundle.events)
        for temporary, path in staged.items():
            os.replace(temporary, path)
    finally:
        for temporary in staged:
            temporary.unlink(missing_ok=True)
    written = list(staged.values())
    for name in BUNDLE_FILES:
        if out / name not in written:
            (out / name).unlink(missing_ok=True)
    return written


def read_summaries(out_dir: str | Path) -> tuple[dict, list[dict[str, float]]]:
    """Load metadata and per-run summary rows back from a bundle directory.

    Raises :class:`BundleError` when metadata.json is not JSON, summary.csv's
    header is not :data:`SUMMARY_COLUMNS`, one of its cells is not a number, or
    its row count is not metadata.json's ``runs`` (every run, aborted or not,
    writes one row).
    """
    out = Path(out_dir)
    try:
        metadata = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
        rows: list[dict[str, float]] = []
        with (out / "summary.csv").open(encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames != SUMMARY_COLUMNS:
                raise BundleError(f"malformed bundle {out}: unexpected summary.csv header")
            for row in reader:
                rows.append({key: float(value) for key, value in row.items()})
    except (ValueError, TypeError, RecursionError) as exc:
        raise BundleError(f"malformed bundle {out}: {exc}") from exc
    runs = metadata.get("runs") if isinstance(metadata, dict) else None
    if not is_integer(runs) or len(rows) != runs:
        raise BundleError(
            f"malformed bundle {out}: summary.csv holds {len(rows)} runs, metadata.json {runs!r}"
        )
    return metadata, rows


@dataclass(frozen=True)
class ComparisonRow:
    observable: str
    mean_a: float
    se_a: float
    ci_a: tuple[float, float]
    mean_b: float
    se_b: float
    ci_b: tuple[float, float]
    verdict: str


@dataclass
class ComparisonReport:
    label_a: str
    label_b: str
    rows: list[ComparisonRow]

    def verdict(self, observable: str) -> str:
        for row in self.rows:
            if row.observable == observable:
                return row.verdict
        raise KeyError(observable)

    def lines(self) -> list[str]:
        out = [f"comparison: B={self.label_b} relative to A={self.label_a}"]
        for row in self.rows:
            out.append(
                f"  {row.observable}: A={row.mean_a:.6g} (ci {row.ci_a[0]:.6g}..{row.ci_a[1]:.6g})"
                f"  B={row.mean_b:.6g} (ci {row.ci_b[0]:.6g}..{row.ci_b[1]:.6g})"
                f"  -> {row.verdict}"
            )
        return out


def _mean_se_ci(values: list[float]) -> tuple[float, float, tuple[float, float]]:
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if arr.size == 0:
        nan = float("nan")
        return nan, nan, (nan, nan)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else float("nan")
    half = 1.959963984540054 * se
    return mean, se, (mean - half, mean + half)


def compare_summaries(
    rows_a: list[dict[str, float]],
    rows_b: list[dict[str, float]],
    label_a: str = "A",
    label_b: str = "B",
    observables: Sequence[str] = tuple(COMPARED_OBSERVABLES),
) -> ComparisonReport:
    """Per-observable means with 95% confidence intervals and a verdict.

    The verdict describes B against A: ``greater``/``less`` when the
    intervals do not overlap, ``indistinguishable`` otherwise.
    """
    report_rows: list[ComparisonRow] = []
    for name in observables:
        a_values = [row[name] for row in rows_a]
        b_values = [row[name] for row in rows_b]
        mean_a, se_a, ci_a = _mean_se_ci(a_values)
        mean_b, se_b, ci_b = _mean_se_ci(b_values)
        if any(math.isnan(x) for x in (*ci_a, *ci_b)):
            verdict = "indistinguishable"
        elif ci_b[0] > ci_a[1]:
            verdict = "greater"
        elif ci_b[1] < ci_a[0]:
            verdict = "less"
        else:
            verdict = "indistinguishable"
        report_rows.append(
            ComparisonRow(name, mean_a, se_a, ci_a, mean_b, se_b, ci_b, verdict)
        )
    return ComparisonReport(label_a, label_b, report_rows)


def compare_bundles(dir_a: str | Path, dir_b: str | Path) -> ComparisonReport:
    bundles = []
    for directory in (dir_a, dir_b):
        metadata, rows = read_summaries(directory)
        try:
            bundles.append((metadata["config"]["grid_size"], rows))
        except (KeyError, TypeError) as exc:
            raise BundleError(f"malformed bundle {directory}: no config.grid_size") from exc
    (grid_a, rows_a), (grid_b, rows_b) = bundles
    if grid_a != grid_b:
        raise ConfigError([f"grid mismatch: {grid_a} vs {grid_b}"])
    return compare_summaries(
        rows_a, rows_b, label_a=str(dir_a), label_b=str(dir_b)
    )


ORACLE_MODELS = {
    "tiny": oracle.tiny_nonoverlapping_model,
    "tiny-overlap": oracle.tiny_overlapping_model,
    "tiny-opposite": oracle.tiny_opposite_model,
}
# The times validate_against_oracle compares at, ascending, and its TV bound.
ORACLE_TIMES = (0.5, 1.0, 2.0)
TV_TOLERANCE = 0.02


@dataclass
class OracleReport:
    """Validation results: generator diagnostics, TV distances, moments."""

    model_name: str
    state_count: int
    max_column_sum: float
    min_off_diagonal: float
    tv_distances: dict[float, float]
    tv_tolerance: float
    moment_checks: list[tuple[float, int, float, float, float]]
    runs: int

    @property
    def passed(self) -> bool:
        if self.max_column_sum > 1e-12 or self.min_off_diagonal < 0:
            return False
        if any(tv > self.tv_tolerance for tv in self.tv_distances.values()):
            return False
        for _, _, exact, estimate, se in self.moment_checks:
            if not math.isfinite(se) or abs(estimate - exact) > 3.0 * se:
                return False
        return True

    def lines(self) -> list[str]:
        out = [
            f"oracle validation: model={self.model_name} states={self.state_count} runs={self.runs}",
            f"  generator: max |column sum| = {self.max_column_sum:.3e}, "
            f"min off-diagonal = {self.min_off_diagonal:.3e}",
        ]
        for t in sorted(self.tv_distances):
            out.append(
                f"  TV(t={t}) = {self.tv_distances[t]:.5f} (tolerance {self.tv_tolerance})"
            )
        for t, order, exact, estimate, se in self.moment_checks:
            out.append(
                f"  E[orders^{order}](t={t}): exact {exact:.6f}, "
                f"ensemble {estimate:.6f} +- {se:.6f}"
            )
        out.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return out


def generator_diagnostics(generator) -> tuple[float, float]:
    """(max |column sum|, min off-diagonal entry) of a generator matrix."""
    column_sums = np.asarray(generator.sum(axis=0)).ravel()
    max_column_sum = float(np.abs(column_sums).max()) if column_sums.size else 0.0
    coo = generator.tocoo()
    off_diag = coo.data[coo.row != coo.col]
    min_off = float(off_diag.min()) if off_diag.size else 0.0
    return max_column_sum, min_off


def _positions(index: oracle.StateIndex, rows: np.ndarray) -> np.ndarray:
    """``index.positions(rows)``, mapping each distinct row once.

    A row of signed levels s in [-K, K] is coded as one int64 in base 2K + 1:
    digit s + K, first column first (Horner). The distinct codes are decoded
    to rows, :meth:`~lobsim.oracle.StateIndex.positions` maps those, and every
    row takes its code's position. Rows of another width or with a level off
    the grid go to ``positions`` as they are, which raises
    :class:`~lobsim.oracle.OracleError` for them.
    """
    k, width = index.grid_size, index.max_orders + 1
    base = 2 * k + 1
    if base**width >= 1 << 63:
        raise RuntimeError(f"book codes in base {base} over {width} columns overflow int64")
    if rows.shape[-1:] != (width,) or rows.min(initial=0) < -k or rows.max(initial=0) > k:
        return index.positions(rows)
    codes = np.zeros(rows.shape[:-1], dtype=np.int64)
    for j in range(width):
        codes *= base
        codes += rows[..., j]
        codes += k
    distinct, inverse = np.unique(codes, return_inverse=True)
    digits, rest = np.empty((distinct.size, width), dtype=np.int64), distinct
    for j in reversed(range(width)):
        rest, digits[:, j] = np.divmod(rest, base)
    # numpy < 2 returns a flat inverse, numpy 2 one of the codes' shape.
    return index.positions(digits - k).take(inverse).reshape(codes.shape)


def validate_against_oracle(
    model_name: str = "tiny",
    runs: int = 100_000,
    base_seed: int = 2024,
) -> OracleReport:
    """Compare the capped engine's state distribution with the exact solution.

    Steps the runs to the last of :data:`ORACLE_TIMES` in one batched
    ``engine.simulate`` call, maps their books at those times to index
    positions a block of ``engine.lockstep_width`` runs at a time, every
    time at once, each distinct row once (:func:`_positions`), and reports
    total variation distances plus first and second moment checks of the
    resident-order count. :class:`ConfigError`
    unless the model is known and ``runs`` and ``base_seed`` are integers in
    their scenario fields' ranges.
    """
    problems = []
    if not (isinstance(model_name, str) and model_name in ORACLE_MODELS):
        problems.append(f"unknown oracle model {model_name!r}; choose from {sorted(ORACLE_MODELS)}")
    for name, value in (("runs", runs), ("base_seed", base_seed)):
        wrong = [] if is_integer(value) else [f"{name} must be an integer, got {value!r}"]
        problems += wrong or _out_of_range(name, value)
    if problems:
        raise ConfigError(problems)
    model, caps = ORACLE_MODELS[model_name]()
    index = oracle.enumerate_states(model.grid_size, model.unit_quantity, caps.max_orders)
    generator = oracle.build_generator(model, index)
    max_column_sum, min_off = generator_diagnostics(generator)

    recording = RecordingConfig(events=False, checkpoint_times=ORACLE_TIMES)
    seeds = engine.derive_run_seeds(base_seed, runs)
    result = engine.simulate(
        model, time_horizon=ORACLE_TIMES[-1], seed=seeds, recording=recording, caps=caps
    )
    # Rows to states a block of runs at a time, every time at once, so memory stays flat.
    block, held = engine.lockstep_width(model, caps), [result.checkpoints[t] for t in ORACLE_TIMES]
    positions = np.empty((len(ORACLE_TIMES), runs), dtype=np.intp)
    for i in range(0, runs, block):
        rows = np.stack([at_t[i : i + block] for at_t in held])
        positions[:, i : i + block] = _positions(index, rows)

    p0 = oracle.vacuum_vector(index)
    counts = oracle.order_count_observable(index)
    tv_distances: dict[float, float] = {}
    moment_checks: list[tuple[float, int, float, float, float]] = []
    for t, at_t in zip(ORACLE_TIMES, positions):
        exact = oracle.evolve(p0, generator, t)
        empirical = np.bincount(at_t, minlength=len(index)) / runs
        tv_distances[t] = oracle.compare_distributions(empirical, exact)
        for order in (1, 2):
            estimate = observables.ensemble_moment(counts[at_t], order)
            moment_checks.append(
                (t, order, float((counts**order) @ exact), estimate.value, estimate.standard_error)
            )

    return OracleReport(
        model_name=model_name,
        state_count=len(index),
        max_column_sum=max_column_sum,
        min_off_diagonal=min_off,
        tv_distances=tv_distances,
        tv_tolerance=TV_TOLERANCE,
        moment_checks=moment_checks,
        runs=int(runs),
    )


def arrival_rate_rows(config: ScenarioConfig) -> list[list[str]]:
    """Per-side arrival-rate table (side, price level, rate), CSV-ready: the
    :func:`~lobsim.rates.side_arrivals` rows with no opposite quote."""
    model = build_rate_model(config)
    return [
        [side.value, str(d.price_level), _format(rate)]
        for side in (Side.ASK, Side.BID)
        for d, rate in side_arrivals(model, side, None).entries
    ]
