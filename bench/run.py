"""lobsim benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root; lobsim is imported from ``src/`` of the same
checkout, nothing is installed:

    python3 bench/run.py --workload scenario2_static --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --seconds 20            # all four workloads, one process
    python3 bench/run.py --self-test             # tiny-size check of the harness

A run prepares the workload's inputs from ``--seed``, repeats the workload's
public call on those inputs for ``--seconds`` and checks every output. With
``--trace 0`` it reports the end-to-end metrics: medians over repetitions,
and set-up time as the median of fresh interpreters (probe.py) that import
lobsim and build the inputs. Times are scaled to a reference speed (see
speed.py). With ``--trace 1`` untraced repetitions alternate with ones where
every layer is wrapped (see spans.py); it reports per-layer metrics, the
tracing overhead, and checks that traced and untraced outputs are identical.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every check passed, 1 when a check
failed or a workload raised, 2 when lobsim's sources are missing.
Outputs, traces and bundles go to ``.bench_run/`` in the checkout.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads, so the numbers measure lobsim, not the scheduler.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"
GOLDEN = BENCH_DIR / "golden.json"
SETUP_PROBES = 5
MIN_REPS = 3
SELF_TEST_SIZES = {
    "scenario2_static": 2,
    "opposite_best_heatmap": 1,
    "validate_tiny_overlap": 300,
    "oracle_build": 3,
}


class SourceMissing(Exception):
    """The checkout holds no lobsim package under src/."""


def load_lobsim():
    """Import lobsim from this checkout's src/ and the workloads built on it."""
    if not (SRC / "lobsim" / "__init__.py").is_file():
        raise SourceMissing(f"no lobsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import lobsim

    if Path(lobsim.__file__).resolve().parent != SRC / "lobsim":
        raise SourceMissing(f"imported lobsim from {lobsim.__file__}, not from {SRC}")
    import workloads

    return workloads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def environment(traced: bool) -> dict:
    import numpy
    import scipy

    source = hashlib.sha256()
    for path in sorted((SRC / "lobsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "traced": traced,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def measure_setup(name: str, seed: int, size: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters run one after another: (scaled, raw)."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed), str(size)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        probe = json.loads(child.stdout.strip().splitlines()[-1])
        raw.append(probe["setup_s"])
        scaled.append(probe["setup_s"] * probe["scale"])
    return scaled, raw


def run_rep(workload, inputs, out_dir: Path, tracer=None):
    """One call of the workload under the speed sampler; returns (record, output).

    ``busy_s`` is the call's wall time without the speed samples and
    ``scale`` converts it to the reference speed. Without a tracer only
    ``engine.simulate`` is wrapped, to count kept events.
    """
    gc.collect()
    sampler = speed.SpeedSampler()
    if tracer is None:
        with spans.kept_event_counter() as counters, sampler:
            t = time.perf_counter()
            output = workload.call(inputs, out_dir)
            t_end = time.perf_counter()
    else:
        tracer.install()
        try:
            with sampler:
                t = time.perf_counter()
                output = tracer.run_rep(lambda: workload.call(inputs, out_dir))
                t_end = time.perf_counter()
        finally:
            tracer.uninstall()
        counters = tracer.counters
    sampled = sampler.sampled_between(t, t_end)
    rep = {
        "wall_s": t_end - t,
        "busy_s": t_end - t - sampled,
        "scale": sampler.scale(),
        "outcome": workload.outcome(inputs, output, out_dir, counters["kept_events"]),
        "counters": dict(counters),
    }
    if tracer is not None:
        rep["layers"] = tracer.layer_times(len(tracer.rep_starts) - 1, sampler)
    return rep, output


def measure(workload, inputs, out_dir: Path, seconds: float, min_rounds: int, tracer=None):
    """Repeat the call for ``seconds``; with a tracer, untraced and traced
    repetitions alternate. Returns (untraced reps, traced reps, last outputs,
    traceback or None).
    """
    plain, traced, last = [], [], {}
    modes = ((None, plain),) if tracer is None else ((None, plain), (tracer, traced))
    error, round_s = None, 0.0
    start = time.perf_counter()
    try:
        # A round starts only if it is likely to end near the budget, not past it.
        while len(plain) < min_rounds or time.perf_counter() - start + round_s / 2 < seconds:
            round_start = time.perf_counter()
            for mode, reps in modes:
                rep, last[mode is not None] = run_rep(workload, inputs, out_dir, mode)
                reps.append(rep)
            round_s = time.perf_counter() - round_start
    except Exception:
        error = traceback.format_exc()
    return plain, traced, last, error


def _ratio(numerator: float, base: float) -> float:
    return numerator / base if base else 0.0


def layer_metrics(layers: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    calls, busy, own = layers["calls"], layers["busy_s"], layers["self_s"]
    kept = counters["kept_events"]
    return {
        "book.submit_calls": (calls["book.submit_order"], "count"),
        "book.submit_s": (busy["book.submit_order"], "s"),
        "book.cancel_calls": (calls["book.cancel_order"], "count"),
        "book.cancel_s": (busy["book.cancel_order"], "s"),
        "book.transactions": (counters["transactions"], "count"),
        "rates.event_table_calls": (calls["rates.event_table"], "count"),
        "rates.event_table_s": (busy["rates.event_table"], "s"),
        "rates.arrival_rates_calls": (calls["rates.arrival_rates"], "count"),
        "rates.arrival_rates_s": (busy["rates.arrival_rates"], "s"),
        "rates.apply_event_calls": (calls["rates.apply_event"], "count"),
        "rates.apply_event_self_s": (own["rates.apply_event"], "s"),
        "rates.tables_per_event": (_ratio(layers["engine_tables"], kept), "ratio"),
        "engine.simulate_calls": (calls["engine.simulate"], "count"),
        "engine.simulate_self_s": (own["engine.simulate"], "s"),
        "engine.step_calls": (calls["engine.step"], "count"),
        "engine.step_self_s": (own["engine.step"], "s"),
        "engine.derive_run_seeds_s": (busy["engine.derive_run_seeds"], "s"),
        "engine.step_useful_ratio": (_ratio(kept, calls["engine.step"]), "ratio"),
        "observables.quotes_calls": (calls["observables.quotes"], "count"),
        "observables.quotes_s": (busy["observables.quotes"], "s"),
        "observables.xlm_calls": (calls["observables.xlm"], "count"),
        "observables.xlm_s": (busy["observables.xlm"], "s"),
        "observables.depth_calls": (calls["observables.depth"], "count"),
        "observables.depth_s": (busy["observables.depth"], "s"),
        "observables.depth_useful_ratio": (
            _ratio(counters["depth_frames"], calls["observables.depth"]),
            "ratio",
        ),
        "observables.summarize_run_s": (busy["observables.summarize_run"], "s"),
        "scenario.run_scenario_self_s": (own["scenario.run_scenario"], "s"),
        "scenario.validate_self_s": (own["scenario.validate_against_oracle"], "s"),
        "scenario.write_bundle_s": (busy["scenario.write_bundle"], "s"),
        "scenario.bytes_written": (counters["bytes_written"], "B"),
        "oracle.states": (counters["states"], "count"),
        "oracle.generator_nnz": (counters["generator_nnz"], "count"),
        "oracle.enumerate_s": (busy["oracle.enumerate_states"], "s"),
        "oracle.build_generator_self_s": (own["oracle.build_generator"], "s"),
        "oracle.evolve_calls": (calls["oracle.evolve"], "count"),
        "oracle.evolve_s": (busy["oracle.evolve"], "s"),
    }


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _golden(workload_name: str, seed: int, size: int):
    """The pinned digests for this seed and size, or None."""
    golden = _pinned()
    entry = golden["workloads"].get(workload_name)
    if seed == golden["seed"] and entry is not None and entry["size"] == size:
        return entry["digests"]
    return None


def _digest_problems(reps: list) -> list[str]:
    first = reps[0]["outcome"].digests
    if any(r["outcome"].digests != first for r in reps):
        return ["repetitions produced different outputs (traced ones included)"]
    return []


def run_workload(workloads, name: str, seed: int, seconds: float, traced: bool, size=None) -> dict:
    """Measure and check one workload; returns the result record."""
    workload = workloads.WORKLOADS[name]
    size = size or workload.default_size
    out_dir = OUT / name
    originals = spans.original_bindings()
    inputs = workload.prepare(seed, size)
    ops = workload.operations(inputs)
    setup, setup_raw = ([], []) if traced else measure_setup(name, seed, size)
    tracer = spans.Tracer() if traced else None
    plain, traced_reps, last, error = measure(
        workload, inputs, out_dir, seconds, 1 if traced else MIN_REPS, tracer
    )

    problems: list[str] = []
    reps = plain + traced_reps
    attempted = ops * len(reps)
    failed = sum(r["outcome"].aborted for r in reps)
    if error:
        problems.append("workload raised:\n" + error)
        attempted, failed = attempted + ops, failed + ops
    digests = plain[0]["outcome"].digests if plain else {}
    pinned = _golden(name, seed, size)
    if plain:
        problems += _digest_problems(reps)
        problems += workload.check(inputs, last[False], out_dir)
        if pinned is not None and digests != pinned:
            problems.append(f"digests differ from the pinned ones {pinned}")
    if traced_reps:
        tracer.write(out_dir / "trace.npz")
        problems += _trace_problems(traced_reps)
        problems += workload.check(inputs, last[True], out_dir)
    restored = spans.original_bindings()
    moved = [f"{m}.{a}" for (m, a), fn in originals.items() if restored[(m, a)] is not fn]
    if moved:
        problems.append(f"trace wrappers left in place: {moved}")

    walls = [r["wall_s"] for r in plain]
    metrics = {}
    if traced_reps and not error:
        metrics = _traced_metrics(traced_reps, plain, problems)
    elif plain and not traced and not error:
        scaled = [r["busy_s"] * r["scale"] for r in plain]
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (scaled, "s"),
            "events_per_s": ([r["outcome"].events / w for r, w in zip(plain, scaled)], "1/s"),
            "states_per_s": ([r["outcome"].states / w for r, w in zip(plain, scaled)], "1/s"),
            "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MiB"),
        }
    if problems:
        failed = attempted
    return {
        "workload": name, "seed": seed, "size": size, "seconds": seconds,
        "env": environment(traced), "problems": problems, "digests": digests,
        "pinned": "n/a" if pinned is None else ("match" if digests == pinned else "MISMATCH"),
        "metrics": metrics,
        "scale": statistics.median(r["scale"] for r in reps) if reps else 1.0,
        "raw": {"wall_s": walls, "setup_s": setup_raw,
                "traced_wall_s": [r["wall_s"] for r in traced_reps]},
        "attempted": attempted, "failed": failed, "correct": not problems,
    }


def _trace_problems(reps: list) -> list[str]:
    problems = []
    for i, rep in enumerate(reps):
        layers = rep["layers"]
        if layers["min_self_s"] < -1e-9:
            problems.append(f"traced repetition {i}: negative self time {layers['min_self_s']}")
        if layers["self_total_s"] > rep["busy_s"] + 1e-6:
            problems.append(
                f"traced repetition {i}: self times sum to {layers['self_total_s']} "
                f"> wall {rep['busy_s']}"
            )
    return problems


def _traced_metrics(reps: list, plain: list, problems: list) -> dict:
    """Per-layer metrics over traced repetitions: name -> (samples, unit).

    Counts must repeat exactly; times are scaled to the reference speed.
    """
    per_rep = [layer_metrics(r["layers"], r["counters"]) for r in reps]
    metrics = {}
    for key, (first, unit) in per_rep[0].items():
        values = [m[key][0] for m in per_rep]
        if unit == "s":
            values = [v * r["scale"] for v, r in zip(values, reps)]
        elif any(v != first for v in values):
            problems.append(f"{key} differs between traced repetitions: {values}")
        metrics[key] = (values, unit)
    overheads = [
        t["busy_s"] * t["scale"] / (p["busy_s"] * p["scale"]) - 1.0 for t, p in zip(reps, plain)
    ]
    metrics["trace.overhead_frac"] = (overheads, "ratio")
    return metrics


def print_record(record: dict) -> None:
    traced = record["env"]["traced"]
    print(
        f"workload {record['workload']}  seed {record['seed']}  size {record['size']}  "
        f"seconds {record['seconds']}  traced {'yes' if traced else 'no'}"
    )
    print("  env " + json.dumps(record["env"], sort_keys=True))
    print(
        f"  times are at reference speed: measured time x {record['scale']:.4f} (median; "
        f"nominal {speed.REFERENCE_NOMINAL_S} s / mean speed sample, see speed.py)"
    )
    for key, values in record["raw"].items():
        if values:
            print(f"  {'raw ' + key:34s} {statistics.median(values):>16.6g} s      n={len(values)}")
    print(f"  {'metric':34s} {'median':>16s} {'unit':6s} n  [min, max]")
    for key, (values, unit) in record["metrics"].items():
        print(
            f"  {key:34s} {statistics.median(values):>16.6g} {unit:6s} n={len(values)} "
            f"[{min(values):.6g}, {max(values):.6g}]"
        )
    frac = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    print(
        f"  {'failed_frac':34s} {frac:>16.6g} ratio  n={record['attempted']} "
        f"({record['failed']} failed of {record['attempted']} attempted)"
    )
    print(f"  digests {json.dumps(record['digests'], sort_keys=True)} pinned: {record['pinned']}")
    print("  checks: " + ("ok" if not record["problems"] else "FAILED"))
    for problem in record["problems"]:
        print("    - " + problem.rstrip().replace("\n", "\n      "))


def _json_metrics(record: dict, prefix: str = "") -> dict:
    return {
        prefix + key: {"value": statistics.median(values), "unit": unit}
        for key, (values, unit) in record["metrics"].items()
    }


def self_test(workloads) -> list[str]:
    """Tiny-size runs of every workload, checking the harness itself."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, size in SELF_TEST_SIZES.items():
        for traced in (False, True) if name == "scenario2_static" else (True,):
            record = run_workload(workloads, name, _pinned()["seed"], 0.0, traced, size)
            print_record(record)
            problems += [f"{name}: {p}" for p in record["problems"]]
            declared = spec["per_layer" if traced else "end_to_end"]
            want = {m["name"]: m["unit"] for m in declared}
            got = {key: unit for key, (_, unit) in record["metrics"].items()}
            if got != want:
                diff = sorted(set(got.items()) ^ set(want.items()))
                problems.append(f"{name}: metrics differ from BENCHMARK.json: {diff}")
    if set(workloads.WORKLOADS) != {w["name"] for w in spec["workloads"]}:
        problems.append("workload names differ from BENCHMARK.json")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=None, help="input seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="runs (scenario workloads), R (validate) or max orders (oracle)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    try:
        workloads = load_lobsim()
    except SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    seed = _pinned()["seed"] if args.seed is None else args.seed
    if args.self_test:
        problems = self_test(workloads)
        print("self-test: " + ("ok" if not problems else "FAILED"))
        for problem in problems:
            print("  - " + problem)
        return 0 if not problems else 1
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        try:
            record = run_workload(workloads, name, seed, args.seconds, bool(args.trace), args.size)
        except Exception:
            record = {
                "workload": name, "seed": seed, "size": args.size, "seconds": args.seconds,
                "env": environment(bool(args.trace)), "metrics": {}, "digests": {},
                "scale": 1.0, "raw": {},
                "pinned": "n/a", "problems": ["harness raised:\n" + traceback.format_exc()],
                "attempted": 1, "failed": 1, "correct": False,
            }
        print_record(record)
        records.append(record)

    if len(records) == 1:
        metrics = _json_metrics(records[0])
    else:
        metrics = {}
        for record in records:
            metrics.update(_json_metrics(record, record["workload"] + "."))
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
