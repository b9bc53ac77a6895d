"""The pins of ``golden.json``: their recipes, and the named models tests and CI share.

An entry maps what is hashed to its sha256: ``bundle/<config>/<file>``, a file
``write_bundle`` writes; ``report/<model>/<runs>/<seed>``, the report lines, as
``lobsim validate`` prints them without the last newline; ``generator/<model>``,
the generator's canonical CSC form; and a capped run's fingerprint. Reruns that
agree show nothing about the RNG-to-event mapping; these pins do. A deliberate
change of the stream or of an output format (ROADMAP.md) edits the file alone,
and ``python tests/golden.py 1|ci`` (lobsim installed, or PYTHONPATH=src) lists
it: it prints ``name: old -> new`` for each entry of tier 1, or of CI's bundles,
that differs, and exits 1 on any; the CI steps print it for theirs. It never
writes the file.
"""

import functools
import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from lobsim.book import StateCaps
from lobsim.engine import RecordingConfig, simulate
from lobsim.oracle import build_generator, enumerate_states
from lobsim.rates import AnchoringMode, DgxParams, RateModel, TraderGroup
from lobsim.scenario import (
    ORACLE_MODELS,
    build_rate_model,
    load_config,
    preset,
    run_scenario,
    validate_against_oracle,
    write_bundle,
)

GOLDEN = Path(__file__).with_name("golden.json")

# name -> overrides of the preset that starts the name, except for the JSON config.
_SMALL = dict(runs=3, events_per_run=400, base_seed=2024)
_HEATMAP = dict(anchoring="opposite_best", record="heatmap")
BUNDLES = {
    "scenario1-events": dict(_SMALL, record="events"),
    "scenario2-events": dict(_SMALL, record="events"),
    "scenario1-summary": dict(_SMALL, record="summary"),
    "scenario2-summary": dict(_SMALL, record="summary"),
    "scenario2-opposite-best-heatmap": dict(_SMALL, **_HEATMAP, runs=2, heatmap_window=50),
    # Long enough to visit about 200 best-quote pairs, edge quotes included.
    "scenario2-opposite-best-long": dict(_SMALL, **_HEATMAP, events_per_run=5000),
    "scenario1-2x50": dict(runs=2, events_per_run=50),
    "scenario2-2x50": dict(runs=2, events_per_run=50),
    # The JSON config: its integer-valued numbers are stored, and so echoed in
    # metadata.json, as floats.
    "integer-valued": dict(
        cancel_rate=0, event_intensity=6, runs=2, events_per_run=50,
        groups=[dict(share=1, mu=1, sigma=3, support=12, bid_anchor=12, ask_anchor=9)],
    ),
    # CI's, at the presets' base seed.
    "scenario1-200x5000": dict(runs=200, events_per_run=5000),
    "scenario2-200x5000": dict(runs=200, events_per_run=5000),
    "scenario2-opposite-best-heatmap-200x5000": dict(_HEATMAP, runs=200, events_per_run=5000),
}
CI_BUNDLES = [config for config in BUNDLES if config.endswith("-200x5000")]

# name -> (DGX support, ask anchor, bid anchor, anchoring, unit quantity,
# enumerate_states arguments); every case has mu 1, sigma 3 and cancel 0.1.
ORACLE_CASES = {
    # 210 states of orders of size 2 on a grid of 4; the supports overlap, so
    # arrivals cross.
    "grid4-static": (3, 2, 3, AnchoringMode.STATIC_SUPPORT, 2, (4, 2, 4)),
    "grid4-opposite-best": (3, 2, 3, AnchoringMode.OPPOSITE_BEST, 2, (4, 2, 4)),
    # The 30,459-state static model of ROADMAP item 3.
    "grid8-static": (4, 4, 5, AnchoringMode.STATIC_SUPPORT, 1, (8, 1, 7)),
    # 19,383 states of up to 11 orders of size 1: long rows and many quote groups.
    "grid5-opposite-best": (3, 2, 4, AnchoringMode.OPPOSITE_BEST, 1, (5, 1, 11)),
}

# CI's grid-10 models, with their state budgets: 238,238 states of at most 8
# orders (int32 targets and row lookups at scale), and 529,958 of at most 9
# under opposite-best anchoring (many quote groups). Kept out of ORACLE_CASES,
# whose tier-1 tests walk every state.
GRID10_CASES = {
    "grid10-static": (5, 5, 6, AnchoringMode.STATIC_SUPPORT, 1, (10, 1, 8, 300_000)),
    "grid10-opposite-best": (5, 5, 6, AnchoringMode.OPPOSITE_BEST, 1, (10, 1, 9, 600_000)),
}

# The entries CI checks, by the tag its tests.yml step looks them up with: the
# bundles by this command at tier ci, the rest by steps that run the CLI or need
# a fresh process. tests/test_golden.py checks every other entry: tier 1.
CI_STEPS = {
    "bundles": tuple(f"bundle/{config}/" for config in CI_BUNDLES),
    # lobsim validate at its default runs and seed.
    "validate": tuple(
        f"report/{model}/100000/2024" for model in ("tiny", "tiny-overlap", "tiny-opposite")
    ),
    "grid10": tuple(f"generator/{m}" for m in GRID10_CASES),
}


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def case_model(name: str):
    """(model, enumerate_states arguments) of a named model: an oracle model, or
    an entry of ``ORACLE_CASES`` or ``GRID10_CASES``."""
    if name in ORACLE_MODELS:
        model, caps = ORACLE_MODELS[name]()
        return model, (model.grid_size, caps.max_quantity, caps.max_orders)
    cases = ORACLE_CASES | GRID10_CASES
    support, ask_anchor, bid_anchor, anchoring, unit_quantity, cutoffs = cases[name]
    params = DgxParams(mu=1.0, sigma=3.0, support_size=support)
    group = TraderGroup(1.0, params, params, ask_anchor=ask_anchor, bid_anchor=bid_anchor)
    model = RateModel(cutoffs[0], (group,), 0.1, 6.0, anchoring, unit_quantity=unit_quantity)
    return model, cutoffs


def oracle_case(name: str):
    """(model, index) for a named model, as :func:`case_model` names them."""
    model, cutoffs = case_model(name)
    return model, enumerate_states(*cutoffs)


@functools.cache
def bundle(config: str) -> dict:
    """sha256 of each file ``write_bundle`` writes for a config of ``BUNDLES``, by file name."""
    fields = BUNDLES[config]
    with tempfile.TemporaryDirectory() as out:
        if config == "integer-valued":
            # The file's stem names the config in metadata.json.
            path = Path(out, "integer_valued.json")
            path.write_text(json.dumps(fields), encoding="utf-8")
            scenario = load_config(path)
        else:
            scenario = replace(preset(config.split("-")[0]), **fields)
        paths = write_bundle(run_scenario(scenario), Path(out, "bundle"))
        return {path.name: sha256(path.read_bytes()) for path in paths}


def generator_digest(generator) -> str:
    """sha256 of the canonical CSC form: duplicates summed; indptr, indices, data."""
    canonical = generator.tocsc(copy=True)
    canonical.sum_duplicates()
    digest = hashlib.sha256()
    digest.update(canonical.indptr.astype(np.int64).tobytes())
    digest.update(canonical.indices.astype(np.int64).tobytes())
    digest.update(canonical.data.astype(np.float64).tobytes())
    return digest.hexdigest()


def capped_horizon_fingerprint() -> str:
    """A capped scenario1 run stopped by a horizon, with checkpoints before, at
    and past it: times, events, trades, final book and checkpointed books."""
    result = simulate(
        build_rate_model(preset("scenario1")),
        time_horizon=40.0,
        seed=2024,
        caps=StateCaps(max_orders=3, max_quantity=1),
        recording=RecordingConfig(checkpoint_times=(0.0, 5.0, 12.5, 39.0, 50.0)),
    )
    parts = [repr((r.time, r.event, r.transactions)) for r in result.records]
    parts.append(repr((result.final_time, result.event_count, result.final_state)))
    parts.extend(repr(item) for item in sorted(result.checkpoints.items()))
    return sha256("\n".join(parts))


def recipe(name: str):
    """The call that recomputes an entry's sha256; KeyError for an unknown name."""
    kind, *parts = name.split("/")
    if kind == "bundle" and len(parts) == 2 and parts[0] in BUNDLES:
        return lambda: bundle(parts[0])[parts[1]]
    if kind == "report" and len(parts) == 3 and parts[0] in ORACLE_MODELS:
        model, runs, seed = parts[0], int(parts[1]), int(parts[2])
        return lambda: sha256("\n".join(validate_against_oracle(model, runs, seed).lines()))
    if kind == "generator" and len(parts) == 1:
        case_model(parts[0])
        return lambda: generator_digest(build_generator(*oracle_case(parts[0])))
    if name == "fingerprint/scenario1-capped-horizon":
        return capped_horizon_fingerprint
    raise KeyError(name)


def tier1() -> list:
    """The entries tier 1 checks: those of no CI step."""
    return sorted(name for name in load() if not name.startswith(sum(CI_STEPS.values(), ())))


def check(found: dict, names=()) -> int:
    """Print ``name: old -> new`` for each name of ``found`` or ``names`` whose
    pinned and found digests differ ("none" where one is absent); 1 if any do."""
    pinned, differ = load(), 0
    for name in sorted(set(found) | set(names)):
        old, new = pinned.get(name, "none"), found.get(name, "none")
        if old != new:
            print(f"{name}: {old} -> {new}")
            differ = 1
    return differ


def main(argv: list) -> int:
    if argv == ["1"]:
        return check({name: recipe(name)() for name in tier1()})
    if argv == ["ci"]:
        # Every file each bundle writes, so an unpinned file shows as well.
        found = {f"bundle/{c}/{f}": d for c in CI_BUNDLES for f, d in bundle(c).items()}
        return check(found, [name for name in load() if name.startswith(CI_STEPS["bundles"])])
    print("usage: python tests/golden.py 1|ci", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
