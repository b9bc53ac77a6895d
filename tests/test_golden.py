"""Golden digests: sha256 of the exact outputs of small seeded runs.

Two reruns agreeing with each other cannot show that a refactor kept the
RNG-to-event mapping; these pinned digests can. A digest changes only with a
deliberate change of the stream or of an output format, which bumps a
documented stream/schema version (ROADMAP.md).
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from conftest import oracle_case

from lobsim.book import StateCaps
from lobsim.engine import RecordingConfig, simulate
from lobsim.oracle import build_generator
from lobsim.scenario import (
    build_rate_model,
    load_config,
    preset,
    run_scenario,
    validate_against_oracle,
    write_bundle,
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


BUNDLES = {
    "scenario1-events": (
        dict(name="scenario1", runs=3, events_per_run=400, base_seed=2024, record="events"),
        {
            "summary.csv": "bec4c56aa22b8c1f3dfc595c92ccbf33c70a5778add751558c68ef2e98ffe97d",
            "events.csv": "6df1e55956f163ded01d4324985311789b2cc405c6d7b42d1feb1b51c3d67bf5",
        },
    ),
    "scenario2-events": (
        dict(name="scenario2", runs=3, events_per_run=400, base_seed=2024, record="events"),
        {
            "summary.csv": "db97719bc24a7eed5bebc6bfaa9e9636444a7a56200871ccb0c9939928536683",
            "events.csv": "ca32f3d1a8364b1613e829474f842ee168940da3e7b191368afe55051968856a",
        },
    ),
    "scenario2-opposite-best-heatmap": (
        dict(
            name="scenario2",
            runs=2,
            events_per_run=400,
            base_seed=2024,
            anchoring="opposite_best",
            record="heatmap",
            heatmap_window=50,
        ),
        {
            "summary.csv": "9bed3316b632bd9553cf32449f69d9901fc954433e11e67cf6cbe5979847d2e5",
            "heatmap.csv": "742d3d0357f23729caf036d9e597fcc5e6782633ae634cf0dfe0ebe619aa790d",
        },
    ),
    # Long enough to visit about 200 best-quote pairs, edge quotes included.
    "scenario2-opposite-best-long": (
        dict(
            name="scenario2",
            runs=3,
            events_per_run=5000,
            base_seed=2024,
            anchoring="opposite_best",
            record="heatmap",
        ),
        {
            "summary.csv": "edbdd05788f2ce9473da53fee4b059a27c6e5d15ca409d453a15a59cffed2d51",
            "heatmap.csv": "de872d098709e5d5a394056ab49b667804db7f37192fcbfc3e8b086e181d6f9a",
        },
    ),
}

# A summary-only run streams the same summary.csv as one that records events.
for _name in ("scenario1", "scenario2"):
    _config, _digests = BUNDLES[f"{_name}-events"]
    BUNDLES[f"{_name}-summary"] = (
        dict(_config, record="summary"),
        {"summary.csv": _digests["summary.csv"]},
    )


@pytest.mark.parametrize("bundle_name", sorted(BUNDLES))
def test_bundle_digests(bundle_name, tmp_path):
    overrides, expected = BUNDLES[bundle_name]
    overrides = dict(overrides)
    config = replace(preset(overrides.pop("name")), **overrides)
    write_bundle(run_scenario(config), tmp_path)
    got = {name: sha256((tmp_path / name).read_bytes()) for name in expected}
    assert got == expected


# A JSON config written with integer-valued numbers: they are stored, and so
# echoed in metadata.json, as floats.
INTEGER_VALUED_CONFIG = {
    "cancel_rate": 0,
    "event_intensity": 6,
    "groups": [{"share": 1, "mu": 1, "sigma": 3, "support": 12, "bid_anchor": 12, "ask_anchor": 9}],
    "runs": 2,
    "events_per_run": 50,
}

METADATA = {
    "integer-valued": "3e08b4b96f23d2a9b0274611037465ac61545196f88d682a96bf7fe64594f6fe",
    "scenario1": "271b7c141ef3e40db105cfe20868acca9bfcdd35a41dfa312001216e615d3e75",
    "scenario2": "7564e09d30a347b1a320d9234dd62c034ad4ae7f7f20931e92ecea469f8dbf2f",
}


@pytest.mark.parametrize("source", sorted(METADATA))
def test_metadata_digests(source, tmp_path):
    if source in ("scenario1", "scenario2"):
        config = replace(preset(source), runs=2, events_per_run=50)
    else:
        path = tmp_path / "integer_valued.json"
        path.write_text(json.dumps(INTEGER_VALUED_CONFIG), encoding="utf-8")
        config = load_config(path)
    write_bundle(run_scenario(config), tmp_path / "out")
    assert sha256((tmp_path / "out" / "metadata.json").read_bytes()) == METADATA[source]


def test_oracle_report_digest():
    report = validate_against_oracle("tiny-overlap", runs=500)
    text = "\n".join(report.lines()).encode("utf-8")
    assert sha256(text) == "2f7893064a1d60a20d4fb002e575c96c53bdc20ffe2813ac315874d7c11702fe"


# (model, runs, base seed) -> report digest; 4,500 runs is not a multiple of
# any power-of-two chunk size up to 4,096.
ORACLE_REPORTS = {
    ("tiny", 3000, 2024): "cf610224d971a0813e3d2269a6eea74da13c4f7ed2de3e724f08bb51039cf04e",
    ("tiny-opposite", 3000, 2024): "aa6ab90d9a20d64ecc5b01df9bc009822775964e1c92c9684e9cc8c87cbe5f46",
    ("tiny", 4500, 31): "d6ba664c06d986b5ae6646bb2b207a70766185e09d29d45a48f7f6d1473961f2",
    ("tiny-opposite", 4500, 31): "2d4f7e6603a87b16360b075498e30f06767f8864ddb3786f6117dadd13d99072",
}


@pytest.mark.parametrize("case", sorted(ORACLE_REPORTS), ids=lambda c: "-".join(map(str, c)))
def test_oracle_report_digests(case):
    model_name, runs, base_seed = case
    report = validate_against_oracle(model_name, runs=runs, base_seed=base_seed)
    text = "\n".join(report.lines()).encode("utf-8")
    assert sha256(text) == ORACLE_REPORTS[case]


def test_capped_horizon_run_fingerprint():
    # A capped run stopped by a horizon, with checkpoints before, at and
    # past it: times, events, trades, final book and checkpointed books.
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
    fingerprint = sha256("\n".join(parts).encode("utf-8"))
    assert fingerprint == "8e4c486cdb116d8296249621696fb936890735b7778fec5d3a35dc7ffb3a76f4"


def generator_digest(generator) -> str:
    """sha256 of the canonical CSC form: duplicates summed, then indptr,
    indices and data."""
    canonical = generator.tocsc(copy=True)
    canonical.sum_duplicates()
    digest = hashlib.sha256()
    digest.update(canonical.indptr.astype(np.int64).tobytes())
    digest.update(canonical.indices.astype(np.int64).tobytes())
    digest.update(canonical.data.astype(np.float64).tobytes())
    return digest.hexdigest()


GENERATORS = {
    "tiny": "1390a335dd5dc57a75596479e41d57967a70bbb5d1422ae37b67610aa1e9bdf1",
    "tiny-overlap": "9d7818bcbd1a58d3c7ae239badcd07460ae6aad45d6b7e791cc7ad48a380be49",
    "grid4-static": "4980f10e8209bd96f64533e6b9f7b601dc75ebc9bb682e0ec80cf25998d5b057",
    "grid4-opposite-best": "d2e83f063ea589285263278540b751909f77290fd87da9811837776bdaa02636",
    "tiny-opposite": "314d11dc8e756d4ed9d64f9f10dfd8559edaea461b6452017d746035c46be110",
    "grid8-static": "7dd97b8367469c01dd7cac4963b0884b457a0ea6d74dba85abc2d264605d3123",
    "grid5-opposite-best": "3ad0364db5838259cd329cf46f3c94e39a34dd2c51619e92399b7d06c875bf62",
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_digests(name):
    assert generator_digest(build_generator(*oracle_case(name))) == GENERATORS[name]
