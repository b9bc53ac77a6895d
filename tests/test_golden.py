"""Each tier-1 entry of ``golden.json``, recomputed by its recipe in ``golden.py``."""

from pathlib import Path

import golden
import pytest


@pytest.mark.parametrize("name", golden.tier1())
def test_digest(name):
    assert golden.recipe(name)() == golden.load()[name]


@pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
def test_summary_only_run_writes_the_event_runs_summary(scenario):
    summary = golden.bundle(f"{scenario}-summary")["summary.csv"]
    assert summary == golden.bundle(f"{scenario}-events")["summary.csv"]


def test_every_entry_has_one_check_and_resolves():
    pinned = golden.load()
    root = Path(__file__).parents[1]
    workflow = (root / ".github/workflows/tests.yml").read_text()
    # The commands CI runs: the workflow's own and the scripts they name.
    scripts = [p.read_text() for p in root.glob(".github/scripts/*.py") if p.name in workflow]
    assert "run: python tests/golden.py ci\n" in workflow
    for tag, prefixes in golden.CI_STEPS.items():
        if tag != "bundles":
            assert any(f'golden.CI_STEPS["{tag}"]' in text for text in [workflow, *scripts]), tag
        assert all(any(name.startswith(p) for name in pinned) for p in prefixes), tag
    for name in pinned:
        assert sum(name.startswith(p) for p in golden.CI_STEPS.values()) <= 1, name
        golden.recipe(name)
    for name in [*golden.ORACLE_CASES, *golden.GRID10_CASES]:
        golden.case_model(name)


def test_command_lists_a_changed_entry_and_writes_nothing(tmp_path, monkeypatch, capsys):
    pinned = golden.load()
    name = golden.tier1()[0]
    copy = tmp_path / "golden.json"
    copy.write_text(golden.GOLDEN.read_text().replace(pinned[name], "0" * 64))
    before = copy.read_bytes()
    monkeypatch.setattr(golden, "GOLDEN", copy)
    # One entry's recipe stands for the tier's, which test_digest runs.
    monkeypatch.setattr(golden, "tier1", lambda: [name])
    assert golden.main(["1"]) == 1
    assert capsys.readouterr().out == f"{name}: {'0' * 64} -> {pinned[name]}\n"
    assert copy.read_bytes() == before
