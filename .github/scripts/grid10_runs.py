"""Batched grid-10 opposite-best runs; check the slots, the event count and peak RSS.

Usage: python .github/scripts/grid10_runs.py horizon-50|runs-20000
(lobsim installed, or PYTHONPATH=src from the repository root)

The model is ``grid10-opposite-best`` of ``tests/golden.py``, capped at the
9 orders of size 1 it indexes, so the batched kernel runs 1,129 slots.
``horizon-50`` steps 2,048 runs to t = 50, where most books are new: the book
set's cap bounds the peak RSS (without it the set would hold about 300,000
books and the run would peak near 185 MiB). ``runs-20000`` steps 20,000 runs
to t = 2 in one call: the cell budget bounds it. Both take checkpoints at
t = 0.5, 1 and 2. Prints the event count and the process's peak RSS, so run
each case in a fresh process; exits 1 when the slots, the event count or the
peak RSS bound is off.
"""

import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
import golden  # noqa: E402

from lobsim.book import StateCaps  # noqa: E402
from lobsim.engine import RecordingConfig, derive_run_seeds, lockstep_width, simulate  # noqa: E402

# name: (runs, horizon, the event counts accepted, peak RSS bound in MiB). Peaks
# measured on a 2-CPU Xeon VM (Python 3.11, numpy 2.4): 48.4-48.5 MiB at 615,985
# events to t = 50; 48.7-48.8 MiB for 20,000 runs, 35.3 of them imports. That
# bound sits below the 52.0 MiB of the former kernel run in chunks of 4,096 (57.7
# in one call); one slot per run peaks at 60.7 MiB.
CASES = {
    "horizon-50": (2_048, 50.0, range(500_001, sys.maxsize), 80),
    "runs-20000": (20_000, 2.0, range(239_936, 239_937), 52),
}
SLOTS = 1_129


def main(name: str) -> int:
    runs, horizon, events, most_mib = CASES[name]
    model, (_, max_quantity, max_orders, _) = golden.case_model("grid10-opposite-best")
    caps = StateCaps(max_orders=max_orders, max_quantity=max_quantity)
    slots = lockstep_width(model, caps)
    result = simulate(
        model,
        time_horizon=horizon,
        seed=derive_run_seeds(2024, runs),
        recording=RecordingConfig(events=False, checkpoint_times=(0.5, 1.0, 2.0)),
        caps=caps,
    )
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{name}: {runs:,} runs to t = {horizon:g} on {slots:,} slots,"
        f" {result.event_count:,} events, peak RSS {peak_mib:.1f} MiB"
    )
    if slots != SLOTS:
        print(f"expected {SLOTS:,} slots", file=sys.stderr)
        return 1
    if result.event_count not in events:
        wanted = f"{events.start:,}" if len(events) == 1 else f"more than {events.start - 1:,}"
        print(f"expected {wanted} events", file=sys.stderr)
        return 1
    if peak_mib >= most_mib:
        print(f"expected a peak RSS below {most_mib} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CASES:
        sys.exit(f"usage: {sys.argv[0]} {'|'.join(CASES)}")
    sys.exit(main(sys.argv[1]))
