"""Build a grid-10 oracle generator; check its shape and pinned canonical CSC digest.

Usage: python .github/scripts/grid10_oracle.py grid10-static|grid10-opposite-best
(lobsim installed, or PYTHONPATH=src from the repository root)

The models and their pinned digests are named in ``tests/golden.py``. Prints
the enumerate and build times and the process's peak RSS, which the build sets,
so run each case in a fresh process. The allocator puts that peak in one of two
modes for the same code, so the script then builds a second time under
tracemalloc and prints that build's traced peak, which does not move with it.
Exits 1 when the shape, the digest, the enumerate plus build time, the peak RSS
or the traced peak bound is off.
"""

import resource
import sys
import time
import tracemalloc
from pathlib import Path

import scipy.sparse  # noqa: F401  (loaded before the clock starts, as in any later build)

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
import golden  # noqa: E402

from lobsim import oracle  # noqa: E402

# name: ((states, nonzeros), peak RSS bound, traced build peak bound, in MiB).
# Measured on a 2-CPU Xeon VM (Python 3.11, numpy 2.4, scipy 1.17): peak RSS
# 244-258 MiB static, 424-479 MiB opposite-best; traced build peaks 109.7 MiB
# static, 235.8 MiB opposite-best, each bound about 5% above.
CASES = {
    "grid10-static": ((238_238, 2_022_878), 290, 115),
    "grid10-opposite-best": ((529_958, 4_759_898), 500, 248),
}
# Enumerate plus build, in seconds, for either case (ROADMAP item 7). Measured on
# the same VM: 0.4 s static, 1.0 s opposite-best.
MOST_SECONDS = 3.0


def main(name: str) -> int:
    shape, most_mib, most_traced_mib = CASES[name]
    model, cutoffs = golden.case_model(name)
    start = time.perf_counter()
    index = oracle.enumerate_states(*cutoffs)
    enumerated = time.perf_counter()
    generator = oracle.build_generator(model, index)
    built = time.perf_counter()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    found = (len(index), generator.nnz)
    print(
        f"{name}: {found[0]:,} states, {found[1]:,} nonzeros, enumerate"
        f" {enumerated - start:.2f} s, build {built - enumerated:.2f} s,"
        f" peak RSS {peak_mib:.1f} MiB"
    )
    if found != shape:
        print(f"expected {shape[0]:,} states and {shape[1]:,} nonzeros", file=sys.stderr)
        return 1
    if golden.check({f"generator/{name}": golden.generator_digest(generator)}):
        return 1
    if built - start > MOST_SECONDS:
        print(f"expected enumerate plus build within {MOST_SECONDS} s", file=sys.stderr)
        return 1
    if peak_mib >= most_mib:
        print(f"expected a peak RSS below {most_mib} MiB", file=sys.stderr)
        return 1
    del generator
    tracemalloc.start()
    oracle.build_generator(model, index)
    traced_mib = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    print(f"{name}: traced build peak {traced_mib:.1f} MiB")
    if traced_mib >= most_traced_mib:
        print(f"expected a traced build peak below {most_traced_mib} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or f"generator/{sys.argv[1]}" not in golden.CI_STEPS["grid10"]:
        sys.exit(f"usage: {sys.argv[0]} {'|'.join(CASES)}")
    sys.exit(main(sys.argv[1]))
