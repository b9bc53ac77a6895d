"""Build a grid-10 oracle generator; check its shape and canonical CSC digest.

Usage: python .github/scripts/grid10_oracle.py static|opposite-best
(lobsim installed, or PYTHONPATH=src from the repository root)

The model, :func:`grid10_model`, is CI's one grid-10 model (``grid10_runs.py``
imports it): one DGX(1, 3, 5) group, ask anchor 5, bid anchor 6,
cancellation rate 0.1, event intensity 6, orders of size 1. ``static``
indexes at most 8 orders (238,238 states, int32 targets and row lookups at
scale); ``opposite-best`` indexes at most 9 under opposite-best anchoring
(529,958 states, many quote groups). Prints the enumerate and build times and the process's peak RSS,
which the build sets, so run each case in a fresh process; exits 1 when the
shape, the digest or the peak RSS bound is off.
"""

import hashlib
import resource
import sys
import time

import numpy as np

import lobsim
from lobsim import oracle

# name: (max orders, anchoring, budget, (states, nonzeros), canonical CSC sha256,
# peak RSS bound in MiB). Peaks measured on a 2-CPU Xeon VM (Python 3.11, numpy
# 2.4, scipy 1.17): 255-258 MiB static, 447-479 MiB opposite-best.
CASES = {
    "static": (
        8,
        lobsim.AnchoringMode.STATIC_SUPPORT,
        300_000,
        (238_238, 2_022_878),
        "6243f27ebb53f7e9e7a61280ed2e644eb3525ce71a1cb67506331070c7adf16f",
        290,
    ),
    "opposite-best": (
        9,
        lobsim.AnchoringMode.OPPOSITE_BEST,
        600_000,
        (529_958, 4_759_898),
        "b2ac5e9e5b42289f969bd7e5dac4505773f967d6a8e8400eb17c70e53f6a68ce",
        500,
    ),
}


def grid10_model(anchoring: lobsim.AnchoringMode) -> lobsim.RateModel:
    """The grid-10 model under ``anchoring``."""
    params = lobsim.DgxParams(1.0, 3.0, 5)
    group = lobsim.TraderGroup(1.0, params, params, ask_anchor=5, bid_anchor=6)
    return lobsim.RateModel(
        grid_size=10,
        groups=(group,),
        per_order_cancel_rate=0.1,
        event_intensity=6.0,
        anchoring_mode=anchoring,
    )


def main(name: str) -> int:
    # Loaded here, not on import, so grid10_runs.py's peak RSS holds no scipy; and
    # before the clock starts, as in any later build.
    import scipy.sparse  # noqa: F401

    max_orders, anchoring, budget, shape, expected, most_mib = CASES[name]
    model = grid10_model(anchoring)
    start = time.perf_counter()
    index = oracle.enumerate_states(10, 1, max_orders, budget=budget)
    enumerated = time.perf_counter()
    generator = oracle.build_generator(model, index)
    built = time.perf_counter()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Canonical CSC bytes: indptr and indices as int64, then data.
    csc = generator.tocsc()
    csc.sum_duplicates()
    digest = hashlib.sha256()
    for part in (csc.indptr.astype(np.int64), csc.indices.astype(np.int64), csc.data):
        digest.update(part.tobytes())
    found = (len(index), generator.nnz)
    print(
        f"{name}: {found[0]:,} states, {found[1]:,} nonzeros, enumerate"
        f" {enumerated - start:.2f} s, build {built - enumerated:.2f} s,"
        f" peak RSS {peak_mib:.1f} MiB, sha256 {digest.hexdigest()}"
    )
    if found != shape:
        print(f"expected {shape[0]:,} states and {shape[1]:,} nonzeros", file=sys.stderr)
        return 1
    if digest.hexdigest() != expected:
        print(f"expected sha256 {expected}", file=sys.stderr)
        return 1
    if peak_mib >= most_mib:
        print(f"expected a peak RSS below {most_mib} MiB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CASES:
        sys.exit(f"usage: {sys.argv[0]} {'|'.join(CASES)}")
    sys.exit(main(sys.argv[1]))
