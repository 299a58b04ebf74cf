"""Question benchmark for bcdimer: one workload per process.

Usage (from the repository root):

    python3 qbench/run.py --workload states --seed 1 --seconds 10 --trace 0

The run imports bcdimer from ``src/``, builds the workload's questions and
their oracle answers from the seed, asks one untimed warm-up question, then
asks whole rounds of questions until ``--seconds`` have passed.  Every
answer is checked.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

import os
import time

_T0 = time.perf_counter()

# one BLAS thread: set before numpy is imported anywhere in the process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "_runs"

# set-up is repeated in this many child processes; setup_s is the median
# of their times and this process's own
SETUP_REPEATS = 2


def _import_bcdimer():
    """Import bcdimer from this checkout's src/, or exit 2."""
    if not (SRC / "bcdimer" / "__init__.py").is_file():
        print(f"qbench: no bcdimer sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bcdimer

    if Path(bcdimer.__file__).resolve().parent != SRC / "bcdimer":
        print(f"qbench: imported bcdimer from {bcdimer.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("states", "loops", "bifurcations"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up time and exit")
    ns = ap.parse_args(argv)
    if not ns.seconds > 0:
        ap.error("--seconds must be positive")
    return ns


def _child_setup_seconds(ns) -> list[float]:
    """Set-up times of fresh processes doing the same set-up."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", ns.workload, "--seed", str(ns.seed),
             "--seconds", str(ns.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    ns = _parse(argv)
    _import_bcdimer()
    import workloads

    work = workloads.build(ns.workload, ns.seed, ns.seconds)
    setup_s = time.perf_counter() - _T0
    if ns.setup_only:
        print(repr(setup_s))
        return 0

    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=RUNS))
    try:
        if ns.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                result = workloads.measure(work, ns.seconds, scratch, tracer)
            finally:
                tracer.uninstall()
        else:
            setup_all = [setup_s] + _child_setup_seconds(ns)
            result = workloads.measure(work, ns.seconds, scratch, None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if ns.trace:
        tracer.write(RUNS / f"trace-{ns.workload}-{ns.seed}.npz")
        metrics = tracer.metrics(result)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup_all), "unit": "s"},
            "question_p50_s": {"value": statistics.median(result.times),
                               "unit": "s"},
            "questions_per_s": {"value": len(result.times) / result.elapsed,
                                "unit": "1/s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    for line in result.problems:
        print(f"qbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
