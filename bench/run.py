"""Run one benchmark workload and print its result as the last line of output.

    python3 bench/run.py --workload {configure,deploy} --seed N --seconds S --trace {0,1}

Run it from the repository root. With ``--trace 0`` the result carries the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` the per-layer
metrics, and the spans go to ``bench/out/trace-<workload>-s<seed>.json``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads (on importing workloads), so
# timings do not depend on how many cores a run happens to get.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
IMPORT_REPEATS = 3
IMPORT_PROBE = ("import time; start = time.perf_counter(); import posetune.workflow; "
                "print(time.perf_counter() - start)")


def import_seconds() -> float:
    """Median time to import the program, each time in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                               capture_output=True, text=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def end_to_end(run) -> dict:
    import numpy as np

    return {
        "setup_s": import_seconds() + statistics.median(run.setup_s),
        "run_s": statistics.median(run.round_s),
        "image_s_p50": float(np.percentile(run.image_s, 50)),
        "image_s_p90": float(np.percentile(run.image_s, 90)),
        "recall": run.recall,
        "grid_recall": run.grid_recall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("configure", "deploy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posetune").is_dir():
        print(f"run.py: no posetune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads
    from tracing import Patches, Tracer

    work_dir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    patches = Patches()
    if tracer:
        layers.install(tracer, patches)
    try:
        run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, work_dir, tracer)
    finally:
        patches.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    if tracer:
        values = layers.per_layer_metrics(tracer)
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed,
                      "rounds": len(run.round_s), "round_s": run.round_s})
        names = declared["per_layer"]
    else:
        values = end_to_end(run)
        names = declared["end_to_end"]

    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in run.errors:
        print(f"operation failed: {error}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(run.round_s)} rounds, "
          f"{len(run.image_s)} estimate_all calls timed")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
