"""Derive deploy_params.json from one configure round at the benchmark's seed.

    python3 bench/derive_params.py

The rule is deterministic and leaves measured runtime out: the best GP-UCB
point, and the grid tuple with the highest validation recall, ties going to
the least nominal work (``nominal_work``), then to grid order.
"""

import json
import os
import shutil
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent


def nominal_work(row: dict) -> int:
    """Per-object work counts of the runtime model, each weighted 1.

    Candidates classified, RANSAC hypotheses, ICP iterations and depth checks.
    """
    pc, pe, ri, dc, ii = (int(row[f]) for f in
                          ("classified", "estimated", "ransac_iters", "depth_checked",
                           "icp_iters"))
    return pc + pe * ri + pe * dc * (ii + 1)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from checks import DISCRETE_FIELDS, csv_rows
    from posetune import workflow

    work_dir = workloads.PARAMS_PATH.parent / "out" / "derive-params"
    try:
        run = workloads.configure(workloads.BENCH_SEED, 0, work_dir, None)
        if run.problems or run.failed:
            raise SystemExit(f"configure did not pass its checks: {run.problems} {run.errors}")
        config = workloads.experiment_config(work_dir)
        continuous = json.loads((work_dir / "opt" / "continuous_dr.json").read_text())
        rows = csv_rows(work_dir / "opt" / "grid_dr.csv")
        levels = workflow.learned_levels(config)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    top = max(float(row["recall"]) for row in rows)
    chosen = min((row for row in rows if float(row["recall"]) == top), key=nominal_work)
    params = {
        "seed": workloads.BENCH_SEED,
        "rule": "best GP-UCB point; highest-recall grid tuple, ties to least nominal work",
        "objects": workloads.OBJECTS,
        "levels": levels.as_dict(),
        "continuous": continuous["params"],
        "continuous_recall": continuous["best_value"],
        "discrete": {f: int(chosen[f]) for f in DISCRETE_FIELDS},
        "discrete_recall": float(chosen["recall"]),
    }
    workloads.PARAMS_PATH.write_text(json.dumps(params, indent=1, sort_keys=True) + "\n")
    print(json.dumps(params, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
