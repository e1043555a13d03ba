"""The sha256 digest of ``estimate_all`` results on fixed inputs, and the
script that writes it to ``golden.json`` beside this file.

The inputs are the benchmark experiment's two validation scenes at the
deploy continuous parameters (``bench_inputs``). Per scene, prepared once:
the 48 grid tuples in grid order through one stage memo, as the grid phase
of ``cmd_optimize`` runs them, then ``BO_FIXED_DISCRETE`` without a memo, as
a GP-UCB call runs it. Each result adds its found flag, reason, pose bytes,
inlier count, depth score and flags. ``test_golden.py`` recomputes the
digest and compares it with the file. The file also names the numpy and
scipy versions it was made under, since the KD-tree and the linear algebra
may move results between versions.

A change that moves results on purpose rewrites the file with

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy

from posetune.gridopt import enumerate_grid
from posetune.pipeline import SceneEstimate, estimate_all, prepare
from posetune.workflow import BO_FIXED_DISCRETE

from bench_inputs import BENCH_GRID, DEPLOY_CP, validation_scenes

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _add(digest, bundle: SceneEstimate):
    for object_id in sorted(bundle.results):
        result = bundle.results[object_id]
        digest.update(f"{object_id}|{result.found}|{result.reason}|".encode())
        h = result.hypothesis
        if h is not None:
            digest.update(h.pose.rotation.tobytes() + h.pose.translation.tobytes())
            digest.update(np.float64(h.depth_score).tobytes())
            digest.update(f"|{h.inlier_count}|{','.join(h.flags)}|".encode())


def results_digest() -> str:
    models, scenes = validation_scenes()
    grid = enumerate_grid(BENCH_GRID)
    digest = hashlib.sha256()
    for i, scene in enumerate(scenes):
        prepared = prepare(scene)
        memo = {}
        for dp in grid:
            _add(digest, estimate_all(scene, models, DEPLOY_CP, dp, seed=i, prepared=prepared,
                                      memo=memo))
        _add(digest, estimate_all(scene, models, DEPLOY_CP, BO_FIXED_DISCRETE, seed=i,
                                  prepared=prepared))
    return digest.hexdigest()


def main():
    data = {"versions": versions(), "estimate_all": results_digest()}
    GOLDEN_PATH.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}: {data}")


if __name__ == "__main__":
    main()
