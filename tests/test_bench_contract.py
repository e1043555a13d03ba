"""The names in ``posetune`` that the benchmark's traced run patches.

``bench/tracing.Patches.replace`` raises ``AttributeError`` on a missing
name, so renaming or deleting one of these breaks ``bench/run.py --trace 1``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from posetune import workflow  # noqa: E402

# What ``workloads.configure`` replaces to count operations and time images.
CONFIGURE_PATCHES = ("optimize_continuous", "evaluate_grid", "estimate_all")


@pytest.mark.parametrize("owner, attr", [(owner, attr) for owner, attr, *_ in layers.HOOKS],
                         ids=[f"{owner.__name__}.{attr}" for owner, attr, *_ in layers.HOOKS])
def test_hooked_name_exists(owner, attr):
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("attr", CONFIGURE_PATCHES)
def test_configure_patch_point_exists(attr):
    assert callable(getattr(workflow, attr, None))
