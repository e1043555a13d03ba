import json

from golden import GOLDEN_PATH, results_digest, versions


def test_estimate_all_results_match_the_committed_digest():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert versions() == golden["versions"], (
        f"{GOLDEN_PATH.name} was made under {golden['versions']}, this run has {versions()}: "
        f"check that results did not move, then rerun tests/golden.py")
    assert results_digest() == golden["estimate_all"], (
        "estimate_all results moved; a change that moves them on purpose reruns "
        "tests/golden.py and says so")
