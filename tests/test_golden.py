import json

import pytest

from golden import (GOLDEN_PATH, deploy_digest, experiment_digest, results_digest, search_digest,
                    versions)


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN_PATH.read_text())
    assert versions() == data["versions"], (
        f"{GOLDEN_PATH.name} was made under {data['versions']}, this run has {versions()}: "
        f"check that results did not move, then rerun tests/golden.py")
    return data


def _moved(name: str) -> str:
    return (f"the {name} results moved; a change that moves them on purpose reruns "
            f"tests/golden.py and says so")


def test_estimate_all_results_match_the_committed_digest(golden):
    assert results_digest() == golden["estimate_all"], _moved("estimate_all")


def test_deploy_images_match_the_committed_digest(golden):
    assert deploy_digest() == golden["deploy"], _moved("deploy")


def test_experiment_artifacts_match_the_committed_digest(golden):
    assert experiment_digest() == golden["experiment"], _moved("experiment")


def test_search_trace_matches_the_committed_digest(golden):
    assert search_digest() == golden["search"], _moved("search")
