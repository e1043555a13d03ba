"""Only ``workflow._run_stage`` and ``workflow._optimize`` make a ``StageError``.

``_run_stage`` turns whatever a stage raises into the stage's
``StageError``, and ``_optimize`` names its two search phases. A failure
wrapped anywhere else would name the stage a second way.
"""

from test_artifact_writers import PACKAGE, _callers


def _makers(module: str, source: str) -> set[str]:
    """The functions of ``source`` that call ``StageError``, by bare or
    attribute name."""
    return _callers(module, source, {"StageError"}, {"StageError"})


def test_detector_sees_stage_errors():
    source = ("def load(path):\n    try:\n        return read(path)\n"
              "    except OSError as exc:\n        raise StageError('load', str(exc)) from exc\n"
              "def check(config):\n    if not config:\n"
              "        raise workflow.StageError('check', 'empty')\n"
              "def plain():\n    raise ValueError('bad')\n")
    assert _makers("m", source) == {"m.load", "m.check"}


def test_only_the_stage_runner_and_optimize_make_stage_errors():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _makers(path.stem, path.read_text())
    assert found == {"workflow._run_stage", "workflow._optimize"}
