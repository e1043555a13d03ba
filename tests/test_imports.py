"""Every test module imports.

The tier-1 command runs pytest with ``--continue-on-collection-errors``, so a
test module that fails to import (say, because it imports a name the package
no longer has) drops out of the run whole while the run still passes. This
test fails instead, naming the module in its traceback.
"""

import importlib
from pathlib import Path


def test_every_test_module_imports():
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        importlib.import_module(path.stem)
