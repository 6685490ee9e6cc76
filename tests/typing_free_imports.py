"""Exit non-zero if ``typing`` is imported on any import path of the package.

Runs every check of ``verify --scope all`` at a small size after importing the
console script's module, so that every module of the package is executed.  Run
it as ``PYTHONPATH=src python -S tests/typing_free_imports.py``: without ``-S``,
a ``site`` hook may import ``typing`` itself.
"""

import sys

import treewalks.cli  # noqa: F401  the module a `treewalks` process starts from
from treewalks import verify
from treewalks.recurrence import DEFAULT_MAX_STATES

failed = [title for title, run in verify.open_checks("all", 4, 3, DEFAULT_MAX_STATES) if run() is not None]
if failed or "typing" in sys.modules:
    sys.exit(f"failed checks: {failed}; typing imported: {'typing' in sys.modules}")
