"""Lets the subprocess tests run `python -m pmquad.cli` from an uninstalled
checkout: child processes get the package's `src` directory on PYTHONPATH,
as the test process gets it from `pythonpath` in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
