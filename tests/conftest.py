"""The CLI tests start child interpreters; they must import the package under
test, also when pytest alone (``pythonpath`` in pyproject.toml) put it on the path."""

import os
from pathlib import Path

import hurwitztau

_SRC = str(Path(hurwitztau.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
