"""The CLI tests start child interpreters; they must import the package under
test, also when pytest alone (``pythonpath`` in pyproject.toml) put it on the path."""

import os
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import hurwitztau

_SRC = str(Path(hurwitztau.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def fractions_made():
    """A context manager listing the arguments of every Fraction built inside it."""

    @contextmanager
    def spy():
        made = []
        new = Fraction.__dict__["__new__"]

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        try:
            yield made
        finally:
            Fraction.__new__ = new

    return spy
