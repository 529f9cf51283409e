"""Records against frozen dataclasses, and what the package's import loads.

Each record class below has a frozen-dataclass twin with the same body:
a default, a hidden "_" field (the twin's is compare=False, repr=False),
an explicit __eq__/__hash__ with a __post_init__, and a cached_property.
The two must agree on ==, hash() and repr() for every pair of instances.
"""

import dataclasses
import json
import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import pytest

import toricface
from toricface.record import FrozenRecordError, record


def _classes(decorate, hidden):
    @decorate
    class Point:
        x: int
        y: int = 2

    @decorate
    class Piece:
        value: int
        _find: object = hidden

        @cached_property
        def witness(self):
            return self._find() if self._find else None

    @decorate
    class Keyed:
        key: tuple
        extra: int

        def __post_init__(self):
            object.__setattr__(self, "_memo", {"key": self.key})

        def __eq__(self, other):
            return isinstance(other, Keyed) and self.key == other.key

        def __hash__(self):
            return hash(("keyed", self.key))

    return Point, Piece, Keyed


RECORDS = _classes(record, None)
TWINS = _classes(dataclasses.dataclass(frozen=True),
                 dataclasses.field(default=None, repr=False, compare=False))

ARGS = [
    [(1,), (1, 2), (1, 3), (4, -1), ((1, 2),)],
    [(0,), (1,), (1, lambda: (5, 4)), (1, lambda: (0, 0)), ((1,),)],
    [((1, 2), 0), ((1, 2), 7), ((2, 1), 0)],
]


@pytest.mark.parametrize("k", range(len(ARGS)))
def test_record_matches_frozen_dataclass(k):
    recs = [RECORDS[k](*a) for a in ARGS[k]]
    twins = [TWINS[k](*a) for a in ARGS[k]]
    for r, t in zip(recs, twins):
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        # another class: NotImplemented from both, or the explicit __eq__
        assert r != t and r.__eq__(t) is t.__eq__(r)
        assert r.__eq__(None) is t.__eq__(None)
    for (r1, t1) in zip(recs, twins):
        for (r2, t2) in zip(recs, twins):
            assert (r1 == r2) == (t1 == t2)
            assert (r1 != r2) == (t1 != t2)


def test_record_defaults_keywords_post_init_and_cached_property():
    Point, Piece, Keyed = RECORDS
    assert Point(1) == Point(x=1, y=2) and Point(y=5, x=1).y == 5
    assert Keyed((1,), 0)._memo == {"key": (1,)}
    p = Piece(1, lambda: (5, 4))
    assert p == Piece(1) and p.witness == (5, 4)
    assert p.__dict__["witness"] == (5, 4)
    assert Piece(0).witness is None


def test_record_is_frozen():
    assert issubclass(FrozenRecordError, AttributeError)
    for cls, args in zip(RECORDS, ARGS):
        r = cls(*args[0])
        for name in (*vars(r), "new"):
            with pytest.raises(FrozenRecordError):
                setattr(r, name, 1)
            with pytest.raises(FrozenRecordError):
                delattr(r, name)
        assert r == cls(*args[0]) and vars(r) == vars(cls(*args[0]))


def test_worker_imports_load_neither_dataclasses_nor_inspect():
    """bench/worker.py imports these four modules in every pass; dataclasses
    and inspect were most of their import time."""
    src = str(Path(toricface.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import toricface.cech, toricface.cli, toricface.cohomology, "
              "toricface.moncomplex\n"
              "print(json.dumps(sorted(set(sys.modules) - before)))")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env, check=False)
    assert run.returncode == 0, run.stderr[-3000:]
    loaded = set(json.loads(run.stdout))
    assert {"toricface.cli", "toricface.record"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}
