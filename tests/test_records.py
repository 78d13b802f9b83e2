"""Records are NamedTuples: value semantics, and a cold start without code generation.

A record hashes as the tuple of its compared fields, exactly as a frozen
dataclass did, so set and dict orders under a fixed ``PYTHONHASHSEED`` do
not depend on how a record is built.  Memos live in the instance
``__dict__``, outside equality and hash.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from frobkern.commvar import Subdiagram, VarietySystem
from frobkern.errors import ConfigError, DomainError
from frobkern.grmodel import ModelContext, ModelGenerator, model_context
from frobkern.polyalg import VariableDescriptor
from frobkern.rootsys import LevelClass, ParabolicContext, Root, build_root_system, context

A1, A2, A12 = Root((1, 0)), Root((0, 1)), Root((1, 1))

#: (record, the names of its compared fields, in order)
HASHED = [
    (Root((1, 0, 2)), ("coeffs",)),
    (
        model_context("A", 3, J=("a2",), r=2, p=5),
        ("family", "rank", "J", "i", "stage", "r", "p"),
    ),
    (context("B", 3, ("a1",)), ("system", "J")),
    (ModelGenerator("w", A12, 1, 3, 2), ("kind", "root", "twist", "p", "power")),
    (VariableDescriptor("y", "odd", 1, (3, 1)), ("name", "parity", "degree", "weight")),
    (Subdiagram(5, frozenset({1, 3, 4})), ("N", "nodes")),
    (LevelClass(2, 1, A1), ("height", "level", "shape")),
]
IDS = [type(record).__name__ for record, _ in HASHED]


@pytest.mark.parametrize("record, fields", HASHED, ids=IDS)
def test_hash_is_the_hash_of_the_compared_fields(record, fields):
    values = tuple(getattr(record, name) for name in fields)
    assert hash(record) == hash(values)
    assert record == type(record)(*values)


@pytest.mark.parametrize("record, fields", HASHED, ids=IDS)
def test_fields_are_immutable(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_construction_validates_and_normalises():
    assert Root([1, True]).coeffs == (1, 1) and Root([1, True]) == Root((1, 1))
    assert VariableDescriptor("x", weight=[2, 3]).weight == (2, 3)
    assert ModelContext("A", 2, ["a1", "a1"], 1, 2, 1, 3).J == frozenset({"a1"})
    assert ParabolicContext(build_root_system("A", 2), ["a1"]).J == frozenset({"a1"})
    with pytest.raises(ConfigError):
        VariableDescriptor("x", "odd", 2)
    with pytest.raises(ConfigError):
        ParabolicContext(build_root_system("A", 2), ["a7"])
    with pytest.raises(DomainError):
        ModelGenerator("z", A1, 0, 3)
    with pytest.raises(DomainError):
        ModelContext("A", 2, frozenset(), 2, 2, 1, 3)
    with pytest.raises(DomainError):
        LevelClass(1, 2, A1)


def test_reprs_name_the_record_and_its_fields():
    assert repr(LevelClass(2, 1, A1)) == "LevelClass(height=2, level=1, shape=Root(a1))"
    assert repr(A12) == "Root(a1+a2)"
    assert repr(ModelGenerator("x", A1, 0, 3)) == (
        "ModelGenerator(kind='x', root=Root(a1), twist=0, p=3, power=0)"
    )


def test_memos_stay_out_of_equality_and_hash():
    system = VarietySystem(5, 2, pairs=((1, 2), (2, 3)))
    fresh = VarietySystem(5, 2, pairs=((1, 2), (2, 3)))
    assert system.count_polynomial(3) > 0 and "strata" in vars(system)
    assert system == fresh and hash(system) == hash(fresh) and not vars(fresh)
    assert repr(system) == repr(fresh)
    table = build_root_system("A", 3)
    table.decompositions(Root((1, 1, 1)))
    fresh = type(table)(*table)
    assert table._splittings and not fresh._splittings
    assert table == fresh and hash(table) == hash(fresh)
    # a context builds its tables whole, and they stay out of equality and hash
    ctx, twin = ParabolicContext(table, {"a2"}), ParabolicContext(fresh, ("a2",))
    assert ctx._levels == twin._levels and ctx._layers == twin._layers
    assert ctx == twin and hash(ctx) == hash(twin) and repr(ctx) == repr(twin)
    assert ctx != ParabolicContext(table, {"a1"})


def test_roots_compare_by_the_sort_key_in_every_direction():
    # the highest simple-root index dominates, not the tuple order of coeffs
    roots = [Root((2, 0)), A2, A12]
    assert sorted(roots) == [Root((2, 0)), A2, A12]
    assert max(roots) == A12 and min(roots) == Root((2, 0))
    assert A2 > Root((2, 0)) and A2 >= A2 and not Root((2, 0)) > A2


#: imports the CLI and builds its parser, then lists the code-generation
#: modules that were loaded on the way
COLD_START = """
import json, sys
from frobkern.cli import build_parser
build_parser()
print(json.dumps(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)))
"""


def cold_run(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter on ``src/``."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cold_start_generates_no_code():
    # dataclasses loads inspect, ast, dis and tokenize and execs every
    # generated method at each import; a command pays that before its payload
    assert cold_run(COLD_START) == []


#: the size of the permanent generation after the first and the second build
FREEZE = """
import gc, json
from frobkern import cli
cli.build_parser()
first = gc.get_freeze_count()
cli.build_parser()
print(json.dumps([first, gc.get_freeze_count()]))
"""


def test_start_up_freezes_the_heap_once():
    # the modules and the parser live as long as the process: frozen, they
    # stay out of every collection that a command's own garbage starts
    first, second = cold_run(FREEZE)
    assert first > 0 and second == first
