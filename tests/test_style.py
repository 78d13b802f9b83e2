"""Source layout.

The line count of ``src/`` is tracked as a measure of simplicity, so it must
not be lowered by packing code into long lines.  Every process that imports
frobkern without a bytecode cache (as the benchmark's children do) compiles
each module, and the compile of the largest one sets the process's peak
memory: ``BENCH_30.json`` read ``peak_rss_mb`` +1.2% on groebner once the
packed Groebner engine made ``polyalg`` 7 619 AST nodes, and ``BENCH_31.json``
reads it lower again with that engine in a module of its own.  So no module
may grow past ``MAX_NODES``.  The engine module sits below ``polyalg``: it
imports only the standard library and ``errors``, and the public functions
that the benchmark traces stay defined in ``polyalg``.
"""

import ast
import pathlib
import sys

from frobkern import polyalg

MAX_LINE = 95
MAX_NODES = 5000
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.relative_to(SRC)}:{number}: {len(line)} characters"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long_lines, "\n".join(long_lines)


def test_no_module_parses_to_more_nodes_than_the_limit():
    sizes = {
        str(path.relative_to(SRC)): sum(1 for _ in ast.walk(ast.parse(path.read_text())))
        for path in sorted(SRC.rglob("*.py"))
    }
    assert {name: n for name, n in sizes.items() if n > MAX_NODES} == {}


def test_the_traced_ideal_functions_are_defined_in_polyalg():
    for f in (polyalg.normal_form, polyalg.buchberger, polyalg.hilbert_series,
              polyalg.graded_dimension):
        assert f.__module__ == "frobkern.polyalg", f.__name__


def test_the_engine_imports_only_the_standard_library_and_errors():
    tree = ast.parse((SRC / "frobkern" / "_engine.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    outside = {n for n in names if n.split(".")[0] not in sys.stdlib_module_names}
    assert outside == {".errors"}
