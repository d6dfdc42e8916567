"""tools/outdiff.py's Python snippets against this tree: a name they import
that was removed or renamed fails here, not on the next output diff."""

import ast
import contextlib
import importlib
import io
import os
import runpy

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTDIFF = runpy.run_path(os.path.join(ROOT, "tools", "outdiff.py"))


def test_api_table_runs():
    # As `outdiff` runs it: the table after the line that sets POINTS.
    (source,) = [argv[1] for name, argv, _, _ in OUTDIFF["commands"]() if name == "api table"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(source, {})
    lines = out.getvalue().splitlines()
    # Two models, four points, four kinds.
    assert len(lines) == 2 * len(OUTDIFF["CHERNOFF_POINTS"]) * 4
    assert all(line.startswith(("agnostic ", "legacy ")) for line in lines)


@pytest.mark.parametrize("table", ["FOCK_TABLE", "EDGE_TABLE"])
def test_table_imports_exist(table):
    imported = 0
    for node in ast.walk(ast.parse(OUTDIFF[table])):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("gaussqi"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
                imported += 1
    assert imported
