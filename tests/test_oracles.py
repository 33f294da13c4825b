import ast
import sys
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_only_the_standard_library():
    # the oracles are an independent route to every expected value, so
    # they may not lean on the package or on anything outside the stdlib
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    outside = {
        name for name in imported if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert not outside, f"tests/oracles.py imports {sorted(outside)}"
