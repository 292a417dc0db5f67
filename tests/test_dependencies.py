"""The package's runtime dependencies are the standard library and numpy."""

import ast
import sys
from pathlib import Path

import econarrative

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "econarrative"}


def test_every_import_is_stdlib_or_numpy():
    package = Path(econarrative.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert len(sources) > 10
    outside = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names if name.split(".")[0] not in ALLOWED}
    assert not outside, sorted(outside)
