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


def test_models_reach_the_rest_of_the_package_only_through_the_harness():
    """`models/` imports its siblings relatively and, from outside itself,
    only `..harness`; the package never imports itself by absolute name."""
    models = Path(econarrative.__file__).parent / "models"
    outside = set()
    for path in sorted(models.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 1:
                names = [node.module or alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] if node.module.split(".")[0] == "econarrative" else []
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.split(".")[0] == "econarrative"]
            else:
                continue
            outside |= {(path.name, name) for name in names if name != "harness"}
    assert not outside, sorted(outside)
