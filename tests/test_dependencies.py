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


def _module_calls(tree):
    """(module, function, call node) for each `module.function(...)` call in `tree`."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)):
            yield node.func.value.id, node.func.attr, node


def _artifact_writers(tree):
    """The CSV writers and indented JSON encoders that `tree` calls."""
    for module, name, node in _module_calls(tree):
        if module == "csv" and name in ("writer", "DictWriter"):
            yield f"csv.{name}"
        elif module == "json" and name in ("dump", "dumps") and any(
                keyword.arg == "indent" for keyword in node.keywords):
            yield f"json.{name}(indent=...)"


def test_only_ingest_writes_artifacts():
    """Every JSON and CSV artifact goes through `ingest.write_json` and
    `ingest.write_csv`; the LLM cache in `narrative` has a format of its own."""
    package = Path(econarrative.__file__).parent
    found = {
        (str(path.relative_to(package)), call)
        for path in sorted(package.rglob("*.py"))
        for call in _artifact_writers(ast.parse(path.read_text("utf-8")))
    }
    assert found == {
        ("ingest.py", "csv.writer"),
        ("ingest.py", "json.dumps(indent=...)"),
        ("narrative.py", "json.dumps(indent=...)"),
    }


def _csv_readers(tree):
    """The imports of the csv module and the CSV readers in `tree`."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "csv"):
            yield "import csv"
    for module, name, _ in _module_calls(tree):
        if module == "csv" and name in ("reader", "DictReader"):
            yield f"csv.{name}"


def test_only_ingest_reads_csv():
    """Every CSV input (series, features, predictions) is parsed by
    `ingest.read_csv`; no other module imports csv."""
    package = Path(econarrative.__file__).parent
    found = {
        (str(path.relative_to(package)), use)
        for path in sorted(package.rglob("*.py"))
        for use in _csv_readers(ast.parse(path.read_text("utf-8")))
    }
    assert found == {("ingest.py", "import csv"), ("ingest.py", "csv.reader")}
