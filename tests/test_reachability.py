"""Reachability gate: every definition under `src/` is used by `src/`.

The scan parses each module of the package except `__init__.py`, because a
re-export or an `__all__` entry is not a use. It collects every top-level
function and class, and every method and property of a top-level class,
dunders excluded. A definition is referenced when some line of `src/`
outside its own lines holds its name as a name, an attribute, an imported
name or a string constant (`per_day("records")` reads a column through
`getattr`). Matching is by name only, so the gate can miss dead code but
never flags code that is used.

A definition that nothing references must be listed in `KEEP` with the
reason it stays. An entry that is no longer defined, or that something now
references, fails the gate too, so the table stays exact.
"""

import ast
from pathlib import Path

import econarrative

PACKAGE = Path(econarrative.__file__).parent

KEEP = {
    "embed.ExternalEmbedder": "paper feature: the hosted text encoder",
    "models.textclf.fit_text_classifier": "paper feature: the second stage of the two-stage LLM classifier",
    "narrative.build_integration_prompt": "paper feature: the integration prompt of the two-stage classifier",
    "narrative.llm_predict_weekly_average": "paper feature: weekly LLM prediction",
    "narrative.render_analysis": "paper feature: writes an analysis back in the tagged response format",
    "narrative.LlmClient.request_analyses": "paper feature: the only user of the chat client's max_parallel",
    "models.darnn.gradient_check": "oracle: finite-difference check of the DA-RNN gradients",
    "models.linear.linear_objective": "oracle: the objective the slow linear solvers are checked against",
    "sentiment.daily_sentiment": "a layer perfbench traces; goes when perfbench stops tracing it",
    "embed.daily_embedding": "a layer perfbench traces; goes when perfbench stops tracing it",
    "embed.HashingEmbedder.embed": "a layer perfbench traces; goes when perfbench stops tracing it",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(qualified name, node) of each top-level definition and method."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(name, line) of each name, attribute, imported name and string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def scan(package: Path) -> dict[str, bool]:
    """Each definition in the package's modules, as `module.qualname`, and
    whether anything outside its own lines references its name."""
    spans = []  # (qualified name, name, module, first line, last line)
    lines_of = {}  # name -> {(module, line)} where it is referenced
    for path in sorted(package.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        tree = ast.parse(path.read_text("utf-8"))
        for qualname, node in _definitions(tree):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                spans.append((f"{module}.{qualname}", node.name, module, first, node.end_lineno))
        for name, line in _references(tree):
            lines_of.setdefault(name, set()).add((module, line))
    return {
        qualified: any(m != module or not first <= line <= last for m, line in lines_of.get(name, ()))
        for qualified, name, module, first, last in spans
    }


def test_every_definition_is_referenced_or_kept():
    unkept = sorted(q for q, used in scan(PACKAGE).items() if not used and q not in KEEP)
    assert not unkept, f"nothing in src/ references these; delete them or add a KEEP reason: {unkept}"


def test_keep_entries_are_defined_and_unreferenced():
    found = scan(PACKAGE)
    gone = sorted(set(KEEP) - set(found))
    assert not gone, f"KEEP names definitions that are gone: {gone}"
    referenced = sorted(q for q in KEEP if found[q])
    assert not referenced, f"KEEP names definitions that src/ now references: {referenced}"


def test_scan_names_the_one_unused_function(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import unused\n__all__ = ['unused']\n")
    (package / "a.py").write_text(
        "def unused(n):\n"
        "    return unused(n - 1) if n else 0\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.value = helper()\n"
        "\n"
        "    @property\n"
        "    def doubled(self):\n"
        "        return 2 * self.value\n"
    )
    (package / "b.py").write_text(
        "from .a import Box\n"
        "\n"
        "\n"
        "def main():\n"
        "    return getattr(Box(), 'doubled')\n"
        "\n"
        "\n"
        "main()\n"
    )
    found = scan(package)
    assert set(found) == {"a.unused", "a.helper", "a.Box", "a.Box.doubled", "b.main"}
    assert [q for q, used in found.items() if not used] == ["a.unused"]
