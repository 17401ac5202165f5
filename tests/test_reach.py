"""Every public function, class and method of src is reached from src or
perfbench, not only from the tests.

A definition counts as reached when its name appears, as a name or as an
attribute, somewhere in src or perfbench outside its own body.  The
methods that perfbench/spans.py times by name (its METHODS table) count as
reached too.  What the tests alone need belongs in tests/helpers.py.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# name -> why it stays although nothing in src or perfbench calls it yet
KEEP = {
    "serialize.filtration_from_obj": "read by the verify routes of ROADMAP item 2",
}


def _definitions():
    """(module.name or module.Class.name, file, node) for every public
    top-level def and class of src, and every public method of those
    classes."""
    for path in sorted((ROOT / "src" / "residuap").rglob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", path, item


def _references():
    """(name, file, line) for every name and attribute in src and perfbench."""
    paths = sorted((ROOT / "src").rglob("*.py")) + \
        sorted((ROOT / "perfbench").rglob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield node.id, path, node.lineno
            elif isinstance(node, ast.Attribute):
                yield node.attr, path, node.lineno


def _timed_methods():
    """Class.method for each entry of perfbench/spans.py's METHODS table."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == ["METHODS"]:
            return {f"{path.split('.')[1]}.{meth}"
                    for path, meth, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no METHODS table")


def test_every_public_definition_is_reached():
    refs: dict[str, list] = {}
    for name, path, line in _references():
        refs.setdefault(name, []).append((path, line))
    timed = _timed_methods()
    unreached = set()
    for qualname, path, node in _definitions():
        if qualname.split(".", 1)[1] in timed:
            continue
        if not any(not (where == path and node.lineno <= line <= node.end_lineno)
                   for where, line in refs.get(node.name, ())):
            unreached.add(qualname)
    assert sorted(unreached - set(KEEP)) == [], \
        "reached only from tests: move to tests/helpers.py or delete"
    assert sorted(set(KEEP) - unreached) == [], "reached now: drop from KEEP"
