"""Every public function, class and method of src is reached from src or
perfbench, not only from the tests, and every default of a public
parameter is overridden there somewhere.

A top-level function or class counts as reached when, somewhere in src or
perfbench outside its own body, its name appears
  - as a bare name in its own module,
  - in an import from its module (``from .graphs import quotient_gog``), or
  - as an attribute whose base is not a stdlib or numpy module
    (``json.loads`` does not reach ``serialize.loads``) and whose name is not
    also the name of a method of a src class (``I.multiply(J)`` does not
    reach ``graphs.multiply``).
A method counts as reached when its name appears as an attribute
(``x.name``) anywhere in src or perfbench outside its own body; a bare name
(a local variable ``end``) does not reach ``PathWord.end``.  The methods
that perfbench/spans.py times by name (its METHODS table) count as reached
too.  What the tests alone need belongs in tests/helpers.py.

A defaulted parameter of a public function, method or ``__init__`` counts
as overridden when some call in src or perfbench of that name (the class
name for ``__init__``) passes it by keyword or by position.  A parameter
that only its default reaches is one value: a module constant says so.
"""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FOREIGN = set(sys.stdlib_module_names) | {"numpy"}

# name -> why it stays although nothing in src or perfbench calls it yet
KEEP = {
    "serialize.filtration_from_obj": "read by the verify routes of ROADMAP item 2",
}

# "module.function(parameter)" -> why the parameter stays although only its
# default reaches it from src and perfbench
KEEP_DEFAULTS: dict[str, str] = {}


def _src_files():
    return sorted((ROOT / "src" / "residuap").rglob("*.py"))


def _definitions():
    """(module.name or module.Class.name, file, node, is_method) for every
    public top-level def and class of src, and every public method of those
    classes."""
    for path in _src_files():
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", path, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        yield (f"{module}.{node.name}.{item.name}", path, item,
                               True)


def _method_names() -> set[str]:
    """The name of every method of every src class."""
    return {item.name for path in _src_files()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)}


def _references():
    """(kind, name, file, line, module) for every name, attribute and
    imported name in src and perfbench: kind is "name", "attr" (module
    None, or the stdlib or numpy module its base names) or "import" (module
    the last component of the module imported from)."""
    paths = _src_files() + sorted((ROOT / "perfbench").rglob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    aliases[a.asname or a.name.split(".")[0]] = \
                        a.name.split(".")[0]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield "name", node.id, path, node.lineno, None
            elif isinstance(node, ast.Attribute):
                base = node.value
                foreign = (aliases.get(base.id)
                           if isinstance(base, ast.Name) else None)
                yield ("attr", node.attr, path, node.lineno,
                       foreign if foreign in FOREIGN else None)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for a in node.names:
                    yield ("import", a.name, path, node.lineno,
                           node.module.split(".")[-1])


def _timed_methods():
    """Class.method for each entry of perfbench/spans.py's METHODS table."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == ["METHODS"]:
            return {f"{path.split('.')[1]}.{meth}"
                    for path, meth, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py has no METHODS table")


def _reaches(ref, path, node, is_method, methods) -> bool:
    kind, _, where, line, module = ref
    if where == path and node.lineno <= line <= node.end_lineno:
        return False
    if is_method:
        return kind == "attr"
    if kind == "name":
        return where == path
    if kind == "import":
        return module == path.stem
    return module is None and node.name not in methods


def test_every_public_definition_is_reached():
    refs: dict[str, list] = {}
    for ref in _references():
        refs.setdefault(ref[1], []).append(ref)
    timed = _timed_methods()
    methods = _method_names()
    unreached = set()
    for qualname, path, node, is_method in _definitions():
        if qualname.split(".", 1)[1] in timed:
            continue
        if not any(_reaches(ref, path, node, is_method, methods)
                   for ref in refs.get(node.name, ())):
            unreached.add(qualname)
    assert sorted(unreached - set(KEEP)) == [], \
        "reached only from tests: move to tests/helpers.py or delete"
    assert sorted(set(KEEP) - unreached) == [], "reached now: drop from KEEP"


def _defaulted_parameters():
    """(module.function(parameter), called name, index of the parameter
    among the positional arguments of a call or None, parameter name) for
    every defaulted parameter of a public top-level function, and of every
    public method and __init__ of a public class of src."""
    for path in _src_files():
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            funcs = []
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                funcs.append((node.name, node.name, node, 0))
            elif isinstance(node, ast.ClassDef) and \
                    not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                            item.name == "__init__"
                            or not item.name.startswith("_")):
                        called = (node.name if item.name == "__init__"
                                  else item.name)
                        funcs.append((f"{node.name}.{item.name}", called,
                                      item, 1))
            for qual, called, fn, skip in funcs:
                a = fn.args
                positional = a.posonlyargs + a.args
                for i, arg in enumerate(positional):
                    if i >= len(positional) - len(a.defaults):
                        yield (f"{module}.{qual}({arg.arg})", called,
                               i - skip, arg.arg)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield (f"{module}.{qual}({arg.arg})", called, None,
                               arg.arg)


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src and perfbench, by the name it calls (the attribute
    for ``x.f(...)``)."""
    out: dict[str, list[ast.Call]] = {}
    for path in _src_files() + sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if name:
                    out.setdefault(name, []).append(node)
    return out


def _passes(call: ast.Call, index, name: str) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(x, ast.Starred) for x in call.args))


def test_every_default_is_overridden_somewhere():
    calls = _calls()
    one_value = {qual for qual, called, index, name in _defaulted_parameters()
                 if not any(_passes(c, index, name)
                            for c in calls.get(called, ()))}
    assert sorted(one_value - set(KEEP_DEFAULTS)) == [], \
        "only the default reaches these: make each a module constant"
    assert sorted(set(KEEP_DEFAULTS) - one_value) == [], \
        "overridden now: drop from KEEP_DEFAULTS"
