"""Every function, class and method of the package, and every import, has a reader.

A member of src/quotdt passes when the package itself refers to it, when
README's Library section names it in code, or when perfbench/tracer.py
reads it; otherwise it must be on ALLOWED, with the reason it stays.  The
package refers to a function or class by a name or an attribute, and to a
method only by an attribute; a name in a string of the package (a docstring,
an error message) is no reader.  The tracer also reads by string, since it
names what it wraps as "vertex.vertex_character".
Members are matched by name alone, so any attribute of the same name counts
(`args.power` in the CLI would hide a method `power`).  Protocol dunders
(`__init__`, `__eq__`, `__hash__`, `__repr__`, ...) are exempt: Python calls
them.  Operator dunders (`__add__`, `__mul__`, `__neg__`, `__lt__`, ...) are
not: an operator that no expression applies is dead code that the names
cannot reveal, so each, also one bound by assignment (`__rmul__ = __mul__`),
must be on ALLOWED with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quotdt"

# Members that nothing above refers to, and why each stays.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a bad flag",
    "vertex._pack": "the code layout written out; tests check _unpack and _box_codes against it",
    "series.Series.__mul__": "Series x Series, the reference that tests hold the integer assembly to",
    "series.Series.__rmul__": "a number on the left is refused by _check, as one on the right",
    "series.Series.__pow__": "series_pow and dt_closed_formula raise series to powers",
}

_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
           "lshift", "rshift", "and", "xor", "or")
OPERATORS = {f"__{prefix}{name}__" for name in _BINARY for prefix in ("", "r", "i")} | {
    "__neg__", "__pos__", "__abs__", "__invert__", "__lt__", "__le__", "__gt__", "__ge__"}


def _exempt(name: str) -> bool:
    """A protocol dunder, which Python calls; operator dunders are not exempt."""
    return name.startswith("__") and name.endswith("__") and name not in OPERATORS


def _class_members(node: ast.ClassDef):
    """The names of a class's methods, and of the operators it binds by assignment."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.Assign):
            yield from (t.id for t in item.targets
                        if isinstance(t, ast.Name) and t.id in OPERATORS)


def _members(tree: ast.Module, module: str):
    """(qualified name, name, is a method) for each top-level def and class and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _exempt(node.name):
            yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for name in _class_members(node):
                    if not _exempt(name):
                        yield f"{module}.{node.name}.{name}", name, True


def _references(tree: ast.Module, names: set, attributes: set, strings: bool = False) -> None:
    """Add the names read and the attributes in tree, and with strings its strings' dotted parts."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))


def _library_names() -> set:
    """The identifiers in the code spans and code blocks of README's Library section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = re.findall(r"```.*?```|`[^`]*`", section, re.S)
    return set(re.findall(r"\w+", " ".join(code)))


def test_every_member_has_a_reader():
    members = []
    names, attributes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        members += _members(tree, path.stem)
        _references(tree, names, attributes)
    _references(ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")),
                names, attributes, strings=True)
    library = _library_names()
    unread = [
        qualified for qualified, name, method in members
        if name not in attributes and name not in library and (method or name not in names)
    ]
    assert sorted(unread) == sorted(ALLOWED)


def test_every_import_is_read():
    # a name a module imports, other than from __future__, is read in that
    # module as a name or as the base of an attribute; pyflakes would say so
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    assert unread == []
