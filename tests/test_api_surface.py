"""Every function, class and method of the package has a reader.

A member of src/quotdt passes when the package itself refers to it, when
README's Library section names it in code, or when perfbench/tracer.py
reads it; otherwise it must be on ALLOWED, with the reason it stays.  The
package refers to a function or class by a name, an attribute or a string
(`_EXPORTS` lists names as strings), and to a method only by an attribute.
Members are matched by name alone, so any attribute of the same name counts
(`args.power` in the CLI would hide a method `power`).  Dunder methods are
exempt: Python calls them.
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
}


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _members(tree: ast.Module, module: str):
    """(qualified name, name, is a method) for each top-level def and class and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _dunder(node.name):
            yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                        yield f"{module}.{node.name}.{item.name}", item.name, True


def _references(tree: ast.Module, names: set, attributes: set) -> None:
    """Add the names read, the attributes and the dotted parts of the strings in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
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
                names, attributes)
    library = _library_names()
    unread = [
        qualified for qualified, name, method in members
        if name not in attributes and name not in library and (method or name not in names)
    ]
    assert sorted(unread) == sorted(ALLOWED)
