"""Every public function and class in src/sdpcolor is on a user path.

A user path is code outside the tests: the other modules of the package, the
benchmark and the tools. A name referenced from one of them is live, and so is
an allowlisted name. Inside its own module a name is live when a live
definition (or module-level code) references it, so a helper of a live
function is live too. What is left is reached only from its own module's dead
code and the tests, and must either go or be allowlisted here with its reason.

References are matched by identifier (a bare name, an attribute name or an
imported name), which errs on the side of calling a name live.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sdpcolor"

ALLOWED: dict = {}


def _identifiers(node) -> set:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.split(".")[-1])
    return found


def _definitions(tree) -> dict:
    """Top-level function and class definitions of a module, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _module_name(path: Path) -> str:
    """The module's dotted name within the package: graphs, or fixtures for
    fixtures/__init__.py."""
    parts = path.relative_to(PACKAGE).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def dead_names() -> list:
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    outside = set()
    for directory in ("benchmark", "tools"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            outside |= _identifiers(ast.parse(path.read_text()))
    dead = []
    for path, tree in modules.items():
        others = set(outside)
        for other, other_tree in modules.items():
            if other != path:
                others |= _identifiers(other_tree)
        defs = _definitions(tree)
        live = {name for name in defs if name in others or name in ALLOWED}
        refs = {name: _identifiers(node) for name, node in defs.items()}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                live |= _identifiers(node) & defs.keys()
        grew = True
        while grew:
            reached = set().union(*(refs[name] for name in live)) & defs.keys()
            grew = not reached <= live
            live |= reached
        dead += [f"{_module_name(path)}.{name}" for name in defs
                 if not name.startswith("_") and name not in live]
    return dead


def test_every_public_name_has_a_user_path():
    assert dead_names() == []


def test_allowlisted_names_exist_and_have_reasons():
    defined = set()
    for path in PACKAGE.rglob("*.py"):
        defined |= _definitions(ast.parse(path.read_text())).keys()
    for name, reason in ALLOWED.items():
        assert name in defined, name
        assert reason.strip(), name
