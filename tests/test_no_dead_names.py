"""Dead-name guard: every module-level function, class and constant of
msg_lab is either used somewhere in the package or exported by its
__init__.  A name only tests reach is dead code with a test attached.
"""

import ast
from pathlib import Path

import msg_lab

PACKAGE = Path(msg_lab.__file__).resolve().parent


def _definitions(tree):
    """Names bound at module level by def, class or plain assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree, skip):
    """Identifiers used in the tree outside the nodes in `skip`: loads of
    bare names, attribute names and names brought in by import."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return out


def dead_names(package=PACKAGE):
    """(module, name) for each module-level definition that no other
    place in the package refers to and that __init__ does not export."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    exported = _references(trees["__init__"], set())
    dead = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, node in _definitions(tree):
            if name.startswith("__") or name in exported:
                continue
            used = any(name in _references(other, {node} if other is tree else set())
                       for other in trees.values())
            if not used:
                dead.append((module, name))
    return dead


def test_every_module_level_name_is_used_or_exported():
    assert dead_names() == []


def test_guard_flags_an_unused_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept\n")
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n"
        "def kept():\n    return helper() + LIMIT\n"
        "def helper():\n    return 1\n"
        "def unused():\n    return unused()\n")
    assert dead_names(tmp_path) == [("a", "unused")]
