"""Dead-name guard: every module-level function, class and constant of
msg_lab is either used somewhere in the package or exported by its
__init__, and every public method of its classes is referenced somewhere
in the package.  A name only tests reach is dead code with a test
attached.
"""

import ast
import functools
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


# public methods kept with no reference in the package, and why
KEPT_METHODS = {
    ("linalg", "Matrix.solve"): "a trace target of perfbench/tracer.py "
                                "until the benchmark drops it (ROADMAP item 4)",
}


def _parse(package):
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(package.glob("*.py"))}


@functools.lru_cache(maxsize=None)
def _all_references(tree):
    return frozenset(_references(tree, set()))


def _used(name, node, module, trees):
    """Whether any module refers to name outside its definition node."""
    if any(name in _all_references(other)
           for key, other in trees.items() if key != module):
        return True
    return (name in _all_references(trees[module])
            and name in _references(trees[module], {node}))


def dead_names(package=PACKAGE):
    """(module, name) for each module-level definition that no other
    place in the package refers to and that __init__ does not export."""
    trees = _parse(package)
    exported = _references(trees["__init__"], set())
    dead = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for name, node in _definitions(tree):
            if name.startswith("__") or name in exported:
                continue
            if not _used(name, node, module, trees):
                dead.append((module, name))
    return dead


def dead_methods(package=PACKAGE):
    """(module, "Class.method") for each public method of a module-level
    class whose name nothing else in the package refers to, KEPT_METHODS
    aside.  Names are matched, not types: any attribute of that name
    anywhere counts as a reference."""
    trees = _parse(package)
    dead = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")
                        and (module, f"{cls.name}.{node.name}") not in KEPT_METHODS
                        and not _used(node.name, node, module, trees)):
                    dead.append((module, f"{cls.name}.{node.name}"))
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


def test_every_public_method_is_referenced():
    assert dead_methods() == []


def test_kept_methods_are_still_unreferenced():
    """An exception that gains a caller is no longer needed."""
    trees = _parse(PACKAGE)
    for module, qualname in KEPT_METHODS:
        cls_name, name = qualname.split(".")
        cls = next(node for node in trees[module].body
                   if isinstance(node, ast.ClassDef) and node.name == cls_name)
        node = next(n for n in cls.body
                    if isinstance(n, ast.FunctionDef) and n.name == name)
        assert not _used(name, node, module, trees)


def test_guard_flags_an_unreferenced_method(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import Box\n")
    (tmp_path / "a.py").write_text(
        "class Box:\n"
        "    def __init__(self):\n        self.v = self.get()\n"
        "    def get(self):\n        return 1\n"
        "    def _private(self):\n        return 2\n"
        "    def unused(self):\n        return self.unused()\n")
    assert dead_methods(tmp_path) == [("a", "Box.unused")]
    assert dead_names(tmp_path) == []
