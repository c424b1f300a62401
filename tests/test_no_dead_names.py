"""Dead-name guard: every module-level function, class and constant of
msg_lab is either used somewhere in the package or exported by its
__init__, every public method of its classes is referenced somewhere in
the package, and every defaulted parameter of its functions is passed by
some call in the package or the benchmark.  A name or a parameter only
tests reach is dead code with a test attached.
"""

import ast
import fnmatch
import functools
from pathlib import Path

import msg_lab

PACKAGE = Path(msg_lab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


# defaulted parameters that no call passes by name or position, kept, and
# why: (module, function pattern, parameter) -> reason
KEPT_PARAMETERS = {
    ("suites", "suite_*", "seed"): "set only by run_suite's "
                                   "SUITES[name](seed=..., scale=...)",
    ("suites", "suite_*", "scale"): "set only by run_suite's "
                                    "SUITES[name](seed=..., scale=...)",
}


def _callee(call):
    """The name a call goes through: a bare name or an attribute."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _defaulted(fn, bound):
    """(parameter, position) for each parameter of fn with a default; the
    position counts the arguments a call passes (after self when bound),
    None for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if bound else 0
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[i].arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    """Whether a call may set the parameter: by keyword, through **kwargs
    or *args, or with more positional arguments than its position."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def _functions(tree):
    """(qualified name, name a call uses, node, bound) of each module-level
    function and each method of a module-level class; a class call
    resolves to its __init__."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                called = node.name if fn.name == "__init__" else fn.name
                yield f"{node.name}.{fn.name}", called, fn, not static


def dead_parameters(package=PACKAGE, callers=(PERFBENCH,),
                    kept=KEPT_PARAMETERS):
    """(module, "function(parameter)") for each defaulted parameter that
    no call in the package or in the caller directories passes, matched
    by the called name as dead_methods matches references."""
    trees = _parse(package)
    others = [ast.parse(path.read_text(), str(path)) for directory in callers
              for path in sorted(directory.glob("*.py"))]
    calls = {}
    for tree in list(trees.values()) + others:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    dead = []
    for module, tree in trees.items():
        for qualname, called, fn, bound in _functions(tree):
            for name, position in _defaulted(fn, bound):
                if any(module == m and fnmatch.fnmatch(qualname, pattern)
                       and name == param for m, pattern, param in kept):
                    continue
                if not any(_passes(call, name, position)
                           for call in calls.get(called, ())):
                    dead.append((module, f"{qualname}({name})"))
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


def test_every_defaulted_parameter_is_passed():
    assert dead_parameters() == []


def test_kept_parameters_are_still_unpassed():
    """An allowlisted parameter that gains a caller is no longer needed."""
    flagged = dead_parameters(kept={})
    for module, pattern, param in KEPT_PARAMETERS:
        assert any(m == module and fnmatch.fnmatch(q.split("(")[0], pattern)
                   and q.endswith(f"({param})") for m, q in flagged)


def test_guard_flags_an_unpassed_default(tmp_path):
    package = tmp_path / "pkg"
    callers = tmp_path / "bench"
    package.mkdir()
    callers.mkdir()
    (package / "__init__.py").write_text("from .a import Box, run\n")
    (package / "a.py").write_text(
        "def run(x, fast=False, *, depth=1, tag=None):\n"
        "    return Box(x, 2).get(x, limit=3)\n"
        "def helper(a, b=0, c=0):\n    return helper(a, 1)\n"
        "class Box:\n"
        "    def __init__(self, v, w=0, z=0):\n        self.v = v\n"
        "    def get(self, x, limit=1, unused=0):\n        return x\n"
        "    @staticmethod\n"
        "    def make(v, w=0):\n        return Box(v)\n")
    (callers / "bench.py").write_text(
        "import pkg\n"
        "pkg.run(1, True, depth=2)\n"
        "pkg.Box.make(1, 2)\n")
    assert dead_parameters(package, (callers,), {}) == [
        ("a", "run(tag)"), ("a", "helper(c)"), ("a", "Box.__init__(z)"),
        ("a", "Box.get(unused)")]
    assert dead_parameters(package, (), {}) == [
        ("a", "run(fast)"), ("a", "run(depth)"), ("a", "run(tag)"),
        ("a", "helper(c)"), ("a", "Box.__init__(z)"),
        ("a", "Box.get(unused)"), ("a", "Box.make(w)")]
    assert dead_parameters(package, (callers,),
                           {("a", "Box.*", "unused"): "kept"}) == [
        ("a", "run(tag)"), ("a", "helper(c)"), ("a", "Box.__init__(z)")]
