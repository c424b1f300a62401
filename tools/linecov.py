"""List the lines of src/msg_lab that a pytest run never executes.

Run from the root of a checkout:

    python3 tools/linecov.py [PYTEST_ARGS...]

With no arguments it runs the Tier-1 suite (pytest -q
--continue-on-collection-errors on tests/) in this process under a
sys.settrace line tracer, then prints one "path:line: source" entry per
executable line of src/msg_lab that never ran, and a count.  The
executable lines are the line starts of every code object compiled from
each module.  Standard library only; it gates nothing and exits 0 whatever
the tests do.

The tracer slows the tests about fivefold, so tests that bound a wall
time (test_prime_power_split_of_word_size_prime_is_quick) can fail under
it; such a failure says nothing about the code.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "msg_lab")


def executable_lines(path):
    """The line numbers that start an instruction in any code object of
    the module at path."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pytest_args):
    """Run pytest with a line tracer on the package's frames; returns
    {path: executed line numbers}."""
    executed = {}

    def global_trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        seen = executed.setdefault(path, set())

        def local_trace(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local_trace

        return local_trace

    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(global_trace)
    threading.settrace(global_trace)
    try:
        pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return executed


def main(argv):
    os.chdir(ROOT)
    pytest_args = argv or ["-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors", "tests"]
    executed = traced_run(pytest_args)
    missing = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as handle:
            source = handle.read().splitlines()
        never = sorted(executable_lines(path) - executed.get(path, set()))
        for line in never:
            print("src/msg_lab/%s:%d: %s" % (name, line,
                                             source[line - 1].strip()))
        missing += len(never)
    print("%d executable lines of src/msg_lab never ran" % missing)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
