"""Regenerate tests/golden/cli.txt, the recorded contract of the msg-lab CLI.

Run from the root of a checkout:

    python3 tools/cli_golden.py

Each entry of the file is one command line, then each line the command
wrote to stdout ("| " prefix) and to stderr ("! " prefix), then its exit
code:

    $ msg-lab metric --kind hamming 1,2,0,3,4
    | 3/5
    exit 0

The commands are read back from the file's own "$ msg-lab" lines, so a
case is added by appending its command line and regenerating.  They run in
this process through msg_lab.cli.main, in order, in a fresh temporary
directory that holds the files of FILES, so `--out` and `suite` write
nothing into the checkout.  Argument errors that argparse itself reports
are left out (their usage text is argparse's, and it varies with the
Python version), and so is every suite that runs, since a suite's summary
line carries its wall time.  tests/test_cli_golden.py runs the same
commands and compares bytes; a regeneration that changes an output is a
change of the CLI contract.
"""

import contextlib
import io
import os
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli.txt")
PROMPT = "$ msg-lab "

HEADER = """\
# The msg-lab command line contract: each command, its stdout ("| "),
# its stderr ("! ") and its exit code.  Regenerate with
# python3 tools/cli_golden.py; tests/test_cli_golden.py compares bytes.
"""

# the working directory's files; suite.cfg is left absent on purpose
FILES = {
    "empty.cfg": "# no suites: runs nothing and succeeds\n",
    "unknown.cfg": "suites = no-such-suite\nout_dir = suite_out\n",
    "bad.cfg": "suites\n",
}


def read_commands(path=GOLDEN):
    """The argv lists of the file's entries, in order."""
    with open(path, encoding="utf-8") as handle:
        return [shlex.split(line[len(PROMPT):]) for line in handle
                if line.startswith(PROMPT)]


def write_files(directory):
    for name, text in FILES.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            f.write(text)


def run(argv):
    """One entry: the command line, its output lines and its exit code."""
    from msg_lab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    lines = [PROMPT + shlex.join(argv)]
    for prefix, text in (("|", out.getvalue()), ("!", err.getvalue())):
        lines += [prefix + " " + line if line else prefix
                  for line in text.splitlines()]
        if text and not text.endswith("\n"):
            lines.append("%s (no newline at end)" % prefix)
    lines.append("exit %d" % code)
    return "\n".join(lines) + "\n"


def render(commands, directory):
    """The whole file for these commands, run in the given directory."""
    write_files(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return HEADER + "".join("\n" + run(argv) for argv in commands)
    finally:
        os.chdir(cwd)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    commands = read_commands()
    with tempfile.TemporaryDirectory() as directory:
        text = render(commands, directory)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    print("wrote %d entries to %s" % (len(commands), GOLDEN))


if __name__ == "__main__":
    main()
