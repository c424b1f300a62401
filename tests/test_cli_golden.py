"""The msg-lab command line against its recorded contract,
tests/golden/cli.txt: every command's stdout, stderr and exit code, byte
for byte.  tools/cli_golden.py regenerates the file."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_golden.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_matches_the_golden_contract(tmp_path):
    tool = _tool()
    golden = Path(tool.GOLDEN).read_text(encoding="utf-8")
    commands = tool.read_commands()
    assert len(commands) > 100
    entries = golden.split("\n\n")
    assert entries[0] + "\n" == tool.HEADER
    text = tool.render(commands, tmp_path)
    for got, want in zip(text.split("\n\n")[1:], entries[1:]):
        assert got == want
    assert text == golden
