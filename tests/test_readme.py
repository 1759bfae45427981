"""The README's CLI block runs as written: every command, in order, exits 0."""

import re
import shlex
from pathlib import Path

from mtspkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_commands():
    """The ``mtspkit`` commands of the first bash block under ``## CLI``."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("mtspkit ")]


def test_every_readme_cli_command_runs(tmp_path, monkeypatch):
    # the block makes its own inputs, so it runs in an empty directory
    monkeypatch.chdir(tmp_path)
    commands = _cli_commands()
    assert len(commands) >= 8
    for argv in commands:
        if "--time-limit" in argv:  # keeps the block, and this test, short
            assert float(argv[argv.index("--time-limit") + 1]) <= 1.0, argv
        assert main(argv) == 0, shlex.join(["mtspkit", *argv])
