"""The README's library example and command lines run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from carbomarket.cli_io import EXIT_OK, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"

# what each single-period command prints, line by line
LINE_PREFIXES = {
    "clear": ("period=", "bus=", "agent=", "settlement_residual_rel="),
    "allocate": ("psi bus=", "storage_cost agent=", "trace index=", "iterations="),
    "cef": ("bus=",),
}


def readme_commands() -> list[list[str]]:
    """The ``carbomarket`` lines of the README, as argument lists."""
    lines = re.findall(r"^carbomarket (.*?)\s*(?:#.*)?$", README.read_text(encoding="utf-8"),
                       re.M)
    return [shlex.split(line) for line in lines]


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


def test_readme_command_lines_run(capsys):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == ["clear", "allocate", "cef", "simulate", "compare"]
    for argv in commands:
        if argv[0] not in LINE_PREFIXES:
            # full horizons: check only that the documented arguments parse
            build_parser().parse_args(argv)
            continue
        assert argv[1:] == ["--case", "replica30", "--period", "17"]
        assert main(argv) == EXIT_OK, argv
        lines = capsys.readouterr().out.splitlines()
        prefixes = LINE_PREFIXES[argv[0]]
        assert all(line.startswith(prefixes) for line in lines), argv
        for prefix in prefixes:
            assert any(line.startswith(prefix) for line in lines), (argv, prefix)
