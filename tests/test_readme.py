"""README's examples run: every CLI quick-tour line and the library example.

The docs name flags, parameters and public functions; when one of them is
removed or renamed, the example that shows it fails here.
"""

import re
import shlex
from pathlib import Path

import pytest

from hlcert.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def _block(section: str, language: str) -> str:
    """The first ```language block after the heading `## section`."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    match = re.compile(rf"```{language}\n(.*?)```", re.S).search(text, start)
    assert match is not None, f"no {language} block under {section!r}"
    return match.group(1)


def _tour_commands():
    lines = _block("CLI quick tour", "sh").splitlines()
    return [argv for argv in (shlex.split(line, comments=True) for line in lines) if argv]


def test_the_tour_is_found():
    commands = _tour_commands()
    assert len(commands) >= 10
    assert all(argv[0] == "hlcert" for argv in commands)


@pytest.mark.parametrize("argv", _tour_commands(), ids=lambda argv: " ".join(argv[1:]))
def test_a_quick_tour_line_exits_0(capsys, argv):
    assert main(argv[1:]) == EXIT_OK, capsys.readouterr().err


def test_the_library_example_runs():
    exec(compile(_block("Library example", "python"), str(README), "exec"), {})
