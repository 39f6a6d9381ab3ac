"""README's examples run and its names resolve.

The docs name flags, parameters and public functions; when one of them is
removed or renamed, the example that shows it fails here: every CLI
quick-tour line and the library example run, every backticked dotted
`hlcert.` name outside the code blocks imports, and every backticked call
of a public function names only parameters of its signature.
"""

import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

import hlcert
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


def _prose_spans():
    """Every backticked span outside README's code blocks, a line break in one read as a space."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    return [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text)]


def _resolve(dotted: str):
    """The object a dotted name `hlcert.module.attr...` names: the longest importable module, then attributes.

    Raises ImportError or AttributeError when the name does not resolve.
    """
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


_DOTTED = re.compile(r"hlcert(?:\.\w+)+")
_CALL = re.compile(r"([\w.]+)\(([^()]*)\)")


def _dotted_names():
    return sorted({m.group(0) for span in _prose_spans() if (m := _DOTTED.match(span))})


def _calls():
    # name(args) spans whose name is a public attribute of hlcert or a dotted hlcert. name
    calls = set()
    for span in _prose_spans():
        match = _CALL.match(span)
        if match and (hasattr(hlcert, match.group(1)) or _DOTTED.fullmatch(match.group(1))):
            calls.add(match.groups())
    return sorted(calls)


def test_the_names_are_found():
    assert len(_dotted_names()) >= 20
    assert len(_calls()) >= 8


@pytest.mark.parametrize("dotted", _dotted_names())
def test_a_dotted_name_resolves(dotted):
    _resolve(dotted)


@pytest.mark.parametrize("name, args", _calls(), ids=lambda x: x)
def test_a_call_names_only_parameters_of_its_function(name, args):
    # a bare name is the package attribute: the function `certify`, not its module
    fn = _resolve(name) if "." in name else getattr(hlcert, name)
    params = inspect.signature(fn).parameters
    for arg in filter(None, (a.strip() for a in args.split(","))):
        # a keyword names its parameter; a bare identifier stands for one;
        # values such as `[1, 2]` or `2^k T` name none
        word = arg.split("=", 1)[0].strip()
        if word.isidentifier():
            assert word in params, f"`{name}({args})` names {word!r}, not a parameter"
