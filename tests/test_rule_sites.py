"""Each input rule of hlcert is written once.

A DomainError message names the rule that failed.  When the same message
head is raised at two call sites, the rule is written twice and the copies
can drift apart; the second site should call the first one's helper.
"""

import ast
from collections import defaultdict
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "hlcert"


def _literal_head(message: ast.expr):
    """The text of a message up to its first placeholder, or None when it starts with one."""
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value or None
    if isinstance(message, ast.JoinedStr):
        head = ""
        for part in message.values:
            if not isinstance(part, ast.Constant):
                break
            head += part.value
        return head or None
    return None


def _domain_error_sites():
    """{literal message head: ["module.py:line", ...]} over every DomainError(...) call."""
    sites = defaultdict(list)
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "DomainError"
                and node.args
            ):
                head = _literal_head(node.args[0])
                if head is not None:
                    sites[head].append(f"{path.name}:{node.lineno}")
    return sites


def test_the_scan_finds_the_rules():
    sites = _domain_error_sites()
    assert "need an m-linear form with m >= 2" in sites
    assert "seed must be a non-negative integer below 2**32, got " in sites


def test_every_domain_error_message_is_raised_at_one_site():
    repeated = {head: where for head, where in _domain_error_sites().items() if len(where) > 1}
    assert not repeated, f"one rule written at several sites: {repeated}"
