"""Each input rule of hlcert is written once, and so is its JSON rule.

A DomainError message names the rule that failed.  When the same message
head is raised at two call sites, the rule is written twice and the copies
can drift apart; the second site should call the first one's helper.  In
the same way every result's `to_jsonable` defers to `hlcert.errors._jsonable`.
"""

import ast
import json
import math
from collections import defaultdict
from pathlib import Path

from hlcert import NormMethod
from hlcert.certify import SweepRow
from hlcert.chaos import ChainLink
from hlcert.norms import NormEstimate

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


def _to_jsonable_sites():
    """{"module.py:line": body source} over every `def to_jsonable` in the package."""
    sites = {}
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "to_jsonable":
                sites[f"{path.name}:{node.lineno}"] = [ast.unparse(stmt) for stmt in node.body]
    return sites


def test_every_to_jsonable_is_the_one_json_rule():
    sites = _to_jsonable_sites()
    assert len(sites) >= 7
    own = {where: body for where, body in sites.items() if body != ["return _jsonable(self)"]}
    assert not own, f"to_jsonable with its own JSON rule: {own}"


def test_non_finite_results_are_strict_json():
    estimate = NormEstimate(
        lower=0.0, upper=math.inf, method=NormMethod.ALTERNATING_MAX, restarts=1,
        converged=False,
    )
    link = ChainLink(name="step", lhs=1.0, rhs=math.inf, slack=math.inf, passed=True)
    low = ChainLink(name="step", lhs=math.inf, rhs=1.0, slack=-math.inf, passed=False)
    row = SweepRow(
        lambda0=2.0, s=math.nan, eta1=math.nan, constant=math.nan, admissible=False,
        extrapolated=False, max_ratio_conservative=None,
    )
    payloads = [r.to_jsonable() for r in (estimate, link, low, row)]
    for payload in payloads:
        json.dumps(payload, allow_nan=False)
    assert payloads[0] == {
        "lower": 0.0, "upper": "inf", "method": "alternating_max", "restarts": 1,
        "converged": False,
    }
    assert payloads[1] == {"name": "step", "lhs": 1.0, "rhs": "inf", "slack": "inf", "pass": True}
    assert payloads[2]["lhs"] == "inf" and payloads[2]["slack"] == "-inf"
    assert payloads[3]["s"] is None and payloads[3]["constant"] is None
