"""Each input rule of hlcert is written once, and so are its JSON and l_inf bound rules.

A DomainError message names the rule that failed.  When the same message
head is raised at two call sites, the rule is written twice and the copies
can drift apart; the second site should call the first one's helper.  In
the same way every result's `to_jsonable` defers to `hlcert.errors._jsonable`,
and every l_inf bound from a vertex enumeration goes through
`hlcert.norms._linf_bounds`: the raw float maximum `_exact_linf_stack` is
read only inside `hlcert.norms` and by the search's ranking.  Every tensor
is scaled by a power of two through `hlcert.tensor._unit_scaled`, the one
caller of `_nearest_powers_of_two`.
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


def _call_sites(name):
    """{"module.py:function"} of every call of `name` (a bare or dotted name) in the package.

    A call outside any function is reported as "module.py:<module>".
    """
    sites = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split(':')[0]}:{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                sites.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SOURCES.glob("*.py")):
        visit(ast.parse(path.read_text()), f"{path.name}:<module>")
    return sites


def test_raw_vertex_maxima_are_read_only_by_the_bound_rule_and_the_ranking():
    # a caller that took `_exact_linf_stack`'s float value as a bound would
    # bypass the outward rounding of `_linf_bounds`
    sites = _call_sites("_exact_linf_stack")
    assert "norms.py:_linf_bounds" in sites and "certify.py:_score" in sites
    outside = {site for site in sites if not site.startswith("norms.py:")}
    assert outside == {"certify.py:_score"}


def test_powers_of_two_are_picked_only_by_the_scaling_rule():
    # a second caller would be a second scaling rule, as the inline copies
    # in the stage 1 and l_inf bounds were: they divided a complex stack by
    # a subnormal power of two, which overflows
    assert _call_sites("_nearest_powers_of_two") == {"tensor.py:_unit_scaled"}


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
