"""Each input rule of hlcert is written once, and so are its JSON and l_inf bound rules.

A DomainError message names the rule that failed.  When the same message
head is raised at two call sites, the rule is written twice and the copies
can drift apart; the second site should call the first one's helper.  In
the same way there is one `to_jsonable`, `hlcert.errors._JsonResult`'s,
which defers to `hlcert.errors._jsonable` and which every result inherits;
and every l_inf bound from a vertex enumeration goes through
`hlcert.norms._linf_bounds`: the raw float maximum `_exact_linf_stack` is
read only inside `hlcert.norms` and by the search's ranking, as the float
Hoelder bound `_hoelder_bounds` is read only by the stage 1 bound and the
ranking.  Every tensor is scaled by a power of two through
`hlcert.norms._unit_scaled`, the one caller of `_nearest_powers_of_two`,
and every upper bound goes back through `hlcert.norms._times_unit`,
rounded up: no other module picks a power of two, steps a float to its
neighbour or reads a rounding constant.
"""

import ast
import json
import math
from collections import defaultdict
from pathlib import Path

from hlcert import NormMethod
from hlcert.certify import CertificationReport, SweepRow
from hlcert.chaos import ChainLink, ChainReport, ContractionReport, KhinchinReport
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
    # bypass the outward rounding of `_linf_bounds` (in `_scaled_linf_bounds`)
    sites = _call_sites("_exact_linf_stack")
    assert "norms.py:_scaled_linf_bounds" in sites and "certify.py:_score" in sites
    outside = {site for site in sites if not site.startswith("norms.py:")}
    assert outside == {"certify.py:_score"}


def test_the_float_hoelder_bound_is_read_only_by_stage_1_and_the_ranking():
    # a caller that returned `_hoelder_bounds`' float value as a bound would
    # bypass stage 1's outward rounding: that value falls below the exact
    # norm of many constant and nonnegative tensors
    assert _call_sites("_hoelder_bounds") == {"norms.py:_stage_1_bounds", "certify.py:_score"}


def test_powers_of_two_are_picked_only_by_the_scaling_rule():
    # a second caller would be a second scaling rule, as the inline copies
    # in the stage 1 and l_inf bounds were: they divided a complex stack by
    # a subnormal power of two, which overflows
    assert _call_sites("_nearest_powers_of_two") == {"norms.py:_unit_scaled"}


def _name_sites(name):
    """{"module.py"} of every module of the package that names `name`, bare or dotted."""
    sites = set()
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named = (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.alias) and node.name == name)
            )
            if named:
                sites.add(path.name)
    return sites


def test_the_scaling_and_rounding_rule_lives_in_norms():
    # a power of two picked, a float stepped or a rounding constant read
    # elsewhere would be a second copy of the rule, as the proof chain's
    # plain multiply-back of its upper bound was: it fell below ||S|| for
    # subnormal S.  `_nearest_powers_of_two` has its own test above
    for name in ("nextafter", "frexp", "ldexp"):
        outside = {site for site in _call_sites(name) if not site.startswith("norms.py:")}
        assert outside == set(), name
    for name in ("_ROUND_UP", "_UNDERFLOW", "_MU_MARGIN", "_UNIT_ROUNDOFF"):
        assert _name_sites(name) <= {"norms.py"}, name
    assert _name_sites("_ROUND_UP") == {"norms.py"}
    assert "chaos.py:verify_proof_chain" in _call_sites("_times_unit")


def _to_jsonable_sites():
    """{"module.py:line": body source} over every `def to_jsonable` in the package."""
    sites = {}
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "to_jsonable":
                sites[f"{path.name}:{node.lineno}"] = [ast.unparse(stmt) for stmt in node.body]
    return sites


def test_every_to_jsonable_is_the_one_json_rule():
    # a second definition, even a copy of the one line, is a second place
    # where a result's JSON view could drift from `_jsonable`
    sites = _to_jsonable_sites()
    assert len(sites) == 1, f"to_jsonable defined at several sites: {sorted(sites)}"
    (where, body), = sites.items()
    assert where.startswith("errors.py:") and body == ["return _jsonable(self)"]
    results = (
        NormEstimate, CertificationReport, SweepRow, KhinchinReport, ContractionReport,
        ChainLink, ChainReport,
    )
    methods = {result.to_jsonable for result in results}
    assert len(methods) == 1 and next(iter(methods)).__module__ == "hlcert.errors"


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
