"""Command-line surface: every computation with reproducible seeds.

Exit codes: 0 success (all checked inequalities hold), 1 usage or domain
error, 2 inequality violation (a bug signal, never a disproof) or a failed
Monte-Carlo soft check (`khinchin-check` and `chain-check` on complex
input, which sampling noise can also fail).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from typing import List, Optional

from .certify import (
    TrialConfig,
    certify,
    search_extremal,
    sweep_lambda0,
    sweep_to_csv,
    trials_to_csv,
)
from .chaos import check_contraction, check_khinchin, verify_proof_chain
from .errors import (
    BudgetError,
    DomainError,
    TransferHypothesisError,
    ViolationError,
    _check_seed,
    _jsonable,
)
from .exponents import TransferProblem, classical_exponents, exponents, region, transfer
from .special import ScalarField, khinchin_A, solve_q0
from .tensor import generate, tensor_from_json, tensor_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_CSV_HELP = """\
What --format csv writes:
  verify      : trial,kind,seed,ratio_conservative,ratio_empirical,classification,retried
                (retried is 1 where a trial left inconclusive got the second
                upper-bound stage, the root-of-unity l_inf cap)
  sweep       : lambda0,s,eta1,constant,admissible,extrapolated,max_ratio_conservative
  chain-check : the text report (one line per link, then norm_lower,
                norm_upper, passed and any first_failure)
  others      : key,value rows
Where a report prints a drawn seed (--seed omitted), its "# seed: N" line comes first.
"""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, but 2 means "violation" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"cannot parse p value {text!r}") from None


def _parse_floats(text: str) -> List[float]:
    return [_parse_p(part) for part in text.split(",") if part.strip()]


def _parse_grid(text: str) -> List[float]:
    """Either 'start:stop:count' or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"grid spec must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            return []
        if count == 1:
            return [start]
        return [start + (stop - start) * i / (count - 1) for i in range(count)]
    return _parse_floats(text)


def _default_jobs() -> str:
    # a string default goes through --jobs' own int parsing when the flag is
    # absent, so a bad HLCERT_JOBS fails exactly like the same --jobs value
    return os.environ.get("HLCERT_JOBS") or "1"


def _resolve_seed(args) -> tuple[int, bool]:
    if getattr(args, "seed", None) is not None:
        # the library's one seed rule, also for contraction-check, whose
        # seed goes to `generate` unchecked
        return _check_seed(args.seed), False
    return random.SystemRandom().randrange(2**32), True


def _result_payload(result, **extra) -> dict:
    """The fields of a result dataclass in declaration order, then `extra`, by `_jsonable`."""
    return {**_jsonable(result), **_jsonable(extra)}


def _emit(payload: dict, fmt: str, header: Optional[str] = None) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    if header:
        print(header)
    if fmt == "csv":
        print("key,value")
        for key in sorted(payload):
            print(f"{key},{payload[key]}")
        return
    for key, value in payload.items():
        print(f"{key}: {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hlcert",
        description="Compute and numerically certify multilinear mixed-norm inequalities on l_p^n.",
        epilog=_CSV_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="omit to draw one randomly (printed in the header)")

    c = sub.add_parser("constants", help="Khinchin constant A_q and the crossover q0")
    c.add_argument("--q", type=float, required=True)
    c.add_argument("--field", default="real")
    common(c, seed=False)

    r = sub.add_parser("region", help="admissible p-window for (m, lambda0)")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--lambda0", type=float, required=True)
    common(r, seed=False)

    e = sub.add_parser("exponents", help="s, eta1, constant, admissibility for (m, p, lambda0)")
    e.add_argument("--m", type=int, required=True)
    e.add_argument("--p", type=str, required=True, help="a number, or 'inf'")
    e.add_argument("--lambda0", type=float, required=True)
    e.add_argument("--field", default="real")
    common(e, seed=False)

    t = sub.add_parser("transfer", help="general exponent transfer with hypothesis checking")
    t.add_argument("--p-list", type=str, required=True, help="comma list, e.g. 4,4,4")
    t.add_argument("--q-list", type=str, required=True, help="comma list; 'inf' allowed")
    t.add_argument("--lambda0", type=float, required=True)
    t.add_argument("--s", type=float, required=True)
    common(t, seed=False)

    cl = sub.add_parser("classical", help="classical summability exponents for (m, p)")
    cl.add_argument("--m", type=int, required=True)
    cl.add_argument("--p", type=str, required=True)
    common(cl, seed=False)

    v = sub.add_parser("verify", help="Monte-Carlo certification of the mixed-norm bound")
    v.add_argument("--m", type=int, required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--p", type=str, required=True)
    v.add_argument("--lambda0", type=float, required=True)
    v.add_argument("--field", default="real")
    v.add_argument("--trials", type=int, default=1000)
    v.add_argument("--restarts", type=int, default=32)
    v.add_argument("--max-iters", type=int, default=500)
    v.add_argument("--tol", type=float, default=1e-10)
    v.add_argument("--kinds", type=str, default="gaussian,signs",
                   help="comma list cycled per trial")
    common(v)

    s = sub.add_parser("search", help="hill-climb for extremal ratio tensors")
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=str, required=True)
    s.add_argument("--lambda0", type=float, required=True)
    s.add_argument("--field", default="real")
    s.add_argument("--budget", type=int, default=500)
    s.add_argument("--dump-tensor", type=str, default=None,
                   help="write the best tensor to this JSON file")
    common(s)

    w = sub.add_parser("sweep", help="tabulate exponents/constants over a lambda0 grid")
    w.add_argument("--m", type=int, required=True)
    w.add_argument("--p", type=str, required=True)
    w.add_argument("--n", type=int, default=2)
    w.add_argument("--field", default="real")
    w.add_argument("--grid", type=str, required=True, help="start:stop:count or comma list")
    w.add_argument("--trials", type=int, default=0,
                   help="per-row certification trials (0 = table only)")
    common(w)

    # only the certification runs spread trials over worker processes
    for p in (v, w):
        p.add_argument("--jobs", type=int, default=_default_jobs(),
                       help="worker processes, >= 1 (env HLCERT_JOBS overrides the "
                            "default 1); optional, serial runs are fast")

    k = sub.add_parser("khinchin-check", help="check A_q*l2(a) <= chaos L_q norm")
    k.add_argument("--a", type=str, required=True, help="comma list of coefficients")
    k.add_argument("--q", type=float, required=True)
    k.add_argument("--field", default="real")
    k.add_argument("--samples", type=int, default=100_000,
                   help="Monte-Carlo samples (complex field)")
    common(k)

    cc = sub.add_parser("contraction-check",
                        help="check max coefficient <= chaos L_t norm (exact enumeration)")
    cc.add_argument("--m", type=int, default=2)
    cc.add_argument("--N", type=int, default=3)
    cc.add_argument("--t", type=float, required=True)
    cc.add_argument("--kind", default="gaussian", choices=("gaussian", "signs"))
    cc.add_argument("--tensor", type=str, default=None, help="JSON tensor file instead of random")
    common(cc)

    ch = sub.add_parser("chain-check", help="verify every step of the mixed-sum proof chain")
    ch.add_argument("--m", type=int, default=2)
    ch.add_argument("--n", type=int, default=2)
    ch.add_argument("--lambda0", type=float, required=True)
    ch.add_argument("--s", type=float, default=None,
                    help="inner exponent >= 2; defaults from --p when given, else 2")
    ch.add_argument("--p", type=str, default=None,
                    help="derive s from the (m, p, lambda0) exponent formulas")
    ch.add_argument("--i", type=int, default=1, help="fixed index, 1-based")
    ch.add_argument("--field", default="real")
    ch.add_argument("--kind", default="signs", choices=("gaussian", "signs", "steinhaus"))
    ch.add_argument("--samples", type=int, default=100_000,
                    help="Monte-Carlo samples (complex field)")
    ch.add_argument("--tensor", type=str, default=None, help="JSON tensor file instead of random")
    common(ch)

    return parser


def _cmd_constants(args) -> int:
    field = ScalarField.parse(args.field)
    _emit(_result_payload(khinchin_A(args.q, field), q0=solve_q0()), args.format)
    return EXIT_OK


def _cmd_region(args) -> int:
    reg = region(args.m, args.lambda0)
    _emit(_result_payload(reg, empty=reg.empty), args.format)
    return EXIT_OK


def _cmd_exponents(args) -> int:
    field = ScalarField.parse(args.field)
    exps = exponents(args.m, _parse_p(args.p), args.lambda0, field)
    _emit(_result_payload(exps), args.format)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    tp = TransferProblem(
        p_list=_parse_floats(args.p_list),
        q_list=_parse_floats(args.q_list),
        lambda0=args.lambda0,
        s=args.s,
    )
    _emit(_result_payload(transfer(tp)), args.format)
    return EXIT_OK


def _cmd_classical(args) -> int:
    _emit(_result_payload(classical_exponents(args.m, _parse_p(args.p))), args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed, drawn = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    cfg = TrialConfig(
        trials=args.trials,
        kinds=tuple(part.strip() for part in args.kinds.split(",") if part.strip()),
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        jobs=args.jobs,
        keep_trials=(args.format == "csv"),
    )
    report = certify(
        args.m, args.n, _parse_p(args.p), args.lambda0, field, config=cfg, seed=seed,
    )
    header = f"# seed: {seed}" if drawn else None
    if args.format == "csv":
        # one row per trial, not key,value rows
        if header:
            print(header)
        print(trials_to_csv(report.trial_rows), end="")
    else:
        payload = report.to_jsonable()
        if args.format == "text":
            payload["elapsed_seconds"] = round(report.elapsed_seconds, 3)
        _emit(payload, args.format, header)
    return EXIT_VIOLATION if report.violations > 0 else EXIT_OK


def _cmd_search(args) -> int:
    seed, drawn = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    result = search_extremal(
        args.m, args.n, _parse_p(args.p), args.lambda0, field,
        budget=args.budget, seed=seed,
    )
    if args.dump_tensor:
        with open(args.dump_tensor, "w", encoding="utf-8") as fh:
            fh.write(tensor_to_json(result.tensor))
    payload = {
        "seed": seed,
        "best_ratio_conservative": result.ratio_conservative,
        "evaluations": result.evaluations,
        "accepted_steps": result.accepted_steps,
    }
    _emit(payload, args.format, header=f"# seed: {seed}" if drawn else None)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    seed, drawn = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    cfg = TrialConfig(jobs=args.jobs)
    rows = sweep_lambda0(
        args.m, _parse_p(args.p), args.n, field,
        grid=_parse_grid(args.grid), trials=args.trials, seed=seed, config=cfg,
    )
    header = f"# seed: {seed}" if (drawn and args.trials > 0) else None
    if args.format == "json":
        print(json.dumps([row.to_jsonable() for row in rows], sort_keys=True))
    else:
        if header:
            print(header)
        print(sweep_to_csv(rows), end="")
    return EXIT_OK


def _cmd_khinchin_check(args) -> int:
    seed, drawn = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    if field is ScalarField.COMPLEX:
        a = [complex(part) for part in args.a.split(",") if part.strip()]
    else:
        a = _parse_floats(args.a)
    report = check_khinchin(a, args.q, field, samples=args.samples, seed=seed)
    _emit(report.to_jsonable(), args.format, header=f"# seed: {seed}" if drawn else None)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_contraction_check(args) -> int:
    seed, drawn = _resolve_seed(args)
    if args.tensor:
        with open(args.tensor, encoding="utf-8") as fh:
            T = tensor_from_json(fh.read())
        coeffs = T.coeffs
    else:
        T = generate(args.kind, args.m, args.N, ScalarField.REAL, seed)
        coeffs = T.coeffs
    report = check_contraction(coeffs, args.t)
    _emit(report.to_jsonable(), args.format, header=f"# seed: {seed}" if drawn else None)
    return EXIT_OK


def _cmd_chain_check(args) -> int:
    seed, drawn = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    if args.tensor:
        with open(args.tensor, encoding="utf-8") as fh:
            S = tensor_from_json(fh.read())
    else:
        S = generate(args.kind, args.m, args.n, field, seed)
    if args.s is not None:
        s = args.s
    elif args.p is not None:
        s = exponents(S.m, _parse_p(args.p), args.lambda0, field).s
    else:
        s = 2.0
    report = verify_proof_chain(
        S, args.lambda0, s, index=args.i,
        mc_samples=args.samples, seed=seed, raise_on_failure=False,
    )
    header = f"# seed: {seed}" if drawn else None
    if args.format == "json":
        _emit(report.to_jsonable(), args.format)
    else:
        # one line per link, in chain order
        if header:
            print(header)
        for link in report.links:
            status = "pass" if link.passed else "FAIL"
            print(f"{link.name}: lhs={link.lhs!r} rhs={link.rhs!r} "
                  f"slack={link.slack:.3e} [{status}]")
        print(f"norm_lower: {report.norm_lower!r}")
        print(f"norm_upper: {report.norm_upper!r}")
        print(f"passed: {report.passed}")
        if report.first_failure:
            print(f"first_failure: {report.first_failure}")
    return EXIT_OK if report.passed else EXIT_VIOLATION


_COMMANDS = {
    "constants": _cmd_constants,
    "region": _cmd_region,
    "exponents": _cmd_exponents,
    "transfer": _cmd_transfer,
    "classical": _cmd_classical,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "sweep": _cmd_sweep,
    "khinchin-check": _cmd_khinchin_check,
    "contraction-check": _cmd_contraction_check,
    "chain-check": _cmd_chain_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ViolationError as exc:
        print(f"VIOLATION: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (DomainError, TransferHypothesisError, BudgetError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
