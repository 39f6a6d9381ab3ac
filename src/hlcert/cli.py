"""Command-line surface: every computation with reproducible seeds.

Exit codes: 0 success (all checked inequalities hold), 1 usage or domain
error, 2 inequality violation (a bug signal, never a disproof) or a failed
Monte-Carlo soft check (`khinchin-check` and `chain-check` on complex
input, which sampling noise can also fail).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

import numpy as np

from .certify import (
    SEARCH_BUDGET,
    TrialConfig,
    _csv_cell,
    certify,
    search_extremal,
    sweep_lambda0,
    sweep_to_csv,
    trials_to_csv,
)
from .chaos import MC_SAMPLES, check_contraction, check_khinchin, verify_proof_chain
from .errors import (
    BudgetError,
    DomainError,
    TransferHypothesisError,
    ViolationError,
    _check_integer,
    _check_seed,
    _jsonable,
)
from .exponents import TransferProblem, classical_exponents, exponents, region, transfer
from .norms import _RESTARTS
from .special import ScalarField, khinchin_A, solve_q0
from .tensor import generate, tensor_from_json, tensor_to_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_CSV_HELP = """\
What --format writes: json is the report alone (sorted keys); text and csv
put a drawn seed's "# seed: N" line first (--seed omitted, and only where
the seed feeds a random tensor or a Monte-Carlo stream), then the report,
where a null (JSON null) is an empty value.  csv writes:
  verify      : trial,kind,seed,ratio_conservative,ratio_empirical,classification,retried
                (retried is 1 where a trial left inconclusive got the second
                upper-bound stage, the root-of-unity l_inf cap)
  sweep       : lambda0,s,eta1,constant,admissible,extrapolated,max_ratio_conservative
  chain-check : the text report (one line per link, then norm_lower,
                norm_upper, passed and any first_failure)
  others      : key,value rows
A number that does not parse is an error naming its flag.
"""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, but 2 means "violation" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_number(text: str, flag: str, kind=float):
    """A `kind` (float, int or complex) given to `flag`; DomainError naming the flag otherwise."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"cannot parse {flag} value {text!r}") from None


def _parse_numbers(text: str, flag: str, kind=float) -> list:
    return [_parse_number(part, flag, kind) for part in text.split(",") if part.strip()]


def _parse_grid(text: str) -> List[float]:
    """Either 'start:stop:count' or a comma list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError(f"grid spec must be start:stop:count, got {text!r}")
        start, stop = _parse_number(parts[0], "--grid"), _parse_number(parts[1], "--grid")
        count = _parse_number(parts[2], "--grid", int)
        if count < 1:
            raise DomainError(f"--grid count must be >= 1, got {count}")
        if count == 1:
            return [start]
        return [start + (stop - start) * i / (count - 1) for i in range(count)]
    return _parse_numbers(text, "--grid")


def _resolve_seed(args) -> tuple[int, Optional[str]]:
    """(seed, header): the header `# seed: N` when the seed was drawn, else None.

    A command prints the header only where the seed feeds `generate` or a
    Monte-Carlo stream."""
    if args.seed is not None:
        # the library's one seed rule, before any work, also where a
        # --tensor file leaves the seed unused
        return _check_seed(args.seed), None
    seed = random.SystemRandom().randrange(2**32)
    return seed, f"# seed: {seed}"


def _tensor_stream(seed: int) -> np.random.SeedSequence:
    """The stream of a command's random tensor: SeedSequence([seed, 2]).

    The library's streams of those commands are [seed, 0] (Monte-Carlo
    samples) and [seed, 1] (an ascent), so the tensor shares no draws with
    them; an integer seed to `generate` would be the [seed, 0] stream.
    """
    return np.random.SeedSequence([seed, 2])


def _read_tensor(path: str):
    with open(path, encoding="utf-8") as fh:
        return tensor_from_json(fh.read())


def _result_payload(result, **extra) -> dict:
    """The fields of a result dataclass in declaration order, then `extra`, by `_jsonable`."""
    return {**_jsonable(result), **_jsonable(extra)}


def _emit(payload, fmt: str, header: Optional[str] = None, table: Optional[str] = None) -> None:
    """The one output rule: JSON is the payload alone; text and CSV print the
    header, if any, then `table` (complete lines), if any, else key/value rows,
    where a null is an empty value."""
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    if header:
        print(header)
    if table is not None:
        print(table, end="")
    elif fmt == "csv":
        print("key,value")
        for key in sorted(payload):
            print(f"{key},{_csv_cell(payload[key])}")
    else:
        for key, value in payload.items():
            print(f"{key}: {_csv_cell(value)}")


# the form flags: each is required unless the subparser, or this table, gives a default
_FORM_FLAGS = {
    "m": {"type": int},
    "n": {"type": int},
    "p": {"type": str, "help": "a number, or 'inf'"},
    "lambda0": {"type": float},
    "field": {"default": "real"},
}


def _form_args(parser, *names: str, **defaults) -> None:
    for name in names:
        spec = {**_FORM_FLAGS[name]}
        if name in defaults:
            spec["default"] = defaults[name]
        parser.add_argument(f"--{name}", required="default" not in spec, **spec)


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
    _form_args(c, "field")
    common(c, seed=False)

    r = sub.add_parser("region", help="admissible p-window for (m, lambda0)")
    _form_args(r, "m", "lambda0")
    common(r, seed=False)

    e = sub.add_parser("exponents", help="s, eta1, constant, admissibility for (m, p, lambda0)")
    _form_args(e, "m", "p", "lambda0", "field")
    common(e, seed=False)

    t = sub.add_parser("transfer", help="general exponent transfer with hypothesis checking")
    t.add_argument("--p-list", type=str, required=True, help="comma list, e.g. 4,4,4")
    t.add_argument("--q-list", type=str, required=True, help="comma list; 'inf' allowed")
    t.add_argument("--lambda0", type=float, required=True)
    t.add_argument("--s", type=float, required=True)
    common(t, seed=False)

    cl = sub.add_parser("classical", help="classical summability exponents for (m, p)")
    _form_args(cl, "m", "p")
    common(cl, seed=False)

    v = sub.add_parser("verify", help="Monte-Carlo certification of the mixed-norm bound "
                       f"({_RESTARTS} ascent restarts per trial)")
    _form_args(v, "m", "n", "p", "lambda0", "field")
    v.add_argument("--trials", type=int, default=TrialConfig.trials)
    v.add_argument("--kinds", type=str, default=",".join(TrialConfig.kinds),
                   help="comma list cycled per trial")
    common(v)

    s = sub.add_parser("search", help="hill-climb for extremal ratio tensors")
    _form_args(s, "m", "n", "p", "lambda0", "field")
    s.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    s.add_argument("--dump-tensor", type=str, default=None,
                   help="write the best tensor to this JSON file")
    common(s)

    w = sub.add_parser("sweep", help="tabulate exponents/constants over a lambda0 grid")
    _form_args(w, "m", "p", "n", "field", n=2)
    w.add_argument("--grid", type=str, required=True, help="start:stop:count or comma list")
    w.add_argument("--trials", type=int, default=0,
                   help="per-row certification trials (0 = table only)")
    common(w)

    # only the certification runs spread trials over worker processes
    for p in (v, w):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes, >= 1; on 2 cores, 2 pay off from about 500 "
                            "(3,3) trials and slow runs below about 250")

    k = sub.add_parser("khinchin-check", help="check A_q*l2(a) <= chaos L_q norm")
    k.add_argument("--a", type=str, required=True, help="comma list of coefficients")
    k.add_argument("--q", type=float, required=True)
    _form_args(k, "field")
    k.add_argument("--samples", type=int, default=MC_SAMPLES,
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
    _form_args(ch, "m", "n", "lambda0", m=2, n=2)
    inner = ch.add_mutually_exclusive_group()
    inner.add_argument("--s", type=float, default=None,
                       help="inner exponent >= 2 (default 2)")
    inner.add_argument("--p", type=str, default=None,
                       help="derive s from the (m, p, lambda0) exponent formulas instead")
    ch.add_argument("--i", type=int, default=1, help="fixed index, 1-based")
    _form_args(ch, "field")
    ch.add_argument("--kind", default="signs", choices=("gaussian", "signs", "steinhaus"))
    ch.add_argument("--samples", type=int, default=MC_SAMPLES,
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
    exps = exponents(args.m, _parse_number(args.p, "--p"), args.lambda0, field)
    _emit(_result_payload(exps), args.format)
    return EXIT_OK


def _cmd_transfer(args) -> int:
    tp = TransferProblem(
        p_list=_parse_numbers(args.p_list, "--p-list"),
        q_list=_parse_numbers(args.q_list, "--q-list"),
        lambda0=args.lambda0,
        s=args.s,
    )
    _emit(_result_payload(transfer(tp)), args.format)
    return EXIT_OK


def _cmd_classical(args) -> int:
    _emit(_result_payload(classical_exponents(args.m, _parse_number(args.p, "--p"))), args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    seed, header = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    csv = args.format == "csv"
    kinds = tuple(part.strip() for part in args.kinds.split(",") if part.strip())
    cfg = TrialConfig(trials=args.trials, kinds=kinds, jobs=args.jobs, keep_trials=csv)
    report = certify(
        args.m, args.n, _parse_number(args.p, "--p"), args.lambda0, field, config=cfg, seed=seed,
    )
    payload = report.to_jsonable()
    if args.format == "text":
        payload["elapsed_seconds"] = round(report.elapsed_seconds, 3)
    # CSV is one row per trial, not key,value rows
    _emit(payload, args.format, header, table=trials_to_csv(report.trial_rows) if csv else None)
    return EXIT_VIOLATION if report.violations > 0 else EXIT_OK


def _cmd_search(args) -> int:
    seed, header = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    result = search_extremal(
        args.m, args.n, _parse_number(args.p, "--p"), args.lambda0, field,
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
    _emit(payload, args.format, header)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    seed, header = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    _check_integer("trials", args.trials, 0)
    _check_integer("jobs", args.jobs, 1)   # also with --trials 0, which runs no workers
    cfg = TrialConfig(trials=args.trials, jobs=args.jobs) if args.trials > 0 else None
    rows = sweep_lambda0(
        args.m, _parse_number(args.p, "--p"), args.n, field,
        grid=_parse_grid(args.grid), seed=seed, config=cfg,
    )
    # the table alone draws nothing, so only a certifying sweep prints its seed
    _emit([row.to_jsonable() for row in rows], args.format,
          header if cfg else None, table=sweep_to_csv(rows))
    return EXIT_OK


def _cmd_khinchin_check(args) -> int:
    seed, header = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    a = _parse_numbers(args.a, "--a", complex if field is ScalarField.COMPLEX else float)
    report = check_khinchin(a, args.q, field, samples=args.samples, seed=seed)
    # the real check enumerates exactly: no stream reads the seed
    _emit(report.to_jsonable(), args.format, header if field is ScalarField.COMPLEX else None)
    return EXIT_OK if report.passed else EXIT_VIOLATION


def _cmd_contraction_check(args) -> int:
    seed, header = _resolve_seed(args)
    if args.tensor:
        T = _read_tensor(args.tensor)
    else:
        T = generate(args.kind, args.m, args.N, ScalarField.REAL, _tensor_stream(seed))
    _emit(check_contraction(T.coeffs, args.t).to_jsonable(), args.format,
          None if args.tensor else header)
    return EXIT_OK


def _cmd_chain_check(args) -> int:
    seed, header = _resolve_seed(args)
    field = ScalarField.parse(args.field)
    if args.tensor:
        S = _read_tensor(args.tensor)
    else:
        S = generate(args.kind, args.m, args.n, field, _tensor_stream(seed))
    if args.p is not None:
        s = exponents(S.m, _parse_number(args.p, "--p"), args.lambda0, field).s
    else:
        s = 2.0 if args.s is None else args.s
    report = verify_proof_chain(
        S, args.lambda0, s, index=args.i,
        mc_samples=args.samples, seed=seed, raise_on_failure=False,
    )
    # text and CSV: one line per link, in chain order, then the verdict
    lines = [
        f"{link.name}: lhs={link.lhs!r} rhs={link.rhs!r} slack={link.slack:.3e} "
        f"[{'pass' if link.passed else 'FAIL'}]"
        for link in report.links
    ]
    lines += [f"norm_lower: {report.norm_lower!r}", f"norm_upper: {report.norm_upper!r}",
              f"passed: {report.passed}"]
    if report.first_failure:
        lines.append(f"first_failure: {report.first_failure}")
    # a real chain on a given tensor is exact: no stream reads the seed
    uses_seed = not args.tensor or S.field is ScalarField.COMPLEX
    _emit(report.to_jsonable(), args.format, header if uses_seed else None,
          table="".join(f"{line}\n" for line in lines))
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
