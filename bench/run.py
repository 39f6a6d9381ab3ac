"""hlcert benchmark: run one workload and print every metric with its unit.

    python3 bench/run.py --workload ascent_p4 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --quick

Run from the repository root.  The library is imported from ./src, never
from an installed copy.  Workload and metric definitions live in
BENCHMARK.json next to this directory; the workloads themselves are in
bench/workloads.py.

--trace 0 prints the end-to-end metrics.  Set-up time is the median wall
time of fresh interpreters that import hlcert and compute the workload's
exponents; the load runs in one more fresh process (bench/worker.py), which
also reports its peak RSS.

--trace 1 prints the per-layer metrics: a fixed prefix of the workload runs
untraced and then traced in one process (bench/tracer.py wraps hlcert's
public functions), plus the cli.* start-up probes.  Counts repeat exactly
for a fixed seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every
correctness gate passed.  --quick runs every workload in both modes at a
few tensors each and checks that every metric in BENCHMARK.json is emitted
with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

PROBES = 9              # fresh processes per start-up metric
QUICK_PROBES = 2
CHILD_TIMEOUT_S = 170   # the whole command must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child(args, timeout: float = CHILD_TIMEOUT_S):
    """Run a fresh interpreter from the repository root; (stdout, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=timeout, check=True,
    )
    return proc.stdout, time.perf_counter() - start


def worker(*args) -> dict:
    out, _ = child([str(WORKER), *args])
    return json.loads(out.strip().splitlines()[-1])


def setup_probe(workload: str, probes: int):
    """Wall times of fresh set-up processes and their import times."""
    walls, imports = [], []
    for _ in range(probes):
        out, wall = child([str(WORKER), "--workload", workload, "--mode", "setup"])
        walls.append(wall)
        imports.append(json.loads(out.strip().splitlines()[-1])["import_s"])
    return walls, imports


def constants_probe(probes: int) -> float:
    walls = []
    for _ in range(probes):
        out, wall = child(["-m", "hlcert", "constants", "--q", "2"])
        if "q0" not in out:
            raise RuntimeError(f"unexpected `hlcert constants` output: {out!r}")
        walls.append(wall)
    return statistics.median(walls)


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool):
    """(correct, attempted, failed, metric values, details) for one run."""
    probes = QUICK_PROBES if quick else PROBES
    common = ["--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    # start-up probes run before and after the load, so that both halves
    # of the run's time are sampled
    walls, imports = setup_probe(workload, (probes + 1) // 2)
    res = worker(*common, "--mode", "trace" if trace else "e2e", "--seconds", str(seconds))
    more_walls, more_imports = setup_probe(workload, probes // 2)
    setup_s = statistics.median(walls + more_walls)
    import_s = statistics.median(imports + more_imports)
    if not trace:
        values = {
            "tensors_per_s": res["tensors_per_s"],
            "setup_s": setup_s,
            "pass_frac": 1.0 - res["failed"] / res["attempted"],
            "gap_p50": res["gap_p50"],
            "best_ratio": res["best_ratio"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        correct = res["failed"] == 0 and res["repeat_identical"]
        details = {
            "fail_frac": res["failed"] / res["attempted"],
            "units": res["units"],
            "window_s": res["window_s"],
            "repeat_identical": res["repeat_identical"],
        }
    else:
        values = dict(res["layers"])
        values["cli.import_s"] = import_s
        values["cli.constants_s"] = constants_probe(probes)
        correct = res["failed"] == 0 and res["identical"]
        details = {"traced_identical": res["identical"]}
        details.update({k: res[k] for k in ("jobs1_s", "jobs2_s") if k in res})
    details.update(res["machine"])
    return correct, res["attempted"], res["failed"], values, details


def machine(seed: int, workload: str, why: str) -> dict:
    return {
        "workload": workload,
        "why": why,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "loadavg_start": os.getloadavg(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_names(values: dict, units: dict) -> list:
    """Problems with the emitted metric names against BENCHMARK.json."""
    problems = [f"missing metric {n}" for n in units if n not in values]
    problems += [f"metric {n} is not in BENCHMARK.json" for n in values if n not in units]
    problems += [f"metric {n} has no unit" for n, u in units.items() if not u]
    return problems


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool, quick: bool):
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if workload not in whys:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(whys)}")
    info = machine(seed, workload, whys[workload])
    correct, attempted, failed, values, details = measure(workload, seed, seconds, trace, quick)
    units = expected_metrics(spec, trace)
    problems = check_names(values, units)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    info.update(details)
    print("machine " + json.dumps(info, sort_keys=True))
    for name in sorted(values):
        print(f"{name:40s} {values[name]!r:>24} {units.get(name, '?')}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}
    return correct and not problems, attempted, failed, metrics


def quick() -> int:
    spec = load_spec()
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            correct, attempted, failed, metrics = run_one(spec, w["name"], 0, 0.5, trace, True)
            print(f"quick {w['name']} trace={int(trace)}: {'ok' if correct else 'FAIL'}")
            ok = ok and correct and attempted > 0
    print("quick: " + ("ok" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="self-check of every workload and metric")
    args = ap.parse_args(argv)

    if not (SRC / "hlcert" / "__init__.py").is_file():
        print(f"error: no hlcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    try:
        correct, attempted, failed, metrics = run_one(
            load_spec(), args.workload, args.seed, args.seconds, bool(args.trace), False
        )
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: benchmark run failed: {exc!r}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
