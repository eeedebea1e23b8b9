"""ifgames benchmark: three seeded workloads through ``ifgames.cli.main``.

Usage, from the repository root:

    python3 perfbench/run.py --workload lp_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload: prints a summary line, then as the last line a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in turn and prints one
table row per workload.

Each workload runs in fresh interpreters started one at a time, so no more
than two processes (this one and one child) are ever alive:
``SETUP_PROBES`` children that only set up (import, generate, write inputs)
and exit, ``SETUP_PROBES_BEFORE`` of them before and the rest after one child
that measures for ``--seconds`` and runs the output checker.  Every reported time is scaled to the reference speed of ``calib``:
an op's time by the probes timed around it and during it, a set-up time by
the probes the child runs from its first line until it has set up.  Each op's time is the median over its timed passes;
``setup_s`` is the median over every child.  Children get ``src`` on ``PYTHONPATH`` and one
BLAS and OpenMP thread; Python's garbage collector keeps its defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
SETUP_PROBES_BEFORE = 3
CHILD_TIMEOUT_S = 170
WORKLOAD_NAMES = ("lp_dense", "hashing_wide", "sentence_corpus")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(args: argparse.Namespace, index: int, seconds: float, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--workdir", str(OUT / f"work-{os.getpid()}-{index}"),
        *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def run_workload(args: argparse.Namespace) -> dict:
    # Set-up probes run on both sides of the measuring child, so that one
    # slow stretch of the machine does not hold all of them.
    setups = [run_child(args, i, 0, "--setup-only")["setup_s"] for i in range(SETUP_PROBES_BEFORE)]
    extra = ("--spans-out", str(OUT / f"spans-{args.workload}-{args.seed}.jsonl")) if args.trace else ()
    child = run_child(args, SETUP_PROBES_BEFORE, args.seconds, "--check", *extra)
    setups += [run_child(args, i, 0, "--setup-only")["setup_s"] for i in range(SETUP_PROBES_BEFORE + 1, SETUP_PROBES + 1)]
    result = summarise(child, setups)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))
    return result


def summarise(child: dict, setups: list[float]) -> dict:
    """The end-to-end figures of one measuring child and the set-up probes."""
    # Each op's time is its median over the timed passes, so a slow phase
    # of the machine that the probes did not follow, or a garbage
    # collection, moves it only if it hits most passes.
    typical = [statistics.median(times) for times in child["op_latencies"].values()]
    setups = setups + [child["setup_s"]]
    return {
        **{k: child[k] for k in ("correct", "attempted", "failed", "refused", "problems", "ops_per_pass")},
        "wall_s": sum(typical),
        "op_p50_ms": 1000 * statistics.median(typical),
        "op_p95_ms": 1000 * percentile(typical, 95),
        "peak_rss_mb": child["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "setup_samples": setups,
        "passes": len(child["pass_walls"]),
        "layers": child.get("layers"),
        "op_latencies": child["op_latencies"],
        "pass_walls": child["pass_walls"],
    }


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(result: dict, units: dict[str, str], trace: int) -> dict:
    source = result["layers"] if trace else result
    missing = set(units) - set(source)
    if missing:
        raise SystemExit(f"benchmark produced no value for {sorted(missing)}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": source[name], "unit": unit} for name, unit in units.items()},
    }


def summary(name: str, result: dict) -> str:
    share = result["failed"] / result["attempted"]
    return (
        f"{name}: ops/pass={result['ops_per_pass']} timed passes={result['passes']} "
        f"attempted={result['attempted']} refused={result['refused']} failed={result['failed']} "
        f"failed_share={share:.4f} correct={str(result['correct']).lower()}"
    )


def table(args: argparse.Namespace) -> int:
    """Every workload in turn.  Without tracing, one row per workload with the
    end-to-end metrics and ``failed_share``; with ``--trace 1``, one row per
    layer with its self time as a share of the traced pass, per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        args.workload = name
        results[name] = result = run_workload(args)
        result["failed_share"] = result["failed"] / result["attempted"]
        print(summary(name, result))
        for op_id, problems in result["problems"].items():
            print(f"  {op_id}: {'; '.join(problems)}")
    if args.trace:
        print("layer self time / trace.wall_s".ljust(40) + "".join(n.rjust(18) for n in results))
        for metric in spans.SELF_METRICS.values():
            shares = [r["layers"][metric] / r["layers"]["trace.wall_s"] for r in results.values()]
            print(metric.ljust(40) + "".join(f"{x:18.4f}" for x in shares))
        print("trace.overhead_share".ljust(40) + "".join(f"{r['layers']['trace.overhead_share']:18.4f}" for r in results.values()))
    else:
        units = {**declared_metrics(0), "failed_share": "ratio"}
        print("workload".ljust(16) + "".join(f"{n} [{u}]".rjust(22) for n, u in units.items()))
        for name, result in results.items():
            print(name.ljust(16) + "".join(f"{result[n]:22.4f}" for n in units))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ifgames" / "cli.py").is_file():
        print(f"no ifgames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return table(args)
    units = declared_metrics(args.trace)
    result = run_workload(args)
    print(summary(args.workload, result))
    for op_id, problems in result["problems"].items():
        print(f"  {op_id}: {'; '.join(problems)}")
    print(json.dumps(report(result, units, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
