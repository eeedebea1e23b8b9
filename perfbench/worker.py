"""One benchmark process: set up a workload, time it, trace it, check it.

Started through ``child.py`` in a fresh interpreter with ``src`` on
``PYTHONPATH``.  Prints one JSON object on stdout.  Every timed op is one
in-process call to ``ifgames.cli.main`` with stdout and stderr captured,
with the probes of ``calib.Sampler`` timed around it and during it so that
its time can be scaled to the reference speed.  One warm-up pass over the
workload's fixed op list runs first; timed passes then repeat until
``--seconds`` have gone by (at least ``MIN_TIMED_PASSES``); with
``--trace 1`` untraced and traced passes alternate.  With ``--check`` the
checker runs after the last pass, excluded from every timing; every pass
must print the same bytes as the first.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import time
import traceback
from collections import Counter
from pathlib import Path

import calib
import check
import spans
from workloads import WORKLOADS

ROUTES = ("trivial-win", "trivial-loss", "balanced", "lp", "hashing-certificate")
MIN_TIMED_PASSES = 3


def run_op(main, argv: list[str], tracer=None) -> tuple[int | None, str, str | None, float, float]:
    """(exit code, stdout, traceback or None, seconds, scaled seconds) of one
    ``cli.main`` call.  With a ``tracer``, the call is the root span and the
    probes only bracket it."""
    out, err = io.StringIO(), io.StringIO()
    with calib.Sampler(ticks=tracer is None) as sampler:
        start = time.perf_counter()
        index = tracer.begin(spans.ROOT) if tracer is not None else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception:  # a crash is a failed op, not a crashed benchmark
            code, tb = None, traceback.format_exc()
        else:
            tb = err.getvalue() if "Traceback" in err.getvalue() else None
        finally:
            if tracer is not None:
                tracer.end(index)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), tb, sampler.own_s(elapsed), sampler.scaled(elapsed)


def run_pass(main, workload, argvs, tracer=None) -> tuple[float, list]:
    """Run every op once; returns the summed op time and (id, code, stdout,
    tb, seconds, scaled seconds) rows."""
    rows = []
    for op, argv in zip(workload.ops, argvs):
        if tracer is not None:
            tracer.op = op.id
        rows.append((op.id, *run_op(main, argv, tracer)))
    return sum(row[4] for row in rows), rows


def decision_points(workload, argvs) -> int:
    """Information sets of every sentence op's game, from the public API."""
    from ifgames import decision_points as points, load_structure, parse

    total, per_value_op = 0, {}
    for op, argv in zip(workload.ops, argvs):
        if "--formula" in argv:
            structure = load_structure(Path(argv[argv.index("--structure") + 1]).read_text())
            sentence = parse(argv[argv.index("--formula") + 1], structure.vocabulary())
            per_value_op[op.id] = len(points(sentence, structure))
            total += per_value_op[op.id]
        elif "game_of" in op.expect:
            total += per_value_op[op.expect["game_of"]]
    return total


def main(argv=None, probes: calib.Sampler | None = None) -> int:
    """``probes`` has probed the machine's speed since the process started,
    for scaling the set-up time; without it the probes start here."""
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at process spawn")
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--spans-out", type=Path)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--check", action="store_true", help="run the output checker after the passes")
    p.add_argument("--records", action="store_true", help="add per-op records for determinism tests")
    args = p.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        with probes or calib.Sampler() as setup:
            from ifgames.cli import main as cli_main

            workload = WORKLOADS[args.workload](args.seed)
            workload.write_files(args.workdir)
            argvs = [workload.resolve(op, args.workdir) for op in workload.ops]
            setup_s = time.monotonic() - args.t0
        setup_s = setup.scaled(setup_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(args, workload, argvs, cli_main)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def measure(args, workload, argvs, cli_main) -> dict:
    tracer = spans.Tracer() if args.trace else None
    untraced_walls, traced_walls, passes, untraced = [], [], [], []
    traced_counts: list[Counter] = []
    traced_scaled: list[float] = []
    # The warm-up pass fills caches and lazy imports; its output is checked
    # like every other pass but its times are not kept.
    passes.append(run_pass(cli_main, workload, argvs)[1])
    start = time.perf_counter()
    # Untraced passes, alternating with traced ones when tracing, until the
    # time is up and enough of each kind have run.
    while (
        time.perf_counter() - start < args.seconds
        or len(untraced_walls) < (1 if tracer is not None else MIN_TIMED_PASSES)
        or (tracer is not None and not traced_walls)
    ):
        if tracer is not None and len(untraced_walls) > len(traced_walls):
            before = Counter(tracer.counts)
            tracer.install()
            try:
                wall, rows = run_pass(cli_main, workload, argvs, tracer)
            finally:
                tracer.uninstall()
            if not traced_walls:
                first_reductions = list(tracer.reductions)
            traced_walls.append(wall)
            traced_scaled.append(sum(row[5] for row in rows))
            traced_counts.append(tracer.counts - before)
        else:
            wall, rows = run_pass(cli_main, workload, argvs)
            untraced_walls.append(wall)
            untraced.append(rows)
        passes.append(rows)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = {op_id: (code, text, tb) for op_id, code, text, tb, *_ in passes[0]}

    argv_of = {op.id: argv for op, argv in zip(workload.ops, argvs)}

    def fetch_matrix(op):
        # Every sentence op's argv ends in "--format machine".
        matrix_argv = ["matrix", *argv_of[op.id][1:-2]]
        code, text, tb, *_ = run_op(cli_main, matrix_argv)
        if code != 0 or tb is not None:
            raise ValueError(f"matrix command exited {code}")
        return check.parse_matrix_text(text)

    problems = check.check_workload(workload.ops, first, fetch_matrix) if args.check else {}
    failed = 0
    for rows in passes:
        for op_id, code, text, tb, *_ in rows:
            if op_id in problems or (code, text, tb) != first[op_id]:
                failed += 1
    refused = sum(1 for code, _, tb in first.values() if code == 4 and tb is None)
    attempted = sum(len(rows) for rows in passes)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "refused": refused * len(passes),
        "problems": {k: v[:3] for k, v in problems.items()},
        "ops_per_pass": len(workload.ops),
        "peak_rss_mb": peak_rss_mb,
        "pass_walls": untraced_walls,
        "op_latencies": {op.id: [rows[i][5] for rows in untraced] for i, op in enumerate(workload.ops)},
    }
    if tracer is None:
        return result

    if any(c != traced_counts[0] for c in traced_counts):
        result["correct"] = False
        result["problems"]["trace"] = ["counts differ between traced passes"]
    counts = traced_counts[0]
    routes = Counter(check.parse_output(text).get("method") for _, code, text, *_ in passes[0] if code == 0)
    n = len(traced_walls)
    self_s = {name: t / n for name, t in tracer.self_times().items()}
    traced_wall = sum(traced_walls) / n
    layer = {spans.SELF_METRICS[name]: t for name, t in self_s.items()}
    build_s = self_s["semantic_game.build"]
    in_cells = counts["matrix_game.reduce_in_cells"]
    layer.update(
        {
            "formula.nodes": counts["formula.nodes"],
            "structure.holds_qf_calls": counts["structure.holds_qf_calls"],
            "semantic_game.cells": counts["semantic_game.cells"],
            "semantic_game.cells_per_s": counts["semantic_game.cells"] / build_s if build_s else 0.0,
            "semantic_game.decision_points": decision_points(workload, argvs),
            "semantic_game.collapsed_loci": counts["semantic_game.collapsed_loci"],
            "matrix_game.reduce_calls": counts["matrix_game.reduce_calls"],
            "matrix_game.reduce_kept_share": counts["matrix_game.reduce_kept_cells"] / in_cells if in_cells else 0.0,
            "matrix_game.mixed_strategy_entries": counts["matrix_game.mixed_strategy_entries"],
            "linalg.lp_calls": counts["linalg.lp_calls"],
            "linalg.lp_tableau_cells": counts["linalg.lp_tableau_cells"],
            **{f"value_engine.route.{r}": routes[r] for r in ROUTES},
            "value_engine.route.other": sum(v for k, v in routes.items() if k not in ROUTES),
            "value_engine.value_den_bits": max(
                (check.denominator_bits(r[2]) for r in passes[0] if r[1] == 0), default=0
            ),
            "cli.refused_ops": refused,
            "trace.wall_s": traced_wall,
            "trace.overhead_share": statistics.median(traced_scaled)
            / statistics.median(sum(row[5] for row in rows) for rows in untraced)
            - 1,
        }
    )
    result["layers"] = layer
    if args.spans_out is not None:
        args.spans_out.parent.mkdir(parents=True, exist_ok=True)
        with args.spans_out.open("w") as f:
            for name, t0, t1, parent, op_id, _ in tracer.spans:
                f.write(json.dumps([name, t0, t1, parent, op_id]) + "\n")
    if args.records:
        result["records"] = records(passes[0], first_reductions)
    return result


def records(rows, reductions) -> dict:
    """Per op: exit code, route, game shape, and the shapes ``reduce`` saw."""
    out = {}
    for op_id, code, text, *_ in rows:
        kv = check.parse_output(text) if code == 0 else {}
        out[op_id] = {"code": code, "method": kv.get("method"), "shape": [kv.get("rows"), kv.get("cols")], "reduced": []}
    for op_id, shape_in, shape_out in reductions:
        out[op_id]["reduced"].append([list(shape_in), list(shape_out)])
    return out
