"""Tests of the benchmark itself: checker verdicts, seeding, tracing, determinism.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
The determinism tests run each workload's worker twice (about two minutes).
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import calib
import check
import run
import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

MP2 = np.array([[1, 0], [0, 1]], dtype=np.uint8)
MP2_OUT = "command=value\nrows=2\ncols=2\nfloor=1/2\nceil=1/2\nvalue=1/2\nmethod=balanced\neloise=0:1/2 1:1/2\nabelard=0:1/2 1:1/2\n"


def test_checker_accepts_a_true_equilibrium():
    assert check.certify_value(check.parse_output(MP2_OUT), MP2) == []


@pytest.mark.parametrize(
    "old, new",
    [
        ("value=1/2", "value=1/3"),
        ("eloise=0:1/2 1:1/2", "eloise=0:1/1"),
        ("abelard=0:1/2 1:1/2", "abelard=0:1/3 1:2/3"),
        ("floor=1/2", "floor=0/1"),
        ("rows=2", "rows=3"),
    ],
)
def test_checker_rejects_a_tampered_output(old, new):
    out = check.parse_output(MP2_OUT.replace(old, new))
    assert check.certify_value(out, MP2) != []


def test_checker_rejects_probabilities_not_summing_to_one():
    with pytest.raises(ValueError):
        check.parse_strategy("0:1/2 1:1/3", 2)


def test_checker_hashing_needs_verified_and_the_value():
    a = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    good = {"verified": "true", "rows": "2", "cols": "2", "value": "1/2", "eloise": "0:1/2 1:1/2"}
    assert check.certify_hashing(good, a, [0, 1]) == []
    assert check.certify_hashing({**good, "verified": "false"}, a, [0, 1]) != []
    assert check.certify_hashing({**good, "value": "2/3"}, a, [0, 1]) != []


def _child(latencies: dict[str, list[float]]) -> dict:
    return {
        "correct": True, "attempted": 8, "failed": 0, "refused": 0, "problems": {}, "ops_per_pass": 2,
        "peak_rss_mb": 30.0, "setup_s": 0.2, "pass_walls": [3.0, 3.0, 3.0], "op_latencies": latencies,
    }


def test_summarise_takes_the_median_pass_of_every_op():
    result = run.summarise(_child({"a": [1.0, 9.0, 2.0], "b": [3.0, 4.0, 5.0]}), [0.1, 0.3])
    assert result["correct"] and result["attempted"] == 8
    assert result["wall_s"] == 6.0 and result["op_p50_ms"] == 3000.0 and result["op_p95_ms"] == 4000.0
    assert result["setup_s"] == 0.2


def test_scaling_follows_the_reference_loop():
    assert calib.scaled(1.0, calib.PROBE_REF_S) == pytest.approx(1.0)
    assert calib.scaled(1.0, 2 * calib.PROBE_REF_S) == pytest.approx(0.5)


def test_sampler_probes_during_the_call_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with calib.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 5 * calib.TICK_S:
            sum(range(1000))
        elapsed = time.perf_counter() - start
    assert len(sampler.samples) > 2 * calib.BRACKET
    assert 0 < sampler.own_s(elapsed) < elapsed
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_closed_forms():
    assert workloads.hashing_closed_form(4, 2) == workloads.Fraction(2, 3)
    assert workloads.hashing_closed_form(3, 2) == workloads.Fraction(2, 3)
    assert workloads.hashing_closed_form(2, 3) == 1
    assert workloads.birthday_closed_form(5, 3) == 1 - workloads.Fraction(12, 25)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name]
    a, b = make(5), make(5)
    assert a.ops == b.ops and a.files == b.files
    assert all(op.argv[-2:] == ("--format", "machine") for op in a.ops)


def test_random_sentences_parse_and_validate():
    from ifgames import load_structure, parse, validate

    for seed in range(20):
        wl = workloads.sentence_corpus(seed)
        for op in wl.ops:
            if "--formula" in op.argv:
                name = op.argv[op.argv.index("--structure") + 1].removeprefix("{dir}/")
                vocab = load_structure(wl.files[name]).vocabulary()
                assert validate(parse(op.argv[op.argv.index("--formula") + 1], vocab), vocab) == []


def test_missing_trace_target_fails_loudly(monkeypatch):
    import ifgames.cli  # noqa: F401  (loads every module the targets name)

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("ifgames.linalg", "gone", "linalg.lp", None, None),))
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="gone"):
        tracer.install()
    tracer.uninstall()


def test_tracer_restores_every_attribute():
    import ifgames.cli as cli
    import ifgames.matrix_game as mg

    before = (cli.build_matrix, cli.solve_value, mg.MixedStrategy.__post_init__)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.build_matrix is not before[0]
    tracer.uninstall()
    assert (cli.build_matrix, cli.solve_value, mg.MixedStrategy.__post_init__) == before


def _traced_pass(name: str, seed: int, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
        "--seconds", "0", "--trace", "1", "--t0", repr(time.monotonic()),
        "--workdir", str(workdir), "--records", "--check",
    ]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


DETERMINISTIC = (
    "semantic_game.cells",
    "semantic_game.decision_points",
    "linalg.lp_calls",
    "linalg.lp_tableau_cells",
    "value_engine.value_den_bits",
    "matrix_game.reduce_calls",
    "cli.refused_ops",
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_runs_agree_exactly(name, tmp_path):
    """Routes, shapes, reduced shapes, the refused set and the work counts
    repeat exactly across two processes; self times add up to the traced
    pass."""
    first, second = (_traced_pass(name, 7, tmp_path / str(i)) for i in range(2))
    assert first["correct"] and second["correct"]
    assert first["records"] == second["records"]
    layers = (first["layers"], second["layers"])
    for key in DETERMINISTIC + tuple(k for k in layers[0] if k.startswith("value_engine.route.")):
        assert layers[0][key] == layers[1][key], key
    routes = Counter(r["method"] for r in first["records"].values() if r["code"] == 0)
    assert all(layers[0][f"value_engine.route.{r}"] == routes[r] for r in worker.ROUTES)
    refused = {k for k, r in first["records"].items() if r["code"] == 4}
    assert len(refused) == layers[0]["cli.refused_ops"]
    self_total = sum(layers[0][k] for k in spans.SELF_METRICS.values())
    assert self_total == pytest.approx(layers[0]["trace.wall_s"], rel=0.02)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lp_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
