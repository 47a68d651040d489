"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

They are not part of the repository's test suite (pyproject's testpaths)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KERRLINK_DIR = str((ROOT / "src" / "kerrlink").resolve())
# cheap ops of each workload, so that a traced pass takes about a second
CHEAP = {
    "simulate-presets": ("photon-correlated:2,2", "photon-correlated:1,3"),
    "entangle-scan": ("x=1,K=1", "x=100,K=1"),
    "noise-budget": None,
}


def cheap_ops(workload, seed, tmp_path):
    ops, _ = workloads.build(workload, seed, tmp_path)
    keep = CHEAP[workload]
    return ops if keep is None else [op for op in ops if op.label in keep]


def traced_pass(ops):
    """One traced pass; returns (per-layer row, tracer, failures)."""
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        results = [run.run_op(op, tr, i, 0, KERRLINK_DIR) for i, op in enumerate(ops)]
    finally:
        tr.restore()
    return tr.per_pass()[0], tr, [f for _, f, _ in results if f is not None]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_match_reported_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        tracer_mod.LAYER_METRICS
    )
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_op_times_take_each_ops_best_over_whole_and_partial_passes():
    passes = [{"order": [1, 0, 2], "times": [0.2, 0.5, 0.3]},
              {"order": [0, 2, 1], "times": [0.4]}]  # cut after one op
    assert run.op_times(passes, 3) == [0.4, 0.2, 0.3]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(trace, kind):
    proc = run_bench("--workload", "noise-budget", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines), name


def test_counts_repeat_across_traced_runs():
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", "simulate-presets", "--seed", "4", "--seconds", "1",
                         "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: metrics[name]["value"] for name, unit in tracer_mod.LAYER_METRICS
                       if unit in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["protocol.patterns"] == 2 + 4 + 4 + 8 + 16


@pytest.mark.parametrize("workload", list(CHEAP))
def test_exact_counts_repeat_for_one_seed(workload, tmp_path):
    first, _, fail1 = traced_pass(cheap_ops(workload, 5, tmp_path))
    second, _, fail2 = traced_pass(cheap_ops(workload, 5, tmp_path))
    assert fail1 == fail2 == []
    for name in tracer_mod.EXACT_COUNTS:
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", list(CHEAP))
def test_self_times_account_for_op_time(workload, tmp_path):
    row, tr, _ = traced_pass(cheap_ops(workload, 1, tmp_path))
    layer_self = sum(row[name] for name, unit in tracer_mod.LAYER_METRICS
                     if unit == "s" and not name.startswith("trace."))
    assert layer_self == pytest.approx(tr.root_time(), rel=1e-9)


def test_traced_counts_match_the_workload(tmp_path):
    row, _, _ = traced_pass(cheap_ops("simulate-presets", 0, tmp_path))
    # photon-correlated:2,2 (K=2) and :1,3 (K=3): one record per click pattern,
    # each assembled and then normalized
    assert row["protocol.patterns"] == 4 + 8
    assert row["fock.DensOp_count"] == 2 * (4 + 8)
    row, _, _ = traced_pass(cheap_ops("entangle-scan", 0, tmp_path))
    assert row["entangle.entropy_evals"] > row["entangle.nm_nfev"] > 0
    assert 0 < row["entangle.nm_useful_ratio"] <= 1
    # one Gram build per entropy evaluation, nearly all of one key per op
    assert row["gram.calls"] == row["entangle.entropy_evals"]
    assert row["gram.repeat_share"] > 0.99


def test_noise_ops_bring_new_gram_keys(tmp_path):
    row, _, _ = traced_pass(cheap_ops("noise-budget", 0, tmp_path))
    # the mixes with a chi mismatch repeat only their presets' nominal Grams
    assert 0.3 < row["gram.repeat_share"] < 0.5


def test_warning_counts_same_on_every_pass(tmp_path):
    ops = cheap_ops("noise-budget", 0, tmp_path)
    passes = []
    for _ in range(2):
        total = {}
        for op in ops:
            _, failure, counts = run.run_op(op, None, 0, 0, KERRLINK_DIR)
            assert failure is None
            for module, n in counts.items():
                total[module] = total.get(module, 0) + n
        passes.append(total)
    assert passes[0] == passes[1]
    assert passes[0].get("noise", 0) > 0


def test_checks_reject_wrong_outputs(tmp_path):
    refs = workloads.load_refs("noise-budget")
    label = workloads.noise_label("bell-k1", 10, "phase-storage")
    good = refs[label]
    assert workloads.check_noise(good, list(good)) is None
    assert workloads.check_noise(good, [good[0], good[1] * (1 + 1e-6)] + good[2:])
    assert workloads.check_noise(good, [good[0], 1.5] + good[2:])

    ref = workloads.load_refs("entangle-scan")["x=1,K=1"]
    rep = workloads.scan_result(1.0, 1, 0)
    assert workloads.check_scan(1.0, 1, ref, rep) is None
    assert workloads.check_scan(1.0, 1, {"E": rep.E + 1e-3}, rep)
    assert workloads.check_scan(1.0, 1, ref, replace(rep, E=rep.E - 1e-7))
    assert workloads.check_scan(1.0, 1, ref, replace(rep, c_opt=rep.c_opt[:1]))

    ref = workloads.load_refs("simulate-presets")["photon-correlated:2,2"]
    assert workloads.check_simulate(ref, tmp_path / "missing.csv", 4)


def test_empty_checkout_fails_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "noise-budget", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
