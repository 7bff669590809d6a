"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

Runs a tiny version of each workload end to end, checks that every metric
named in BENCHMARK.json is printed with its unit, that the oracle flags
deliberately perturbed reports, and that tracing rebinds and restores every
imported copy of a wrapped function.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from oracle import Oracle  # noqa: E402
from run import tail  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_jobs, tiny  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(workload: str, trace: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_prints_every_metric(workload, trace):
    text, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in text), m
        if m["unit"] == "s" and m["name"] != "trace.overhead_s":
            assert got["value"] > 0.0, m  # probe jobs give every layer some spans


def _report(job, tmp_path):
    from sourcesink.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(job.config))
    out = tmp_path / "report.json"
    assert main(job.argv(str(cfg), str(out))) == 0
    return json.loads(out.read_text())


def _tiny_job(workload, name):
    return next(j for j in tiny(make_jobs(workload, 3)[0]) if j.name == name)


def test_oracle_flags_perturbed_analyze(tmp_path):
    job = _tiny_job("montecarlo", "analyze.mc.K8")
    rep = _report(job, tmp_path)
    oracle = Oracle()
    assert oracle.check(job, rep) == []
    bad = copy.deepcopy(rep)
    bad["verdict"]["log_rho"] *= 1.0 + 1e-6
    assert "log_rho" in oracle.check(job, bad)
    bad = copy.deepcopy(rep)
    bad["verdict"]["persists"] = not bad["verdict"]["persists"]
    assert "persistence sign" in oracle.check(job, bad)
    bad = copy.deepcopy(rep)
    mc = bad["return_functional_mc"]
    mc["R"] += 4 * mc["ci"]
    assert "Monte Carlo R" in oracle.check(job, bad)


def test_oracle_flags_perturbed_simulate(tmp_path):
    job = _tiny_job("montecarlo", "simulate.lineage")
    rep = _report(job, tmp_path)
    oracle = Oracle()
    assert oracle.check(job, rep) == []
    bad = copy.deepcopy(rep)
    r = bad["report"]
    r["survival_prob"] += 4 * r["survival_ci"]
    assert "survival probability" in oracle.check(job, bad)


def test_oracle_flags_perturbed_pipeline(tmp_path):
    job = _tiny_job("solve", "pipeline.n7")
    rep = _report(job, tmp_path)
    oracle = Oracle()
    assert oracle.check(job, rep) == []
    bad = copy.deepcopy(rep)
    bad["criterion_value"] *= 1.0 + 1e-6
    assert "closed-form criterion" in oracle.check(job, bad)


def test_tail_leaves_ten_samples_beyond():
    assert tail([float(i) for i in range(30, 0, -1)]) == (20.0, 20, 30)
    assert tail([1.0, 2.0]) == (2.0, 2, 2)


def test_tracer_rebinds_every_imported_copy():
    import sourcesink
    from sourcesink import cli, environments, spectral

    original = spectral.growth_rate
    tracer = Tracer()
    tracer.install()
    try:
        for mod in (sourcesink, cli, environments, spectral):
            assert mod.growth_rate is not original
        g = sourcesink.MetapopGraph(m=[2.0, 0.5], D=[[0.5, 0.5], [0.5, 0.5]])
        cli.growth_rate(sourcesink.mean_matrix(g))
    finally:
        tracer.uninstall()
    for mod in (sourcesink, cli, environments, spectral):
        assert mod.growth_rate is original
    names = [s[2] for s in tracer.spans]
    assert "spectral.growth_rate" in names and "graph.validate_graph" in names
    calls, total, own = tracer.self_times()["spectral.growth_rate"]
    assert calls == 1 and 0.0 < own <= total
