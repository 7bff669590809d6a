"""Benchmark of the sourcesink CLI: one seeded workload per invocation.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The workload's jobs are generated from the seed, written as
config files, then run in passes through ``sourcesink.cli.main(argv)``
with ``--out`` to a scratch file.  After an untimed warm-up pass, each
job runs a fixed number of times (its ``reps`` per 60 s of ``--seconds``),
its runs spread evenly over the measurement.  Every report is checked by
the independent oracle in ``oracle.py`` and must be byte-identical across
runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs full passes
over the job list, half untraced and half with every public package
function wrapped in a span (``spans.py``), and prints the per-layer metrics
plus the tracing overhead; spans and a summary are written under
``perfbench/out/``.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2 means
the package could not be imported, 3 that the benchmark refused to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from workloads import TRACE_PASSES_PER_60S, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# the set-up metric is the median of this many fresh processes
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60
# a timing percentile needs this many samples beyond it
TAIL_BEYOND = 10


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (small instances, short Monte Carlo)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import sourcesink from the checkout's src/; exit 2 when it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sourcesink", "cli.py")):
        print(f"perfbench: no sourcesink package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import sourcesink.cli

    return sourcesink


def setup(args, workdir: str) -> tuple:
    """Generate the workload's configs, validate them and write them out.

    Returns (job, config path) pairs for the jobs and for the probe jobs.
    This is the work ``setup_s`` times.
    """
    sourcesink = import_package()
    from workloads import make_jobs, tiny

    jobs, probes = make_jobs(args.workload, args.seed)
    if args.tiny:
        jobs = tiny(jobs)
    return (_validate_and_write(sourcesink, jobs, workdir),
            _validate_and_write(sourcesink, probes, workdir))


def _validate_and_write(sourcesink, jobs: list, workdir: str) -> list:
    out = []
    for job in jobs:
        cfg = job.config
        if "graph" in cfg:
            g = sourcesink.load_graph(cfg["graph"])
        elif "motif" in cfg:
            g = sourcesink.collapse(sourcesink.load_motif(cfg["motif"]))
        else:
            spec = sourcesink.load_pipeline(cfg["pipeline"])
            g = sourcesink.collapse(sourcesink.pipeline_to_motif(spec))
        rep = sourcesink.validate_graph(g)
        if not (rep.irreducible and rep.aperiodic):
            raise RuntimeError(f"generated job {job.name} is not irreducible and aperiodic")
        if "env" in cfg:
            sourcesink.load_environment(cfg["env"])
        path = os.path.join(workdir, job.name + ".config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        out.append((job, path))
    return out


def measure_setup(args) -> list:
    """Wall time of fresh processes that import, generate and validate."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def provenance(args, sourcesink) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "simulate_default_workers": sourcesink.cli._threads(argparse.Namespace(threads=None)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs jobs through the CLI and records failures and report digests."""

    def __init__(self, cli, workdir: str):
        from oracle import Oracle

        self.cli = cli
        self.workdir = workdir
        self.oracle = Oracle()
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def run_job(self, job, config_path: str) -> float:
        out_path = os.path.join(self.workdir, job.name + ".report.json")
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(job.argv(config_path, out_path))
        except Exception:
            code = None
            err.write(traceback.format_exc(limit=3))
        dt = time.perf_counter() - t0
        self.attempted += 1
        problems = self._check(job, code, out_path)
        if problems:
            self.failures.append({"job": job.name, "problems": problems,
                                  "stderr": err.getvalue().strip()[-500:]})
        with contextlib.suppress(FileNotFoundError):
            os.remove(out_path)
        return dt

    def _check(self, job, code, out_path: str) -> list:
        if code != 0:
            return [f"exit code {code}"]
        with open(out_path, "rb") as f:
            data = f.read()
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(job.name, digest) != digest:
            return ["report bytes differ between runs"]
        return self.oracle.check(job, json.loads(data))

    def schedule(self, jobs: list, reps: dict, t_end: float) -> dict:
        """Run job ``name`` ``reps[name]`` times; job name -> run times.

        The runs go in rounds over the job list; each job takes part in
        ``reps`` of the rounds, spread evenly, so that every job samples
        the whole measurement and the host's slow spells hit all alike.
        After ``t_end`` (a ``perf_counter`` time) a job that has run once
        is not started again, which bounds the run time when the host is
        slow.
        """
        rounds = max(reps.values())
        out = {job.name: [] for job, _ in jobs}
        for r in range(rounds):
            for job, path in jobs:
                k = reps[job.name]
                if (r + 1) * k // rounds == r * k // rounds:
                    continue
                if out[job.name] and time.perf_counter() > t_end:
                    continue
                out[job.name].append(self.run_job(job, path))
        return out

    def passes(self, jobs: list, n: int, probes: list = ()) -> list:
        """Run ``n`` passes over the job list; per-pass job times.

        Probe jobs run after each pass and are checked but not timed.
        """
        out = []
        for _ in range(n):
            out.append({job.name: self.run_job(job, path) for job, path in jobs})
            for job, path in probes:
                self.run_job(job, path)
        return out


def rep_counts(args, jobs: list) -> dict:
    """Runs of each job for ``--seconds`` of measurement.

    The counts depend only on the arguments, never on measured speed, so
    two commits compared at the same settings take the same number of
    samples and report the same tail percentile (unless a slow host hits
    the time limit of ``Runner.schedule``).
    """
    return {job.name: max(1, round(job.reps * args.seconds / 60.0)) for job, _ in jobs}


def trace_passes(args) -> int:
    if args.tiny:
        return 1
    return max(1, round(TRACE_PASSES_PER_60S[args.workload] * args.seconds / 60.0))


def tail(samples: list) -> tuple:
    """Highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    Returns (value, rank, sample count); the percentile is 100 * rank / n.
    With too few samples it is the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return xs[rank - 1], rank, n


def end_to_end(samples: dict, reps: dict, setup_times: list) -> tuple:
    """Metrics dict plus the notes printed beside them.

    Each job's time is the mean of its runs.  This host's speed changes
    by up to 1.7x in spells of seconds to minutes; a median or a low
    percentile of a job's runs jumps with the state a few of them fell in,
    while the mean integrates the whole run.  ``wall_s`` is one pass over
    the job list at those times, ``job_s.p50`` the median job.
    ``job_s.tail`` ranks the scheduled runs (``reps``), each counted at
    its job's time: the workloads are fixed batches, so the tail is set by
    which jobs are heavy, and the run counts put its rank inside one job's
    runs.
    """
    per_job = {name: statistics.fmean(ts) for name, ts in samples.items()}
    runs = [per_job[name] for name, k in reps.items() for _ in range(k)]
    tail_v, rank, n = tail(runs)
    medians = [statistics.median(ts) for ts in samples.values()]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (sum(per_job.values()), "s"),
        "job_s.p50": (statistics.median(per_job.values()), "s"),
        "job_s.tail": (tail_v, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "wall_s": f"sum over {len(per_job)} jobs of each job's mean over its "
                  f"{min(map(len, samples.values()))} to {max(map(len, samples.values()))} runs "
                  f"(at job medians: {sum(medians):.4f})",
        "job_s.p50": f"median of {len(per_job)} jobs' means "
                     f"(of job medians: {statistics.median(medians):.4f})",
        "job_s.tail": f"p{100.0 * rank / n:.1f} of {n} job runs ({n - rank} beyond), "
                      f"each at its job's mean",
        "peak_rss_mb": "ru_maxrss of the workload process",
        "setup_s": f"median of {len(setup_times)} fresh processes",
    }
    return metrics, notes


def by_job(passes: list) -> dict:
    """Per-pass job times regrouped as job name -> run times."""
    return {name: [p[name] for p in passes] for name in passes[0]}


def report(args, prov: dict, runner: Runner, metrics: dict, notes: dict, extra: dict) -> dict:
    failed = len(runner.failures)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:52s} {value:16.6g} {unit:6s} {note}")
    frac = failed / runner.attempted if runner.attempted else 0.0
    print(f"  {'failed_frac':52s} {frac:16.6g} {'ratio':6s} {failed} of {runner.attempted} jobs failed")
    for name, ts in extra["job_times"].items():
        print(f"    job {name:40s} {statistics.fmean(ts):12.6f} s mean, "
              f"{statistics.median(ts):12.6f} s median of {len(ts)} runs")
    for f in runner.failures[:20]:
        print(f"  FAILED {f['job']}: {', '.join(f['problems'])} {f['stderr'][-200:]}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as f:
        json.dump({"provenance": prov, **result, "notes": notes,
                   "failures": runner.failures, **extra}, f, indent=1)
    return result


def run(args) -> int:
    sourcesink = import_package()
    prov = provenance(args, sourcesink)
    if prov["simulate_default_workers"] > prov["nproc"]:
        print(f"perfbench: simulate defaults to {prov['simulate_default_workers']} workers "
              f"but only {prov['nproc']} CPUs are usable; refusing to run", file=sys.stderr)
        return 3
    os.makedirs(OUT, exist_ok=True)
    setup_times = measure_setup(args)
    workdir = tempfile.mkdtemp(prefix="jobs-", dir=OUT)
    try:
        jobs, probes = setup(args, workdir)
        runner = Runner(sourcesink.cli, workdir)
        t_end = time.perf_counter() + args.seconds
        runner.passes(jobs, 1)  # warm-up: the first run of a job is slower
        if not args.trace:
            reps = rep_counts(args, jobs)
            samples = runner.schedule(jobs, reps, t_end)
            metrics, notes = end_to_end(samples, reps, setup_times)
            result = report(args, prov, runner, metrics, notes, {"job_times": samples})
        else:
            result = traced_run(args, prov, runner, jobs, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def traced_run(args, prov, runner: Runner, jobs: list, probes: list) -> dict:
    from spans import Tracer, layer_metrics

    n = trace_passes(args)
    plain = runner.passes(jobs, n)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.passes(jobs, n, probes)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, len(traced))
    overhead = sum(map(statistics.fmean, by_job(traced).values())) - \
        sum(map(statistics.fmean, by_job(plain).values()))
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {"trace.overhead_s": f"mean traced pass minus mean untraced pass "
                                 f"({len(traced)} passes each)"}
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write_jsonl(os.path.join(OUT, f"spans-{stem}.jsonl"))
    summary = {name: {"calls": c, "total_s": tot, "self_s": slf}
               for name, (c, tot, slf) in sorted(tracer.self_times().items())}
    with open(os.path.join(OUT, f"layers-{stem}.json"), "w") as f:
        json.dump({"provenance": prov, "passes": len(traced), "spans": len(tracer.spans),
                   "functions": summary, "counts": dict(tracer.counts)}, f, indent=1)
    return report(args, prov, runner, metrics, notes,
                  {"plain_passes": plain, "traced_passes": traced,
                   "job_times": by_job(plain)})


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            setup(args, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
