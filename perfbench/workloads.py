"""Seeded job lists for the three benchmark workloads.

A job is one CLI call: a subcommand, a JSON config and extra flags.  All
inputs come from one ``numpy`` generator seeded with the workload seed, so
the same seed gives the same configs, byte for byte.

Each instance is a fixed random draw (a panel, keyed by job) that the
workload seed jitters: every mean moves by about 2% and every dispersal
row mixes in 2% of a random row on the same support.  Random graphs follow
the recipe of the package's test fixtures (positive self-loop mass, so
every instance is aperiodic with a full-dimensional occupancy set), but
this is the benchmark's own copy.  The jitter changes every number the
program sees while keeping what sets the amount of work (sizes, supports,
the weak coupling, spectral gaps, excursion lengths) nearly fixed, so that
runs with different seeds measure the same work.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("solve", "montecarlo")

# K-sweep of the `solve` workload; the K=80 job holds the full-dimension SVD
# of the simplex ascent's feasibility check, which sets the peak memory.
SOLVE_K = (2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 80)
# The weak-coupling cost grows like 1/eps: eps = 1e-3 takes 4-5 s a run and
# eps = 1e-5 fails (exit 3 after about 17 s).  A workload must not contain a
# failing job, and every job must run several times in a run, so the
# weakest coupling kept is 5e-3 and the largest pipeline n = 250.
SOLVE_EPS = (1e-2, 5e-3)
PIPELINE_N = (7, 100, 250)
PERIODIC_K = (2, 12, 24)
SOLVE_HEAVY = {"analyze.K80", "analyze.eps0.005", "pipeline.n250"}
SOLVE_MEDIUM = {"analyze.K64", "analyze.eps0.01", "periodic.K24"}
# jobs kept apart in the job list, with the light ones between them
SOLVE_SPREAD = SOLVE_HEAVY | SOLVE_MEDIUM | {"analyze.K48", "pipeline.n100"}

# Runs of each job per 60 s of --seconds: about 40 s of jobs on the 2-core
# machine of the baseline, after a warm-up pass.  Light jobs run more often
# than heavy ones; the counts are fixed, never derived from measured speed,
# so two commits compared at the same settings take the same samples.
REPS = {"solve": 10, "montecarlo": 6}
# The tail rank (10 runs beyond) falls among the runs of the lighter of
# analyze.K80 and pipeline.n250, six each, which are well above
# analyze.eps0.005, the next heaviest.
SOLVE_REPS = {"analyze.K80": 6, "pipeline.n250": 6, "analyze.eps0.005": 4,
              **{name: 6 for name in SOLVE_MEDIUM}}
# Full passes over the job list per 60 s, once untraced and once traced,
# in a --trace 1 run.
TRACE_PASSES_PER_60S = {"solve": 2, "montecarlo": 3}

# the fixed base instances; the workload seed only jitters them
PANEL_SEED = 2012
JITTER = 0.02

README_GRAPH = {"m": [2.0, 0.5], "D": [[0.5, 0.5], [0.5, 0.5]]}


@dataclass
class Job:
    """One CLI call and the facts its oracle needs."""

    name: str
    command: str
    config: dict
    flags: list = field(default_factory=list)
    reps: int = 1  # runs per 60 s of --seconds

    def argv(self, config_path: str, out_path: str) -> list:
        return [self.command, "--config", config_path, "--out", out_path, *self.flags]


def _irreducible(D: np.ndarray) -> bool:
    """Every patch reaches every other: (I + support)^(K-1) has no zero."""
    K = D.shape[0]
    R = np.eye(K) + (D > 0)
    for _ in range(max(K - 1, 1).bit_length()):
        R = np.minimum(R @ R, 1.0)
    return bool(np.all(R > 0))


def random_dispersal(rng, K, zero_frac=0.35) -> np.ndarray:
    """An irreducible row-stochastic matrix with sparse rows.

    The positive diagonal makes it aperiodic.
    """
    while True:
        D = rng.dirichlet(np.ones(K) * 0.7, size=K)
        mask = rng.random((K, K)) < zero_frac
        D = np.where(mask & (D < 0.5), 0.0, D)
        D[np.diag_indices(K)] += rng.uniform(0.05, 0.3, K)
        D = D / D.sum(axis=1)[:, None]
        if _irreducible(D):
            return D


def doubly_stochastic(rng, K) -> np.ndarray:
    """Lazy mixture of a cyclic shift and random permutations.

    The stationary law is uniform, so a walker's mean return time is
    exactly K whatever the seed (Kac), which keeps Monte Carlo cost fixed.
    """
    perms = [np.roll(np.arange(K), 1)] + [rng.permutation(K) for _ in range(3)]
    w = rng.dirichlet(np.ones(len(perms) + 1) * 4.0)
    D = w[0] * np.eye(K)
    for wk, perm in zip(w[1:], perms):
        D[np.arange(K), perm] += wk
    return D


def _perron(A: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def _graph(m, D) -> dict:
    return {"m": [float(x) for x in m], "D": np.asarray(D, dtype=float).tolist()}


class Panel:
    """Fixed base instances keyed by job name, jittered by the workload seed."""

    def __init__(self, rng):
        self.rng = rng

    @staticmethod
    def base(key: str) -> np.random.Generator:
        return np.random.default_rng([PANEL_SEED, *key.encode()])

    def seed(self) -> int:
        return int(self.rng.integers(2**31 - 1))

    def value(self, x):
        """x (a number or an array) times exp(JITTER * standard normal)."""
        return np.asarray(x) * np.exp(JITTER * self.rng.standard_normal(np.shape(x)))

    def dispersal(self, D: np.ndarray) -> np.ndarray:
        """Mix JITTER of a random row with the same support into every row."""
        K = D.shape[0]
        J = np.where(D > 0, self.rng.dirichlet(np.ones(K), size=K), 0.0)
        J /= J.sum(axis=1)[:, None]
        return (1.0 - JITTER) * D + JITTER * J

    def graph(self, key: str, K: int) -> tuple:
        base = self.base(key)
        D = random_dispersal(base, K)
        m = base.uniform(0.05, 3.0, K)
        return self.value(m), self.dispersal(D)

    def env(self, key: str, K: int, schedule: dict) -> tuple:
        """A graph (unit means) with two environment states."""
        base = self.base(key)
        D = random_dispersal(base, K)
        means = base.uniform(0.3, 2.5, (2, K))
        env = {"states": ["e1", "e2"], "means": self.value(means).tolist(), "schedule": schedule}
        return _graph(np.ones(K), self.dispersal(D)), env


def solve_jobs(panel: Panel) -> list:
    jobs = []
    for K in SOLVE_K:
        name = f"analyze.K{K}"
        m, D = panel.graph(name, K)
        jobs.append(Job(name, "analyze", {"graph": _graph(m, D), "seed": panel.seed()}))
    for eps in SOLVE_EPS:
        jobs.append(Job(f"analyze.eps{eps:g}", "analyze", coupled_config(panel, eps)))
    for n in PIPELINE_N:
        M, m = panel.value([2.0, 0.5])
        spec = {"n": n, "p": 0.5, "L": 0.5, "s": 0.0, "l": 0.5, "m": float(m), "M": float(M)}
        jobs.append(Job(f"pipeline.n{n}", "pipeline", {"pipeline": spec, "seed": panel.seed()}))
    for K in PERIODIC_K:
        name = f"periodic.K{K}"
        graph, env = panel.env(name, K, {"periodic": ["e1", "e2"]})
        jobs.append(Job(name, "periodic", {"graph": graph, "env": env, "seed": panel.seed()}))
    name = "analyze.motif12"
    base = panel.base(name)
    types = [0, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2, 1]
    motif = {"types": types,
             "means_by_type": panel.value([2.0, 0.5, 0.8]).tolist(),
             "D": panel.dispersal(random_dispersal(base, len(types))).tolist()}
    jobs.append(Job(name, "analyze", {"motif": motif, "seed": panel.seed()}))
    for job in jobs:
        job.reps = SOLVE_REPS.get(job.name, REPS["solve"])
    return _interleave(jobs, SOLVE_SPREAD)


def _interleave(jobs: list, heavy: set) -> list:
    """Spread the light jobs evenly between the heavy ones.

    The machine's speed drifts over seconds; spreading each kind of job
    over the whole pass makes its median sample that drift evenly.
    """
    light = [j for j in jobs if j.name not in heavy]
    big = [j for j in jobs if j.name in heavy]
    out = []
    for i, job in enumerate(big):
        out += light[i * len(light) // len(big):(i + 1) * len(light) // len(big)]
        out.append(job)
    return out


def coupled_config(panel: Panel, eps: float) -> dict:
    """Two equal-mean sources coupled with weight eps, plus one sink.

    The Perron gap is of order eps, so power iteration needs ~1/eps steps.
    """
    m_sink = float(panel.value(0.5))
    D = [[1.0 - 2.0 * eps, eps, eps], [eps, 1.0 - eps, 0.0], [0.3, 0.3, 0.4]]
    return {"graph": {"m": [2.0, 2.0, m_sink], "D": D}, "seed": panel.seed()}


def simulate_jobs(panel: Panel) -> list:
    markov_env = {"states": ["good", "bad"], "means": [[4.0, 0.9], [0.6, 0.9]],
                  "schedule": {"markov": {"alpha": 0.3, "beta": 0.3}}}
    sim = {"horizon": 200, "n_runs": 2500}
    jobs = [
        Job("simulate.lineage", "simulate",
            {"graph": README_GRAPH, "simulate": {**sim, "lineage": True}, "seed": panel.seed()}),
        Job("simulate.nolineage", "simulate",
            {"graph": README_GRAPH, "simulate": {**sim, "lineage": False}, "seed": panel.seed()}),
        Job("simulate.markov", "simulate",
            {"graph": README_GRAPH, "env": markov_env,
             "simulate": {**sim, "lineage": True}, "seed": panel.seed()}),
    ]
    base = panel.base("simulate.K8")
    D, m = random_dispersal(base, 8), base.uniform(0.9, 1.5, 8)
    # runs start in patch 0: give it the largest reproductive value (right
    # Perron vector), so that survivors are common and lineages settle fast
    w, vr = np.linalg.eig(m[:, None] * D)
    top = int(np.argmax(np.abs(vr[:, np.argmax(w.real)])))
    order = [top] + [i for i in range(8) if i != top]
    m, D = panel.value(m[order]), panel.dispersal(D[np.ix_(order, order)])
    m *= 1.25 / _perron(m[:, None] * D)  # a fixed growth rate keeps the run cost fixed
    jobs.append(Job("simulate.K8", "simulate",
                    {"graph": _graph(m, D), "simulate": {**sim, "lineage": True},
                     "seed": panel.seed()}))
    return jobs


def walk_jobs(panel: Panel) -> list:
    p, M, m = panel.value([0.5, 2.0, 0.4])
    two = _graph([M, m], [[1 - p, p], [p, 1 - p]])
    K = 8
    M, m = panel.value([2.0, 0.4])
    D = panel.dispersal(doubly_stochastic(panel.base("analyze.mc.K8"), K))
    eight = _graph([M] + [m] * (K - 1), D)
    jobs = [
        Job("analyze.mc.K2", "analyze", {"graph": two, "seed": panel.seed()}, ["--trials", "20000"]),
        Job("analyze.mc.K8", "analyze", {"graph": eight, "seed": panel.seed()}, ["--trials", "20000"]),
    ]
    for K, steps in ((2, 10**6), (8, 10**5)):
        name = f"randenv.K{K}"
        a, b = panel.value([0.4, 0.6])
        graph, env = panel.env(name, K, {"markov": {"alpha": float(a), "beta": float(b)}})
        jobs.append(Job(name, "randenv",
                        {"graph": graph, "env": env, "randenv": {"n_steps": steps},
                         "seed": panel.seed()}))
    return jobs


def montecarlo_jobs(panel: Panel) -> list:
    """The branching jobs and the single-walker jobs, heavy ones apart.

    ``simulate.K8`` and ``randenv.K8`` are the two heaviest jobs, twice as
    heavy as the next: with six runs each, the tail rank (10 runs beyond)
    falls among the runs of the lighter of the two.
    """
    sim = simulate_jobs(panel)
    walk = walk_jobs(panel)
    jobs = [sim[0], walk[0], sim[3], walk[2], sim[1], walk[1], walk[3], sim[2]]
    for job in jobs:
        job.reps = REPS["montecarlo"]
    return jobs


def probe_jobs(panel: Panel) -> list:
    """One tiny job per subcommand and simulate mode.

    Traced passes end with these, outside the timed job list, so every
    layer records a few spans on every workload; a layer the workload
    itself leaves idle then shows a small measured time, not a constant 0.
    """
    env = {"states": ["e1", "e2"], "means": [[4.0, 0.9], [0.2, 0.9]]}
    sim = {"horizon": 20, "n_runs": 64}
    return [
        Job("probe.analyze", "analyze", {"graph": README_GRAPH, "seed": panel.seed()},
            ["--trials", "200"]),
        Job("probe.pipeline", "pipeline",
            {"pipeline": {"n": 7, "p": 0.5, "L": 0.5, "s": 0.0, "l": 0.5, "m": 0.5, "M": 2.0},
             "seed": panel.seed()}),
        Job("probe.periodic", "periodic",
            {"graph": README_GRAPH, "env": {**env, "schedule": {"periodic": ["e1", "e2"]}},
             "seed": panel.seed()}),
        Job("probe.randenv", "randenv",
            {"graph": README_GRAPH, "env": {**env, "schedule": {"markov": {"alpha": 0.5, "beta": 0.5}}},
             "randenv": {"n_steps": 2000}, "seed": panel.seed()}),
        Job("probe.simulate.lineage", "simulate",
            {"graph": README_GRAPH, "simulate": {**sim, "lineage": True}, "seed": panel.seed()}),
        Job("probe.simulate.nolineage", "simulate",
            {"graph": README_GRAPH, "simulate": {**sim, "lineage": False}, "seed": panel.seed()}),
    ]


def make_jobs(workload: str, seed: int) -> tuple:
    """The job list of one workload and its probe jobs; the same seed gives
    the same lists."""
    panel = Panel(np.random.default_rng([seed, WORKLOADS.index(workload)]))
    jobs = {"solve": solve_jobs, "montecarlo": montecarlo_jobs}[workload](panel)
    return jobs, probe_jobs(panel)


# large instances left out of the smoke-test version of each workload
TINY_SKIP = {"analyze.K32", "analyze.K48", "analyze.K64", "analyze.K80",
             "analyze.eps0.005", "pipeline.n250", "periodic.K24"}


def tiny(jobs: list) -> list:
    """Smoke-test sizes: no large instances and short Monte Carlo runs."""
    out = []
    for job in jobs:
        if job.name in TINY_SKIP:
            continue
        cfg = copy.deepcopy(job.config)
        if "simulate" in cfg:
            cfg["simulate"].update(horizon=100, n_runs=500)
        if "randenv" in cfg:
            cfg["randenv"]["n_steps"] = 20_000
        flags = ["--trials", "2000"] if "--trials" in job.flags else list(job.flags)
        out.append(Job(job.name, job.command, cfg, flags, reps=2))
    return out
