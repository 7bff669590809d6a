"""Multitype branching simulator: the ground truth the formulas predict.

Populations are tracked as per-patch counts; one generation is local
reproduction (per-patch offspring law) followed by independent dispersal
of every newborn (multinomial split of each patch's brood).  The per-
generation dispersal flows are recorded, which is enough to draw the
ancestral patch sequence of a uniformly chosen survivor exactly by
walking the flows backward: an individual's reproduction is independent
of its ancestry, so the backward patch kernel at generation t is just the
flow into its patch, column-normalized.

Runs whose population exceeds the escape cap are declared survivors and
switch to propagation by conditional means (relative fluctuations at that
size are below 1e-3), so growth-rate windows beyond the cap stay defined.

One driver, ``_steps``, runs the generation loop of every entry point:
it draws each run's environment state, then steps the live runs (alive,
at most the escape cap) through the one kernel ``_generation``.  Extinct
runs would draw nothing, since broods and multinomial splits of zero
individuals consume no randomness, so skipping them leaves the streams
unchanged.

Reproducibility: ``patch_series`` draws from the one stream (seed, 0);
``simulate`` and ``extinction_probability`` take runs in chunks of
``CHUNK``, chunk c drawing from stream (seed, c), except that with lineage
``simulate``'s chunk shrinks with horizon * K^2 to bound its flow storage.
Reports are byte-identical for a given seed and arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .environments import EnvironmentModel, Periodic, state_mean_matrix
from .errors import StatisticalError, ValidationError
from .graph import MetapopGraph
from .spectral import mean_matrix
from .walks import CHUNK

ESCAPE_CAP = 10**7
MEAN_MATCH_TOL = 1e-12


@dataclass(frozen=True)
class OffspringLaw:
    """One patch's offspring distribution, parameterized by its mean.

    kinds: ``poisson`` and ``geometric`` (mean m, both with finite
    N log N moment), ``deterministic`` (integer mean), ``bernoulli-pair``
    (0 with probability p0, else ``pair_n``; mean (1 - p0) * pair_n).
    """

    kind: str
    mean: float
    p0: float | None = None
    pair_n: int | None = None

    def __post_init__(self):
        if self.kind not in ("poisson", "geometric", "deterministic", "bernoulli-pair"):
            raise ValidationError(f"unknown offspring law {self.kind!r}")
        if self.mean < 0:
            raise ValidationError("offspring mean must be >= 0")
        if self.kind == "deterministic" and abs(self.mean - round(self.mean)) > MEAN_MATCH_TOL:
            raise ValidationError("deterministic law needs an integer mean")
        if self.kind == "bernoulli-pair":
            if self.p0 is None or self.pair_n is None:
                raise ValidationError("bernoulli-pair needs p0 and pair_n")
            implied = (1.0 - self.p0) * self.pair_n
            if abs(implied - self.mean) > MEAN_MATCH_TOL * max(1.0, self.mean):
                raise ValidationError("bernoulli-pair parameters do not match the mean")

    def fixes_single_offspring(self) -> bool:
        """True when the law is degenerate at exactly one offspring."""
        if self.kind == "deterministic":
            return round(self.mean) == 1
        if self.kind == "bernoulli-pair":
            return self.pair_n == 1 and self.p0 == 0.0
        return False

    def sample_brood(self, z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Total offspring of z parents per run (z is an int array)."""
        out = np.zeros_like(z)
        alive = z > 0
        if not alive.any():
            return out
        za = z[alive]
        if self.kind == "poisson":
            out[alive] = rng.poisson(self.mean * za)
        elif self.kind == "geometric":
            out[alive] = rng.negative_binomial(za, 1.0 / (1.0 + self.mean))
        elif self.kind == "deterministic":
            out[alive] = int(round(self.mean)) * za
        else:
            out[alive] = self.pair_n * rng.binomial(za, 1.0 - self.p0)
        return out


def poisson_laws(g: MetapopGraph, env: EnvironmentModel | None = None) -> list[list[OffspringLaw]]:
    """Default laws: Poisson with each patch's mean, per environment state."""
    if env is None:
        return [[OffspringLaw("poisson", float(m)) for m in g.m]]
    return [[OffspringLaw("poisson", float(m)) for m in row] for row in env.means]


def geometric_laws(g: MetapopGraph, env: EnvironmentModel | None = None) -> list[list[OffspringLaw]]:
    """Geometric offspring with each patch's mean."""
    if env is None:
        return [[OffspringLaw("geometric", float(m)) for m in g.m]]
    return [[OffspringLaw("geometric", float(m)) for m in row] for row in env.means]


def _checked_laws(g, env, laws, allow_degenerate, home, n_runs, escape_cap):
    """Validate a branching entry point's inputs; returns the laws to use."""
    if not 0 <= home < g.K:
        raise ValidationError(f"home patch {home} out of range")
    if n_runs < 1:
        raise ValidationError("n_runs must be >= 1")
    if escape_cap < 1:
        raise ValidationError("escape_cap must be >= 1")
    if laws is None:
        laws = poisson_laws(g, env)
    table = env.means if env is not None else g.m[None, :]
    if len(laws) != table.shape[0]:
        raise ValidationError("need one row of laws per environment state")
    for s, row in enumerate(laws):
        if len(row) != g.K:
            raise ValidationError("need one law per patch")
        for i, law in enumerate(row):
            if abs(law.mean - table[s][i]) > MEAN_MATCH_TOL * max(1.0, table[s][i]):
                raise ValidationError(
                    f"law mean for patch {i} in state {s} does not match the model"
                )
    if not allow_degenerate and all(row[0].fixes_single_offspring() for row in laws):
        raise ValidationError(
            "patch 0 leaves exactly one offspring almost surely; the "
            "persistence dichotomy does not apply (pass allow_degenerate=True "
            "to simulate anyway)"
        )
    return laws


@dataclass(frozen=True)
class SimReport:
    """Aggregated Monte Carlo outcome of a branching simulation.

    ``occupancy_hat`` is the lineage frequency at the finite horizon h, not
    its h -> infinity limit: its expectation is the limit plus c/(h+1) up to
    geometrically vanishing terms.  Both ends of the lineage contribute to
    c: the early end starts in ``start_patch`` and is pulled by the
    survival-conditioned first generations, and the recent end is
    distributed like the stable profile.  ``occupancy_ci`` and the other
    ``*_ci`` fields are 95% halfwidths of Monte Carlo error only.
    """

    survival_prob: float
    survival_ci: float
    growth_rate_hat: float | None
    growth_rate_ci: float | None
    occupancy_hat: np.ndarray | None
    occupancy_ci: np.ndarray | None
    n_runs: int
    n_survived: int
    n_escaped: int
    horizon: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "survival_prob": self.survival_prob,
            "survival_ci": self.survival_ci,
            "growth_rate_hat": self.growth_rate_hat,
            "growth_rate_ci": self.growth_rate_ci,
            "occupancy_hat": None if self.occupancy_hat is None else self.occupancy_hat.tolist(),
            "occupancy_ci": None if self.occupancy_ci is None else self.occupancy_ci.tolist(),
            "n_runs": self.n_runs,
            "n_survived": self.n_survived,
            "n_escaped": self.n_escaped,
            "horizon": self.horizon,
            "seed": self.seed,
        }


def _env_states_for_gen(env, t, states, rng):
    """Environment state per run at generation t (updates ``states`` in place)."""
    if env is None:
        return states  # all zeros
    if isinstance(env.schedule, Periodic):
        states.fill(env.schedule.order[t % len(env.schedule.order)])
        return states
    if t == 0:
        states[:] = rng.random(states.size) >= env.schedule.nu
        return states
    u = rng.random(states.size)
    leave = np.where(states == 0, env.schedule.alpha, env.schedule.beta)
    states[:] = np.where(u < leave, 1 - states, states)
    return states


def _generation(Z, states, laws, D, rng):
    """Brood-then-disperse flows of one generation, shape (runs, K, K).

    flows[r, i, j] counts the newborns of run r born in patch i that settle
    in patch j.  Draws go state group by state group (``np.unique`` order),
    then source patch by source patch: the brood, then its multinomial
    split over ``D[i]``.  A single row of laws is one group, with no mask.
    """
    K = Z.shape[1]
    flows = np.zeros((Z.shape[0], K, K), dtype=np.int64)
    if len(laws) == 1:
        groups = [(laws[0], slice(None))]
    else:
        groups = [(laws[s], states == s) for s in np.unique(states)]
    for row, rows in groups:
        for i in range(K):
            brood = row[i].sample_brood(Z[rows, i], rng)
            flows[rows, i] = rng.multinomial(brood, D[i])
    return flows


def _steps(Z, env, laws, D, rng, escape_cap):
    """Advance the counts ``Z`` in place, one generation per iteration.

    Yields ``(states, live, flows)``: every run's environment state, the
    runs stepped (those alive with at most ``escape_cap`` individuals,
    starting counts included) and their flows, None if no run was live.
    A run that dies out or passes the cap keeps its last counts.
    """
    states = np.zeros(Z.shape[0], dtype=np.int64)
    for t in count():
        totals = Z.sum(axis=1)
        live = (totals > 0) & (totals <= escape_cap)
        states = _env_states_for_gen(env, t, states, rng)
        flows = None
        if live.any():
            flows = _generation(Z[live], states[live], laws, D, rng)
            Z[live] = flows.sum(axis=1)
        yield states, live, flows


def _run_chunk(g, env, laws, horizon, n_runs, rng, start_patch, escape_cap,
               want_lineage):
    """Simulate one chunk of runs; returns per-run summaries.

    Integer counts while the population is below the escape cap; above it,
    counts continue as expected values in floats (and the run is marked
    escaped).  Flows are stored per generation for backward lineage draws.
    """
    K = g.K
    Z = np.zeros((n_runs, K), dtype=np.int64)
    Z[:, start_patch] = 1
    Zf = np.zeros((n_runs, K))
    escaped = np.zeros(n_runs, dtype=bool)
    flows = np.zeros((horizon, n_runs, K, K)) if want_lineage else None
    sizes = np.zeros((horizon + 1, n_runs))
    sizes[0] = 1.0
    if env is None:
        A = mean_matrix(g)[None]
    else:
        A = np.stack([state_mean_matrix(g, env, s) for s in range(env.n_states)])
    steps = _steps(Z, env, laws, g.D, rng, escape_cap)
    for t, (states, live, born) in zip(range(horizon), steps):
        if want_lineage and born is not None:
            flows[t, live] = born
        if escaped.any():
            esc = np.flatnonzero(escaped)
            flow_f = Zf[esc][:, :, None] * A[states[esc]]
            Zf[esc] = flow_f.sum(axis=1)
            if want_lineage:
                flows[t, esc] = flow_f
        totals = Z.sum(axis=1)
        newly = (totals > escape_cap) & ~escaped
        Zf[newly] = Z[newly]
        escaped |= newly
        sizes[t + 1] = np.where(escaped, Zf.sum(axis=1), totals)
    final = np.where(escaped[:, None], Zf, Z)
    alive = final.sum(axis=1) > 0
    lineage_freq = None
    if want_lineage:
        lineage_freq = _backward_lineages(flows, final, alive, horizon, K, rng)
    return alive, escaped, sizes, lineage_freq


def _backward_lineages(flows, final, alive, horizon, K, rng):
    """Ancestral patch-visit frequencies of one uniform survivor per run.

    A uniform individual's patch is drawn from the final counts; its
    ancestor's patch at each earlier generation follows the column-
    normalized dispersal flow of that generation.  Frequencies count the
    horizon + 1 points of the lineage.
    """
    idx = np.where(alive)[0]
    if idx.size == 0:
        return np.zeros((len(alive), K))
    probs = final[idx]
    probs = probs / probs.sum(axis=1, keepdims=True)
    cur = _categorical_rows(probs, rng)
    tallies = np.zeros((idx.size, K), dtype=np.int64)
    rows = np.arange(idx.size)
    tallies[rows, cur] += 1
    for t in range(horizon - 1, -1, -1):
        cols = flows[t, idx, :, :][rows, :, cur]
        colsum = cols.sum(axis=1, keepdims=True)
        # a zero column can only happen for the run's pre-start rows; guard
        safe = colsum[:, 0] > 0
        probs = np.where(safe[:, None], cols / np.where(colsum == 0, 1.0, colsum), 1.0 / K)
        cur = _categorical_rows(probs, rng)
        tallies[rows, cur] += 1
    freq = np.zeros((len(alive), K))
    freq[idx] = tallies / float(horizon + 1)
    return freq


def _categorical_rows(probs: np.ndarray, rng) -> np.ndarray:
    """One categorical draw per row of a probability matrix."""
    c = np.cumsum(probs, axis=1)
    c[:, -1] = 1.0
    u = rng.random((probs.shape[0], 1))
    return (u > c).sum(axis=1)


def simulate(
    g: MetapopGraph,
    laws: list[list[OffspringLaw]] | None = None,
    horizon: int = 200,
    n_runs: int = 10**4,
    seed: int = 0,
    env: EnvironmentModel | None = None,
    start_patch: int = 0,
    escape_cap: int = ESCAPE_CAP,
    track_lineage: bool = True,
    allow_degenerate: bool = False,
) -> SimReport:
    """Estimate survival, growth rate and survivor occupancy by simulation.

    Each run starts from one individual in ``start_patch``.  A run counts
    as surviving when it is alive at the horizon or escaped past the cap.
    The growth rate is the per-run least-squares slope of log total size
    over the window [horizon/2, horizon], averaged over surviving runs;
    occupancy is the ancestral visit-frequency vector of one uniformly
    chosen survivor per surviving run, over the horizon + 1 points of its
    lineage.  That finite-horizon frequency differs from the variational
    limit by a deterministic O(1/(horizon+1)) bias that both ends of the
    lineage contribute to; ``occupancy_ci`` covers Monte Carlo error only,
    so comparing against the limit needs the bias removed, for instance by
    combining two horizons (Richardson extrapolation).
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    laws = _checked_laws(g, env, laws, allow_degenerate, start_patch, n_runs, escape_cap)

    chunk = CHUNK
    if track_lineage:
        # flow storage is horizon * chunk * K * K doubles; budget ~64 MB
        chunk = max(32, min(CHUNK, (64 << 20) // (max(horizon, 1) * g.K * g.K * 8)))
    results = [
        _run_chunk(g, env, laws, horizon, min(chunk, n_runs - c * chunk),
                   np.random.default_rng([seed, c]), start_patch, escape_cap,
                   track_lineage)
        for c in range((n_runs + chunk - 1) // chunk)
    ]

    alive = np.concatenate([r[0] for r in results])
    escaped = np.concatenate([r[1] for r in results])
    sizes = np.concatenate([r[2] for r in results], axis=1)
    n_surv = int(alive.sum())
    p_hat = n_surv / n_runs
    surv_ci = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_runs)

    growth_hat = growth_ci = None
    if n_surv > 0:
        lo = horizon // 2
        ts = np.arange(lo, horizon + 1, dtype=float)
        ys = np.log(sizes[lo:, alive])
        tc = ts - ts.mean()
        slopes = (tc @ ys) / float(tc @ tc)
        growth_hat = float(slopes.mean())
        growth_ci = float(1.96 * slopes.std(ddof=1) / math.sqrt(n_surv)) if n_surv > 1 else 0.0

    occ_hat = occ_ci = None
    if track_lineage and n_surv > 0:
        freq = np.concatenate([r[3] for r in results])
        freq = freq[alive]
        occ_hat = freq.mean(axis=0)
        occ_ci = 1.96 * freq.std(axis=0, ddof=1) / math.sqrt(n_surv) if n_surv > 1 else np.zeros(g.K)

    return SimReport(
        survival_prob=p_hat,
        survival_ci=surv_ci,
        growth_rate_hat=growth_hat,
        growth_rate_ci=growth_ci,
        occupancy_hat=occ_hat,
        occupancy_ci=occ_ci,
        n_runs=n_runs,
        n_survived=n_surv,
        n_escaped=int(escaped.sum()),
        horizon=horizon,
        seed=seed,
    )


def patch_series(
    g: MetapopGraph,
    laws: list[list[OffspringLaw]] | None = None,
    horizon: int = 100,
    n_runs: int = 10,
    seed: int = 0,
    env: EnvironmentModel | None = None,
    start_patch: int = 0,
    escape_cap: int = ESCAPE_CAP,
    allow_degenerate: bool = False,
) -> np.ndarray:
    """Per-patch count trajectories for a handful of runs (plot fodder).

    Returns an (n_runs, horizon + 1, K) array; counts freeze once a run
    escapes past the cap.
    """
    laws = _checked_laws(g, env, laws, allow_degenerate, start_patch, n_runs, escape_cap)
    Z = np.zeros((n_runs, g.K), dtype=np.int64)
    Z[:, start_patch] = 1
    out = np.zeros((n_runs, horizon + 1, g.K), dtype=np.int64)
    out[:, 0] = Z
    steps = _steps(Z, env, laws, g.D, np.random.default_rng([seed, 0]), escape_cap)
    for t, _ in zip(range(1, horizon + 1), steps):
        out[:, t] = Z
    return out


def survivor_occupancy(
    g: MetapopGraph,
    laws: list[list[OffspringLaw]] | None = None,
    horizon: int = 200,
    n_runs: int = 10**4,
    seed: int = 0,
    **kw,
) -> tuple[np.ndarray, np.ndarray]:
    """Ancestral occupancy of a random survivor, with per-coordinate CI."""
    report = simulate(g, laws, horizon, n_runs, seed, track_lineage=True, **kw)
    if report.n_survived == 0:
        raise StatisticalError(
            "no run survived to the horizon; increase n_runs or shorten the horizon"
        )
    return report.occupancy_hat, report.occupancy_ci


def extinction_probability(
    g: MetapopGraph,
    laws: list[list[OffspringLaw]] | None = None,
    home: int = 0,
    n_runs: int = 10**4,
    seed: int = 0,
    n_initial: int = 1,
    max_generations: int = 10**4,
    escape_cap: int = ESCAPE_CAP,
    env: EnvironmentModel | None = None,
    allow_degenerate: bool = False,
) -> tuple[float, float]:
    """Fraction of runs from ``n_initial`` individuals in ``home`` that die out.

    Runs end at extinction or at the escape cap (counted as survival); runs
    still undecided after ``max_generations`` are counted as survivors.
    """
    if n_initial < 1:
        raise ValidationError("n_initial must be >= 1")
    laws = _checked_laws(g, env, laws, allow_degenerate, home, n_runs, escape_cap)
    dead_total = 0
    for c in range((n_runs + CHUNK - 1) // CHUNK):
        Z = np.zeros((min(CHUNK, n_runs - c * CHUNK), g.K), dtype=np.int64)
        Z[:, home] = n_initial
        steps = _steps(Z, env, laws, g.D, np.random.default_rng([seed, c]), escape_cap)
        for _, live, _ in islice(steps, max_generations):
            if not live.any():
                break
        dead_total += int((Z.sum(axis=1) == 0).sum())
    q_hat = dead_total / n_runs
    ci = 1.96 * math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / n_runs)
    return q_hat, ci
