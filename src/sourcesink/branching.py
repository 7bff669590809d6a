"""Multitype branching simulator: the ground truth the formulas predict.

Populations are tracked as per-patch counts; one generation is local
reproduction (per-patch offspring law) followed by independent dispersal
of every newborn (multinomial split of each patch's brood).  The per-
generation dispersal flows are recorded, which is enough to draw the
ancestral patch sequence of a uniformly chosen survivor exactly by
walking the flows backward: an individual's reproduction is independent
of its ancestry, so the backward patch kernel at generation t is just the
flow into its patch, column-normalized.  Flows are stored per live row:
each generation keeps the integer flows of the runs it stepped, and the
escaped runs' expected counts from which their flows are rebuilt.

Runs whose population exceeds the escape cap are declared survivors and
switch to propagation by conditional means (relative fluctuations at that
size are below 1e-3), so growth-rate windows beyond the cap stay defined.

One driver, ``_steps``, runs the generation loop of every entry point:
it draws each run's environment state, then steps the live runs (alive,
at most the escape cap) through the one kernel ``_generation``.  The live
runs are a sorted index that only shrinks, so each generation touches
only the rows that have work.  Extinct runs would draw nothing, since
broods and multinomial splits of zero individuals consume no randomness,
so skipping them leaves the streams unchanged.

Reproducibility: ``patch_series`` draws from the one stream (seed, 0);
``simulate`` and ``extinction_probability`` take runs in chunks of
``CHUNK``, chunk c drawing from stream (seed, c), except that with lineage
``simulate``'s chunk shrinks with horizon * K^2.  That formula once bounded
a dense flow array; it sets the streams and still bounds a chunk's stored
lineage flows.  Reports are byte-identical for a given seed and arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import count, islice

import numpy as np

from .environments import EnvironmentModel, Periodic, _patch_means, state_mean_matrix
from .errors import StatisticalError, ValidationError
from .graph import MetapopGraph, _check_home
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
        """Total offspring of z parents per run (z is an int array).

        Poisson and bernoulli-pair draw for every entry: a Poisson draw at
        mean 0 and a binomial draw of 0 trials consume no randomness, so the
        zeros leave the stream where a draw for the positive entries would.
        numpy rejects 0 successes for the negative binomial, so the
        geometric law draws for the positive entries only.
        """
        if self.kind == "poisson":
            return rng.poisson(self.mean * z)
        if self.kind == "bernoulli-pair":
            return self.pair_n * rng.binomial(z, 1.0 - self.p0)
        if self.kind == "deterministic":
            return int(round(self.mean)) * z
        out = np.zeros_like(z)
        alive = z > 0
        if alive.any():
            out[alive] = rng.negative_binomial(z[alive], 1.0 / (1.0 + self.mean))
        return out


def _environment(g: MetapopGraph, env: EnvironmentModel | None) -> EnvironmentModel:
    """``env``, or the fixed environment: the one-state periodic schedule of ``g.m``."""
    return env or EnvironmentModel(("fixed",), [g.m], Periodic((0,)))


def _laws(kind: str, g: MetapopGraph, env: EnvironmentModel | None) -> list[list[OffspringLaw]]:
    """Laws of one ``kind`` with each patch's mean, per environment state."""
    return [[OffspringLaw(kind, float(m)) for m in row] for row in _environment(g, env).means]


def poisson_laws(g: MetapopGraph, env: EnvironmentModel | None = None) -> list[list[OffspringLaw]]:
    """Default laws: Poisson with each patch's mean, per environment state."""
    return _laws("poisson", g, env)


def geometric_laws(g: MetapopGraph, env: EnvironmentModel | None = None) -> list[list[OffspringLaw]]:
    """Geometric offspring with each patch's mean."""
    return _laws("geometric", g, env)


def _checked_laws(g, env, laws, allow_degenerate, home, n_runs, escape_cap):
    """Validate a branching entry point's inputs; returns the environment and laws to use."""
    _check_home(g, home)
    if n_runs < 1:
        raise ValidationError("n_runs must be >= 1")
    if escape_cap < 1:
        raise ValidationError("escape_cap must be >= 1")
    env = _environment(g, env)
    means = _patch_means(g, env)
    if laws is None:
        laws = poisson_laws(g, env)
    if len(laws) != env.n_states:
        raise ValidationError("need one row of laws per environment state")
    for s, row in enumerate(laws):
        if len(row) != g.K:
            raise ValidationError("need one law per patch")
        for i, law in enumerate(row):
            if abs(law.mean - means[s][i]) > MEAN_MATCH_TOL * max(1.0, means[s][i]):
                raise ValidationError(
                    f"law mean for patch {i} in state {s} does not match the model"
                )
    if not allow_degenerate and all(row[0].fixes_single_offspring() for row in laws):
        raise ValidationError(
            "patch 0 leaves exactly one offspring almost surely; the "
            "persistence dichotomy does not apply (pass allow_degenerate=True "
            "to simulate anyway)"
        )
    return env, laws


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
        """The fields in order, arrays as lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


def _env_states_for_gen(env, t, states, rng):
    """Environment state per run at generation t (updates ``states`` in place)."""
    cycle = env.schedule.cycle
    if cycle is not None:
        states.fill(cycle[t % len(cycle)])
    elif t == 0:
        states[:] = rng.random(states.size) >= env.schedule.start[0]
    else:
        states ^= rng.random(states.size) < env.schedule.T[[0, 1], [1, 0]][states]
    return states


def _add_columns(X):
    """``X.sum(axis=1)`` of an integer array as K - 1 vector adds.

    numpy's reduction over a short axis costs about ten times the adds at
    K = 2; integer sums are exact, so the order does not matter.
    """
    out = X[:, 0].copy()
    for i in range(1, X.shape[1]):
        out += X[:, i]
    return out


def _generation(Z, states, laws, D, rng):
    """Brood-then-disperse flows of one generation, shape (runs, K, K).

    flows[r, i, j] counts the newborns of run r born in patch i that settle
    in patch j.  Draws go state group by state group (``np.unique`` order),
    then source patch by source patch: the brood, then its multinomial
    split over ``D[i]``.  A single group (one row of laws, or every run in
    the same state) is drawn with no mask.
    """
    K = Z.shape[1]
    flows = np.empty((Z.shape[0], K, K), dtype=np.int64)
    present = [0] if len(laws) == 1 else np.unique(states)
    if len(present) == 1:
        groups = [(laws[present[0]], slice(None))]
    else:
        groups = [(laws[s], states == s) for s in present]
    for row, rows in groups:
        for i in range(K):
            brood = row[i].sample_brood(Z[rows, i], rng)
            flows[rows, i] = rng.multinomial(brood, D[i])
    return flows


def _steps(Z, env, laws, D, rng, escape_cap):
    """Advance the counts ``Z`` in place, one generation per iteration.

    Yields ``(states, live, flows, totals)``: every run's environment
    state, the sorted indices of the runs stepped (those alive with at most
    ``escape_cap`` individuals, starting counts included), their flows
    (None if no run was live) and their totals after the step.  A run that
    dies out or passes the cap leaves the live set for good and keeps its
    last counts; the live runs' counts go back into ``Z`` by one scatter.
    """
    states = np.zeros(Z.shape[0], dtype=np.int64)
    live = np.arange(Z.shape[0])
    Zl, totals = Z, _add_columns(Z)
    for t in count():
        keep = (totals > 0) & (totals <= escape_cap)
        if not keep.all():
            live, Zl, totals = live[keep], Zl[keep], totals[keep]
        states = _env_states_for_gen(env, t, states, rng)
        flows = None
        if live.size:
            flows = _generation(Zl, states[live], laws, D, rng)
            Zl = _add_columns(flows)
            totals = _add_columns(Zl)
            Z[live] = Zl
        yield states, live, flows, totals


def _propagate(Zf, A):
    """Expected counts one generation on: ``Zf[r] @ A[r]`` (or ``@ A``).

    Sums over the source patch in order, one vector add each, which is
    the order ``(Zf[:, :, None] * A).sum(axis=1)`` takes, bit for bit.
    """
    out = Zf[:, 0, None] * A[..., 0, :]
    for i in range(1, Zf.shape[1]):
        out += Zf[:, i, None] * A[..., i, :]
    return out


def _run_chunk(g, env, laws, horizon, n_runs, rng, start_patch, escape_cap,
               want_lineage):
    """Simulate one chunk of runs; returns per-run summaries.

    Integer counts while the population is below the escape cap; above it,
    counts continue as expected values in floats (and the run is marked
    escaped), in a block of the escaped runs in the order they escaped.
    With lineage, each generation keeps the driver's flows of its live runs
    and the escaped block before the step, with the block's states.
    """
    K = g.K
    Z = np.zeros((n_runs, K), dtype=np.int64)
    Z[:, start_patch] = 1
    esc = np.zeros(0, dtype=np.intp)
    Zf = np.zeros((0, K))
    history = []
    sizes = np.zeros((horizon + 1, n_runs))
    sizes[0] = 1.0
    A = np.stack([state_mean_matrix(g, env, s) for s in range(env.n_states)])
    steps = _steps(Z, env, laws, g.D, rng, escape_cap)
    for t, (states, live, born, totals) in zip(range(horizon), steps):
        s = states[esc]
        if want_lineage:
            history.append((live, born, Zf, s))
        if esc.size:
            # with one state every escaped run takes A[0], by broadcasting
            Zf = _propagate(Zf, A[0] if len(A) == 1 else A[s])
            sizes[t + 1, esc] = Zf.sum(axis=1)
        sizes[t + 1, live] = totals
        newly = live[totals > escape_cap]
        if newly.size:
            esc = np.concatenate([esc, newly])
            Zf = np.concatenate([Zf, Z[newly]])
    escaped = np.zeros(n_runs, dtype=bool)
    escaped[esc] = True
    final = Z.astype(float)
    final[esc] = Zf
    alive = final.sum(axis=1) > 0
    lineage_freq = None
    if want_lineage:
        lineage_freq = _backward_lineages(history, final, alive, esc, A, rng)
    return alive, escaped, sizes, lineage_freq


def _backward_lineages(history, final, alive, esc, A, rng):
    """Ancestral patch-visit frequencies of one uniform survivor per run.

    A uniform individual's patch is drawn from the final counts; its
    ancestor's patch at each earlier generation follows the column-
    normalized dispersal flow of that generation: the stored flow column
    of a live run, or ``Zf[i] * A[s, i, cur]`` of an escaped one.
    Frequencies count the horizon + 1 points of the lineage.
    """
    n, K = final.shape
    idx = np.flatnonzero(alive)
    if idx.size == 0:
        return np.zeros((n, K))
    probs = final[idx]
    probs = probs / probs.sum(axis=1, keepdims=True)
    cur = _categorical_rows(probs, rng)
    tallies = np.zeros((idx.size, K), dtype=np.int64)
    rows = np.arange(idx.size)
    tallies[rows, cur] += 1
    # each survivor's place in the escaped block, n if it never escaped;
    # the block only grows, so at generation t it holds the first len(Zf)
    block = np.full(n, n)
    block[esc] = np.arange(esc.size)
    block = block[idx]
    cols = np.empty((idx.size, K))
    for live, born, Zf, s in reversed(history):
        was_esc = block < len(Zf)
        was_live = ~was_esc
        if was_live.any():
            at = np.searchsorted(live, idx[was_live])
            cols[was_live] = born[at, :, cur[was_live]]
        if was_esc.any():
            at = block[was_esc]
            cols[was_esc] = Zf[at] * A[s[at], :, cur[was_esc]]
        colsum = cols.sum(axis=1, keepdims=True)
        # a lineage reaches a patch with no inflow only by rounding in the
        # last category of a draw; guard the division
        safe = colsum[:, 0] > 0
        probs = np.where(safe[:, None], cols / np.where(colsum == 0, 1.0, colsum), 1.0 / K)
        cur = _categorical_rows(probs, rng)
        tallies[rows, cur] += 1
    freq = np.zeros((n, K))
    freq[idx] = tallies / float(len(history) + 1)
    return freq


def _categorical_rows(probs: np.ndarray, rng) -> np.ndarray:
    """One categorical draw per row of a probability matrix.

    Counts the partial row sums below a uniform draw, summing columns in
    order as ``np.cumsum`` would; the last partial sum is taken as 1, so it
    is never counted.
    """
    u = rng.random(len(probs))
    edge = np.zeros(len(probs))
    out = np.zeros(len(probs), dtype=np.intp)
    for p in probs.T[:-1]:
        edge += p
        out += u > edge
    return out


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
    env, laws = _checked_laws(g, env, laws, allow_degenerate, start_patch, n_runs, escape_cap)

    chunk = CHUNK
    if track_lineage:
        # the size that once held a dense flow array to ~64 MB; it sets the
        # streams and still bounds the lineage flows a chunk stores
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
    env, laws = _checked_laws(g, env, laws, allow_degenerate, start_patch, n_runs, escape_cap)
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
    env, laws = _checked_laws(g, env, laws, allow_degenerate, home, n_runs, escape_cap)
    dead_total = 0
    for c in range((n_runs + CHUNK - 1) // CHUNK):
        Z = np.zeros((min(CHUNK, n_runs - c * CHUNK), g.K), dtype=np.int64)
        Z[:, home] = n_initial
        steps = _steps(Z, env, laws, g.D, np.random.default_rng([seed, c]), escape_cap)
        for _, live, _, _ in islice(steps, max_generations):
            if not live.size:
                break
        dead_total += int((Z.sum(axis=1) == 0).sum())
    q_hat = dead_total / n_runs
    ci = 1.96 * math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / n_runs)
    return q_hat, ci
