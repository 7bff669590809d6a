"""Multitype branching simulator: the ground truth the formulas predict.

Populations are tracked as per-patch counts; one generation is local
reproduction (per-patch offspring law) followed by independent dispersal
of every newborn (multinomial split of each patch's brood).  The per-
generation dispersal flows are recorded, which is enough to draw the
ancestral patch sequence of a uniformly chosen survivor exactly by
walking the flows backward: an individual's reproduction is independent
of its ancestry, so the backward patch kernel at generation t is just the
flow into its patch, column-normalized.  Flows are stored per edge: the
edges of a graph are each dispersal row's positive entries plus its last
entry (``_Edges``), and each generation keeps, for the runs it stepped, a
(runs, edges) array of integer flows (uint32 when they fit), plus the
escaped runs' expected counts from which their flows are rebuilt, all
packed into a few large blocks (``_Record``).  The backward pass
rebuilds only the inflow of the patch a lineage is in.

Runs whose population exceeds the escape cap are declared survivors and
switch to propagation by conditional means (relative fluctuations at that
size are below 1e-3), so growth-rate windows beyond the cap stay defined.

One driver, ``_steps``, runs the generation loop of every entry point:
it draws each run's environment state, then steps the live runs (alive,
at most the escape cap) through the one kernel ``_generation``.  The live
runs are a sorted index that only shrinks, so each generation touches
only the rows that have work.  Extinct runs would draw nothing, since
broods and multinomial splits of zero individuals consume no randomness,
so skipping them leaves the streams unchanged.  Each brood is split over
its source's edges only and scatter-added into the next counts, so a
generation costs O(runs x edges), not O(runs x K^2): numpy's multinomial
draws nothing for a zero category and gives the last one the remainder,
so the draws are those of a split over the whole row.

Reproducibility: ``patch_series`` draws from the one stream (seed, 0);
``simulate`` and ``extinction_probability`` take runs in chunks of
``CHUNK``, chunk c drawing from stream (seed, c), except that with lineage
``simulate``'s chunk shrinks with horizon * K^2.  That formula once bounded
a dense flow array; it sets the streams and still bounds a chunk's stored
per-edge lineage flows.  Reports are byte-identical for a given seed and
arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from itertools import count, islice

import numpy as np

from .environments import EnvironmentModel, Periodic, _patch_means, state_mean_matrix
from .errors import StatisticalError, ValidationError
from .graph import MetapopGraph, _check_home, _integer
from .walks import CHUNK

ESCAPE_CAP = 10**7
MEAN_MATCH_TOL = 1e-12
RECORD_BLOCK = 1 << 20  # bytes in each block of a lineage chunk's ``_Record``


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
        if not (math.isfinite(self.mean) and self.mean >= 0):
            raise ValidationError(f"offspring mean must be finite and >= 0, not {self.mean!r}")
        if self.kind == "deterministic" and abs(self.mean - round(self.mean)) > MEAN_MATCH_TOL:
            raise ValidationError("deterministic law needs an integer mean")
        if self.kind == "bernoulli-pair":
            if self.p0 is None or self.pair_n is None:
                raise ValidationError("bernoulli-pair needs p0 and pair_n")
            if not 0.0 <= self.p0 <= 1.0:
                raise ValidationError(f"bernoulli-pair p0 must lie in [0, 1], not {self.p0!r}")
            object.__setattr__(self, "pair_n", _integer(self.pair_n, "bernoulli-pair pair_n"))
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


def _checked_laws(g, env, laws, allow_degenerate, home):
    """Validate a branching entry point's inputs; returns the environment
    and laws to use."""
    _check_home(g, home)
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


@dataclass(frozen=True, eq=False)
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


class _Edges:
    """The dispersal rows of a graph, each indexed by its positive entries
    plus its last entry.

    These are the edges, numbered source by source in column order: source
    i's newborns split over the columns ``cols[i]`` (None when the row is
    full) with probabilities ``probs[i]``, and their flows are edges
    ``span[i]``.  numpy's multinomial draws nothing for a zero category and
    gives the last category the remainder, so a split over these categories
    alone draws what a split over the whole row draws, bit for bit; a zero
    last entry is kept, since it is the one that takes the remainder.

    Edge e runs from patch ``src[e]`` to patch ``dst[e]``.
    """

    def __init__(self, D: np.ndarray):
        K = D.shape[0]
        support = D > 0
        support[:, -1] = True
        deg = support.sum(axis=1)
        start = np.concatenate([[0], np.cumsum(deg)])
        self.n = int(start[-1])
        self.span = [slice(start[i], start[i + 1]) for i in range(K)]
        self.cols = [None if deg[i] == K else np.flatnonzero(support[i]) for i in range(K)]
        self.probs = [D[i, support[i]] for i in range(K)]
        self.src, self.dst = np.nonzero(support)

    @functools.cached_property
    def into(self) -> np.ndarray:
        """``into[j]`` numbers, in source order, the edge from each patch
        into patch j, or edge ``n`` where there is none: a flow record keeps
        one column of zeros past the last edge, so ``into`` rebuilds the
        dense K-vector of a patch's inflow from one run's edge flows.  Only
        lineage reads it, so it is built on first use."""
        K = len(self.span)
        into = np.full((K, K), self.n)
        into[self.dst, self.src] = np.arange(self.n)
        return into


def _generation(Z, states, laws, edges, rng, flows=None):
    """Brood-then-disperse step of one generation; returns the next counts.

    counts[r, j] is run r's number of newborns that settle in patch j.
    Draws go state group by state group (``np.unique`` order), then source
    patch by source patch: the brood, then its multinomial split over the
    source's edges, which is scatter-added into the counts and, given
    ``flows`` (an int64 array with a column per edge of ``edges`` and a
    last one left alone), written into run r's edge columns.  The groups
    are slices of the rows sorted stably by state, so each group keeps its
    rows in order; a single group (one row of laws, or every run in the
    same state) is drawn as is.
    """
    order = None
    groups = [(laws[0], slice(None))]
    if len(laws) > 1:
        order = np.argsort(states, kind="stable")
        ranked = states[order]
        if ranked[0] == ranked[-1]:
            groups, order = [(laws[ranked[0]], slice(None))], None
        else:
            cuts = np.searchsorted(ranked, np.arange(len(laws) + 1))
            groups = [(laws[s], slice(cuts[s], cuts[s + 1]))
                      for s in range(len(laws)) if cuts[s] < cuts[s + 1]]
            Z = Z[order]
    counts = np.zeros(Z.shape, dtype=np.int64)
    for row, rows in groups:
        dest, at = counts[rows], (rows if order is None else order[rows])
        for i, (law, cols, p, span) in enumerate(zip(row, edges.cols, edges.probs, edges.span)):
            split = rng.multinomial(law.sample_brood(Z[rows, i], rng), p)
            if cols is None:
                np.add(dest, split, out=dest)
            else:
                dest[:, cols] += split
            if flows is not None:
                flows[at, span] = split
    if order is None:
        return counts
    out = np.empty_like(counts)
    out[order] = counts
    return out


def _steps(Z, env, laws, edges, rng, escape_cap, keep_flows=False):
    """Advance the counts ``Z`` in place, one generation per iteration.

    Yields ``(states, live, flows, totals)``: every run's environment
    state, the sorted indices of the runs stepped (those alive with at most
    ``escape_cap`` individuals, starting counts included), their int64
    per-edge flows if ``keep_flows`` (else None, as when no run was live)
    and their totals after the step.  The flows are a view of one buffer,
    with a last column of zeros, that the next step overwrites.  A run
    that dies out or passes the cap leaves the live set for good and keeps
    its last counts; the live runs' counts go back into ``Z`` by one
    scatter.
    """
    states = np.zeros(Z.shape[0], dtype=np.intp)
    live = np.arange(Z.shape[0])
    Zl, totals = Z, _add_columns(Z)
    buf = None
    if keep_flows:
        buf = np.empty((Z.shape[0], edges.n + 1), dtype=np.int64)
        buf[:, -1] = 0
    for t in count():
        keep = (totals > 0) & (totals <= escape_cap)
        if not keep.all():
            live, Zl, totals = live[keep], Zl[keep], totals[keep]
        states = _env_states_for_gen(env, t, states, rng)
        flows = None
        if live.size:
            flows = None if buf is None else buf[:live.size]
            Zl = _generation(Zl, states[live], laws, edges, rng, flows)
            totals = _add_columns(Zl)
            Z[live] = Zl
        yield states, live, flows, totals


class _Record:
    """Copies of arrays packed in order into large byte blocks.

    A lineage chunk keeps a few arrays per generation until its backward
    pass; packed, they are a few large allocations, reused by the next
    chunk and freed together, not hundreds of small ones that leave the
    heap fragmented.
    """

    def __init__(self):
        self.blocks = []
        self.clear()

    def clear(self) -> None:
        """Drop every copy; later copies reuse the blocks from the first."""
        self.at, self.pos = 0, 0

    def put(self, a: np.ndarray, dtype=None) -> np.ndarray:
        """A packed copy of ``a``, as ``dtype`` (default ``a.dtype``)."""
        dtype = np.dtype(dtype or a.dtype)
        n = a.size * dtype.itemsize
        while self.at < len(self.blocks) and self.pos + n > len(self.blocks[self.at]):
            self.at, self.pos = self.at + 1, 0
        if self.at == len(self.blocks):
            self.blocks.append(np.empty(max(RECORD_BLOCK, n), dtype=np.uint8))
        out = self.blocks[self.at][self.pos:self.pos + n].view(dtype).reshape(a.shape)
        out[...] = a
        self.pos += -(-n // 8) * 8  # keep every copy 8-byte aligned
        return out


def _propagate(Zf, A):
    """Expected counts one generation on: ``Zf[r] @ A[r]`` (or ``@ A``).

    Sums over the source patch in order, one vector add each, which is
    the order ``(Zf[:, :, None] * A).sum(axis=1)`` takes, bit for bit.
    """
    out = Zf[:, 0, None] * A[..., 0, :]
    for i in range(1, Zf.shape[1]):
        out += Zf[:, i, None] * A[..., i, :]
    return out


def _run_chunk(g, env, laws, edges, horizon, n_runs, rng, start_patch, escape_cap,
               record=None):
    """Simulate one chunk of runs; returns per-run summaries.

    Integer counts while the population is below the escape cap; above it,
    counts continue as expected values in floats (and the run is marked
    escaped), in a block of the escaped runs in the order they escaped.
    Of the total sizes only the growth window [horizon/2, horizon] of the
    surviving runs is returned, since that is all ``simulate`` reads.
    With lineage (given the ``_Record`` to keep it in, which the chunk
    clears first), each generation keeps its live runs, their per-edge
    flows from the driver (as uint32 when their largest total fits, else
    int64), and the escaped block before the step with the block's states.
    """
    K = g.K
    Z = np.zeros((n_runs, K), dtype=np.int64)
    Z[:, start_patch] = 1
    esc = np.zeros(0, dtype=np.intp)
    Zf = np.zeros((0, K))
    want_lineage = record is not None
    history = []
    if want_lineage:
        record.clear()
    lo = horizon // 2
    sizes = np.zeros((n_runs, horizon - lo + 1))
    if lo == 0:
        sizes[:, 0] = 1.0
    A = np.stack([state_mean_matrix(g, env, s) for s in range(env.n_states)])
    steps = _steps(Z, env, laws, edges, rng, escape_cap, want_lineage)
    for t, (states, live, born, totals) in zip(range(horizon), steps):
        s = states[esc]
        if want_lineage:
            flows = None if born is None else record.put(
                born, np.uint32 if totals.max() <= np.iinfo(np.uint32).max else np.int64)
            history.append((record.put(live), flows, record.put(Zf), record.put(s)))
        if esc.size:
            # with one state every escaped run takes A[0], by broadcasting
            Zf = _propagate(Zf, A[0] if len(A) == 1 else A[s])
        if t + 1 >= lo:
            sizes[esc, t + 1 - lo] = Zf.sum(axis=1)
            sizes[live, t + 1 - lo] = totals
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
        lineage_freq = _backward_lineages(history, final, alive, esc, A, edges, rng)
    return alive, escaped, sizes[alive], lineage_freq


def _backward_lineages(history, final, alive, esc, A, edges, rng):
    """Ancestral patch-visit frequencies of one uniform survivor, one row
    per surviving run.

    A uniform individual's patch is drawn from the final counts; its
    ancestor's patch at each earlier generation follows the column-
    normalized dispersal flow of that generation: the dense K-vector of
    inflow into its patch, in source order, rebuilt from a live run's edge
    flows through ``edges.into``, or ``Zf[i] * A[s, i, cur]`` of an escaped
    one.  The uniforms of all the draws come from one ``rng.random`` call,
    in the order one call per draw would take them.  Frequencies count the
    horizon + 1 points of the lineage.
    """
    n, K = final.shape
    idx = np.flatnonzero(alive)
    if idx.size == 0:
        return np.zeros((0, K))
    u = rng.random((len(history) + 1, idx.size))
    path = np.empty((len(history) + 1, idx.size), dtype=np.intp)
    probs = final[idx]
    probs = probs / probs.sum(axis=1, keepdims=True)
    path[0] = cur = _categorical_rows(probs, u[0])
    # each survivor's place in the escaped block, n if it never escaped;
    # the block only grows, so at generation t it holds the first len(Zf)
    block = np.full(n, n)
    block[esc] = np.arange(esc.size)
    block = block[idx]
    cols = np.empty((idx.size, K))
    for t, (live, born, Zf, s) in enumerate(reversed(history), 1):
        was_esc = block < len(Zf)
        was_live = ~was_esc
        if was_live.any():
            at = np.searchsorted(live, idx[was_live])
            cols[was_live] = born[at[:, None], edges.into[cur[was_live]]]
        if was_esc.any():
            at = block[was_esc]
            cols[was_esc] = Zf[at] * A[s[at], :, cur[was_esc]]
        colsum = cols.sum(axis=1, keepdims=True)
        # a lineage reaches a patch with no inflow only by rounding in the
        # last category of a draw; guard the division
        safe = colsum[:, 0] > 0
        probs = np.where(safe[:, None], cols / np.where(colsum == 0, 1.0, colsum), 1.0 / K)
        path[t] = cur = _categorical_rows(probs, u[t])
    del u
    # one count per (survivor, patch) pair over all the points of the paths
    at = (path + np.arange(idx.size) * K).ravel()
    tallies = np.bincount(at, minlength=idx.size * K).reshape(idx.size, K)
    return tallies / float(len(history) + 1)


def _categorical_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of a probability matrix, by uniforms ``u``.

    Counts the partial row sums (``np.cumsum`` order) below each uniform;
    the last partial sum is taken as 1, so it is never counted.
    """
    return (np.cumsum(probs[:, :-1], axis=1) < u[:, None]).sum(axis=1)


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
    horizon, n_runs = _integer(horizon, "horizon"), _integer(n_runs, "n_runs")
    seed, escape_cap = _integer(seed, "seed", 0), _integer(escape_cap, "escape_cap")
    env, laws = _checked_laws(g, env, laws, allow_degenerate, start_patch)

    chunk = CHUNK
    if track_lineage:
        # the size that once held a dense flow array to ~64 MB; it sets the
        # streams and still bounds the lineage flows a chunk stores
        chunk = max(32, min(CHUNK, (64 << 20) // (max(horizon, 1) * g.K * g.K * 8)))
    edges = _Edges(g.D)
    record = _Record() if track_lineage else None
    results = [
        _run_chunk(g, env, laws, edges, horizon, min(chunk, n_runs - c * chunk),
                   np.random.default_rng([seed, c]), start_patch, escape_cap, record)
        for c in range((n_runs + chunk - 1) // chunk)
    ]

    alive = np.concatenate([r[0] for r in results])
    escaped = np.concatenate([r[1] for r in results])
    n_surv = int(alive.sum())
    p_hat = n_surv / n_runs
    surv_ci = 1.96 * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_runs)

    growth_hat = growth_ci = None
    if n_surv > 0:
        ts = np.arange(horizon // 2, horizon + 1, dtype=float)
        # log sizes by generation, one column per survivor
        ys = np.log(np.concatenate([r[2] for r in results]).T)
        tc = ts - ts.mean()
        slopes = (tc @ ys) / float(tc @ tc)
        growth_hat = float(slopes.mean())
        growth_ci = float(1.96 * slopes.std(ddof=1) / math.sqrt(n_surv)) if n_surv > 1 else 0.0

    occ_hat = occ_ci = None
    if track_lineage and n_surv > 0:
        freq = np.concatenate([r[3] for r in results])
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
    horizon, n_runs = _integer(horizon, "horizon"), _integer(n_runs, "n_runs")
    seed, escape_cap = _integer(seed, "seed", 0), _integer(escape_cap, "escape_cap")
    env, laws = _checked_laws(g, env, laws, allow_degenerate, start_patch)
    Z = np.zeros((n_runs, g.K), dtype=np.int64)
    Z[:, start_patch] = 1
    out = np.zeros((n_runs, horizon + 1, g.K), dtype=np.int64)
    out[:, 0] = Z
    steps = _steps(Z, env, laws, _Edges(g.D), np.random.default_rng([seed, 0]), escape_cap)
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
    n_runs, seed = _integer(n_runs, "n_runs"), _integer(seed, "seed", 0)
    n_initial, escape_cap = _integer(n_initial, "n_initial"), _integer(escape_cap, "escape_cap")
    max_generations = _integer(max_generations, "max_generations")
    env, laws = _checked_laws(g, env, laws, allow_degenerate, home)
    edges = _Edges(g.D)
    dead_total = 0
    for c in range((n_runs + CHUNK - 1) // CHUNK):
        Z = np.zeros((min(CHUNK, n_runs - c * CHUNK), g.K), dtype=np.int64)
        Z[:, home] = n_initial
        steps = _steps(Z, env, laws, edges, np.random.default_rng([seed, c]), escape_cap)
        for _, live, _, _ in islice(steps, max_generations):
            if not live.size:
                break
        dead_total += int((Z.sum(axis=1) == 0).sum())
    q_hat = dead_total / n_runs
    ci = 1.96 * math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / n_runs)
    return q_hat, ci
