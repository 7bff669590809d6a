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
entry (``_Edges``), and each generation keeps only what the backward pass
reads: for the runs it stepped, a (runs, edges) array of integer flows
(uint32 when they fit) and their indices when that set shrank, plus the
escaped runs' expected counts from which their flows are rebuilt and,
under a Markov schedule alone, their states, all packed into a few large
blocks (``_Record``).  The backward pass rebuilds only the inflow of the
patch a lineage is in.

Runs whose population exceeds the escape cap are declared survivors and
switch to propagation by conditional means (relative fluctuations at that
size are below 1e-3), so growth-rate windows beyond the cap stay defined.
They form a block with one row per patch and a column per run in escape
order, which only grows; the backward pass takes lineages in that order,
so each generation's escaped lineages are a prefix read straight from it.

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

from .environments import EnvironmentModel, Periodic, _patch_means
from .errors import ValidationError
from .graph import MetapopGraph, _check_home, _integer
from .walks import CHUNK

ESCAPE_CAP = 10**7
MEAN_MATCH_TOL = 1e-12
RECORD_BLOCK = 1 << 20  # bytes in each block of a lineage chunk's ``_Record``
UINT32_MAX = int(np.iinfo(np.uint32).max)
SHORT_ROW = 8  # rows of fewer patches are summed by vector loops over their columns


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


def _checked_laws(g, env, laws, home):
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
        states ^= rng.random(states.size) < env.schedule.leave.take(states)
    return states


def _add_columns(X):
    """``X.sum(axis=1)`` as K - 1 vector adds.

    numpy's reduction over a short axis costs about ten times the adds at
    K = 2; integer sums are exact, so the order does not matter, and numpy
    adds each float row of a C-contiguous array in order if it is shorter
    than ``SHORT_ROW``, pairwise if not, so longer float rows take its sum.
    """
    if X.dtype.kind == "f" and X.shape[1] >= SHORT_ROW:
        return np.ascontiguousarray(X).sum(axis=1)
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
        """``into[i, j]`` numbers the edge from patch i into patch j, or is
        edge ``n`` where there is none: a flow record keeps one column of
        zeros past the last edge, so column j of ``into`` rebuilds the dense
        K-vector of patch j's inflow from one run's edge flows.  Only
        lineage reads it, so it is built on first use."""
        K = len(self.span)
        into = np.full((K, K), self.n)
        into[self.src, self.dst] = np.arange(self.n)
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
        # in the smallest type that holds every state, numpy sorts by radix
        order = np.argsort(states.astype(np.min_scalar_type(len(laws) - 1)), kind="stable")
        ranked = states.take(order)
        if ranked[0] == ranked[-1]:
            groups, order = [(laws[ranked[0]], slice(None))], None
        else:
            cuts = np.searchsorted(ranked, np.arange(len(laws) + 1))
            groups = [(laws[s], slice(cuts[s], cuts[s + 1]))
                      for s in range(len(laws)) if cuts[s] < cuts[s + 1]]
            Z = Z.take(order, axis=0)
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
        if live.size:
            keep = (totals > 0) & (totals <= escape_cap)
            if not keep.all():
                live, Zl, totals = live[keep], Zl.compress(keep, axis=0), totals[keep]
        states = _env_states_for_gen(env, t, states, rng)
        flows = None
        if live.size:
            flows = None if buf is None else buf[:live.size]
            Zl = _generation(Zl, states.take(live), laws, edges, rng, flows)
            totals = _add_columns(Zl)
            Z[live] = Zl
        yield states, live, flows, totals


class _Record:
    """Arrays packed in order into large byte blocks.

    A lineage chunk keeps a few arrays per generation until its backward
    pass; packed, they are a few large allocations, reused by the next
    chunk and freed together, not hundreds of small ones that leave the
    heap fragmented.  Plain per-generation arrays in their place raised
    the ``montecarlo`` benchmark's peak RSS from 53.8-54.4 MB to
    54.6-58.0 MB (6 alternating pairs of 15 s runs on 2 cores).
    """

    def __init__(self):
        self.blocks = []
        self.clear()

    def clear(self) -> None:
        """Drop every array; later ones reuse the blocks from the first."""
        self.at, self.pos = 0, 0

    def empty(self, shape, dtype=float) -> np.ndarray:
        """A packed array, not initialized."""
        dtype = np.dtype(dtype)
        n = math.prod(shape) * dtype.itemsize
        while self.at < len(self.blocks) and self.pos + n > len(self.blocks[self.at]):
            self.at, self.pos = self.at + 1, 0
        if self.at == len(self.blocks):
            self.blocks.append(np.empty(max(RECORD_BLOCK, n), dtype=np.uint8))
        out = np.ndarray(shape, dtype, buffer=self.blocks[self.at], offset=self.pos)
        self.pos += -(-n // 8) * 8  # keep every array 8-byte aligned
        return out

    def put(self, a: np.ndarray, dtype=None) -> np.ndarray:
        """A packed copy of ``a``, as ``dtype`` (default ``a.dtype``)."""
        out = self.empty(a.shape, dtype or a.dtype)
        out[...] = a
        return out


def _propagate(Zf, A, out=None):
    """Expected counts one generation on: column r of ``Zf`` (one row per
    patch) times ``A[:, :, r]`` (or ``A[:, :, 0]`` for every run), summed
    over the source patch in order, one vector add each, which is the order
    ``(Zf.T[:, :, None] * A[s]).sum(axis=1)`` takes, bit for bit."""
    out = np.multiply(A[0], Zf[0], out=out)
    for i in range(1, Zf.shape[0]):
        out += A[i] * Zf[i]
    return out


def _run_chunk(g, env, laws, edges, horizon, n_runs, rng, start_patch, escape_cap,
               record=None):
    """Simulate one chunk of runs; returns per-run summaries.

    Integer counts while the population is below the escape cap; above it,
    counts continue as expected values in floats (and the run is marked
    escaped), in a block with one row per patch and a column per escaped
    run, in the order they escaped.
    Of the total sizes only the growth window [horizon/2, horizon] of the
    surviving runs is returned, since that is all ``simulate`` reads.
    With lineage (given the ``_Record`` to keep it in, which the chunk
    clears first), each generation keeps its live runs (copied again only
    when they changed), their per-edge flows from the driver (as uint32
    when their largest total fits, else int64), and the escaped block
    before the step with the block's states, both made in the record: one
    state per run under a Markov schedule, else the one state of the step.
    """
    K = g.K
    Z = np.zeros((n_runs, K), dtype=np.int64)
    Z[:, start_patch] = 1
    esc = np.zeros(0, dtype=np.intp)
    Zf = np.zeros((K, 0))
    markov = env.schedule.cycle is None
    history = []
    alloc = np.empty if record is None else record.empty
    if record is not None:
        record.clear()
    lo = horizon // 2
    sizes = np.zeros((horizon - lo + 1, n_runs))  # one row per generation of the window
    if lo == 0:
        sizes[0] = 1.0
    A = _patch_means(g, env)[:, :, None] * g.D
    At = A.transpose(1, 2, 0).copy()  # At[i, j, s] = A[s, i, j], state last as in the block
    steps = _steps(Z, env, laws, edges, rng, escape_cap, record is not None)
    stepped = kept = None
    for t, (states, live, born, totals) in zip(range(horizon), steps):
        s = states.take(esc, out=alloc(esc.shape, np.intp)) if markov and esc.size else states[0]
        if record is not None:
            if live is not stepped:
                stepped, kept = live, record.put(live)
            flows = None if born is None else record.put(
                born, np.uint32 if totals.max() <= UINT32_MAX else np.int64)
            history.append((kept, flows, Zf, s))
        if esc.size:
            Zf = _propagate(Zf, At.take(s, axis=2) if markov else At[:, :, s, None],
                            alloc(Zf.shape))
        if t + 1 >= lo:
            sizes[t + 1 - lo, esc] = _add_columns(Zf.T)
            sizes[t + 1 - lo, live] = totals
        newly = live[totals > escape_cap]
        if newly.size:
            esc = np.concatenate([esc, newly])
            Zf = np.concatenate([Zf, Z.take(newly, axis=0).T], axis=1, out=alloc((K, esc.size)))
    escaped = np.zeros(n_runs, dtype=bool)
    escaped[esc] = True
    final = Z.astype(float)
    final[esc] = Zf.T
    alive = final.sum(axis=1) > 0
    lineage_freq = None
    if record is not None:
        lineage_freq = _backward_lineages(history, final, alive, esc, A, edges, rng)
    return alive, escaped, sizes[:, alive].T, lineage_freq


def _backward_lineages(history, final, alive, esc, A, edges, rng):
    """Ancestral patch-visit frequencies of one uniform survivor, one row
    per surviving run.

    A uniform individual's patch is drawn from the final counts; its
    ancestor's patch at each earlier generation follows the column-
    normalized dispersal flow of that generation: the dense K-vector of
    inflow into its patch, in source order, rebuilt from a live run's edge
    flows through ``edges.into``, or ``Zf[:, r] * A[s, :, cur]`` of an
    escaped one.  Lineages go in escape order, escaped survivors first:
    the block only grows and its runs all survive unless their expected
    counts die out, so each generation's escaped lineages are a prefix
    whose columns are its recorded block, read with no mask or gather.
    The uniforms of all the draws come from one ``rng.random`` call, in
    the order one call per draw in run order would take them, with their
    columns permuted; the tallies go back to run order.  Frequencies count
    the horizon + 1 points of the lineage.
    """
    n, K = final.shape
    surv = np.flatnonzero(alive)
    if surv.size == 0:
        return np.zeros((0, K))
    held = alive[esc]  # an escaped run whose expected counts died out holds no lineage
    every = held.all()
    runs = np.concatenate([esc[held], np.setdiff1d(surv, esc, assume_unique=True)])
    col = np.searchsorted(surv, runs)  # each lineage's survivor, in run order
    u = rng.random((len(history) + 1, surv.size)).take(col, axis=1)
    path = np.empty((len(history) + 1, surv.size), dtype=np.intp)
    probs = final.take(runs, axis=0)
    path[0] = cur = _categorical_rows(probs / probs.sum(axis=1, keepdims=True), u[0])
    inflow = A.transpose(1, 0, 2).reshape(K, -1)  # inflow[i, s * K + j] = A[s, i, j]
    cols = np.empty((K, surv.size))
    # row[r]: where live run r's flows start, set for each new (larger) live set
    row, stepped = np.empty(n, dtype=np.intp), None
    for t, (live, born, Zf, s) in enumerate(reversed(history), 1):
        if not every:
            Zf, s = Zf[:, held[:Zf.shape[1]]], s[held[:len(s)]] if np.ndim(s) else s
        m = Zf.shape[1]
        if m:
            np.multiply(Zf, inflow.take(s * K + cur[:m], axis=1), out=cols[:, :m])
        if m < surv.size:
            if live is not stepped:
                stepped = live
                row[live] = np.arange(0, live.size * born.shape[1], born.shape[1])
            cols[:, m:] = born.take(row.take(runs[m:]) + edges.into.take(cur[m:], axis=1))
        colsum = _add_columns(cols.T)
        if not colsum.all():
            # a lineage reaches a patch with no inflow only by rounding in
            # the last category of a draw; it moves to a uniform patch
            none = colsum == 0
            cols[:, none], colsum[none] = 1.0, K
        path[t] = cur = _categorical_rows(np.divide(cols, colsum, out=cols).T, u[t])
    del u
    # one count per (survivor, patch) pair over all the points of the paths
    at = (path + col * K).ravel()
    tallies = np.bincount(at, minlength=surv.size * K).reshape(surv.size, K)
    return tallies / float(len(history) + 1)


def _categorical_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One categorical draw per row of a probability matrix, by uniforms ``u``.

    Counts the partial row sums (``np.cumsum`` order) below each uniform;
    the last partial sum is taken as 1, so it is never counted.  Rows
    shorter than ``SHORT_ROW`` are walked column by column, which costs a
    fraction of numpy's ``cumsum`` over a short axis.
    """
    if probs.shape[1] >= SHORT_ROW:
        return (np.cumsum(probs[:, :-1], axis=1) < u[:, None]).sum(axis=1)
    out, total = np.zeros(u.size, dtype=np.intp), np.zeros(u.size)
    for k in range(probs.shape[1] - 1):
        total += probs[:, k]
        out += total < u
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
    env, laws = _checked_laws(g, env, laws, start_patch)

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
) -> np.ndarray:
    """Per-patch count trajectories for a handful of runs (plot fodder).

    Returns an (n_runs, horizon + 1, K) array; counts freeze once a run
    escapes past the cap.
    """
    horizon, n_runs = _integer(horizon, "horizon"), _integer(n_runs, "n_runs")
    seed, escape_cap = _integer(seed, "seed", 0), _integer(escape_cap, "escape_cap")
    env, laws = _checked_laws(g, env, laws, start_patch)
    Z = np.zeros((n_runs, g.K), dtype=np.int64)
    Z[:, start_patch] = 1
    out = np.zeros((n_runs, horizon + 1, g.K), dtype=np.int64)
    out[:, 0] = Z
    steps = _steps(Z, env, laws, _Edges(g.D), np.random.default_rng([seed, 0]), escape_cap)
    for t, _ in zip(range(1, horizon + 1), steps):
        out[:, t] = Z
    return out


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
) -> tuple[float, float]:
    """Fraction of runs from ``n_initial`` individuals in ``home`` that die out.

    Runs end at extinction or at the escape cap (counted as survival); runs
    still undecided after ``max_generations`` are counted as survivors.
    """
    n_runs, seed = _integer(n_runs, "n_runs"), _integer(seed, "seed", 0)
    n_initial, escape_cap = _integer(n_initial, "n_initial"), _integer(escape_cap, "escape_cap")
    max_generations = _integer(max_generations, "max_generations")
    env, laws = _checked_laws(g, env, laws, home)
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
