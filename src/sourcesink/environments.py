"""Time-varying habitat quality: one schedule type, a Markov chain over phases.

``Periodic`` and ``MarkovSwitching`` build a ``Schedule``, and a fixed
environment is its one-phase case.  A periodic schedule of period P is
the fixed environment of its edge chain, the space-time chain of P*K
patches, which the twisted route solves phase by phase for growth and each
phase's occupancy.  The same questions reduce to K x K ones through the
one-period product of mean matrices: its Perron data carried round the
cycle, and the return home at multiples of P.  A phase's occupancy is a
time average over the lineage's steps at that phase, so it settles on
every irreducible chain and product, periodic or not.  The two-patch
two-state alternation also has a closed form.  On every schedule the
growth exponent is the top Lyapunov exponent along the path, estimated by
simulation, with a closed-form lower bound for two patches under random
switching.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import (ROW_SUM_TOL, MetapopGraph, _as_array, _integer, _json_object, _number,
                    _object, _readonly, _require)
# growth_rate is not called here; it is kept as a name of this module, which
# perfbench's tracer self-test rebinds
from .spectral import SpectralData, _perron_data, growth_rate  # noqa: F401
from .variational import VariationalResult, _twisted_occupancy
from .walks import PersistenceVerdict, WalkConfig, _phase_verdict, _verdict_from_value

LYAPUNOV_BURN_IN = 1000
LYAPUNOV_BATCHES = 100
LYAPUNOV_DEFAULT_STEPS = 10**6
LYAPUNOV_SLAB_BYTES = 1 << 20  # bytes of matrices the Lyapunov kernel reduces at once


@dataclass(frozen=True, eq=False)
class Schedule:
    """A Markov chain over phases: row-stochastic ``T``, the state ``state[p]``
    that phase p applies, and the law ``start`` of the first phase.

    ``cycle``, set once, holds the states of one period from the start if
    ``T`` is a permutation and ``start`` one phase.  Otherwise it is None: the
    chain draws, and must for now be the two-state chain (phase i, state i),
    whose probabilities of leaving each state, ``T[0, 1]`` and ``T[1, 0]``
    bit for bit, ``leave`` holds (None for a cycle).
    """

    T: np.ndarray
    state: tuple[int, ...]
    start: np.ndarray

    def __post_init__(self):
        P = len(self.state)
        T = _readonly(_as_array(self.T, "schedule T"))
        start = _readonly(_as_array(self.start, "schedule start"))
        if T.shape != (P, P) or start.shape != (P,):
            raise ValidationError("schedule needs a P x P matrix T and a start law over P phases")
        laws = np.vstack([T, start])
        if not (np.all(laws >= 0) and np.all(np.abs(laws.sum(axis=1) - 1.0) <= ROW_SUM_TOL)):
            raise ValidationError("schedule T rows and start must be probability laws")
        cycle = None
        if np.isin(laws, (0.0, 1.0)).all() and (T.sum(axis=0) == 1.0).all():
            phases = [int(start.argmax())]
            while (p := int(T[phases[-1]].argmax())) != phases[0]:
                phases.append(p)
            cycle = tuple(self.state[p] for p in phases)
        if cycle is None and tuple(self.state) != (0, 1):
            raise ValidationError("a random schedule must be the two-state chain (0, 1)")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "state", tuple(self.state))
        object.__setattr__(self, "cycle", cycle)
        leave = None if cycle is not None else _readonly(T[[0, 1], [1, 0]])
        object.__setattr__(self, "leave", leave)


def Periodic(order) -> Schedule:
    """Deterministic schedule: state indices applied cyclically per step."""
    P = len(order)
    if P == 0:
        raise ValidationError("periodic schedule must not be empty")
    return Schedule(T=np.roll(np.eye(P), 1, axis=1), state=order, start=np.eye(P)[0])


def MarkovSwitching(alpha: float, beta: float) -> Schedule:
    """Two-state environment chain: alpha = P(e1 -> e2), beta = P(e2 -> e1),
    started at its stationary law (nu, 1 - nu), nu the long-run share of e1."""
    for name, x in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= x <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1]")
    if alpha == 0.0 and beta == 0.0:
        raise ValidationError("environment chain must be able to switch")
    nu = beta / (alpha + beta)
    return Schedule(T=[[1.0 - alpha, alpha], [beta, 1.0 - beta]], state=(0, 1),
                    start=[nu, 1.0 - nu])


@dataclass(frozen=True, eq=False)
class EnvironmentModel:
    """Named environment states with per-state patch means and a schedule."""

    states: tuple[str, ...]
    means: np.ndarray  # (n_states, K)
    schedule: Schedule

    def __post_init__(self):
        means = _as_array(self.means, "environment means")
        if means.ndim != 2 or means.shape[0] != len(self.states):
            raise ValidationError("means must be one row of patch means per state")
        if np.any(means < 0) or not np.all(np.isfinite(means)):
            raise ValidationError("environment means must be finite and >= 0")
        if any(not 0 <= i < len(self.states) for i in self.schedule.state):
            raise ValidationError("schedule names an unknown state")
        try:
            last = {name: i for i, name in enumerate(self.states)}
        except TypeError:  # a name that is not hashable, such as a JSON list
            raise ValidationError("environment state names must be strings or numbers") from None
        for i, name in enumerate(self.states):
            if last[name] != i:
                raise ValidationError(f"environment state {name!r} is named twice")
        object.__setattr__(self, "means", _readonly(means))
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def n_states(self) -> int:
        return len(self.states)


def load_environment(source: str | Path | dict) -> EnvironmentModel:
    """Build an environment model from a JSON file path or parsed dict."""
    source = _json_object(source, "environment", ("states", "means", "schedule"))
    states = source["states"]
    if not isinstance(states, list):
        raise ValidationError("environment states must be a JSON list")
    sched = _object(source["schedule"], "environment schedule")
    if "periodic" in sched:
        if not isinstance(sched["periodic"], list):
            raise ValidationError("periodic schedule must be a JSON list of state names")
        for name in sched["periodic"]:
            if name not in states:
                raise ValidationError(f"periodic schedule names unknown state {name!r}")
        schedule = Periodic(tuple(states.index(name) for name in sched["periodic"]))
    elif "markov" in sched:
        markov = _object(sched["markov"], "markov schedule", ("alpha", "beta"))
        schedule = MarkovSwitching(_number(markov["alpha"], "markov alpha"),
                                   _number(markov["beta"], "markov beta"))
    else:
        raise ValidationError('schedule must contain "periodic" or "markov"')
    return EnvironmentModel(states=states, means=source["means"], schedule=schedule)


def _patch_means(g: MetapopGraph, env: EnvironmentModel) -> np.ndarray:
    """``env.means``, refused unless it has one column per patch of ``g``."""
    if env.means.shape[1] != g.K:
        raise ValidationError(f"environment means cover {env.means.shape[1]} patches, the graph has {g.K}")
    return env.means


def _phase_means(g: MetapopGraph, env: EnvironmentModel, what: str) -> np.ndarray:
    """The P x K patch means of one period of ``env``'s schedule, row t those
    of step t, on ``g``; ``what`` needs a periodic schedule."""
    if env.schedule.cycle is None:
        raise ValidationError(f"{what} needs a periodic schedule")
    return _patch_means(g, env)[list(env.schedule.cycle)]


def periodic_mean_matrix(g: MetapopGraph, env: EnvironmentModel) -> np.ndarray:
    """Ordered product of per-state mean matrices over one schedule period.

    For the canonical two-state alternation this is the two-step mean
    matrix A(e1) A(e2); longer schedules generalize by taking the product
    in schedule order.
    """
    means = _phase_means(g, env, "periodic mean matrix")
    return functools.reduce(np.matmul, means[:, :, None] * g.D)


def two_patch_periodic_criterion(
    M1: float, M2: float, m1: float, m2: float, p: float, q: float
) -> PersistenceVerdict:
    """Exact persistence test for two patches under a two-state alternation.

    M1, M2 are the first patch's means in states e1, e2; m1, m2 the second
    patch's.  Persistence holds iff the two-step trace term exceeds
    min(2, 1 + det of the two-step matrix); the verdict value is that
    ratio, so > 1 means persistence.
    """
    for name, x in (("p", p), ("q", q)):
        if not 0.0 <= x <= 1.0:
            raise ValidationError(f"{name} must lie in [0, 1]")
    for name, x in (("M1", M1), ("M2", M2), ("m1", m1), ("m2", m2)):
        if x < 0:
            raise ValidationError(f"{name} must be >= 0")
    lhs = (
        M1 * M2 * (1.0 - p) ** 2
        + (M1 * m2 + m1 * M2) * p * q
        + m1 * m2 * (1.0 - q) ** 2
    )
    rhs = min(2.0, 1.0 + M1 * M2 * m1 * m2 * (1.0 - p - q) ** 2)
    return _verdict_from_value(lhs / rhs, "periodic-closed-form")


def even_return_functional(
    g: MetapopGraph,
    env: EnvironmentModel,
    home: int = 0,
    cfg: WalkConfig | None = None,
) -> dict[str, PersistenceVerdict]:
    """Persistence via first return of the walker to home at a multiple of the period.

    Observing the population once per period gives a branching process
    whose mean matrix is the ordered one-period product, so the
    fixed-environment return machinery applies to it directly.  Results
    are keyed by the state that starts each phase (the value depends on
    the phase; the persistence verdict does not).  Each key is computed
    once, from the first phase its state starts: the schedule rotated to
    begin there.  The values are exact when ``cfg`` is None, else Monte
    Carlo estimates with ``cfg``'s trials and seed.
    """
    means, cycle = _phase_means(g, env, "even-return analysis"), env.schedule.cycle
    return {env.states[s]: _phase_verdict(g, np.roll(means, -cycle.index(s), axis=0), home, cfg)
            for s in dict.fromkeys(cycle)}


def edge_chain(g: MetapopGraph, env: EnvironmentModel) -> np.ndarray:
    """The space-time chain of a periodic schedule, as its P x K phase means:
    patch s*K + i is patch i at phase s, with the mean phase s applies, and
    disperses by D into phase s + 1 mod P (the Kronecker product of the
    cyclic shift and D, which is never formed).  Its mean matrix to the P-th
    power is block diagonal with each phase's one-period product, so its
    Perron root is rho(product)^(1/P)."""
    return _phase_means(g, env, "the edge chain")


def periodic_growth_and_occupancy(g: MetapopGraph, env: EnvironmentModel,
                                  product: SpectralData | None = None) -> VariationalResult:
    """The twisted route on the edge chain of a periodic schedule: log rho
    per step, and a P x K ``occupancy`` whose row s is the patch occupancy at
    steps s mod P.

    The chain needs positive means, and it is irreducible exactly when the
    one-period product is; its period does not matter, since each phase's
    occupancy is a time average.  It is solved phase by phase at the
    product's root (``product``, its Perron data, if already known), which
    one K x K eigen-solve gives, so the chain costs one bordered LU solve
    and no matrix of P*K patches.  Its log root is still read off its own
    vectors, so a wrong chain shows in the cross-check.
    """
    means = edge_chain(g, env)
    if not means.all():
        raise ValidationError("edge chain needs positive means; a patch has mean 0")
    if product is None:
        A = periodic_mean_matrix(g, env)
        _require(A, "edge chain")
        product = _perron_data(A)
    res = _twisted_occupancy(g.D, means, product.rho)
    occ = res.occupancy.reshape(means.shape)
    return replace(res, occupancy=occ / occ.sum(axis=1, keepdims=True))


def phase_occupancy(g: MetapopGraph, env: EnvironmentModel,
                    product: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """Survivor occupancy of each phase from the one-period product's Perron
    data, with no eigen-solve, periodic product or not.  With A_s the mean
    matrix of phase s, the vectors l_{s+1} ~ l_s A_s and r_s ~ A_s r_{s+1}
    (r_P = r_0) are those of the product from phase s, and row s of the
    P x K first result is l_s r_s normalized.  The K x K second,
    l_0[i] A_0[i, j] r_1[j] normalized, is the frequency of steps i -> j
    from phase 0 to phase 1."""
    mats = _phase_means(g, env, "phase occupancy")[:, :, None] * g.D
    P = len(mats)
    left, right = [product.left] * P, [product.right] * P
    for s in range(1, P):
        x = left[s - 1] @ mats[s - 1]
        left[s] = x / x.sum()
    for s in range(P - 1, 0, -1):
        y = mats[s] @ right[(s + 1) % P]
        right[s] = y / y.sum()
    occ = np.array(left) * np.array(right)
    steps = left[0][:, None] * mats[0] * right[1 % P][None, :]
    return occ / occ.sum(axis=1, keepdims=True), steps / steps.sum()


@dataclass(frozen=True)
class LyapunovEstimate:
    """Simulated growth exponent of a random product of mean matrices."""

    gamma: float
    ci_halfwidth: float
    n_steps: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "ci": self.ci_halfwidth,
            "n_steps": self.n_steps,
            "seed": self.seed,
        }


def _env_path(sched: Schedule, n: int, rng) -> np.ndarray:
    """A length-n path of states, one byte a step for up to 256 states: the
    cycle repeated, in the smallest unsigned type that holds its largest
    state index, or a sample of the two-state chain from its start law,
    whose geometric sojourns (memoryless, so the first is a full draw too)
    are drawn in bulk as whole alternating runs.  Each block of runs becomes
    steps by marking the step where each run ends and the state flips, and a
    running XOR of the marks; only the steps still missing are written, so
    memory follows n, not the mean sojourn 1/alpha, and the draws are those
    of the whole runs."""
    if sched.cycle is not None:
        return np.resize(np.array(sched.cycle, dtype=np.min_scalar_type(max(sched.cycle))), n)
    leave = sched.leave.tolist()
    if min(leave) <= 0.0:
        raise ValidationError("environment chain must be irreducible (alpha, beta > 0)")
    cur = 0 if rng.random() < sched.start[0] else 1
    pieces = []
    total = 0
    while total < n:
        k = max(64, int((n - total) * max(leave) // 2) + 64)
        ends = np.empty(2 * k, dtype=np.int64)
        ends[0::2] = rng.geometric(leave[cur], size=k)
        ends[1::2] = rng.geometric(leave[1 - cur], size=k)
        np.cumsum(ends, out=ends)
        piece = np.zeros(min(int(ends[-1]), n - total), dtype=np.int8)
        piece[ends[: np.searchsorted(ends, piece.size)]] = 1
        np.bitwise_xor.accumulate(piece, out=piece)
        piece ^= cur  # a block holds whole pairs of runs, so each starts in state cur
        pieces.append(piece)
        total += int(ends[-1])
    return np.concatenate(pieces)


def lyapunov_estimate(
    g: MetapopGraph,
    env: EnvironmentModel,
    n_steps: int = LYAPUNOV_DEFAULT_STEPS,
    seed: int = 0,
) -> LyapunovEstimate:
    """Growth exponent of the environment by products over word tables.

    Along one environment path (``_env_path``; a random one draws from
    stream (seed, 0)), the ordered products of the per-state mean matrices
    are formed over the burn-in of 1000 steps and over each of 100 equal
    batches, and a positive row vector is pushed through them with l1
    renormalization; the log growth over a batch equals the sum of the
    step-by-step log renormalizers.  The products are taken over words of
    L steps, each tabulated once (``_batch_log_growth``): L is the largest
    length whose table of S^L matrices (S states) fits in a quarter of
    ``LYAPUNOV_SLAB_BYTES`` and holds no more products than the path has
    words, so each L steps cost one table product.  The exponent is the
    total over the batches divided by their steps (log rho(product) / P on
    a schedule of period P), and the CI comes from the batch means.  When
    the vector vanishes (possible when a state has zero means), it is -inf
    with CI 0.
    """
    _require(g, "Lyapunov estimation")
    n_steps, seed = _integer(n_steps, "n_steps"), _integer(seed, "seed", 0)
    if n_steps <= LYAPUNOV_BURN_IN + LYAPUNOV_BATCHES:
        raise ValidationError("n_steps too small for burn-in plus batching")
    rng = np.random.default_rng([seed, 0])
    w = _env_path(env.schedule, n_steps + LYAPUNOV_BURN_IN, rng)
    batch = n_steps // LYAPUNOV_BATCHES
    used = batch * LYAPUNOV_BATCHES
    mats = _patch_means(g, env)[:, :, None] * g.D
    sums = _batch_log_growth(mats, w[: LYAPUNOV_BURN_IN + used], LYAPUNOV_BURN_IN,
                             LYAPUNOV_BATCHES)
    if np.isneginf(sums).any():
        return LyapunovEstimate(gamma=-math.inf, ci_halfwidth=0.0, n_steps=used, seed=seed)
    gamma = float(sums.sum() / used)
    batch_means = sums / batch
    ci = float(1.96 * batch_means.std(ddof=1) / math.sqrt(LYAPUNOV_BATCHES))
    return LyapunovEstimate(gamma=gamma, ci_halfwidth=ci, n_steps=used, seed=seed)


def _rescale(P: np.ndarray) -> np.ndarray:
    """Divide each K x K matrix of P by the sum of its entries, in place, and
    return the log scales; a zero matrix stays zero with log scale 0."""
    total = P.reshape(*P.shape[:-2], -1) @ np.ones(P.shape[-2] * P.shape[-1])
    total = np.where(total > 0.0, total, 1.0)
    P /= total[..., None, None]
    return np.log(total)


def _ordered_products(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered products along axis 1 of A (rows, n, K, K) by pairwise reduction.

    Every partial product is divided by the sum of its entries and the log
    of that scale is carried, so the result is (scaled products, log scales).
    An odd element joins the last pair; a zero product stays zero.
    """
    logs = np.zeros(A.shape[:2])
    while A.shape[1] > 1:
        h = A.shape[1] // 2
        P = A[:, 0 : 2 * h : 2] @ A[:, 1 : 2 * h : 2]
        lg = logs[:, 0 : 2 * h : 2] + logs[:, 1 : 2 * h : 2]
        if A.shape[1] % 2:
            P[:, -1] = P[:, -1] @ A[:, -1]
            lg[:, -1] += logs[:, -1]
        A, logs = P, lg + _rescale(P)
    return A[:, 0], logs[:, 0]


def _word_length(S: int, K: int, n: int) -> int:
    """Length L of the words ``_batch_log_growth`` tabulates for S states,
    K x K matrices and a path of n steps: the largest L whose table of S^L
    products fits in a quarter of ``LYAPUNOV_SLAB_BYTES`` and holds no more
    products than the path has words (S^L * L <= n), and at least 1.  One
    state is sized as two: its table has one product per length, so the
    two bounds alone would let L, and the build's one step per length,
    grow to the path's length."""
    S = max(S, 2)
    L = 1
    while S ** (L + 1) * K * K * 8 <= LYAPUNOV_SLAB_BYTES // 4 and S ** (L + 1) * (L + 1) <= n:
        L += 1
    return L


def _word_tables(mats: np.ndarray, lengths: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Scaled products and log scales of every word of each length in
    ``lengths`` over the S states of ``mats``, stacked in that order and
    followed by the identity (log scale 0).  Word w of length j has code
    sum_t w_t S^(j-1-t), and the table of length j + 1 is built from the one
    of length j by extension, T[w S + s] = T[w] A_s, each rescaled by
    ``_rescale``.  Only the requested lengths are kept."""
    S, K = mats.shape[:2]
    T = mats.copy()
    logs = _rescale(T)
    kept = {}
    for j in range(1, max(lengths) + 1):
        if j > 1:
            T = (T[:, None] @ mats[None]).reshape(-1, K, K)
            logs = np.repeat(logs, S) + _rescale(T)
        if j in lengths:
            kept[j] = (T, logs)
    return (np.concatenate([kept[j][0] for j in lengths] + [np.eye(K)[None]]),
            np.concatenate([kept[j][1] for j in lengths] + [np.zeros(1)]))


def _word_codes(steps: np.ndarray, S: int, out: np.ndarray) -> None:
    """Write into ``out`` the base-S code of each word along the last axis of
    ``steps`` (first step most significant), by Horner's rule over its
    columns."""
    out[...] = 0
    for j in range(steps.shape[-1]):
        out *= S
        out += steps[..., j]


def _batch_log_growth(mats: np.ndarray, w: np.ndarray, burn: int, n_batches: int) -> np.ndarray:
    """Log l1 growth of the row vector (1/K, ..., 1/K) over each batch of w.

    ``mats`` holds one K x K mean matrix per state and ``w`` the burn-in
    steps followed by ``n_batches`` equal batches of state indices.  The
    kernel reads the path in words of L steps (``_word_length``): it
    tabulates the scaled product of every word of S states once
    (``_word_tables``), for length L and for the remainder lengths of the
    burn-in and of a batch, and codes each segment (the burn-in, then each
    batch) as its full words plus one remainder word.  The word products of
    each segment are cut into pieces of at most one slab of matrices,
    padded with identity words to equal length; the pieces are reduced
    together by ``_ordered_products``, and only the vector pass over the
    piece products is sequential.  The table's log scales join the piece
    scales.  L = 1 reduces the mean matrices themselves.  If the vector
    vanishes, every batch gets -inf.
    """
    S, K = mats.shape[:2]
    L = _word_length(S, K, w.size)
    segments = ((w[:burn], 1), (w[burn:], n_batches))
    lengths = [L] + sorted({seg.size // n_seg % L for seg, n_seg in segments} - {0})
    words, word_logs = _word_tables(mats, lengths)
    offset = dict(zip(lengths, np.cumsum([0] + [S**j for j in lengths]).tolist()))
    pad = words.shape[0] - 1
    slab = max(1, LYAPUNOV_SLAB_BYTES // (8 * K * K))
    x = np.full(K, 1.0 / K)
    for seg, n_seg in segments:
        q, rest = divmod(seg.size // n_seg, L)
        steps = seg.reshape(n_seg, -1)
        n_words = q + (rest > 0)
        pieces = -(-n_words // slab)
        size = -(-n_words // pieces)
        idx = np.full((n_seg, pieces * size), pad, dtype=np.int32)
        _word_codes(steps[:, : q * L].reshape(n_seg, q, L), S, idx[:, :q])
        if rest:
            _word_codes(steps[:, q * L :], S, idx[:, q])
            idx[:, q] += offset[rest]
        idx = idx.reshape(-1, size)
        logs = np.empty(idx.shape[0])
        rows = max(1, slab // size)
        for r in range(0, idx.shape[0], rows):
            block = idx[r : r + rows]
            P, scale = _ordered_products(words[block])
            scale += word_logs[block].sum(axis=1)
            for i in range(P.shape[0]):
                y = x @ P[i]
                s = y.sum()
                if not s > 0.0:
                    return np.full(n_batches, -math.inf)
                x = y / s
                logs[r + i] = math.log(s) + scale[i]
        sums = logs.reshape(n_seg, pieces).sum(axis=1)
    return sums


def random_env_lower_bound(
    M1: float, m2: float, p: float, q: float, alpha: float, beta: float
) -> float:
    """Closed-form lower bound on the growth exponent for two patches.

    Tracks the sub-population that sits in the source during good spells
    and rides out bad spells in the sink; its growth depends only on the
    good-state source mean M1, the bad-state sink mean m2, the dispersal
    rates and the switching rates.  Terms 0 * log(0) vanish; a positive
    coefficient on log(0) makes the bound -inf.
    """
    nu = float(MarkovSwitching(alpha, beta).start[0])
    terms = (
        (nu, M1),
        (1.0 - nu, m2),
        (nu * alpha, p * q),
        (nu * (1.0 - alpha), 1.0 - p),
        ((1.0 - nu) * (1.0 - beta), 1.0 - q),
    )
    out = 0.0
    for coeff, arg in terms:
        if coeff == 0.0:
            continue
        if arg <= 0.0:
            return -math.inf
        out += coeff * math.log(arg)
    return out
