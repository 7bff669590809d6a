"""Time-varying habitat quality: one schedule type, a Markov chain over phases.

``Periodic`` and ``MarkovSwitching`` build a ``Schedule``, and a fixed
environment is its one-phase case.  A periodic schedule of period P reduces
to the fixed environment through the one-period product of mean matrices and
the return home at multiples of P; the two-state alternation also has the
edge chain of patch pairs and a two-patch closed form.  On every schedule
the growth exponent is the top Lyapunov exponent along the path, estimated
by simulation, with a closed-form lower bound for two patches under random
switching.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import (ROW_SUM_TOL, MetapopGraph, _as_array, _integer, _json_object, _number,
                    _object, _readonly, _require)
from .spectral import SpectralData, growth_rate
from .variational import _twisted_occupancy
from .walks import PersistenceVerdict, WalkConfig, _phase_verdicts, _verdict_from_value

LYAPUNOV_BURN_IN = 1000
LYAPUNOV_BATCHES = 100
LYAPUNOV_DEFAULT_STEPS = 10**6
LYAPUNOV_SLAB_BYTES = 1 << 20  # bytes of matrices the Lyapunov kernel reduces at once


@dataclass(frozen=True)
class Schedule:
    """A Markov chain over phases: row-stochastic ``T``, the state ``state[p]``
    that phase p applies, and the law ``start`` of the first phase.

    ``cycle``, set once, holds the states of one period from the start if
    ``T`` is a permutation and ``start`` one phase.  Otherwise it is None: the
    chain draws, and must for now be the two-state chain (phase i, state i).
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


@dataclass(frozen=True)
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
        try:
            index = {s: i for i, s in enumerate(states)}
            order = tuple(index[s] for s in sched["periodic"])
        except (KeyError, TypeError) as e:  # TypeError: a state name that is not hashable
            raise ValidationError(f"periodic schedule names unknown state {e}") from None
        schedule = Periodic(order)
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


def state_mean_matrix(g: MetapopGraph, env: EnvironmentModel, state: int) -> np.ndarray:
    """Mean matrix in one environment state: means[state][i] * D[i, j]."""
    return _patch_means(g, env)[state][:, None] * g.D


def periodic_mean_matrix(g: MetapopGraph, env: EnvironmentModel) -> np.ndarray:
    """Ordered product of per-state mean matrices over one schedule period.

    For the canonical two-state alternation this is the two-step mean
    matrix A(e1) A(e2); longer schedules generalize by taking the product
    in schedule order.
    """
    cycle = env.schedule.cycle
    if cycle is None:
        raise ValidationError("periodic mean matrix needs a periodic schedule")
    return functools.reduce(np.matmul, [state_mean_matrix(g, env, s) for s in cycle])


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
    the phase; the persistence verdict does not); a state that starts
    several phases reports its first.  The values are exact when ``cfg``
    is None, else Monte Carlo estimates with ``cfg``'s trials and seed.
    """
    cycle = env.schedule.cycle
    if cycle is None:
        raise ValidationError("even-return analysis needs a periodic schedule")
    out: dict[str, PersistenceVerdict] = {}
    for s, v in zip(cycle, _phase_verdicts(g, _patch_means(g, env)[list(cycle)], home, cfg)):
        out.setdefault(env.states[s], v)
    return out


@dataclass(frozen=True)
class EdgeChainResult:
    """Edge-chain variational output for a two-state periodic environment.

    ``two_log_growth`` is the maximum of payoff minus cost over edge
    frequencies, which equals 2 log(rho); ``occupancy_edges`` is the K x K
    matrix of optimal pair frequencies (zero on non-edges), and the two
    marginals are the patch occupancies at even and odd steps.  The
    two-step product's Perron data (``product``) and growth rate ride along
    as a cross-check; ``residual`` is the max-norm residual / root of the
    twisted chain's Perron vector, solved at the product's root.
    """

    two_log_growth: float
    log_growth: float
    occupancy_edges: np.ndarray
    marginal_even: np.ndarray
    marginal_odd: np.ndarray
    log_growth_spectral: float
    residual: float
    product: SpectralData


def edge_chain(g: MetapopGraph, env: EnvironmentModel) -> tuple[MetapopGraph, list[tuple[int, int]]]:
    """The chain of consecutive patch pairs, packaged as a graph.

    States are the ordered pairs (i, j) with D[i, j] > 0 (other pairs are
    never visited); transition ((i, j) -> (k, l)) = D[j, k] D[k, l]; the
    per-state mean is m_i(e1) m_j(e2), the two-generation factor the pair
    contributes.
    """
    cycle = env.schedule.cycle
    if cycle is None or len(cycle) != 2:
        raise ValidationError("the edge chain needs a two-state alternation")
    ma, mb = _patch_means(g, env)[list(cycle)]
    I, J = np.nonzero(g.D > 0)
    pairs = list(zip(I.tolist(), J.tolist()))
    B = g.D[np.ix_(J, I)] * g.D[I, J][None, :]
    m_edge = ma[I] * mb[J]
    labels = tuple(f"{i}->{j}" for (i, j) in pairs)
    return MetapopGraph(m=m_edge, D=B, labels=labels), pairs


def periodic_growth_and_occupancy(g: MetapopGraph, env: EnvironmentModel) -> EdgeChainResult:
    """Edge-chain variational solution of a two-state periodic environment.

    Requires a primitive edge chain with positive means, which on an
    irreducible graph is positive means in the applied states (a periodic
    edge chain is rejected, matching the fixed-environment rule).
    The twisted chain of the edge chain has the two-step product's Perron
    root, which one K x K eigen-solve gives, so its Perron vector is one
    bordered LU solve at that root rather than an eigen-solve of the
    (up to K^2)-state chain.  The edge chain's log root is still read off
    its own vectors, so a wrong chain shows in the cross-check.
    """
    eg, pairs = edge_chain(g, env)
    _require(eg, "edge chain", aperiodic=True, positive=True)
    product = growth_rate(periodic_mean_matrix(g, env))
    res = _twisted_occupancy(eg, product.rho)
    phi = np.zeros((g.K, g.K))
    for (i, j), val in zip(pairs, res.occupancy):
        phi[i, j] = val
    return EdgeChainResult(
        two_log_growth=res.log_growth,
        log_growth=0.5 * res.log_growth,
        occupancy_edges=phi,
        marginal_even=phi.sum(axis=1),
        marginal_odd=phi.sum(axis=0),
        log_growth_spectral=0.5 * math.log(product.rho),
        residual=res.residual,
        product=product,
    )


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
    """A length-n path of states: the cycle repeated, or a sample of the
    two-state chain from its start law, whose geometric sojourns (memoryless,
    so the first is a full draw too) are drawn in bulk as whole alternating
    runs and expanded with repeat."""
    if sched.cycle is not None:
        return np.resize(np.array(sched.cycle), n)
    leave = sched.T[[0, 1], [1, 0]].tolist()  # off the diagonal: alpha and beta, bit for bit
    if min(leave) <= 0.0:
        raise ValidationError("environment chain must be irreducible (alpha, beta > 0)")
    cur = 0 if rng.random() < sched.start[0] else 1
    pieces = []
    total = 0
    while total < n:
        k = max(64, int((n - total) * max(leave) // 2) + 64)
        lens = np.empty(2 * k, dtype=np.int64)
        lens[0::2] = rng.geometric(leave[cur], size=k)
        lens[1::2] = rng.geometric(leave[1 - cur], size=k)
        states = np.empty(2 * k, dtype=np.int8)
        states[0::2] = cur
        states[1::2] = 1 - cur
        pieces.append(np.repeat(states, lens))
        total += int(lens.sum())
    return np.concatenate(pieces)[:n]


def lyapunov_estimate(
    g: MetapopGraph,
    env: EnvironmentModel,
    n_steps: int = LYAPUNOV_DEFAULT_STEPS,
    seed: int = 0,
) -> LyapunovEstimate:
    """Growth exponent of the environment by block products.

    Along one environment path (``_env_path``; a random one draws from
    stream (seed, 0)), the ordered products of the per-state mean matrices
    are formed over the burn-in of 1000 steps and over each of 100 equal
    batches, and a positive row vector is pushed through them with l1
    renormalization; the log growth over a batch equals the sum of the
    step-by-step log renormalizers.  The exponent is the total over the
    batches divided by their steps (log rho(product) / P on a schedule of
    period P), and the CI comes from the batch means.  When the vector
    vanishes (possible when a state has zero means), it is -inf with CI 0.
    """
    _require(g, "Lyapunov estimation")
    n_steps, seed = _integer(n_steps, "n_steps"), _integer(seed, "seed", 0)
    if n_steps <= LYAPUNOV_BURN_IN + LYAPUNOV_BATCHES:
        raise ValidationError("n_steps too small for burn-in plus batching")
    rng = np.random.default_rng([seed, 0])
    w = _env_path(env.schedule, n_steps + LYAPUNOV_BURN_IN, rng)
    batch = n_steps // LYAPUNOV_BATCHES
    used = batch * LYAPUNOV_BATCHES
    mats = np.stack([state_mean_matrix(g, env, s) for s in range(env.n_states)])
    sums = _batch_log_growth(mats, w[: LYAPUNOV_BURN_IN + used], LYAPUNOV_BURN_IN,
                             LYAPUNOV_BATCHES)
    if np.isneginf(sums).any():
        return LyapunovEstimate(gamma=-math.inf, ci_halfwidth=0.0, n_steps=used, seed=seed)
    gamma = float(sums.sum() / used)
    batch_means = sums / batch
    ci = float(1.96 * batch_means.std(ddof=1) / math.sqrt(LYAPUNOV_BATCHES))
    return LyapunovEstimate(gamma=gamma, ci_halfwidth=ci, n_steps=used, seed=seed)


def _ordered_products(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered products along axis 1 of A (rows, n, K, K) by pairwise reduction.

    Every partial product is divided by the sum of its entries and the log
    of that scale is carried, so the result is (scaled products, log scales).
    An odd element joins the last pair; a zero product stays zero.
    """
    logs = np.zeros(A.shape[:2])
    ones = np.ones(A.shape[2] * A.shape[3])
    while A.shape[1] > 1:
        h = A.shape[1] // 2
        P = A[:, 0 : 2 * h : 2] @ A[:, 1 : 2 * h : 2]
        lg = logs[:, 0 : 2 * h : 2] + logs[:, 1 : 2 * h : 2]
        if A.shape[1] % 2:
            P[:, -1] = P[:, -1] @ A[:, -1]
            lg[:, -1] += logs[:, -1]
        total = P.reshape(*P.shape[:2], -1) @ ones
        total = np.where(total > 0.0, total, 1.0)
        P /= total[:, :, None, None]
        A, logs = P, lg + np.log(total)
    return A[:, 0], logs[:, 0]


def _batch_log_growth(mats: np.ndarray, w: np.ndarray, burn: int, n_batches: int) -> np.ndarray:
    """Log l1 growth of the row vector (1/K, ..., 1/K) over each batch of w.

    ``mats`` holds one K x K mean matrix per state and ``w`` the burn-in
    steps followed by ``n_batches`` equal batches of state indices.  Each
    segment (the burn-in, then each batch) is cut into pieces of at most
    one slab of matrices, padded with identity steps to equal length; the
    pieces are reduced together by ``_ordered_products``, and only the
    vector pass over the piece products is sequential.  If the vector
    vanishes, every batch gets -inf.
    """
    K = mats.shape[1]
    mats = np.concatenate([mats, np.eye(K)[None]])
    pad = mats.shape[0] - 1
    slab = max(1, LYAPUNOV_SLAB_BYTES // (8 * K * K))
    x = np.full(K, 1.0 / K)
    for seg, n_seg in ((w[:burn], 1), (w[burn:], n_batches)):
        L = seg.size // n_seg
        pieces = -(-L // slab)
        size = -(-L // pieces)
        idx = np.full((n_seg, pieces * size), pad, dtype=w.dtype)
        idx[:, :L] = seg.reshape(n_seg, L)
        idx = idx.reshape(-1, size)
        logs = np.empty(idx.shape[0])
        rows = max(1, slab // size)
        for r in range(0, idx.shape[0], rows):
            P, scale = _ordered_products(mats[idx[r : r + rows]])
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
