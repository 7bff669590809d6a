"""Persistence via excursions of a single random walker.

The criterion: start one walker in a reference patch, multiply the patch
means it sees strictly between leaving home and first returning, and take
expectations.  The population persists with positive probability exactly
when mean(home) * E[product] exceeds 1.  The expectation solves the linear
system (I - B) G = rhs, B the non-negative sub-matrix of the mean matrix
away from home; when B has spectral radius >= 1 the expectation diverges
and persistence is immediate.

One LU factorization gives the expectation and decides divergence
(``_resolvent``).  It also solves (I - B) x = 1, and I - B is a
nonsingular M-matrix, i.e. rho(B) < 1, exactly when x > 0 (then
Bx = x - 1 < x; Berman & Plemmons 1994, ch. 6).
Since max x = ||(I - B)^-1||_inf >= 1 / (1 - rho(B)), a block within
``CRITICAL_RADIUS_TOL`` of criticality shows as max x >= 1 /
``CRITICAL_RADIUS_TOL`` and counts as divergent.

The criterion is written once, in ``_phase_verdict``, for a schedule of
patch means that repeats with period P: the walker's return then counts
only at multiples of P, and the expectation is that of the one-period
product of mean matrices.  A fixed environment is the case P = 1.

Also here: the two-habitat decomposition of the same quantity through the
sink depleting rate e = E[m^S] (S = sojourn time in sinks between source
visits), Monte Carlo estimation of the excursion product, and raw
excursion sampling for diagnostics.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import MetapopGraph, _integer, _require

# (I - B)^-1 1 reaching 1 / this counts as divergent; it always does once
# rho(B) >= 1 - this
CRITICAL_RADIUS_TOL = 1e-12
CRITICAL_BAND = 1e-9         # |R - 1| inside this band is flagged
CHUNK = 1024                 # Monte Carlo trials per random stream
SINK_MEAN_RTOL = 1e-12       # sink means closer than this count as one mean


@dataclass(frozen=True)
class WalkConfig:
    """Knobs for excursion sampling.

    Trials run in chunks of ``CHUNK``: chunk c (trials c*CHUNK onward)
    draws from stream (seed, c), the layout the branching simulator uses.
    """

    max_steps: int = 10**7
    n_trials: int = 10**5
    seed: int = 0

    def __post_init__(self):
        for name, least in (("max_steps", 1), ("n_trials", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))


@dataclass(frozen=True)
class PersistenceVerdict:
    """Outcome of a persistence computation.

    ``value`` is the excursion functional (>= 0, possibly inf); persistence
    means value > 1.  Results within 1e-9 of the threshold are flagged
    ``near_critical`` and classified as extinction (the critical case dies
    out, and machine precision cannot honestly decide the strict
    inequality inside that band).
    """

    value: float
    persists: bool
    method: str
    ci_halfwidth: float | None = None
    truncated_mass: float | None = None
    near_critical: bool = False

    def to_dict(self) -> dict:
        d = {
            "R": self.value,
            "persists": self.persists,
            "method": self.method,
        }
        if self.ci_halfwidth is not None:
            d["ci"] = self.ci_halfwidth
        if self.truncated_mass is not None:
            d["truncated_mass"] = self.truncated_mass
        if self.near_critical:
            d["near_critical"] = True
        return d


def _verdict_from_value(value: float, method: str, **kw) -> PersistenceVerdict:
    near = math.isfinite(value) and abs(value - 1.0) <= CRITICAL_BAND
    return PersistenceVerdict(
        value=value,
        persists=value > 1.0 + CRITICAL_BAND,
        method=method,
        near_critical=near,
        **kw,
    )


def _resolvent(B: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """G = (I - B)^-1 rhs for a non-negative block B, or None if it diverges.

    One factorization solves (I - B) [x | G] = [1 | rhs].  The answer is
    None when the solve fails, when it is not finite, when x has an entry
    <= 0 (rho(B) >= 1) or when max x >= 1 / ``CRITICAL_RADIUS_TOL``, which
    every block with rho(B) >= 1 - ``CRITICAL_RADIUS_TOL`` reaches.
    """
    n = B.shape[0]
    try:
        X = np.linalg.solve(np.eye(n) - B, np.column_stack([np.ones(n), rhs]))
    except np.linalg.LinAlgError:
        return None
    x = X[:, 0]
    if not np.all(np.isfinite(X)) or x.min() <= 0 or x.max() >= 1.0 / CRITICAL_RADIUS_TOL:
        return None
    return X[:, 1:]


def return_value_matrix(A: np.ndarray, homes: list[int]) -> np.ndarray:
    """First-return mean matrix over a set of home patches.

    Entry (P, Q) is the expected product of means collected on walks that
    leave home patch P and first re-enter the home set at Q (weighted by
    path probability, mean factors included for every patch strictly
    before the return).  All entries are +inf when the away sub-matrix is
    (numerically) critical or supercritical (``_resolvent``).
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[0]
    homes = sorted(set(homes))
    away = [i for i in range(k) if i not in homes]
    if not away:
        return A[np.ix_(homes, homes)].copy()
    G = _resolvent(A[np.ix_(away, away)], A[np.ix_(away, homes)])
    if G is None:
        return np.full((len(homes), len(homes)), math.inf)
    return A[np.ix_(homes, homes)] + A[np.ix_(homes, away)] @ G


def return_functional_exact(g: MetapopGraph, home: int = 0) -> PersistenceVerdict:
    """Exact excursion criterion by linear solve on the away sub-matrix."""
    return _phase_verdict(g, g.m[None, :], home)


def _excursions(
    D: np.ndarray, factors: np.ndarray, home: int, n: int, seed: int, max_steps: int
) -> tuple[np.ndarray, int]:
    """Products of ``n`` sampled excursions from ``home`` and the truncated count.

    Step s multiplies by ``factors[s % P]`` at the patch reached, and the walk
    ends at the first return to home with s % P == 0; step 0 contributes
    ``factors[0, home]``.  Trials run in chunks of ``CHUNK``, chunk c drawing
    from stream (seed, c); inside a chunk every active trial takes its step
    at once and returned trials leave the active set.  A trial still active
    after ``max_steps`` keeps its partial product and counts as truncated.
    """
    cum = np.cumsum(D, axis=1)
    cum[:, -1] = 1.0
    period = factors.shape[0]
    products = np.empty(n)
    truncated = 0
    for c, lo in enumerate(range(0, n, CHUNK)):
        rng = np.random.default_rng([seed, c])
        trial = np.arange(lo, min(lo + CHUNK, n))
        pos = np.full(trial.size, home)
        prod = np.full(trial.size, factors[0, home])
        for s in range(1, max_steps + 1):
            u = rng.random(trial.size)
            pos = (cum[pos] <= u[:, None]).sum(axis=1)
            if s % period == 0:
                back = pos == home
                if back.any():
                    products[trial[back]] = prod[back]
                    away = ~back
                    trial, pos, prod = trial[away], pos[away], prod[away]
                    if trial.size == 0:
                        break
            prod *= factors[s % period, pos]
        products[trial] = prod
        truncated += trial.size
    return products, truncated


def _mc_verdict(products: np.ndarray, truncated: int) -> PersistenceVerdict:
    """Mean of the sampled excursion products with its 95% normal CI."""
    n = products.size
    est = float(products.mean())
    ci = float(1.96 * products.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return PersistenceVerdict(
        value=est,
        persists=est > 1.0,
        method="monte-carlo",
        ci_halfwidth=ci,
        truncated_mass=truncated / n,
    )


def return_functional_mc(
    g: MetapopGraph, home: int = 0, cfg: WalkConfig | None = None
) -> PersistenceVerdict:
    """Monte Carlo estimate of the excursion functional.

    Each trial walks one excursion from home and multiplies the means it
    visits; excursions hitting the step cap contribute their partial
    product and are counted in ``truncated_mass``.  The CI is the 95%
    normal-approximation halfwidth.
    """
    return _phase_verdict(g, g.m[None, :], home, cfg or WalkConfig())


def _phase_verdict(
    g: MetapopGraph, means: np.ndarray, home: int, cfg: WalkConfig | None = None
) -> PersistenceVerdict:
    """The return criterion of a periodic schedule.

    Row t of ``means`` (P x K) holds the patch means of step t of the
    period; a fixed environment is the one-row case.  The walker returns
    home at a multiple of P: the value is exact, that of the one-period
    product of mean matrices, when ``cfg`` is None, else the Monte Carlo
    estimate.
    """
    _require(g, "persistence criterion", home=home)
    if cfg is None:
        R = return_value_matrix(functools.reduce(np.matmul, means[:, :, None] * g.D), [home])
        return _verdict_from_value(float(R[0, 0]), "exact-linear-system")
    return _mc_verdict(*_excursions(g.D, means, home, cfg.n_trials, cfg.seed, cfg.max_steps))


def depleting_rate(g: MetapopGraph) -> float:
    """Sink depleting rate e = E[m^S] for a one-source/one-sink-type graph.

    Patch 0 must be the lone distinguished patch and every other patch must
    share one mean m.  Solves the first-passage system for a_j = E[m^(time
    to hit patch 0) | start j] over sink patches, then averages over the
    source's dispersal kernel.  Returns +inf when the sink block is
    supercritical (m too large for the sink geometry).
    """
    if g.K < 2:
        raise ValidationError("depleting rate needs at least one sink patch")
    sink_means = g.m[1:]
    if np.ptp(sink_means) > SINK_MEAN_RTOL * max(1.0, abs(float(sink_means[0]))):
        raise ValidationError("all sink patches must share a single mean")
    _require(g, "depleting rate")
    m = float(sink_means[0])
    p = float(g.D[0, 1:].sum())  # > 0, as patch 0 of an irreducible graph reaches the sinks
    a = _resolvent(m * g.D[1:, 1:], m * g.D[1:, :1])
    if a is None:
        return math.inf
    return float(g.D[0, 1:] @ a[:, 0] / p)


@dataclass(frozen=True)
class Excursion:
    """One sampled walk from home back to home (interior avoids home)."""

    path: tuple[int, ...]
    T: int
    truncated: bool


def _excursion_walk(g: MetapopGraph, home: int, seed: int, max_steps: int) -> Iterator[int]:
    """The patches of one excursion from ``home``, one at a time: home, then
    each step up to the first return or ``max_steps`` steps.  The graph and
    the arguments are checked before the walk is returned."""
    _require(g, "excursion sampling", home=home)
    max_steps = _integer(max_steps, "max_steps")
    rng = np.random.default_rng([_integer(seed, "seed", 0), 0])
    cum = np.cumsum(g.D, axis=1)
    cum[:, -1] = 1.0
    cum_rows = [row.tolist() for row in cum]

    def walk():
        pos = home
        yield pos
        for _ in range(max_steps):
            pos = bisect.bisect_right(cum_rows[pos], rng.random())
            yield pos
            if pos == home:
                return

    return walk()


def sample_excursion(
    g: MetapopGraph, home: int = 0, seed: int = 0, max_steps: int = 10**7
) -> Excursion:
    """Draw one excursion; the path starts at home and, unless truncated,
    ends with the first return to home."""
    path = tuple(_excursion_walk(g, home, seed, max_steps))
    return Excursion(path=path, T=len(path) - 1, truncated=path[-1] != home)
