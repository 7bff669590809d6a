"""Growth rate and lineage occupancy as a cost/payoff trade-off.

A walker that exhibits occupancy frequencies f pays an exponential
likelihood cost I(f) (zero exactly at the stationary law) and earns a
reproductive payoff R(f) = sum_i f_i log m_i.  The metapopulation growth
rate satisfies log(rho) = max over the simplex of R - I, attained at a
unique interior occupancy vector, which is also the asymptotic ancestral
occupancy of a random survivor.

Two independent solvers are provided and kept deliberately separate so
they can cross-check each other:

* ``max_rate_gap``: direct maximization of R - I over the simplex by
  damped Newton steps in occupancy space.  Each cost I(f) is a concave
  inner supremum, solved by one regularized Newton loop in
  log-coordinates (``_inner_solve``); the Hessian of I comes from
  implicit differentiation of that inner optimum;
* ``argmax_occupancy``: closed-form route through two twisted chains
  (column-rescaled and doubly-rescaled transition matrices) whose Perron
  vectors give the inner maximizer and the occupancy directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .graph import (
    MetapopGraph,
    _bordered_perron,
    _levels,
    _perron,
    _require,
    as_frequencies,
    stationary_distribution,
)

INNER_RES_TOL = 1e-11
# Concavity gives the certificate J(f*) - J(f) <= max(grad) - grad . f; the
# outer solver stops when that duality gap bounds the value error this
# tightly.  The realized value error sits far below the certificate.
OUTER_GAP_TOL = 1e-7
# The Newton decrement d^T hess I d is about twice the remaining value
# error; 1e-16 pins the argmax even where the gap is tiny from the start.
# Near the simplex boundary it weighs tiny coordinates by 1/f, so a Newton
# step d below _STEP_TOL (the argmax error it predicts) pins it as well.
_DECREMENT_TOL = 1e-16
_STEP_TOL = 1e-12
# Below this decrement a full step's gain is too near float noise in J (or
# in the inner objective) for backtracking to judge; Newton is then deep in
# its quadratic region.  Both Newton loops then take full steps.
_POLISH_DECREMENT = 1e-12
# gains of J below this, relative to 1 + |J|, are float noise
_J_NOISE = 1e-15
# Step cap of both Newton loops.  The outer one takes at most 10 steps on
# the benchmark graphs and 23 on 200 random test graphs, and the cap ends
# its slow crawl to a maximizer at the simplex boundary.
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True, eq=False)
class RateEvaluation:
    """Cost I(f), payoff R(f) and the inner maximizer at one frequency vector.

    ``v_star`` is gauged so its last supported coordinate equals 1 (the
    inner problem is scale-free).  ``boundary`` marks frequency vectors
    with zero entries, where the supremum may only be attained in a limit.
    """

    f: np.ndarray
    cost: float
    payoff_value: float
    v_star: np.ndarray
    boundary: bool
    iterations: int


@dataclass(frozen=True, eq=False)
class VariationalResult:
    """A solved max of R - I: the growth exponent and where it is attained."""

    log_growth: float
    occupancy: np.ndarray
    method: str
    iterations: int = 0
    gap: float | None = None  # certified value error bound (simplex route)
    residual: float | None = None  # max-norm residual / root of D' at v (twisted route)
    inner_steps: int = 0  # inner Newton steps over the ascent (simplex route)


def payoff(g: MetapopGraph, f) -> float:
    """R(f) = sum_i f_i log m_i, with 0 * log 0 = 0 and -inf when a zero-mean
    patch carries positive frequency."""
    f = as_frequencies(f, g.K)
    out = 0.0
    for fi, mi in zip(f, g.m):
        if fi == 0.0:
            continue
        if mi == 0.0:
            return -math.inf
        out += fi * math.log(mi)
    return out


def idt_residual(D: np.ndarray, f: np.ndarray, v: np.ndarray) -> float:
    """Max-norm residual of the inner stationarity condition on supp(f)."""
    sup = np.where(f > 0)[0]
    Dss = D[np.ix_(sup, sup)]
    fs = f[sup]
    vs = v[sup]
    vD = vs @ Dss
    res = fs / vs - Dss @ (fs / vD)
    return float(np.abs(res).max())


# Log-coordinates of the inner variable are clamped to this range (after
# shifting the max to 0).  Needs to keep (v D)^2 away from float underflow;
# any realizable f on graphs with dispersal entries >= 1e-12 sits well
# inside: f is unrealizable once its solve passes the cost bound or stalls at the floor.
_XI_RANGE = 150.0


def _clamp(xi: np.ndarray) -> np.ndarray:
    xi = xi - xi.max()
    return np.maximum(xi, -_XI_RANGE)


def _inner_hessian(Dss, fs, v, vD, denom):
    """Hessian of the inner objective fs . (xi - log(v Dss)) in xi = log v."""
    H = (v[:, None] * v[None, :]) * (Dss @ ((fs / (vD * vD))[:, None] * Dss.T))
    H[np.diag_indices(v.size)] -= v * denom
    return H


def _inner_solve(Dss, fs, v0, bound, tails=None):
    """Solve the inner supremum on the support of f.

    Regularized Newton ascent of the concave objective fs . (xi - log(v Dss))
    in xi = log v, started from v0 or else from v = fs (the exact maximizer
    at the stationary law).  With g the gradient and H the Hessian, each
    step solves (lam I - H) d = g with lam = max g^2 (Mishchenko, SIAM J.
    Optim. 33, 2023): defined where H is singular, and plain Newton as
    g -> 0.  Each class indicator of ``tails`` (``_ties``; one class if
    None) is a null direction, so each class pins its heaviest coordinate.
    Steps backtrack on the objective (Armijo 0.25) until the decrement
    g . d drops below float resolution, after which full steps are taken;
    the accepted trial's v and v Dss carry over to the next step.  Stops
    once the relative residual
    max_j |v_j (Dss (fs / v Dss))_j / fs_j - 1| is within ``INNER_RES_TOL``
    and returns (cost, v, steps taken); the cost is +inf once the objective
    climbs past ``bound``, or if the solve stalls (step cap, or no step raises
    it) with a coordinate at the clamp floor: no circulation on the support
    carries f.  Other stalls raise ``ConvergenceError`` with that residual.
    """
    s = fs.size
    xi = _clamp(np.log(fs if v0 is None else v0))
    keep = np.ones(s, dtype=bool)
    keep[np.argmax(fs if tails is None else tails * fs, axis=-1)] = False
    free = np.flatnonzero(keep)
    v = np.exp(xi)
    vD = v @ Dss
    obj = float(fs @ (xi - np.log(vD)))
    for it in range(_NEWTON_MAX_ITER + 1):
        denom = Dss @ (fs / vD)
        rel = float(np.abs(v * denom / fs - 1.0).max())
        if rel <= INNER_RES_TOL:
            return obj, v, it
        if it == _NEWTON_MAX_ITER:
            break
        g = (fs - v * denom)[free]
        A = -_inner_hessian(Dss, fs, v, vD, denom).take(free, 0).take(free, 1)
        A.flat[::free.size + 1] += float(np.abs(g).max()) ** 2  # lam I - H on the free block
        d = np.zeros(s)
        try:
            d[free] = step = np.linalg.solve(A, g)
        except np.linalg.LinAlgError:  # a singular Newton system stalls the solve
            break
        decrement = float(g @ step)
        polish = decrement <= _POLISH_DECREMENT
        t = 1.0
        while t >= 1e-12:
            xi_new = _clamp(xi + t * d)
            v_new = np.exp(xi_new)
            vD_new = v_new @ Dss
            obj_new = float(fs @ (xi_new - np.log(vD_new)))
            if math.isfinite(obj_new) and (polish or obj_new >= obj + 0.25 * t * decrement):
                break
            t *= 0.5
        else:
            break
        xi, obj, v, vD = xi_new, obj_new, v_new, vD_new
        if obj > bound:
            return math.inf, v, it + 1
    if xi.min() <= -_XI_RANGE:  # the supremum lies past every realizable optimum
        return math.inf, v, it
    raise ConvergenceError("inner rate-function solve did not converge", residual=rel)


def _cost_bound(D: np.ndarray) -> float:
    """The inner objective above which ``_inner_solve`` calls f unrealizable."""
    return math.log(1.0 / float(D[D > 0].min())) + 5.0


def _cost(D: np.ndarray, f: np.ndarray, bound: float, v0: np.ndarray | None = None, ties=None):
    """(I(f), inner vector, inner steps) on a checked graph (irreducible, so a full
    support has inflow everywhere), ``bound`` = ``_cost_bound(D)``, from ``v0`` if given.
    The ties are those of the support: ``ties`` = ``_ties(D)`` on a full one if given,
    else computed; one pin per tail class on a tied support."""
    sup = np.flatnonzero(f)
    full = sup.size == f.size
    Dss, fs = (D, f) if full else (D[np.ix_(sup, sup)], f[sup])
    # unrealizable: a supported patch with no inflow from the support, or f off a tie of the support
    if not full and np.any(Dss.sum(axis=0) == 0.0):
        return math.inf, _embed(np.ones(sup.size), sup, f.size), 0
    rows, tails = ties if full and ties is not None else _ties(Dss)
    if rows.size and abs(rows @ fs).max() > 1e-12:
        return math.inf, _embed(np.ones(sup.size), sup, f.size), 0
    cost, vs, iters = _inner_solve(Dss, fs, None if v0 is None else v0[sup], bound,
                                   tails if rows.size else None)
    if -1e-12 < cost < 0.0:
        cost = 0.0
    return cost, _embed(vs, sup, f.size), iters


def _embed(vs: np.ndarray, sup: np.ndarray, k: int) -> np.ndarray:
    v = np.zeros(k)
    v[sup] = vs
    return v


def rate_function(g: MetapopGraph, f) -> RateEvaluation:
    """Cost I(f) of an occupancy scheme, with the attaining inner vector.

    The inner concave supremum is solved on the support of f until its
    relative stationarity residual falls below ``INNER_RES_TOL``.  I(f) =
    +inf when no walk can realize f (a supported patch unreachable from the
    support, or no circulation on the support with marginal f).
    """
    _require(g, "rate function")
    f = as_frequencies(f, g.K)
    cost, v, iters = _cost(g.D, f, _cost_bound(g.D))
    sup = np.where(v > 0)[0]
    v_gauged = v.copy()
    if math.isfinite(cost):
        v_gauged[sup] = v[sup] / v[sup][-1]
    return RateEvaluation(
        f=f,
        cost=cost,
        payoff_value=payoff(g, f),
        v_star=v_gauged,
        boundary=bool(sup.size < g.K),
        iterations=iters,
    )


def _ties(D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact linear ties of realizable occupancies, and the tail classes.

    Realizable long-run occupancies are the vertex marginals of circulations
    on the support graph.  Link tail i to head K + j per edge i -> j: in a
    component of that bipartite graph with tails T and heads H, the flow out
    of T is the flow into H, so (1_T - 1_H) . f = 0 (e.g. a patch fed only by
    an out-degree-one patch visits in lockstep with it).  Returns these rows
    but the last (they sum to zero; K minus their count is the rank of the
    marginal image, none on a one-component graph) and each component's tail
    indicator; the tails partition the patches.  One breadth-first search
    over the adjacency [[0, S], [S^T, 0]] per component.
    """
    S = D > 0
    k = S.shape[0]
    B = np.zeros((2 * k, 2 * k), dtype=bool)
    B[:k, k:], B[k:, :k] = S, S.T
    seen, comps = np.zeros(2 * k, dtype=bool), []
    while not seen[:k].all():
        comps.append(_levels(B, int(np.argmin(seen))) >= 0)
        seen |= comps[-1]
    C = np.array(comps)
    return C[:-1, :k] - C[:-1, k:].astype(float), C[:, :k]


def _rate_hessian(D: np.ndarray, f: np.ndarray, v: np.ndarray, vD: np.ndarray,
                  free: np.ndarray) -> np.ndarray:
    """Hessian -C H^-1 C^T of I at an interior f, by implicit differentiation.

    H is the inner Hessian in xi = log v at the optimum and C[i, k] =
    d(xi_i - log (vD)_i)/d xi_k = delta_ik - v_k D_ki / (vD)_i.  Each tail
    class indicator of ``_ties`` is a null direction of H, which C maps to a
    tie row, so one coordinate per class is pinned: only ``free`` ones enter.
    """
    Ct = D * -v[:, None] / vD[None, :]  # C^T
    Ct[np.diag_indices(f.size)] += 1.0
    H = _inner_hessian(D, f, v, vD, D @ (f / vD))
    Cp = Ct.take(free, 0)
    return -Cp.T @ np.linalg.solve(H.take(free, 0).take(free, 1), Cp)


def max_rate_gap(g: MetapopGraph) -> VariationalResult:
    """Maximize R - I over the realizable occupancies by damped Newton steps.

    Starts at the stationary law (always feasible, always interior).  Each
    step solves [hess I, 1, T^T; 1^T, 0, 0; T, 0, 0] [d; mu; lam] =
    [grad J; 0; 0] for J = R - I (``_rate_hessian``) and the tie rows T of
    ``_ties`` (every periodic graph has some: each of its d cyclic classes
    carries mass 1/d), caps the step at 0.99 of the way to the simplex
    boundary and backtracks on J; once the Newton decrement d^T hess I d
    is too small for J to resolve, it takes full steps.  A trial point's
    inner solve starts from v f_new / f, which follows the inner maximizer
    (v = f at the stationary law) as f moves; the ties and the cost bound
    are computed once, and ``inner_steps`` totals the steps of every inner
    solve that returned, +inf ones included.  It stops when the duality gap
    max(c) - f . c of c = grad J - T^T lam is within ``OUTER_GAP_TOL`` and
    the decrement or the step is below its tolerance, or at a float plateau
    with the gap certified.  The gap alone is not enough: on weakly coupled
    graphs it is below ``OUTER_GAP_TOL`` at the stationary start, far from
    the maximizer.  The occupancy matches the twisted route within 3.7e-7
    (K = 63, dispersal entries down to 3.2e-13).  Raises ``ConvergenceError``
    with the final gap as residual when Newton stalls uncertified, as when
    the maximizer lies within float resolution of the simplex boundary.
    """
    _require(g, "simplex ascent", positive=True)
    k = g.K
    logm = np.log(g.m)
    bound = _cost_bound(g.D)
    ties = rows, tails = _ties(g.D)
    free = np.delete(np.arange(k), k - 1 - np.argmax(tails[:, ::-1], axis=1))  # pin classes' last
    # keeps f on the slice: off it by delta, a class pinned at f_i has inner residual delta / f_i
    lift = np.linalg.solve(rows @ rows.T, rows).T
    inner_steps = 0

    def evaluate(f, v_warm):
        nonlocal inner_steps
        cost, v, steps = _cost(g.D, f, bound, v_warm, ties)
        inner_steps += steps
        return float(f @ logm) - cost, v

    f = stationary_distribution(g)
    f = f - lift @ (rows @ f)
    obj, v = evaluate(f, None)
    kkt = np.zeros((k + 1 + len(rows),) * 2)
    kkt[:k, k] = kkt[k, :k] = 1.0
    kkt[k + 1:, :k] = rows
    kkt[:k, k + 1:] = rows.T
    gap = decrement = math.inf
    for it in range(1, _NEWTON_MAX_ITER + 1):
        vD = v @ g.D
        grad = logm - (np.log(v) - np.log(vD))
        try:
            hess = _rate_hessian(g.D, f, v, vD, free)
            kkt[:k, :k] = hess
            sol = np.linalg.solve(kkt, np.append(grad, np.zeros(len(kkt) - k)))
        except np.linalg.LinAlgError:
            break
        d = sol[:k] - lift @ (rows @ sol[:k])
        cert = grad - sol[k + 1:] @ rows
        gap = float(cert.max() - f @ cert)
        decrement = float(d @ hess @ d)
        pinned = decrement <= _DECREMENT_TOL or np.abs(d).max() <= _STEP_TOL
        if gap <= OUTER_GAP_TOL and pinned:
            return VariationalResult(obj, f, "simplex-optimize", it, gap, inner_steps=inner_steps)
        if not math.isfinite(decrement):
            break
        neg = d < 0.0
        t = min(1.0, 0.99 * float((f[neg] / -d[neg]).min())) if neg.any() else 1.0
        polish = decrement <= _POLISH_DECREMENT
        t_min = t if polish else 1e-12
        noise = _J_NOISE * (1.0 + abs(obj))
        while t >= t_min:
            f_new = f + t * d
            f_new /= f_new.sum()
            try:
                obj_new, v_new = evaluate(f_new, v * (f_new / f))
            except ConvergenceError:
                obj_new = -math.inf
            if math.isfinite(obj_new) and (
                polish or obj_new > obj + max(0.25 * t * decrement, noise)
            ):
                break
            t *= 0.5
        else:
            # float plateau: no step raises J any more
            if gap <= OUTER_GAP_TOL:
                return VariationalResult(obj, f, "simplex-optimize", it, gap, inner_steps=inner_steps)
            break
        f, obj, v = f_new, obj_new, v_new
    raise ConvergenceError(
        f"simplex Newton solver stalled at Newton decrement {decrement:.3g}", residual=gap
    )


def argmax_occupancy(g: MetapopGraph) -> VariationalResult:
    """Closed-form occupancy via the two twisted chains.

    The left Perron vector of the column-rescaled chain D'[j, i] =
    D[j, i] * m[i] is the inner maximizer at the optimum; the doubly
    rescaled chain D''[j, i] = v[j] D[j, i] / (vD)[i] is column-stochastic
    and its fixed probability vector is the optimal occupancy.  D' has an
    unknown Perron root and takes one eigen-solve; D'' has root 1 and takes
    one LU solve.
    """
    _require(g, "twisted-chain occupancy", positive=True)
    return _twisted_occupancy(g.D, g.m[None, :])


def _twisted_occupancy(D: np.ndarray, means: np.ndarray,
                       root: float | None = None) -> VariationalResult:
    """``argmax_occupancy`` on the space-time chain of dispersal ``D`` and the
    P x K phase ``means``, checked by the caller; one phase is a fixed graph.

    Chain patch s*K + i is patch i at phase s, with mean means[s, i], and
    disperses by D into phase s + 1 mod P.  Its D' and D'' are block cyclic,
    so their Perron vectors are carried phase by phase from one K x K solve
    each, at the P-step products, and no P*K x P*K matrix is formed: v D' =
    r v gives v_{s+1} = (v_s D) m_{s+1} / r round from v_0, the left vector
    of R = D'_1 ... D'_{P-1} D'_0, and D'' phi = phi gives phi_s = D''_s
    phi_{s+1} back from phi_0, the fixed vector of D''_0 ... D''_{P-1}.
    ``root``, the Perron root of R if known (the one-period product's, the
    same up to rotation), turns its eigen-solve into one bordered LU solve
    (``_bordered_perron``).  The value is still read off v and phi, and it
    is stationary in v, so it is the log root of the chain itself up to
    second order in an error of ``root``; the residual of v shows that
    error at first order.  The occupancy is the chain's, over P*K patches.
    """
    P = means.shape[0]
    R = functools.reduce(np.matmul, [D * m[None, :] for m in [*means[1:], means[0]]])
    if root is None:
        root, v0 = _perron(R.T)
    else:
        v0 = _bordered_perron(R.T, root)
    root = root ** (1.0 / P)
    v, vD = [v0], []
    for m in means[1:]:
        vD.append(v[-1] @ D)
        v.append(vD[-1] * m / root)
    vD.insert(0, v[-1] @ D)  # vD_s = v_{s-1} D, cyclically
    Dpp = [(v[s][:, None] * D) / vD[(s + 1) % P][None, :] for s in range(P)]
    _, phi0 = _perron(functools.reduce(np.matmul, Dpp), 1.0)
    phi = [phi0] * P
    for s in range(P - 1, 0, -1):
        phi[s] = Dpp[s] @ phi[(s + 1) % P]
    v, vD, phi, m = np.concatenate(v), np.concatenate(vD), np.concatenate(phi) / P, means.ravel()
    residual = float(np.abs(vD * m - root * v).max()) / root
    # 0 log 0 = 0, as in ``payoff``: a chain patch whose occupancy underflows
    # to 0 (its v does too) adds nothing, and every term keeps its place
    live = phi > 0
    cost = float(phi @ (np.log(np.where(live, v, 1.0)) - np.log(np.where(live, vD, 1.0))))
    gain = float(phi @ np.log(np.where(live, m, 1.0)))
    return VariationalResult(gain - cost, phi, "twisted-eigen", residual=residual)


def rate_grid_2patch(g: MetapopGraph, n: int = 99) -> list[tuple[float, float, float, float]]:
    """Rows (f1, R, I, R - I) on an interior grid; the K=2 landscape dump."""
    if g.K != 2:
        raise ValidationError("the rate grid is defined for two-patch graphs only")
    _require(g, "rate function")
    bound, ties = _cost_bound(g.D), _ties(g.D)
    rows = []
    for i in range(1, n + 1):
        f1 = i / (n + 1)
        f = np.array([f1, 1.0 - f1])
        cost, R = _cost(g.D, f, bound, None, ties)[0], payoff(g, f)
        rows.append((f1, R, cost, R - cost))
    return rows
