"""Patch graphs for source-sink metapopulations.

A metapopulation is a finite set of habitat patches, each with a mean
per-capita offspring number, wired together by a row-stochastic dispersal
matrix.  Patch indices are 0-based throughout; patch 0 plays the role of
the conventional "first" patch (the paper-style source) wherever a single
reference patch is needed.

This module owns input validation (stochastic rows, non-negative means),
the structural checks used as preconditions elsewhere (irreducibility,
aperiodicity, positive means), the stationary law of the single random
walker on the graph, and the dense Perron kernel that the spectral and
variational modules share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

ROW_SUM_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MetapopGraph:
    """K patches with means ``m`` and row-stochastic dispersal matrix ``D``.

    Rows of ``D`` whose sum is within ``ROW_SUM_TOL`` of 1 are renormalized
    exactly (JSON round-trip noise); anything further off is rejected with
    the offending row index.
    """

    m: np.ndarray
    D: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float).reshape(-1)
        D = np.asarray(self.D, dtype=float)
        if m.size < 1:
            raise ValidationError("need at least one patch")
        if D.shape != (m.size, m.size):
            raise ValidationError(
                f"dispersal matrix shape {D.shape} does not match {m.size} patches"
            )
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValidationError("habitat means must be finite and >= 0")
        if not np.all(np.isfinite(D)):
            raise ValidationError("dispersal entries must be finite")
        if np.any(D < -ROW_SUM_TOL) or np.any(D > 1 + ROW_SUM_TOL):
            raise ValidationError("dispersal entries must lie in [0, 1]")
        D = np.clip(D, 0.0, 1.0)
        sums = D.sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise ValidationError(
                f"dispersal row {bad[0]} sums to {float(sums[bad[0]])!r}, not 1"
            )
        D = D / sums[:, None]
        if self.labels is not None and len(self.labels) != m.size:
            raise ValidationError("labels length does not match patch count")
        object.__setattr__(self, "m", _readonly(m))
        object.__setattr__(self, "D", _readonly(D))

    @property
    def K(self) -> int:
        return self.m.size

    def to_dict(self) -> dict:
        d = {"m": self.m.tolist(), "D": self.D.tolist()}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d


@dataclass(frozen=True)
class AssumptionReport:
    """Structural facts about a graph: irreducibility, period, positive means."""

    irreducible: bool
    aperiodic: bool
    positive_means: bool
    period: int


def load_graph(source: str | Path | dict) -> MetapopGraph:
    """Build a graph from a JSON file path or an already-parsed dict."""
    if isinstance(source, (str, Path)):
        with open(source) as f:
            source = json.load(f)
    if not isinstance(source, dict) or "m" not in source or "D" not in source:
        raise ValidationError('graph JSON needs keys "m" and "D"')
    labels = tuple(source["labels"]) if "labels" in source else None
    return MetapopGraph(m=source["m"], D=source["D"], labels=labels)


def as_frequencies(f, k: int | None = None) -> np.ndarray:
    """Validate a point on the simplex (entries >= 0, sum 1 within 1e-12)."""
    f = np.asarray(f, dtype=float).reshape(-1)
    if k is not None and f.size != k:
        raise ValidationError(f"frequency vector has length {f.size}, expected {k}")
    if np.any(f < -ROW_SUM_TOL) or not np.all(np.isfinite(f)):
        raise ValidationError("frequencies must be finite and >= 0")
    s = f.sum()
    if abs(s - 1.0) > ROW_SUM_TOL:
        raise ValidationError(f"frequencies sum to {s!r}, not 1")
    return np.clip(f, 0.0, None) / s


def _successors(D: np.ndarray) -> list[list[int]]:
    return [list(np.where(row > 0)[0]) for row in D]


def _reachable(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _strongly_connected_components(D: np.ndarray) -> list[list[int]]:
    k = D.shape[0]
    adj = _successors(D)
    radj = [list(np.where(D[:, j] > 0)[0]) for j in range(k)]
    comps = []
    assigned = [False] * k
    for s in range(k):
        if assigned[s]:
            continue
        fwd = _reachable(adj, s)
        bwd = _reachable(radj, s)
        comp = sorted(fwd & bwd)
        for v in comp:
            assigned[v] = True
        comps.append(comp)
    return comps


def _component_period(D: np.ndarray, comp: list[int]) -> int:
    """Period of one communicating class, by BFS level sets.

    gcd of (level[u] + 1 - level[v]) over in-class edges u -> v; exact
    integer arithmetic, no numerics.
    """
    inside = set(comp)
    root = comp[0]
    level = {root: 0}
    frontier = [root]
    adj = _successors(D)
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in inside and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in comp:
        for v in adj[u]:
            if v in inside:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 0


def validate_graph(g: MetapopGraph) -> AssumptionReport:
    """Check the standing structural assumptions of the analysis.

    Irreducibility is reachability on edges with positive weight; the
    period is the gcd of return-cycle lengths within each communicating
    class (classes without a cycle contribute nothing).
    """
    comps = _strongly_connected_components(g.D)
    irreducible = len(comps) == 1 and len(comps[0]) == g.K
    period = 0
    for comp in comps:
        p = _component_period(g.D, comp)
        if p:
            period = math.gcd(period, p)
    period = period or 1
    aperiodic = irreducible and period == 1
    return AssumptionReport(
        irreducible=irreducible,
        aperiodic=aperiodic,
        positive_means=bool(np.all(g.m > 0)),
        period=period,
    )


def _perron(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Perron root and right Perron vector (sum 1) of an irreducible
    non-negative matrix, from one dense eigen-solve.

    Every other eigenvalue of such a matrix has modulus at most the
    spectral radius, and equals it only off the positive real axis, so the
    eigenvalue with the largest real part is the Perron root.  The Perron
    vector has entries of one sign; ``abs`` fixes that sign and clears
    rounding-level negatives of near-zero entries.
    """
    w, V = np.linalg.eig(A)
    i = int(np.argmax(w.real))
    x = np.abs(V[:, i].real)
    return float(w[i].real), x / x.sum()


def stationary_distribution(g: MetapopGraph) -> np.ndarray:
    """Stationary law u of the random walker: uD = u, u > 0.

    The right Perron vector of D^T, whose Perron root is 1.  A direct
    eigen-solve has no iteration to stall, so periodic and nearly
    decomposable chains are answered like any other.
    """
    report = validate_graph(g)
    if not report.irreducible:
        raise ValidationError("stationary distribution needs an irreducible graph")
    return _perron(g.D.T)[1]
