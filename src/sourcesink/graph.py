"""Patch graphs for source-sink metapopulations.

A metapopulation is a finite set of habitat patches, each with a mean
per-capita offspring number, wired together by a row-stochastic dispersal
matrix.  Patch indices are 0-based throughout; patch 0 plays the role of
the conventional "first" patch (the paper-style source) wherever a single
reference patch is needed.

This module owns input validation (stochastic rows, non-negative means),
the structural checks used as preconditions elsewhere (irreducibility,
aperiodicity, positive means), the stationary law of the single random
walker on the graph, and the Perron kernel that the spectral and
variational modules share: a dense eigen-solve when the Perron root is
unknown, one LU solve when it is known.

Every question about the support graph goes through one breadth-first
search, ``_levels``, which expands a whole frontier per numpy step over a
boolean support matrix.  ``_structure`` builds the communicating classes
from forward and backward level sets and reads each class's period off
the forward levels as gcd(level[u] + 1 - level[v]) over the class's edges
(Denardo 1977; Seneta 2006, section 1.3).
"""

from __future__ import annotations

import json
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


def _levels(S: np.ndarray, root: int) -> np.ndarray:
    """Breadth-first distance from ``root`` over the boolean support ``S``.

    Each level is one vectorised step: the unvisited columns reached from
    any row of the current frontier.  Entries that ``root`` does not reach
    stay -1.
    """
    level = np.full(S.shape[0], -1)
    level[root] = 0
    frontier = np.array([root])
    depth = 0
    while frontier.size:
        depth += 1
        frontier = np.flatnonzero(S[frontier].any(axis=0) & (level < 0))
        level[frontier] = depth
    return level


def _structure(S: np.ndarray) -> tuple[bool, int]:
    """Irreducibility and period of the support ``S``, from level sets.

    Each communicating class is the set reached both forward and backward
    from its first unassigned vertex.  A shortest path between two vertices
    of one class stays in that class, so the forward levels from the root
    are the in-class levels, and the class period is the gcd of
    level[u] + 1 - level[v] over its edges u -> v (exact integers).  The
    period returned is the gcd over all classes; a class without a cycle
    contributes nothing, and a graph without any cycle reports 1.
    """
    root_of = np.full(S.shape[0], -1)
    level = np.zeros(S.shape[0], dtype=int)
    while (root_of < 0).any():
        root = int(np.argmax(root_of < 0))
        fwd = _levels(S, root)
        inside = (fwd >= 0) & (_levels(S.T, root) >= 0)
        root_of[inside] = root
        level[inside] = fwd[inside]
    u, v = np.nonzero(S & (root_of[:, None] == root_of[None, :]))
    period = int(np.gcd.reduce(level[u] + 1 - level[v]))
    return bool((root_of == 0).all()), period or 1


def validate_graph(g: MetapopGraph | np.ndarray) -> AssumptionReport:
    """Check the standing structural assumptions of the analysis.

    Irreducibility is reachability on edges with positive weight; the
    period is the gcd of return-cycle lengths within each communicating
    class, read off breadth-first level sets (``_structure``).  ``g`` may
    also be a non-negative mean matrix A = m * D, as ``growth_rate`` passes
    it: its support is A > 0 and its patch means are its row sums.
    """
    if isinstance(g, MetapopGraph):
        support, means = g.D > 0, g.m
    else:
        support, means = g > 0, g.sum(axis=1)
    irreducible, period = _structure(support)
    return AssumptionReport(
        irreducible=irreducible,
        aperiodic=irreducible and period == 1,
        positive_means=bool(np.all(means > 0)),
        period=period,
    )


def _perron(A: np.ndarray, root: float | None = None) -> tuple[float, np.ndarray]:
    """Perron root and right Perron vector (sum 1) of an irreducible
    non-negative matrix.

    With ``root`` unknown this is one dense eigen-solve.  Every other
    eigenvalue of such a matrix has modulus at most the spectral radius,
    and equals it only off the positive real axis, so the eigenvalue with
    the largest real part is the Perron root.  The Perron vector has
    entries of one sign; ``abs`` fixes that sign and clears rounding-level
    negatives of near-zero entries.

    With the Perron ``root`` known (1 for a stochastic chain), the vector
    is one LU solve: the null vector of root*I - A with its last equation
    replaced by sum = 1.  The Perron root of an irreducible matrix is
    simple and its left vector is positive, so the last equation is
    redundant and the bordered system is nonsingular.
    """
    if root is None:
        w, V = np.linalg.eig(A)
        i = int(np.argmax(w.real))
        root, x = float(w[i].real), V[:, i].real
    else:
        M = root * np.eye(A.shape[0]) - A
        M[-1] = 1.0
        b = np.zeros(A.shape[0])
        b[-1] = 1.0
        x = np.linalg.solve(M, b)
    x = np.abs(x)
    return root, x / x.sum()


def stationary_distribution(g: MetapopGraph) -> np.ndarray:
    """Stationary law u of the random walker: uD = u, u > 0.

    The right Perron vector of D^T, whose Perron root is 1, so one LU
    solve (``_perron`` with a known root).  A direct solve has no
    iteration to stall, so periodic and nearly decomposable chains are
    answered like any other.
    """
    report = validate_graph(g)
    if not report.irreducible:
        raise ValidationError("stationary distribution needs an irreducible graph")
    return _perron(g.D.T, 1.0)[1]
