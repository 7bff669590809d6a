"""Infinite patch graphs folded to finite motifs, and sink pipelines.

A transitive infinite graph looks the same from every copy of a finite
motif, so per-class patch counts form an ordinary finite metapopulation:
``collapse`` produces that graph and every finite-graph tool then applies.
The persistence criterion generalizes by stopping the walker when it
re-enters any patch of a source type, not necessarily the one it left.

For a source feeding a pipeline of identical sinks, the sink sojourn
factor has a closed form in the two roots of the quadratic
m*r*x^2 - (1 - m*s)*x + m*l = 0; large pipe lengths are evaluated with
the root ratio factored out so nothing overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .graph import (MetapopGraph, _as_array, _json_object, _labels, _number, _readonly,
                    _require)
from .spectral import mean_matrix, perron_value
from .walks import PersistenceVerdict, _verdict_from_value, return_value_matrix

PROB_TOL = 1e-12
# the pipeline's JSON keys and the type each is read as
PIPELINE_FIELDS = {"n": int, "p": float, "L": float, "s": float, "l": float,
                   "m": float, "M": float}


@dataclass(frozen=True, eq=False)
class Motif:
    """A finite quotient of a transitive graph: patches, types and the
    class-aggregated dispersal matrix.

    Transitivity of the parent graph is the caller's assertion; it cannot
    be checked from the finite data.  ``graph``, the collapsed graph that
    validates the motif, is kept, so its analyses share one structure check.
    """

    types: tuple[int, ...]
    means_by_type: np.ndarray
    D: np.ndarray
    labels: tuple[str, ...] | None = None
    graph: MetapopGraph = field(init=False, repr=False)

    def __post_init__(self):
        means = _as_array(self.means_by_type, "means_by_type")
        if means.ndim != 1 or means.size == 0:
            raise ValidationError("means_by_type must be a non-empty vector")
        types = _as_array(self.types, "patch types", int).reshape(-1)
        if np.any((types < 0) | (types >= means.size)):
            raise ValidationError("patch type out of range of means_by_type")
        object.__setattr__(self, "means_by_type", _readonly(means))
        object.__setattr__(self, "types", tuple(types.tolist()))
        # validates shape, stochastic rows and entry ranges
        graph = MetapopGraph(m=means[list(self.types)], D=self.D, labels=self.labels)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "D", graph.D)

    def to_dict(self) -> dict:
        d = {"types": list(self.types), "means_by_type": self.means_by_type.tolist(),
             "D": self.D.tolist()}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d


def load_motif(source: str | Path | dict) -> Motif:
    """Build a motif from a JSON file path or an already-parsed dict."""
    source = _json_object(source, "motif", ("types", "means_by_type", "D"))
    return Motif(
        types=source["types"],
        means_by_type=source["means_by_type"],
        D=source["D"],
        labels=_labels(source, "motif"),
    )


def collapse(motif: Motif) -> MetapopGraph:
    """The finite metapopulation of the motif's classes, kept on the motif."""
    return motif.graph


def _home_patches(motif: Motif) -> list[int]:
    """The patches the return criterion stops on.

    Every patch of every source type (mean > 1); with no source type, the
    patches of the best-mean type (the criterion then certifies the
    extinction side).
    """
    means = motif.means_by_type
    homes = [i for i, t in enumerate(motif.types) if means[t] > 1.0]
    if homes:
        return homes
    best = max(sorted(set(motif.types)), key=lambda t: means[t])
    return [i for i, t in enumerate(motif.types) if t == best]


def type_return_functional(motif: Motif) -> PersistenceVerdict:
    """Persistence of the infinite graph via returns to the source types.

    The walker starts in a source patch and is stopped on entering any
    source patch (``_home_patches``).  The stopped walks form a mean matrix
    R over those home patches, and the criterion threshold applies to its
    dominant eigenvalue (for a single home patch, R's one entry).  This
    holds for any home set H whose away block has rho(A_AA) < 1:
    rho(A) > 1 exactly when rho(R) > 1, since I - R, with
    R = A_HH + A_HA (I - A_AA)^-1 A_AH, is the Schur complement of I - A_AA
    in I - A (Berman & Plemmons 1994, ch. 6).  When rho(A_AA) >= 1, R is
    infinite and so is the verdict, since then rho(A) > 1.
    """
    _require(motif.graph, "type-return criterion")
    R = return_value_matrix(mean_matrix(motif.graph), _home_patches(motif))
    rho = math.inf if np.isinf(R).any() else perron_value(R)
    return _verdict_from_value(rho, "exact-linear-system")


@dataclass(frozen=True)
class PipelineSpec:
    """A source on a ring of n identical sinks.

    From the source: stay with 1 - p, enter the left sink with p*L, the
    right sink with p*R (L + R = 1).  From a sink: stay with s, hop
    toward the source's left side with l, toward its right side with r
    (l + r = 1 - s).  Means: M on the source, m on every sink.
    """

    n: int
    p: float
    L: float
    s: float
    l: float
    m: float
    M: float

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("need at least one sink in the pipeline")
        for name, x in (("p", self.p), ("L", self.L), ("s", self.s), ("l", self.l)):
            if not 0.0 <= x <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if self.l + self.s > 1.0 + PROB_TOL:
            raise ValidationError("l + s must not exceed 1")
        if self.m < 0 or self.M < 0:
            raise ValidationError("means must be >= 0")

    @property
    def R(self) -> float:
        return 1.0 - self.L

    @property
    def r(self) -> float:
        return max(1.0 - self.s - self.l, 0.0)


def load_pipeline(source: str | Path | dict) -> PipelineSpec:
    """Build a pipeline spec from a JSON file path or parsed dict."""
    source = _json_object(source, "pipeline", PIPELINE_FIELDS)
    return PipelineSpec(**{key: _number(source[key], f"pipeline {key}", kind)
                           for key, kind in PIPELINE_FIELDS.items()})


@dataclass(frozen=True)
class PipelineRates:
    """Closed-form sink sojourn factor with the quadratic's two roots."""

    e: float
    lam: float
    mu: float


def pipeline_depleting_rate(spec: PipelineSpec) -> PipelineRates:
    """Closed-form depleting rate of a pipeline of n identical sinks.

    lam > 1 > mu solve m*r*x^2 - (1 - m*s)*x + m*l = 0; the rate combines
    the roots' n-th powers with the left/right entry split.  Everything is
    evaluated through the ratio mu/lam < 1, so large n cannot overflow.
    """
    m, s, l, r, n = spec.m, spec.s, spec.l, spec.r, spec.n
    L, Rr = spec.L, spec.R
    if m <= 0 or r <= 0:
        raise ValidationError(
            "the closed form needs m > 0 and r > 0; use the linear-system "
            "route on the collapsed motif for degenerate pipelines"
        )
    if m * s >= 1.0:
        raise ValidationError("need m*s < 1 for the sojourn factor to exist")
    disc = (1.0 - m * s) ** 2 - 4.0 * m * m * r * l
    if disc < 0:
        raise ValidationError("quadratic has no real roots; check parameters")
    lam = ((1.0 - m * s) + math.sqrt(disc)) / (2.0 * m * r)
    # product of roots = l / r; dividing avoids cancellation in the small root
    mu = l / (r * lam) if l > 0 else 0.0
    t = mu / lam
    tn = t**n
    tn1 = t ** (n + 1)
    lamm = lam ** -(n + 1)
    term1 = (1.0 - tn) / (lam * (1.0 - tn1)) * (L + Rr * lam * mu)
    term2 = (lam - mu) * (Rr * lamm + L * (mu**n) / lam) / (1.0 - tn1)
    return PipelineRates(e=term1 + term2, lam=lam, mu=mu)


def pipeline_to_motif(spec: PipelineSpec) -> Motif:
    """The (n + 1)-patch motif of a pipeline: one source plus a sink ring.

    Sinks are numbered 1..n in the right-hop direction: sink k hops to
    k - 1 with l and to k + 1 with r, the ring closing through the source
    at both ends.  The source's left sink is sink n (the walker standing
    there reaches the source by one right-hop), so dispersal enters sink n
    with p*L and sink 1 with p*R, which is the orientation the closed-form
    depleting rate uses.
    """
    n = spec.n
    K = n + 1
    D = np.zeros((K, K))
    D[0, 0] = 1.0 - spec.p
    D[0, 1] = spec.p * spec.R
    D[0, n] += spec.p * spec.L
    for k in range(1, n + 1):
        D[k, k] += spec.s
        D[k, k - 1] += spec.l
        right = k + 1 if k < n else 0
        D[k, right] += spec.r
    labels = ("source",) + tuple(f"sink{k}" for k in range(1, n + 1))
    return Motif(
        types=(0,) + (1,) * n,
        means_by_type=np.array([spec.M, spec.m]),
        D=D,
        labels=labels,
    )
