"""Patch graphs for source-sink metapopulations.

A metapopulation is a finite set of habitat patches, each with a mean
per-capita offspring number, wired together by a row-stochastic dispersal
matrix.  Patch indices are 0-based throughout; patch 0 plays the role of
the conventional "first" patch (the paper-style source) wherever a single
reference patch is needed.

This module owns input validation (stochastic rows, non-negative means),
the structural checks used as preconditions elsewhere (irreducibility,
positive means) with every refusal they word (``_require``, one call per
analysis), the period of the support graph, the stationary law of the
single random walker on the graph, and the Perron kernel that the spectral
and variational modules share: a dense eigen-solve when the Perron root is
unknown, one LU solve when it is known.  A graph's arrays are read-only
copies, so its structure check is made once and kept on the graph.

Every question about the support graph goes through one breadth-first
search, ``_levels``, which expands a whole frontier per numpy step over a
boolean support matrix.  ``_structure`` builds the communicating classes
from forward and backward level sets and reads each class's period off
the forward levels as gcd(level[u] + 1 - level[v]) over the class's edges
(Denardo 1977; Seneta 2006, section 1.3).
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError

ROW_SUM_TOL = 1e-12


def _json_object(source: str | Path | dict, what: str, keys=()) -> dict:
    """A JSON object, read from a file path or passed already parsed.

    An unreadable file, invalid JSON, a value that is not an object and a
    missing one of ``keys`` are each a ``ValidationError`` naming ``what``.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source) as f:
                source = json.load(f)
        except OSError as e:
            raise ValidationError(f"cannot read {what} file: {e}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ValidationError(f"{what} file {str(source)!r} is not valid JSON: {e}") from None
    return _object(source, what, keys)


def _object(value, what: str, keys=()) -> dict:
    """``value``, which must be a dict holding every one of ``keys``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what} must be a JSON object")
    for key in keys:
        if key not in value:
            raise ValidationError(f'{what} JSON needs key "{key}"')
    return value


def _number(value, what: str, kind: type = float):
    """``value`` as a ``kind`` (``float`` or ``int``).

    A value that is not a real number (a string, a bool, a list, null) and,
    for ``int``, one with a fractional part are each a ``ValidationError``
    naming ``what``.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or (kind is int and value % 1 != 0)):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{what} must be {noun}, not {value!r}")
    return kind(value)


def _integer(value, what: str, least: int = 1) -> int:
    """``value`` as an int (by ``_number``) no smaller than ``least``."""
    n = _number(value, what, int)
    if n < least:
        raise ValidationError(f"{what} must be >= {least}, not {n}")
    return n


def _as_array(value, what: str, dtype=float) -> np.ndarray:
    """``value`` as an array of ``dtype``; ragged or non-numeric input is a ValidationError."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{what} must be a regular array of numbers: {e}") from None


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only copy, returned as a view: an array that owns its data can
    be made writeable again, and a graph's kept structure check relies on
    its arrays never changing."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a.view()


@dataclass(frozen=True, eq=False)
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
        m = _as_array(self.m, "habitat means").reshape(-1)
        D = _as_array(self.D, "dispersal matrix")
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

    @functools.cached_property
    def _assumptions(self) -> AssumptionReport:
        """``validate_graph``'s report, computed on first use: ``m`` and ``D``
        are read-only copies, so it cannot go stale."""
        return _assumption_report(self.D > 0, self.m)

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


def _labels(source: dict, what: str) -> tuple | None:
    """``source``'s ``labels`` list as a tuple, None when absent."""
    labels = source.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValidationError(f"{what} labels must be a JSON list")
    return None if labels is None else tuple(labels)


def load_graph(source: str | Path | dict) -> MetapopGraph:
    """Build a graph from a JSON file path or an already-parsed dict."""
    source = _json_object(source, "graph", ("m", "D"))
    return MetapopGraph(m=source["m"], D=source["D"], labels=_labels(source, "graph"))


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


def _assumption_report(support: np.ndarray, means: np.ndarray) -> AssumptionReport:
    irreducible, period = _structure(support)
    return AssumptionReport(
        irreducible=irreducible,
        aperiodic=irreducible and period == 1,
        positive_means=bool(np.all(means > 0)),
        period=period,
    )


def validate_graph(g: MetapopGraph | np.ndarray) -> AssumptionReport:
    """Check the standing structural assumptions of the analysis.

    Irreducibility is reachability on edges with positive weight; the
    period is the gcd of return-cycle lengths within each communicating
    class, read off breadth-first level sets (``_structure``).  ``g`` may
    also be a non-negative mean matrix A = m * D, as ``growth_rate`` passes
    it: its support is A > 0 and its patch means are its row sums.  A
    graph is checked once and its report kept; a matrix is checked on
    every call.
    """
    if isinstance(g, MetapopGraph):
        return g._assumptions
    return _assumption_report(g > 0, g.sum(axis=1))


def _check_home(g: MetapopGraph, home) -> None:
    """Refuse ``home`` unless it is an integer (not a bool) patch index of ``g``."""
    if isinstance(home, bool) or not isinstance(home, numbers.Integral):
        raise ValidationError(f"home patch must be an integer, not {home!r}")
    if not 0 <= home < g.K:
        raise ValidationError(f"home patch {home} out of range")


def _require(g: MetapopGraph | np.ndarray, what: str, *, home=None,
             positive=False) -> AssumptionReport:
    """``validate_graph(g)``, refused unless it meets what analysis ``what``
    needs: an irreducible graph, plus a patch index ``home`` and ``positive``
    means (a mean matrix's row sums) when asked.  The first failure is a
    ``ValidationError`` naming ``what``.  No analysis asks for period 1:
    occupancy is a time average, which settles on every irreducible chain,
    periodic or not."""
    if home is not None:
        _check_home(g, home)
    report = validate_graph(g)
    if positive and not report.positive_means:
        raise ValidationError(f"{what} needs positive means; a patch has mean 0")
    if not report.irreducible:
        raise ValidationError(f"{what} needs an irreducible graph; this one is not irreducible")
    return report


def _perron(A: np.ndarray, root: float | None = None) -> tuple[float, np.ndarray]:
    """Perron root and right Perron vector (sum 1) of an irreducible
    non-negative matrix.

    With ``root`` unknown this is one dense eigen-solve.  Every other
    eigenvalue of such a matrix has modulus at most the spectral radius,
    and equals it only off the positive real axis, so the eigenvalue with
    the largest real part is the Perron root.  The Perron vector has
    entries of one sign; ``abs`` fixes that sign and clears rounding-level
    negatives of near-zero entries.

    ``root`` may be given only when every column of ``A`` sums to it, as
    for the transposed stochastic matrix of a stationary law or the
    column-stochastic twisted chain D''.  Then the complementary (left)
    Perron vector is all ones, so the last equation of root*I - A is
    exactly minus the sum of the others, and replacing it by sum = 1 loses
    nothing: the vector is one LU solve.  Any other known root goes to
    ``_bordered_perron``: for a left vector y, the rows of root*I - A
    satisfy y_K (last row) = -sum_{i<K} y_i (row i), so when y_K is tiny
    the rows that remain are nearly dependent and the replaced system is
    near-singular.
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


def _bordered_perron(A: np.ndarray, root: float) -> np.ndarray:
    """Right Perron vector (sum 1) of an irreducible non-negative matrix
    whose Perron ``root`` is known, by one bordered LU solve.

    Solves [[root*I - A, 1], [1^T, 0]] [x; mu] = [0; 1].  The bordered
    matrix is nonsingular because the root is simple and both Perron
    vectors are positive, so neither meets the border orthogonally; unlike
    ``_perron``'s replaced equation, no single entry of the left vector
    sets its conditioning.  When ``root`` is off by a small amount, x is
    still the Perron vector to first order, and the residual of
    A x = root x shows the error.
    """
    n = A.shape[0]
    M = np.empty((n + 1, n + 1))
    M[:n, :n] = -A
    M[np.diag_indices(n)] += root
    M[:n, n] = M[n, :n] = 1.0
    M[n, n] = 0.0
    b = np.zeros(n + 1)
    b[n] = 1.0
    x = np.abs(np.linalg.solve(M, b)[:n])
    return x / x.sum()


def stationary_distribution(g: MetapopGraph) -> np.ndarray:
    """Stationary law u of the random walker: uD = u, u > 0.

    The right Perron vector of D^T, whose Perron root is 1, so one LU
    solve (``_perron`` with a known root).  A direct solve has no
    iteration to stall, so periodic and nearly decomposable chains are
    answered like any other.
    """
    _require(g, "stationary distribution")
    return _perron(g.D.T, 1.0)[1]
