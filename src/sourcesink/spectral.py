"""Perron eigen-data of the mean offspring matrix.

The mean matrix ``A`` has ``A[i, j] = m[i] * D[i, j]``: the mean number of
offspring an individual in patch ``i`` sends to patch ``j`` per generation.
Expected patch counts propagate as a row vector, ``E Z_{n+1} = (E Z_n) A``,
so the long-term growth rate is the dominant eigenvalue ``rho`` of ``A``,
the asymptotic spatial profile is the left Perron vector, and the lineage
occupancy of a random survivor is the normalized entrywise product of the
left and right Perron vectors.

The Perron root of a mean matrix is unknown, so each Perron pair is one
dense eigen-solve for the root and the right vector (``graph._perron``)
plus one bordered LU solve for the left vector at that root
(``graph._bordered_perron``); nearly decomposable and periodic supports
are answered as directly as any other, and there is no iteration,
tolerance or iteration cap to tune.  Questions whose root is known
(stationary laws) or that only ask which side of 1 a spectral radius lies
on (excursion divergence, in ``walks``) take one LU solve instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import MetapopGraph, _bordered_perron, _perron, _require


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Dominant eigenvalue with both Perron vectors, each normalized to sum 1.

    On every irreducible support, periodic or not, ``left * right`` is the
    survivor occupancy: a time average along the lineage, which settles
    whether or not the chain's law at a fixed step does.
    """

    rho: float
    left: np.ndarray
    right: np.ndarray
    residual: float


def mean_matrix(g: MetapopGraph) -> np.ndarray:
    """Entrywise product A[i, j] = m[i] * D[i, j]."""
    return g.m[:, None] * g.D


def perron_value(A: np.ndarray) -> float:
    """Spectral radius of a non-negative matrix (value only, no raise).

    Used where A may be reducible or defective and the eigenvector need
    not exist in a usable form, such as the type-return matrix of a motif.  The spectral radius
    of a non-negative matrix is itself an eigenvalue, so it is the largest
    real part among all eigenvalues; an empty matrix gives 0.
    """
    return float(np.linalg.eigvals(np.asarray(A, dtype=float)).real.max(initial=0.0))


def growth_rate(A: np.ndarray) -> SpectralData:
    """Perron data of a mean matrix.

    Requires positive means (no zero row) and an irreducible support graph
    (``graph._require``), of any period.  ``residual`` is the larger
    max-norm residual of the two vectors' eigen-equations.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValidationError("mean matrix must be square and non-empty")
    if np.any(A < 0) or not np.all(np.isfinite(A)):
        raise ValidationError("mean matrix entries must be finite and >= 0")
    _require(A, "growth rate", positive=True)
    return _perron_data(A)


def _perron_data(A: np.ndarray) -> SpectralData:
    """``growth_rate`` of a mean matrix whose caller has checked it."""
    rho, right = _perron(A)
    left = _bordered_perron(A.T, rho)
    residual = float(
        max(np.abs(A @ right - rho * right).max(), np.abs(left @ A - rho * left).max())
    )
    return SpectralData(rho=rho, left=left, right=right, residual=residual)


def occupancy_spectral(sd: SpectralData) -> np.ndarray:
    """Lineage occupancy of a random survivor: left * right, normalized."""
    phi = sd.left * sd.right
    return phi / phi.sum()


def stable_geographic_distribution(sd: SpectralData) -> np.ndarray:
    """Asymptotic spatial profile of expected counts (the left Perron vector)."""
    return sd.left
