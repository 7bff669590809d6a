import math

import numpy as np
import pytest
from scipy import stats

from sourcesink import (
    MetapopGraph,
    ValidationError,
    WalkConfig,
    depleting_rate,
    growth_rate,
    mean_matrix,
    return_functional_exact,
    return_functional_mc,
    sample_excursion,
    stationary_distribution,
)
from sourcesink.walks import CRITICAL_RADIUS_TOL, _verdict_from_value, return_value_matrix
from conftest import random_graph, random_two_habitat, two_patch


def test_two_patch_closed_form():
    # R = M(1-p) + Mp * mq / (1 - m(1-q)) = 4/3 for M=2, m=0.5, p=q=0.5
    v = return_functional_exact(two_patch())
    assert abs(v.value - 4.0 / 3.0) < 1e-12
    assert v.persists
    assert v.method == "exact-linear-system"


def test_unit_means_sit_on_the_boundary():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(2, 6)), m_range=(1.0, 1.0))
        v = return_functional_exact(g)
        assert abs(v.value - 1.0) < 1e-9
        assert not v.persists  # strict inequality: boundary counts as extinction
        assert v.near_critical


def test_divergent_sub_matrix_gives_infinity():
    # m(1-q) = 1.2 * 0.9 >= 1: the sink block alone is supercritical
    g = two_patch(M=2.0, m=1.2, p=0.1, q=0.1)
    v = return_functional_exact(g)
    assert math.isinf(v.value)
    assert v.persists


def test_spectral_equivalence_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(60):
        g = random_graph(rng, int(rng.integers(2, 7)))
        rho = growth_rate(mean_matrix(g)).rho
        v = return_functional_exact(g)
        if abs(rho - 1.0) <= 1e-9 or (math.isfinite(v.value) and abs(v.value - 1.0) <= 1e-9):
            continue
        assert (rho > 1.0) == v.persists


def test_scale_symmetry_matches_return_time_generating_function():
    # all means equal c: R = c * E[c^(T-1)], known for two-patch chains
    for c, p, q in [(0.8, 0.3, 0.6), (0.5, 0.5, 0.5), (1.2, 0.9, 0.7)]:
        g = two_patch(M=c, m=c, p=p, q=q)
        v = return_functional_exact(g)
        if c * (1 - q) < 1:
            gen = (1 - p) + p * q * c / (1 - c * (1 - q))
            assert abs(v.value - c * gen) < 1e-12


def test_mc_agrees_with_exact_on_benchmark():
    g = two_patch()
    v = return_functional_mc(g, 0, WalkConfig(n_trials=200_000, seed=123))
    assert abs(v.value - 4.0 / 3.0) <= v.ci_halfwidth
    assert v.truncated_mass == 0.0


def test_mc_unit_means_zero_variance():
    g = two_patch(M=1.0, m=1.0)
    v = return_functional_mc(g, 0, WalkConfig(n_trials=500, seed=5))
    assert v.value == 1.0
    assert v.ci_halfwidth == 0.0


def test_mc_random_instance_within_ci():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 3, m_range=(0.1, 1.4))
    exact = return_functional_exact(g).value
    v = return_functional_mc(g, 0, WalkConfig(n_trials=100_000, seed=11))
    assert abs(v.value - exact) <= max(3 * v.ci_halfwidth, 1e-3)


def test_mc_coverage_batch():
    # exact value inside the 99% interval in >= 98 of 100 seeded runs
    g = two_patch()
    exact = 4.0 / 3.0
    hits = 0
    for seed in range(100):
        v = return_functional_mc(g, 0, WalkConfig(n_trials=2000, seed=seed))
        half99 = v.ci_halfwidth * (2.576 / 1.96)
        hits += abs(v.value - exact) <= half99
    assert hits >= 98


def test_mc_deterministic_given_seed():
    g = two_patch()
    a = return_functional_mc(g, 0, WalkConfig(n_trials=500, seed=42))
    b = return_functional_mc(g, 0, WalkConfig(n_trials=500, seed=42))
    assert a == b


def test_mc_truncation_matches_exact_mass_across_chunks():
    # 2500 trials span two full chunks and a partial one; an excursion is
    # cut at 4 steps exactly when it leaves home and stays away 3 more steps
    p, q = 0.6, 0.3
    g = two_patch(p=p, q=q)
    n = 2500
    v = return_functional_mc(g, 0, WalkConfig(max_steps=4, n_trials=n, seed=8))
    exact = p * (1 - q) ** 3
    assert abs(v.truncated_mass - exact) <= 4 * math.sqrt(exact * (1 - exact) / n)


def test_depleting_rate_two_patch_formula():
    # e = mq / (1 - m(1-q)) = 1/3 for m=0.5, q=0.5
    assert abs(depleting_rate(two_patch()) - 1.0 / 3.0) < 1e-12


def test_depleting_rate_near_unit_mean_tends_to_one():
    g = two_patch(M=2.0, m=1.0 - 1e-9, p=0.4, q=0.7)
    assert abs(depleting_rate(g) - 1.0) < 1e-6


def test_depleting_rate_criterion_matches_return_functional():
    rng = np.random.default_rng(9)
    for _ in range(40):
        g = random_two_habitat(rng, int(rng.integers(2, 7)))
        e = depleting_rate(g)
        M = g.m[0]
        p = float(g.D[0, 1:].sum())
        crit = M * (1 - p) + e * M * p
        v = return_functional_exact(g)
        assert abs(crit - v.value) < 1e-10


def test_depleting_rate_rejects_mixed_sink_means():
    g = MetapopGraph(m=[2.0, 0.5, 0.6], D=np.full((3, 3), 1 / 3))
    with pytest.raises(ValidationError):
        depleting_rate(g)


def test_excursion_deterministic_cycle():
    g = MetapopGraph(m=[1.0, 1.0], D=[[0.0, 1.0], [1.0, 0.0]])
    exc = sample_excursion(g, seed=3)
    assert exc.path == (0, 1, 0)
    assert exc.T == 2
    assert not exc.truncated


def test_excursion_seed_determinism():
    g = two_patch()
    assert sample_excursion(g, seed=8) == sample_excursion(g, seed=8)


def test_excursion_return_time_is_geometric():
    # from patch 0 with p = 0.5: T = 1 w.p. 1/2, else 1 + Geom(1/2)
    g = two_patch()
    counts = {}
    for seed in range(20_000):
        exc = sample_excursion(g, seed=seed)
        counts[exc.T] = counts.get(exc.T, 0) + 1
    kmax = 12
    observed = [counts.get(k, 0) for k in range(1, kmax)]
    observed.append(sum(c for k, c in counts.items() if k >= kmax))
    probs = [0.5] + [0.5 * 0.5 ** (k - 1) for k in range(2, kmax)]
    probs.append(1.0 - sum(probs))
    expected = [p * 20_000 for p in probs]
    chi2 = stats.chisquare(observed, expected)
    assert chi2.pvalue > 1e-4


def test_excursion_interior_avoids_home():
    rng = np.random.default_rng(12)
    g = random_graph(rng, 4)
    for seed in range(50):
        exc = sample_excursion(g, home=2, seed=seed)
        assert exc.path[0] == 2 and exc.path[-1] == 2
        assert all(p != 2 for p in exc.path[1:-1])


def _reference_return_value_matrix(A, homes):
    """The route with a dense eigenvalue pre-check that the one-factorization
    divergence test replaced."""
    k = A.shape[0]
    homes = sorted(set(homes))
    away = [i for i in range(k) if i not in homes]
    if not away:
        return A[np.ix_(homes, homes)].copy()
    B = A[np.ix_(away, away)]
    if float(np.linalg.eigvals(B).real.max(initial=0.0)) >= 1.0 - CRITICAL_RADIUS_TOL:
        return np.full((len(homes), len(homes)), math.inf)
    rhs = A[np.ix_(away, homes)]
    try:
        G = np.linalg.solve(np.eye(len(away)) - B, rhs)
    except np.linalg.LinAlgError:
        return np.full((len(homes), len(homes)), math.inf)
    if np.any(G < -1e-9) or not np.all(np.isfinite(G)):
        return np.full((len(homes), len(homes)), math.inf)
    return A[np.ix_(homes, homes)] + A[np.ix_(homes, away)] @ G


def test_factorization_divergence_test_matches_eigenvalue_precheck_near_criticality():
    # away blocks scaled to rho(B) = 1 - 10^U(-14, -1): the verdicts agree,
    # and so do the values wherever both are finite
    rng = np.random.default_rng(21)
    n_finite = 0
    for _ in range(400):
        K = int(rng.integers(2, 9))
        A = mean_matrix(random_graph(rng, K))
        home = int(rng.integers(K))
        away = [i for i in range(K) if i != home]
        rho_B = float(np.linalg.eigvals(A[np.ix_(away, away)]).real.max())
        A[away] *= (1.0 - 10.0 ** rng.uniform(-14, -1)) / rho_B
        got = return_value_matrix(A, [home])[0, 0]
        ref = _reference_return_value_matrix(A, [home])[0, 0]
        assert _verdict_from_value(got, "x").persists == _verdict_from_value(ref, "x").persists
        if math.isfinite(got) and math.isfinite(ref):
            assert abs(got - ref) <= 1e-12 * ref
            n_finite += 1
    assert n_finite >= 200


def test_exactly_stochastic_away_block_diverges():
    # dyadic rows summing exactly to 1: rho(B) = 1 exactly
    rng = np.random.default_rng(22)
    for _ in range(160):
        n = int(rng.integers(1, 12))
        A = np.empty((n + 1, n + 1))
        A[1:, 1:] = rng.multinomial(1024, np.full(n, 1.0 / n), size=n) / 1024
        A[0] = rng.uniform(0.1, 2.0, n + 1)
        A[1:, 0] = rng.uniform(0.0, 1.0, n)
        assert np.all(np.isinf(return_value_matrix(A, [0])))


def test_known_root_solves_make_no_eigen_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigen-solve on a known-root or divergence question")

    g = random_two_habitat(np.random.default_rng(23), 5)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    assert np.all(stationary_distribution(g) > 0)
    assert math.isfinite(return_functional_exact(g).value)
    assert math.isfinite(depleting_rate(g))
