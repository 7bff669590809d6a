import math

import numpy as np
import pytest

from sourcesink import (
    MetapopGraph,
    ValidationError,
    argmax_occupancy,
    growth_rate,
    mean_matrix,
    occupancy_spectral,
    return_functional_exact,
    stationary_distribution,
)
from conftest import (
    eigen_solve_shapes,
    hard_graphs,
    random_fully_mixing,
    random_graph,
    two_patch,
)


def test_mean_matrix_hand_product():
    A = mean_matrix(two_patch(M=2.0, m=0.5, p=0.5, q=0.5))
    assert np.allclose(A, [[1.0, 1.0], [0.25, 0.25]], atol=0)


def test_mean_matrix_unit_means_is_dispersal():
    g = two_patch(M=1.0, m=1.0, p=0.3, q=0.6)
    assert np.array_equal(mean_matrix(g), g.D)


def test_mean_matrix_zero_mean_gives_zero_row():
    g = MetapopGraph(m=[0.0, 1.0], D=[[0.5, 0.5], [0.5, 0.5]])
    A = mean_matrix(g)
    assert np.all(A[0] == 0)
    with pytest.raises(ValidationError):
        growth_rate(A)


def test_growth_rate_2x2_characteristic_polynomial():
    # A = [[1,1],[0.25,0.25]] has trace 1.25 and determinant 0, so rho = 1.25
    sd = growth_rate(np.array([[1.0, 1.0], [0.25, 0.25]]))
    assert abs(sd.rho - 1.25) < 1e-10
    assert np.allclose(sd.right, [0.8, 0.2], atol=1e-9)
    assert np.allclose(sd.left, [0.5, 0.5], atol=1e-9)
    assert sd.residual <= 1e-9 * sd.rho


def test_growth_rate_stochastic_matrix_is_one():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 4, m_range=(1.0, 1.0))
    sd = growth_rate(mean_matrix(g))
    assert abs(sd.rho - 1.0) < 1e-10


def test_fully_mixing_rho_is_delta_dot_m():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g, delta = random_fully_mixing(rng, int(rng.integers(2, 6)))
        sd = growth_rate(mean_matrix(g))
        assert abs(sd.rho - float(delta @ g.m)) < 1e-10
        # delta is the stable geographic profile, means the fitness profile
        assert np.abs(sd.left - delta).max() < 1e-8
        assert np.abs(sd.right - g.m / g.m.sum()).max() < 1e-8


def test_occupancy_is_normalized_eigenvector_product():
    sd = growth_rate(np.array([[1.0, 1.0], [0.25, 0.25]]))
    phi = occupancy_spectral(sd)
    assert np.allclose(phi, [0.8, 0.2], atol=1e-9)
    assert abs(phi.sum() - 1.0) < 1e-12


def test_occupancy_equals_stationary_for_constant_means():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 6)), m_range=(0.7, 0.7))
        sd = growth_rate(mean_matrix(g))
        u = stationary_distribution(g)
        assert np.abs(occupancy_spectral(sd) - u).max() < 1e-9


def test_single_patch_occupancy_trivial():
    sd = growth_rate(np.array([[1.7]]))
    assert sd.rho == 1.7
    assert np.allclose(occupancy_spectral(sd), [1.0])


def test_rho_invariant_under_patch_relabeling():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_graph(rng, 5)
        perm = rng.permutation(5)
        gp = MetapopGraph(m=g.m[perm], D=g.D[np.ix_(perm, perm)])
        r1 = growth_rate(mean_matrix(g)).rho
        r2 = growth_rate(mean_matrix(gp)).rho
        assert abs(r1 - r2) < 1e-10 * max(1.0, r1)


def test_periodic_support_gets_rho_and_occupancy():
    # two-cycle: rho of [[0, M], [m, 0]] is sqrt(M m), and the walker spends
    # every other step in each patch
    g = MetapopGraph(m=[2.0, 0.5], D=[[0.0, 1.0], [1.0, 0.0]])
    sd = growth_rate(mean_matrix(g))
    assert abs(sd.rho - 1.0) < 1e-9
    phi = occupancy_spectral(sd)
    assert np.abs(phi - 0.5).max() <= 1e-12
    assert np.abs(phi - argmax_occupancy(g).occupancy).max() <= 1e-12


def test_reducible_support_rejected():
    with pytest.raises(ValidationError):
        growth_rate(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_malformed_mean_matrix_rejected():
    for A in (np.zeros((0, 0)), np.ones((2, 3)), np.ones(3)):
        with pytest.raises(ValidationError, match="square and non-empty"):
            growth_rate(A)


@pytest.mark.parametrize("A", [[[0.5, -0.5], [0.5, 0.5]], [[0.5, math.inf], [0.5, 0.5]]],
                         ids=["negative", "infinite"])
def test_mean_matrix_entries_must_be_finite_and_non_negative(A):
    with pytest.raises(ValidationError) as err:
        growth_rate(np.array(A))
    assert str(err.value) == "mean matrix entries must be finite and >= 0"


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-5, 1e-8, 1e-12])
def test_weakly_coupled_sources_match_dense_eigensolve(eps):
    # two equal-mean sources coupled with weight eps: the Perron gap of A and
    # the spectral gap of D both shrink like eps, which stalls power iteration
    g = MetapopGraph(
        m=[2.0, 2.0, 0.5],
        D=[[1 - 2 * eps, eps, eps], [eps, 1 - eps, 0.0], [0.3, 0.3, 0.4]],
    )
    A = mean_matrix(g)
    log_rho = math.log(float(np.linalg.eigvals(A).real.max()))
    sd = growth_rate(A)
    assert abs(math.log(sd.rho) - log_rho) <= 1e-10
    assert abs(argmax_occupancy(g).log_growth - log_rho) <= 1e-10
    u = stationary_distribution(g)
    assert np.abs(u @ g.D - u).max() <= 1e-12
    assert return_functional_exact(g).persists == (sd.rho > 1.0)


def test_growth_rate_makes_one_eigen_solve(monkeypatch):
    # rho and the right vector come from eig; the left vector is one
    # bordered LU solve at that root
    g = random_graph(np.random.default_rng(32), 7)
    shapes = eigen_solve_shapes(monkeypatch)
    sd = growth_rate(mean_matrix(g))
    assert shapes == [(7, 7)]
    assert sd.residual <= 1e-14 * sd.rho


def test_left_vector_and_occupancy_on_hard_graphs():
    # weak, uneven coupling and nearly lethal patches put tiny entries in
    # the left vector; replacing the last equation of rho*I - A^T by sum = 1
    # then leaves a near-singular system (residual up to 1.0 here), and the
    # bordered solve does not
    for g in hard_graphs(200):
        sd = growth_rate(mean_matrix(g))
        assert sd.residual <= 1e-12 * sd.rho
        phi = occupancy_spectral(sd)
        assert np.abs(phi - argmax_occupancy(g).occupancy).max() <= 1e-11
