import math

import numpy as np
import pytest

from sourcesink import (
    ConvergenceError,
    MetapopGraph,
    ValidationError,
    argmax_occupancy,
    growth_rate,
    idt_residual,
    max_rate_gap,
    mean_matrix,
    occupancy_spectral,
    payoff,
    rate_function,
    rate_grid_2patch,
    stationary_distribution,
    validate_graph,
)
from sourcesink import variational
from sourcesink.variational import _occupancy_set_is_full_dimensional, _rate_hessian
from conftest import (
    eigen_solve_shapes,
    random_fully_mixing,
    random_graph,
    sanov_lattice_rate,
    symmetric_walk_visits,
    two_patch,
)


def kl(f, d):
    f, d = np.asarray(f), np.asarray(d)
    mask = f > 0
    return float((f[mask] * np.log(f[mask] / d[mask])).sum())


def test_payoff_arithmetic():
    g = two_patch()
    assert abs(payoff(g, [0.8, 0.2]) - 0.6 * math.log(2.0)) < 1e-12


def test_payoff_unit_means_vanishes():
    g = two_patch(M=1.0, m=1.0)
    for f in ([0.5, 0.5], [0.9, 0.1], [0.0, 1.0]):
        assert payoff(g, f) == 0.0


def test_payoff_indicator_and_zero_mean_conventions():
    g = two_patch(M=2.0, m=0.5)
    assert abs(payoff(g, [1.0, 0.0]) - math.log(2.0)) < 1e-15
    gz = MetapopGraph(m=[2.0, 0.0], D=g.D)
    assert payoff(gz, [1.0, 0.0]) == math.log(2.0)  # 0 * log 0 = 0
    assert payoff(gz, [0.5, 0.5]) == -math.inf


def test_rate_function_zero_at_stationary():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 6)))
        u = stationary_distribution(g)
        ev = rate_function(g, u)
        assert 0.0 <= ev.cost <= 1e-10
        # the inner maximizer at u is u itself (up to gauge)
        vs = ev.v_star / ev.v_star.sum()
        assert np.abs(vs - u).max() < 1e-6


def test_rate_function_fully_mixing_is_kl():
    rng = np.random.default_rng(3)
    g, delta = random_fully_mixing(rng, 3)
    for f in ([0.8, 0.1, 0.1], [0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]):
        ev = rate_function(g, f)
        assert abs(ev.cost - kl(f, delta)) < 1e-10


def test_rate_function_kl_handworked_value():
    g = two_patch()
    ev = rate_function(g, [0.8, 0.2])
    expect = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
    assert abs(ev.cost - expect) < 1e-12
    assert abs(ev.cost - 0.192745) < 1e-6
    assert not ev.boundary


def test_rate_function_boundary_kl():
    g = two_patch()
    ev = rate_function(g, [1.0, 0.0])
    assert abs(ev.cost - math.log(2.0)) < 1e-12
    assert ev.boundary


def test_rate_function_infinite_on_two_cycle_boundary():
    g = MetapopGraph(m=[1.0, 1.0], D=[[0.0, 1.0], [1.0, 0.0]])
    ev = rate_function(g, [1.0, 0.0])
    assert math.isinf(ev.cost)


def test_rate_function_infinite_off_lockstep_slice():
    # patch 1 feeds only patch 0 and patch 0 only patch 1's inflow:
    # occupancies of the two patches are forced equal, so f=(0.7,0.3)
    # cannot be realized even though it is interior
    D = [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    g = MetapopGraph(m=[1.0, 1.0, 1.0], D=D)
    ev = rate_function(g, [0.5, 0.25, 0.25])
    assert ev.cost < math.inf  # balanced pair frequencies are realizable
    ev2 = rate_function(g, [0.4, 0.5, 0.1])
    assert math.isinf(ev2.cost)


@pytest.mark.parametrize("f", [(0.4, 0.3, 0.3), (0.6, 0.2, 0.2)])
def test_rate_function_on_lockstep_slice_matches_closed_form(f):
    # on the slice f_1 = f_2 the inner Hessian is singular beyond the gauge
    # (v_1 cancels from the objective); the walk's only choice is at patch
    # 0, so I(f) is the KL cost of the split n00 + n01 = f_0 against (1/2, 1/2)
    D = [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    g = MetapopGraph(m=[1.0, 1.0, 1.0], D=D)
    ev = rate_function(g, f)
    n01 = f[1]
    n00 = f[0] - n01
    expect = n00 * math.log(n00 / (f[0] / 2)) + n01 * math.log(n01 / (f[0] / 2))
    assert abs(ev.cost - expect) <= 1e-12
    assert ev.iterations <= 20


def test_inner_solve_failure_reports_the_stopping_residual(monkeypatch):
    # with no steps allowed the solve stops at its start v = f; the residual
    # it raises with is the relative one the stopping rule compares
    monkeypatch.setattr(variational, "_NEWTON_MAX_ITER", 0)
    g = two_patch(p=0.3, q=0.6)
    f = np.array([0.8, 0.2])
    with pytest.raises(ConvergenceError) as err:
        rate_function(g, f)
    expect = float(np.abs(g.D @ (f / (f @ g.D)) - 1.0).max())
    assert expect > variational.INNER_RES_TOL
    assert err.value.residual == pytest.approx(expect, rel=1e-12)


def test_rate_function_stationarity_residual():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, 4)
        f = rng.dirichlet(np.ones(4))
        ev = rate_function(g, f)
        if math.isfinite(ev.cost):
            assert idt_residual(g.D, ev.f, ev.v_star) <= 1e-9
            assert ev.v_star[np.nonzero(ev.v_star)[0][-1]] == 1.0


def test_rate_function_convexity_probe():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 3)
    for _ in range(20):
        f1 = rng.dirichlet(np.ones(3))
        f2 = rng.dirichlet(np.ones(3))
        t = rng.uniform(0.1, 0.9)
        lhs = rate_function(g, t * f1 + (1 - t) * f2).cost
        rhs = t * rate_function(g, f1).cost + (1 - t) * rate_function(g, f2).cost
        assert lhs <= rhs + 1e-9


def test_rate_function_nonnegative():
    rng = np.random.default_rng(6)
    g = random_graph(rng, 4)
    for _ in range(20):
        f = rng.dirichlet(np.ones(4) * 0.8)
        assert rate_function(g, f).cost >= 0.0


def _grad_rate(g, f):
    v = rate_function(g, f).v_star
    return np.log(v) - np.log(v @ g.D)


def test_rate_hessian_matches_finite_differences_of_gradient():
    # hess I = -C H^-1 C^T against central differences of grad I along the
    # tangent directions e_j - f, at interior points away from the boundary
    rng = np.random.default_rng(13)
    h = 1e-4
    for _ in range(10):
        K = int(rng.integers(2, 9))
        g = random_graph(rng, K)
        f = 0.5 * rng.dirichlet(np.ones(K)) + 0.5 / K
        v = rate_function(g, f).v_star
        hess = _rate_hessian(g.D, f, v, v @ g.D)
        W = np.eye(K) - f[None, :]
        fd = np.column_stack(
            [(_grad_rate(g, f + h * w) - _grad_rate(g, f - h * w)) / (2 * h) for w in W]
        )
        assert np.abs(fd - hess @ W.T).max() <= 1e-5 * np.abs(hess).max()


def coupled_sources(eps):
    # two equal sources joined by dispersal eps, fed by a sink
    D = [[1 - 2 * eps, eps, eps], [eps, 1 - eps, 0.0], [0.3, 0.3, 0.4]]
    return MetapopGraph(m=[2.0, 2.0, 0.5], D=D)


@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_rate_function_stationary_start_is_exact_when_weakly_coupled(eps):
    # the inner solve starts from v = f, the exact maximizer at the
    # stationary law, however weak the coupling
    g = coupled_sources(eps)
    ev = rate_function(g, stationary_distribution(g))
    assert 0.0 <= ev.cost <= 1e-10
    assert ev.iterations <= 5


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
def test_max_rate_gap_weakly_coupled_matches_twisted_route(eps):
    # J is nearly flat along the weak coupling: the duality gap alone is
    # below its tolerance at the stationary start, 0.1 away from the argmax
    g = coupled_sources(eps)
    res = max_rate_gap(g)
    tw = argmax_occupancy(g)
    assert abs(res.log_growth - tw.log_growth) <= 1e-10
    assert np.abs(res.occupancy - tw.occupancy).max() <= 1e-6
    assert res.iterations <= 30
    assert res.gap <= 1e-7


def test_max_rate_gap_two_patch_benchmark():
    res = max_rate_gap(two_patch())
    assert abs(res.log_growth - math.log(1.25)) < 1e-9
    assert np.abs(res.occupancy - [0.8, 0.2]).max() < 1e-3
    assert res.method == "simplex-optimize"


def test_max_rate_gap_unit_means():
    g = two_patch(M=1.0, m=1.0, p=0.3, q=0.6)
    res = max_rate_gap(g)
    assert abs(res.log_growth) < 1e-9
    u = stationary_distribution(g)
    assert np.abs(res.occupancy - u).max() < 1e-3


def test_argmax_occupancy_makes_one_eigen_solve(monkeypatch):
    # D' has an unknown Perron root; D'' is column-stochastic, root 1
    g = random_graph(np.random.default_rng(31), 6)
    shapes = eigen_solve_shapes(monkeypatch)
    res = argmax_occupancy(g)
    assert shapes == [(6, 6)]
    assert abs(res.log_growth - math.log(growth_rate(mean_matrix(g)).rho)) <= 1e-12


def test_argmax_occupancy_constant_means():
    rng = np.random.default_rng(7)
    g = random_graph(rng, 4, m_range=(0.6, 0.6))
    res = argmax_occupancy(g)
    assert abs(res.log_growth - math.log(0.6)) < 1e-10
    u = stationary_distribution(g)
    assert np.abs(res.occupancy - u).max() < 1e-9


def test_fully_mixing_occupancy_closed_form():
    rng = np.random.default_rng(8)
    for _ in range(10):
        g, delta = random_fully_mixing(rng, int(rng.integers(2, 5)))
        res = argmax_occupancy(g)
        expect = delta * g.m / float(delta @ g.m)
        assert np.abs(res.occupancy - expect).max() < 1e-9
        assert abs(res.log_growth - math.log(float(delta @ g.m))) < 1e-10


def test_both_routes_agree_with_spectral():
    rng = np.random.default_rng(9)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(2, 7)))
        lr = math.log(growth_rate(mean_matrix(g)).rho)
        tw = argmax_occupancy(g)
        mg = max_rate_gap(g)
        assert abs(tw.log_growth - lr) < 1e-8
        assert abs(mg.log_growth - lr) < 1e-6
        assert abs(tw.log_growth - mg.log_growth) < 1e-6


def test_twisted_occupancy_matches_spectral_product():
    rng = np.random.default_rng(10)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 7)))
        phi_spec = occupancy_spectral(growth_rate(mean_matrix(g)))
        phi_tw = argmax_occupancy(g).occupancy
        assert np.abs(phi_spec - phi_tw).max() < 1e-6


def test_occupancy_differs_from_stationary_unless_means_constant():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 6)), min_spread=0.05)
        u = stationary_distribution(g)
        phi = argmax_occupancy(g).occupancy
        assert np.abs(phi - u).max() > 1e-6


def test_periodic_dispersal_gets_twisted_occupancy_but_no_simplex_ascent():
    # occupancy is a time average, so it settles on a periodic graph too:
    # the twisted route answers it and matches the spectral one.  Each of
    # the d cyclic classes carries mass 1/d, so the realizable occupancies
    # are tied and the simplex ascent refuses the graph
    g = MetapopGraph(m=[2.0, 0.5], D=[[0.0, 1.0], [1.0, 0.0]])
    tw = argmax_occupancy(g)
    assert abs(tw.log_growth) <= 1e-12  # rho^2 = 2 * 0.5
    assert np.abs(tw.occupancy - 0.5).max() <= 1e-12
    rng = np.random.default_rng(41)
    for _ in range(300):
        d, b = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        D = np.kron(np.roll(np.eye(d), 1, axis=1), np.ones((b, b)))
        D *= rng.uniform(0.1, 1.0, D.shape)
        g = MetapopGraph(m=rng.uniform(0.3, 2.5, d * b), D=D / D.sum(axis=1, keepdims=True))
        assert validate_graph(g).period == d
        sd = growth_rate(mean_matrix(g))
        tw = argmax_occupancy(g)
        assert abs(tw.log_growth - math.log(sd.rho)) <= 1e-12
        assert np.abs(tw.occupancy - occupancy_spectral(sd)).max() <= 1e-12
        classes = tw.occupancy.reshape(d, b).sum(axis=1)
        assert np.abs(classes - 1 / d).max() <= 1e-12
        with pytest.raises(ValidationError, match="^simplex ascent needs a full-dimensional"):
            max_rate_gap(g)


def test_simplex_route_rejects_lockstep_supports_twisted_handles_them():
    # patch 1 is entered only from patch 2, which has out-degree one, so
    # realizable occupancies satisfy f_1 = f_2 exactly: a lower-dimensional
    # slice the multiplicative ascent cannot stay on
    D = [[0.9458, 0.0, 0.0542], [0.4056, 0.0, 0.5944], [0.0, 1.0, 0.0]]
    g = MetapopGraph(m=[2.52, 1.70, 1.54], D=np.array(D) / np.array(D).sum(1)[:, None])
    with pytest.raises(ValidationError, match="lower-dimensional"):
        max_rate_gap(g)
    tw = argmax_occupancy(g)
    lr = math.log(growth_rate(mean_matrix(g)).rho)
    assert abs(tw.log_growth - lr) < 1e-9
    assert abs(tw.occupancy[1] - tw.occupancy[2]) < 1e-9  # lockstep pair


def _null_space_full_dimensional(D):
    # reference: marginal image of an explicit null-space basis of balance
    k = D.shape[0]
    edges = np.argwhere(D > 0)
    balance = np.zeros((k, len(edges)))
    marginal = np.zeros((k, len(edges)))
    for col, (i, j) in enumerate(edges):
        balance[i, col] += 1.0
        balance[j, col] -= 1.0
        marginal[i, col] = 1.0
    u, s, vt = np.linalg.svd(balance)
    null_mask = np.concatenate([s, np.zeros(len(edges) - s.size)]) <= 1e-10
    null_basis = vt[null_mask.nonzero()[0], :].T
    if null_basis.size == 0:
        return False
    image = marginal @ null_basis
    rank = int(np.linalg.matrix_rank(image, tol=1e-10))
    return rank == k


def _sparse_irreducible(rng, K):
    # no forced self-loops, so lockstep ties occur by chance
    while True:
        D = np.where(rng.random((K, K)) < 0.3, rng.random((K, K)), 0.0)
        s = D.sum(axis=1)
        if np.any(s == 0):
            continue
        D = D / s[:, None]
        if validate_graph(MetapopGraph(m=np.ones(K), D=D)).irreducible:
            return D


def test_full_dimension_rank_identity_matches_null_space_basis():
    rng = np.random.default_rng(12)
    graphs = [random_graph(rng, int(rng.integers(2, 13))).D for _ in range(20)]
    lockstep = [
        [[0.9458, 0.0, 0.0542], [0.4056, 0.0, 0.5944], [0.0, 1.0, 0.0]],
        [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],
    ]
    graphs += [np.array(D) for D in lockstep]
    for D in graphs:
        assert _occupancy_set_is_full_dimensional(D) == _null_space_full_dimensional(D)
    assert all(_occupancy_set_is_full_dimensional(D) for D in graphs[:20])
    assert not any(_occupancy_set_is_full_dimensional(D) for D in graphs[20:])
    sparse_rng = np.random.default_rng(14)
    sparse = [_sparse_irreducible(sparse_rng, int(sparse_rng.integers(3, 9))) for _ in range(60)]
    full = [_occupancy_set_is_full_dimensional(D) for D in sparse]
    assert full == [_null_space_full_dimensional(D) for D in sparse]
    assert 2 < full.count(False) < len(sparse)


def test_rejects_zero_means():
    g = MetapopGraph(m=[2.0, 0.0], D=[[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        argmax_occupancy(g)


def test_rate_grid_runs_and_peaks_at_phi():
    g = two_patch()
    rows = rate_grid_2patch(g, n=199)
    best = max(rows, key=lambda r: r[3])
    assert abs(best[0] - 0.8) < 0.01
    assert abs(best[3] - math.log(1.25)) < 1e-4
    with pytest.raises(ValidationError):
        rate_grid_2patch(MetapopGraph(m=[1, 1, 1], D=np.full((3, 3), 1 / 3)))


def test_sanov_rate_matches_simulated_tail():
    # Sanov rate of the symmetric two-patch walk from lattice-point
    # probabilities at two walk lengths; 0.72 needs lengths divisible by 25
    visits = symmetric_walk_visits(321, 10**6, (20, 25, 40, 50))
    g = two_patch()
    for f0, n1, n2 in ((0.7, 20, 40), (0.72, 25, 50), (0.8, 20, 40)):
        rate_hat = sanov_lattice_rate(visits, f0, n1, n2)
        target = rate_function(g, [f0, 1.0 - f0]).cost
        assert abs(rate_hat - target) / target < 0.15
