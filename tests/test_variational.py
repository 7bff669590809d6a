import math

import numpy as np
import pytest
from scipy.optimize import linprog

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
from sourcesink.variational import _cost, _rate_hessian, _ties
from conftest import (
    eigen_solve_shapes,
    random_fully_mixing,
    random_graph,
    sanov_lattice_rate,
    scaled_coupling_graphs,
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


def lockstep_graphs(seed, n):
    # patch 0 disperses only to patch 1, which is entered only from patch 0,
    # so a walk visits them in lockstep: f_0 = f_1 on every realizable f.
    # Yields each dispersal matrix with an interior f that has f_0 = 2 f_1
    rng = np.random.default_rng(seed)
    for _ in range(n):
        K = int(rng.integers(2, 65))
        D = random_graph(rng, K).D.copy()
        D[:, 1] = 0.0
        D[0] = 0.0
        D[0, 1] = 1.0
        D[1:] /= D[1:].sum(axis=1, keepdims=True)
        f = rng.dirichlet(np.ones(K))
        f[0] = 2.0 * f[1]
        yield D, f / f.sum()


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
    # larger lockstep graphs: +inf off the slice before any inner step, and
    # a finite cost in a few steps once f_0 = f_1
    for D, f in lockstep_graphs(62, 12):
        g = MetapopGraph(m=np.ones(len(f)), D=D)
        off = rate_function(g, f)
        assert math.isinf(off.cost) and off.iterations == 0
        f[0] = f[1]
        on = rate_function(g, f / f.sum())
        assert math.isfinite(on.cost) and on.iterations <= 8


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
        hess = _rate_hessian(g.D, f, v, v @ g.D, np.arange(K - 1))
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


@pytest.fixture(scope="module")
def plateau_graphs():
    # graphs 15 (K = 61) and 87 (K = 36) of the scaled-coupling recipe, which
    # the simplex route answers only through its float-plateau exit, and
    # graph 97 (K = 5), whose line search meets inner solves that raise
    graphs = list(scaled_coupling_graphs(98))
    return {15: graphs[15], 87: graphs[87], 97: graphs[97]}


@pytest.mark.parametrize("i", [15, 87])
def test_simplex_fallback_tiers_answer_at_a_float_plateau(plateau_graphs, monkeypatch, i):
    g = plateau_graphs[i]
    assert g.K == {15: 61, 87: 36}[i]
    res = max_rate_gap(g)
    assert abs(res.log_growth - math.log(growth_rate(mean_matrix(g)).rho)) <= 1e-9
    assert np.abs(res.occupancy - argmax_occupancy(g).occupancy).max() <= 1e-9
    # with the decrement and step tolerances off, only the plateau exit can
    # return, and it returns the same answer at the same step
    monkeypatch.setattr(variational, "_DECREMENT_TOL", 0.0)
    monkeypatch.setattr(variational, "_STEP_TOL", 0.0)
    plateau = max_rate_gap(g)
    assert (plateau.log_growth, plateau.iterations) == (res.log_growth, res.iterations)


def test_simplex_plateau_needs_the_noise_floor_of_j(plateau_graphs, monkeypatch):
    # graph 87 reaches its plateau only because gains of J below _J_NOISE
    # do not count as a rise; graph 15 does not need the floor
    monkeypatch.setattr(variational, "_J_NOISE", 0.0)
    assert math.isfinite(max_rate_gap(plateau_graphs[15]).log_growth)
    with pytest.raises(ConvergenceError):
        max_rate_gap(plateau_graphs[87])


def test_simplex_line_search_steps_past_an_inner_solve_that_raises(plateau_graphs, monkeypatch):
    # a trial point whose inner solve raises counts as no rise of J, and the
    # step is halved; graph 97 answers only through that rule
    g = plateau_graphs[97]
    raised = []

    def cost(*args, **kwargs):
        try:
            return _cost(*args, **kwargs)
        except ConvergenceError:
            raised.append(args[1])
            raise

    monkeypatch.setattr(variational, "_cost", cost)
    res = max_rate_gap(g)
    assert g.K == 5 and res.iterations == 23 and raised
    assert abs(res.log_growth - math.log(growth_rate(mean_matrix(g)).rho)) <= 1.8e-15
    assert np.abs(res.occupancy - argmax_occupancy(g).occupancy).max() <= 1.2e-16


@pytest.mark.parametrize("hessian", [np.zeros, lambda shape: np.full(shape, np.nan)],
                         ids=["singular", "nan"])
def test_simplex_ascent_raises_on_a_singular_or_non_finite_newton_system(monkeypatch, hessian):
    # a KKT system that cannot be solved, or whose solution is not finite,
    # is a stall: ConvergenceError with the duality gap as residual
    g = two_patch()
    monkeypatch.setattr(variational, "_rate_hessian", lambda D, *args: hessian(D.shape))
    with pytest.raises(ConvergenceError, match="simplex Newton solver stalled") as err:
        max_rate_gap(g)
    assert err.value.residual is not None


def test_simplex_accuracy_floor_at_the_weakest_coupling():
    # graph 73 of the scaled-coupling recipe (K = 63, smallest dispersal
    # entry 3.2e-13) answers with a certified gap, but phi is only within
    # 3.7e-7 of the twisted route, which agrees with the spectral one to
    # 1e-15; this pins today's floor
    g = list(scaled_coupling_graphs(74))[73]
    assert g.K == 63
    res = max_rate_gap(g)
    assert res.gap <= variational.OUTER_GAP_TOL
    assert np.abs(res.occupancy - argmax_occupancy(g).occupancy).max() <= 1e-6


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


def test_argmax_occupancy_counts_an_underflowed_patch_as_0_log_0():
    # the sink's twisted occupancy underflows to 0, and so does its v; the
    # value sums over the occupied patches only, as ``payoff`` does
    g = MetapopGraph(m=[1e-200, 1e200], D=[[0.5, 0.5], [0.5, 0.5]])
    res = argmax_occupancy(g)
    assert res.occupancy.tolist() == [0.0, 1.0]
    lr = math.log(growth_rate(mean_matrix(g)).rho)
    assert abs(res.log_growth - lr) <= 1e-12 * lr


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


def test_periodic_dispersal_gets_both_occupancy_routes():
    # occupancy is a time average, so it settles on a periodic graph too.
    # Each of the d cyclic classes carries mass 1/d, so the realizable
    # occupancies are tied: the simplex ascent keeps those ties as
    # constraints and answers with the twisted and spectral routes
    g = MetapopGraph(m=[2.0, 0.5], D=[[0.0, 1.0], [1.0, 0.0]])
    tw = argmax_occupancy(g)
    assert abs(tw.log_growth) <= 1e-12  # rho^2 = 2 * 0.5
    assert np.abs(tw.occupancy - 0.5).max() <= 1e-12
    assert np.array_equal(max_rate_gap(g).occupancy, [0.5, 0.5])
    rng = np.random.default_rng(41)
    for _ in range(300):
        d, b = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        D = np.kron(np.roll(np.eye(d), 1, axis=1), np.ones((b, b)))
        D *= rng.uniform(0.1, 1.0, D.shape)
        g = MetapopGraph(m=rng.uniform(0.3, 2.5, d * b), D=D / D.sum(axis=1, keepdims=True))
        assert validate_graph(g).period == d
        sd = growth_rate(mean_matrix(g))
        tw = argmax_occupancy(g)
        mg = max_rate_gap(g)
        assert abs(tw.log_growth - math.log(sd.rho)) <= 1e-12
        assert np.abs(tw.occupancy - occupancy_spectral(sd)).max() <= 1e-12
        assert abs(mg.log_growth - math.log(sd.rho)) <= 1e-12
        assert np.abs(mg.occupancy - tw.occupancy).max() <= 1e-8
        assert mg.gap <= variational.OUTER_GAP_TOL
        for occ in (tw.occupancy, mg.occupancy):
            classes = occ.reshape(d, b).sum(axis=1)
            assert np.abs(classes - 1 / d).max() <= 1e-12


LOCKSTEP3 = [[0.9458, 0.0, 0.0542], [0.4056, 0.0, 0.5944], [0.0, 1.0, 0.0]]


@pytest.mark.parametrize("m, D", [
    # patch 1 is entered only from patch 2, which has out-degree one, so
    # realizable occupancies satisfy f_1 = f_2 exactly
    ([2.52, 1.70, 1.54], LOCKSTEP3),
    # bipartite: each half carries mass 1/2
    ([3.0, 1.5, 1.4, 1.6], [[0, 0, .5, .5], [0, 0, .3, .7], [.6, .4, 0, 0], [.2, .8, 0, 0]]),
    # period 3: classes {0, 1}, {2, 3}, {4}
    ([2.0, 0.5, 1.3, 0.9, 1.7], [[0, 0, .4, .6, 0], [0, 0, .1, .9, 0], [0, 0, 0, 0, 1],
                                 [0, 0, 0, 0, 1], [.3, .7, 0, 0, 0]]),
    # three ties, and five occupancies near 1e-8 at the argmax: a start or step
    # off the tied slice by rounding (6e-16) stalls the inner solve there
    ([2.46, 0.55, 1.77, 1.37, 0.34, 1.56, 1.06, 1.63, 0.39],
     {(0, 8): 1.0, (1, 4): 1.0, (2, 6): 1.0, (3, 2): 0.3996, (3, 5): 0.109, (3, 7): 0.4914,
      (4, 3): 0.0066, (4, 4): 0.9934, (5, 1): 1.0, (6, 0): 1.0, (7, 4): 0.1064, (7, 7): 0.8936,
      (8, 1): 0.1663, (8, 5): 0.8337}),
], ids=["lockstep3", "bipartite", "period3", "near-boundary"])
def test_simplex_route_answers_tied_occupancy_sets(m, D):
    if isinstance(D, dict):
        entries, D = D, np.zeros((len(m), len(m)))
        for ij, x in entries.items():
            D[ij] = x
    g = MetapopGraph(m=m, D=D / np.sum(D, axis=1, keepdims=True))
    rows, _ = _ties(g.D)
    assert len(rows) >= 1
    mg = max_rate_gap(g)
    tw = argmax_occupancy(g)
    lr = math.log(growth_rate(mean_matrix(g)).rho)
    assert abs(mg.log_growth - lr) <= 1e-12
    assert abs(mg.log_growth - tw.log_growth) <= 1e-12
    assert np.abs(mg.occupancy - tw.occupancy).max() <= 1e-10
    assert np.abs(rows @ mg.occupancy).max() <= 1e-12  # on the tied slice


def _null_space_rank(D):
    # reference: rank of the marginal image of an explicit null-space basis of balance
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
        return 0
    return int(np.linalg.matrix_rank(marginal @ null_basis, tol=1e-10))


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
    # _ties gives K - rank(marginal image) rows, each holding on every
    # circulation's marginal, and tail classes that partition the patches
    def check(D):
        rows, tails = _ties(D)
        assert len(rows) == D.shape[0] - _null_space_rank(D)
        assert np.array_equal(tails.sum(axis=0), np.ones(D.shape[0]))
        if len(rows):
            f = argmax_occupancy(MetapopGraph(m=np.ones(D.shape[0]), D=D)).occupancy
            assert np.abs(rows @ f).max() <= 1e-12
        return len(rows)

    rng = np.random.default_rng(12)
    graphs = [random_graph(rng, int(rng.integers(2, 13))).D for _ in range(20)]
    lockstep = [LOCKSTEP3, [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]]
    graphs += [np.array(D) for D in lockstep]
    ties = [check(D) for D in graphs]
    assert ties == [0] * 20 + [1, 1]
    sparse_rng = np.random.default_rng(14)
    sparse = [_sparse_irreducible(sparse_rng, int(sparse_rng.integers(3, 9))) for _ in range(60)]
    ties = [check(D) for D in sparse]
    assert 2 < len(ties) - ties.count(0) < len(sparse)


def _circulation_carries(D, f):
    # LP oracle: f is realizable exactly when some flow x >= 0 on the edges
    # of D has out- and in-marginals both equal to f
    I, J = np.nonzero(D > 0)
    k, e = len(f), np.arange(I.size)
    A = np.zeros((2 * k, I.size))
    A[I, e] = 1.0
    A[k + J, e] = 1.0
    res = linprog(np.zeros(I.size), A_eq=A, b_eq=np.concatenate([f, f]), bounds=(0, None),
                  method="highs")
    return res.status == 0


def test_rate_function_is_infinite_off_a_tie_of_the_support():
    # sparse graphs and f with about 30% of entries zeroed: every f a
    # circulation carries keeps a finite cost and every other f costs +inf.
    # An f that breaks a tie of its own support graph does so before any
    # inner step, even where it breaks no tie of the whole graph; the rest
    # (f outside the circulation cone by an inequality) stall at the clamp
    # floor of the inner solve
    support_only = 0
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        for _ in range(400):
            K = int(rng.integers(3, 9))
            D = _sparse_irreducible(rng, K)
            f = rng.dirichlet(np.ones(K))
            f[rng.random(K) < 0.3] = 0.0
            if f.sum() == 0.0:
                continue
            f /= f.sum()
            g = MetapopGraph(m=np.ones(K), D=D)
            sup = np.flatnonzero(f)
            rows, _ = _ties(D[np.ix_(sup, sup)])
            ev = rate_function(g, f)
            if _circulation_carries(D, f):
                assert math.isfinite(ev.cost)
                continue
            assert ev.cost == math.inf
            if rows.size and np.abs(rows @ f[sup]).max() > 1e-12:
                assert ev.iterations == 0
                whole, _ = _ties(D)
                support_only += not (whole.size and np.abs(whole @ f).max() > 1e-12)
    assert support_only >= 9


def test_rate_function_is_infinite_where_the_inner_solve_stalls_at_the_floor():
    # 0 -> 2 -> 1 -> 0 with loops at 1 and 2: every visit to 2 comes from 0,
    # so a circulation needs f0 <= f2.  This f breaks no tie, and the inner
    # solve stalls (residual 1.15) with patches 1 and 2 at the clamp floor
    D = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.8, 0.2]])
    f = np.array([0.19, 0.63, 0.18])
    assert not _circulation_carries(D, f) and _ties(D)[0].size == 0
    assert rate_function(MetapopGraph(m=np.ones(3), D=D), f).cost == math.inf


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


def _reference_inner_solve(Dss, fs, v0, bound):
    # the inner loop before its trims (the objective recomputed from xi after
    # each accepted step, the free block by np.ix_, lam I - H from a fresh
    # identity): the trimmed loop must match it bit for bit
    s = fs.size
    xi = variational._clamp(np.log(fs if v0 is None else v0))
    free = np.arange(s) != int(np.argmax(fs))
    eye = np.eye(s - 1)

    def objective(xi):
        return float(fs @ (xi - np.log(np.exp(xi) @ Dss)))

    obj = objective(xi)
    for it in range(variational._NEWTON_MAX_ITER + 1):
        v = np.exp(xi)
        vD = v @ Dss
        denom = Dss @ (fs / vD)
        rel = float(np.abs(v * denom / fs - 1.0).max())
        if rel <= variational.INNER_RES_TOL:
            return obj, v, it
        if it == variational._NEWTON_MAX_ITER:
            break
        g = (fs - v * denom)[free]
        H = variational._inner_hessian(Dss, fs, v, vD, denom)[np.ix_(free, free)]
        d = np.zeros(s)
        d[free] = np.linalg.solve(float(np.abs(g).max()) ** 2 * eye - H, g)
        decrement = float(g @ d[free])
        polish = decrement <= variational._POLISH_DECREMENT
        t = 1.0
        while t >= 1e-12:
            xi_new = variational._clamp(xi + t * d)
            obj_new = objective(xi_new)
            if math.isfinite(obj_new) and (polish or obj_new >= obj + 0.25 * t * decrement):
                break
            t *= 0.5
        else:
            break
        xi, obj = xi_new, obj_new
        if obj > bound:
            return math.inf, np.exp(xi), it + 1
    if xi.min() <= -variational._XI_RANGE:
        return math.inf, v, it
    raise ConvergenceError("inner rate-function solve did not converge", residual=rel)


def _reference_cost(D, f, v0):
    # the support slice, the no-inflow check and the bound, then the reference loop
    sup = np.where(f > 0)[0]
    Dss = D[np.ix_(sup, sup)]
    v = np.zeros(f.size)
    if np.any(Dss.sum(axis=0) == 0.0):
        v[sup] = 1.0
        return math.inf, v, 0
    bound = math.log(1.0 / float(D[D > 0].min())) + 5.0
    cost, v[sup], steps = _reference_inner_solve(Dss, f[sup], None if v0 is None else v0[sup], bound)
    return (0.0 if -1e-12 < cost < 0.0 else cost), v, steps


def _outcome(solve, *args):
    try:
        return solve(*args)
    except ConvergenceError as err:
        return ("raised", err.residual)


def _assert_same_outcome(got, expect):
    if expect[0] == "raised":
        assert got == expect
        return
    assert got[0] == expect[0]  # both +inf, or the same float
    assert np.array_equal(got[1], expect[1])
    assert got[2] == expect[2]


def test_trimmed_inner_solve_matches_the_reference_loop():
    rng = np.random.default_rng(61)
    partial = 0
    for _ in range(24):
        K = int(rng.integers(2, 65))
        g = random_graph(rng, K)
        bound = variational._cost_bound(g.D)
        f = rng.dirichlet(np.ones(K))
        drop = rng.random(K) < 0.3
        drop[int(rng.integers(K))] = False
        fp = np.where(drop, 0.0, f)
        fp /= fp.sum()
        partial += int(drop.any())
        for freq in (f, fp):
            for v0 in (None, freq * np.exp(0.3 * rng.standard_normal(K))):
                expect = _outcome(_reference_cost, g.D, freq, v0)
                got = _outcome(variational._cost, g.D, freq, bound, v0)
                _assert_same_outcome(got, expect)
                assert math.isfinite(got[0])  # every patch keeps a self-loop
    assert partial >= 12


def test_trimmed_inner_solve_matches_the_reference_past_the_cost_bound():
    # on the lockstep graphs with f_0 = 2 f_1 no circulation carries f: the
    # cost is +inf from the tie check, before any inner step.  The
    # one-pin solve that a partial support takes still gets such inputs, and
    # climbs past the cost bound (+inf), or on most larger graphs stalls
    # first and raises, as the reference loop does
    unbounded = 0
    for D, f in lockstep_graphs(62, 12):
        bound = variational._cost_bound(D)
        assert variational._cost(D, f, bound)[::2] == (math.inf, 0)
        expect = _outcome(_reference_inner_solve, D, f, None, bound)
        got = _outcome(variational._inner_solve, D, f, None, bound)
        _assert_same_outcome(got, expect)
        unbounded += got[0] == math.inf
    assert unbounded >= 2


def test_scaled_start_follows_the_inner_maximizer_along_the_ascent_path():
    # from f to f' on the segment from the stationary law u to the argmax phi,
    # the inner solve started at v f'/f (v the inner vector at f) gives the
    # cost of the one started at v, in fewer steps overall and at most one
    # more on any pair
    rng = np.random.default_rng(63)
    old_total = new_total = 0
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(2, 65)))
        bound = variational._cost_bound(g.D)
        u = stationary_distribution(g)
        phi = argmax_occupancy(g).occupancy
        for a, b in ((0.0, 0.3), (0.3, 0.6), (0.6, 0.9)):
            f, f_next = u + a * (phi - u), u + b * (phi - u)
            v = variational._cost(g.D, f, bound)[1]
            old_cost, _, old_steps = variational._cost(g.D, f_next, bound, v)
            new_cost, _, new_steps = variational._cost(g.D, f_next, bound, v * (f_next / f))
            assert abs(new_cost - old_cost) <= 1e-12
            assert new_steps <= old_steps + 1
            old_total += old_steps
            new_total += new_steps
    assert new_total < old_total


def test_fully_mixing_ascent_takes_no_inner_steps():
    # with identical dispersal rows the inner maximizer at f is v = f, so both
    # the stationary start and every scaled start are already exact
    rng = np.random.default_rng(64)
    for _ in range(5):
        g, _ = random_fully_mixing(rng, int(rng.integers(2, 9)))
        res = max_rate_gap(g)
        assert res.iterations >= 1 and res.inner_steps == 0


def test_max_rate_gap_counts_the_inner_steps_of_every_evaluation(monkeypatch):
    steps = []
    cost = variational._cost

    def counted(*args):
        out = cost(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr(variational, "_cost", counted)
    g = random_graph(np.random.default_rng(65), 12)
    res = max_rate_gap(g)
    assert len(steps) >= res.iterations  # the start and every trial point
    assert res.inner_steps == sum(steps) > 0
