import functools
import math
import tracemalloc

import numpy as np
import pytest

from sourcesink import (
    EnvironmentModel,
    MarkovSwitching,
    MetapopGraph,
    Periodic,
    Schedule,
    ValidationError,
    WalkConfig,
    argmax_occupancy,
    edge_chain,
    even_return_functional,
    extinction_probability,
    growth_rate,
    load_environment,
    lyapunov_estimate,
    max_rate_gap,
    mean_matrix,
    occupancy_spectral,
    periodic_growth_and_occupancy,
    periodic_mean_matrix,
    phase_occupancy,
    random_env_lower_bound,
    return_functional_exact,
    return_functional_mc,
    simulate,
    two_patch_periodic_criterion,
    validate_graph,
)
from sourcesink import environments, graph, walks
from sourcesink.environments import LYAPUNOV_BATCHES, LYAPUNOV_BURN_IN, _env_path
from sourcesink.variational import _twisted_occupancy
from sourcesink.walks import return_value_matrix
from conftest import (
    eigen_solve_shapes,
    pair_chain,
    pair_chain_answer,
    random_fully_mixing,
    random_graph,
    recipe_dispersal,
    space_time_chain,
    two_patch,
)


def alternation(g, means1, means2):
    return EnvironmentModel(
        states=("e1", "e2"), means=[means1, means2], schedule=Periodic((0, 1))
    )


def coupled_sinks():
    # both patches are time-averaged sinks, yet the metapopulation persists
    g = two_patch(M=1.0, m=1.0)
    return g, alternation(g, [4.0, 0.9], [0.2, 0.9])


def test_constant_environment_product_is_square():
    g = two_patch()
    env = alternation(g, [2.0, 0.5], [2.0, 0.5])
    A = mean_matrix(g)
    assert np.allclose(periodic_mean_matrix(g, env), A @ A, atol=1e-14)


def test_two_step_matrix_hand_expansion():
    g, env = coupled_sinks()
    A2 = periodic_mean_matrix(g, env)
    M1, M2, m1, m2, p, q = 4.0, 0.2, 0.9, 0.9, 0.5, 0.5
    expect = [
        [M1 * M2 * (1 - p) ** 2 + M1 * m2 * p * q,
         M1 * m2 * p * (1 - q) + M1 * M2 * (1 - p) * p],
        [m1 * M2 * q * (1 - p) + m1 * m2 * (1 - q) * q,
         m1 * m2 * (1 - q) ** 2 + m1 * M2 * q * p],
    ]
    assert np.allclose(A2, expect, atol=1e-14)


def test_identity_dispersal_product_is_diagonal():
    g = MetapopGraph(m=[1.0, 1.0], D=np.eye(2))
    env = alternation(g, [2.0, 0.5], [3.0, 0.25])
    assert np.allclose(periodic_mean_matrix(g, env), np.diag([6.0, 0.125]))


def test_longer_schedules_take_ordered_products():
    g = two_patch()
    env = EnvironmentModel(
        states=("a", "b", "c"),
        means=[[2.0, 0.5], [1.0, 1.0], [0.5, 2.0]],
        schedule=Periodic((0, 1, 2)),
    )
    expect = (
        (env.means[0][:, None] * g.D)
        @ (env.means[1][:, None] * g.D)
        @ (env.means[2][:, None] * g.D)
    )
    assert np.allclose(periodic_mean_matrix(g, env), expect)


def test_two_patch_criterion_symmetric_reduction():
    # p = q = 1/2, equal sink means: persistence iff M1 M2 + m(M1+M2) + m^2 > 4
    rng = np.random.default_rng(0)
    for _ in range(50):
        M1, M2 = rng.uniform(0.1, 4.0, 2)
        m = rng.uniform(0.05, 1.0)
        v = two_patch_periodic_criterion(M1, M2, m, m, 0.5, 0.5)
        lhs = M1 * M2 + m * (M1 + M2) + m * m
        assert v.persists == (lhs > 4.0 + 4e-9)


def test_two_patch_criterion_coupled_sinks_example():
    v = two_patch_periodic_criterion(4.0, 0.2, 0.9, 0.9, 0.5, 0.5)
    assert v.persists
    assert 4.0 * 0.2 <= 1.0 and 0.9 * 0.9 <= 1.0  # both patches averaged sinks


def test_two_patch_criterion_boundary_counts_as_extinction():
    v = two_patch_periodic_criterion(1.0, 1.0, 1.0, 1.0, 0.3, 0.4)
    assert not v.persists
    assert v.near_critical


def test_two_patch_criterion_matches_spectral_radius():
    rng = np.random.default_rng(1)
    agree = total = 0
    for _ in range(300):
        M1, M2, m1, m2 = rng.uniform(0.05, 3.0, 4)
        p, q = rng.uniform(0.02, 0.98, 2)
        g = two_patch(M=1.0, m=1.0, p=p, q=q)
        env = alternation(g, [M1, m1], [M2, m2])
        rho = growth_rate(periodic_mean_matrix(g, env)).rho
        if abs(rho - 1.0) <= 1e-9:
            continue
        total += 1
        v = two_patch_periodic_criterion(M1, M2, m1, m2, p, q)
        agree += v.persists == (rho > 1.0)
    assert agree == total


def test_even_return_constant_env_matches_squared_chain():
    g = two_patch()
    env = alternation(g, [2.0, 0.5], [2.0, 0.5])
    out = even_return_functional(g, env)
    assert set(out) == {"e1", "e2"}
    single = return_functional_exact(g)
    for v in out.values():
        assert v.persists == single.persists


def test_even_return_sign_matches_closed_form_on_random_draws():
    rng = np.random.default_rng(2)
    for _ in range(100):
        M1, M2, m1, m2 = rng.uniform(0.05, 3.0, 4)
        p, q = rng.uniform(0.05, 0.95, 2)
        g = two_patch(M=1.0, m=1.0, p=p, q=q)
        env = alternation(g, [M1, m1], [M2, m2])
        rho = growth_rate(periodic_mean_matrix(g, env)).rho
        if abs(rho - 1.0) <= 1e-6:
            continue
        crit = two_patch_periodic_criterion(M1, M2, m1, m2, p, q)
        for v in even_return_functional(g, env).values():
            assert v.persists == crit.persists


def test_even_return_all_unit_means_is_one():
    g = two_patch(M=1.0, m=1.0, p=0.4, q=0.7)
    env = alternation(g, [1.0, 1.0], [1.0, 1.0])
    for v in even_return_functional(g, env).values():
        assert abs(v.value - 1.0) < 1e-9
        assert not v.persists


def test_even_return_mc_tracks_exact():
    g, env = coupled_sinks()
    exact = even_return_functional(g, env)
    mc = even_return_functional(g, env, cfg=WalkConfig(n_trials=100_000, seed=17))
    v = exact["e1"]
    w = mc["e1"]
    assert math.isfinite(v.value)
    assert abs(w.value - v.value) <= 4 * w.ci_halfwidth
    assert w.method == "monte-carlo"


def test_one_state_schedule_is_the_fixed_environment():
    rng = np.random.default_rng(13)
    cfg = WalkConfig(n_trials=300, seed=5, max_steps=10**4)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(2, 7)))
        env = EnvironmentModel(states=("e",), means=[g.m], schedule=Periodic((0,)))
        for home in range(g.K):
            (v,) = even_return_functional(g, env, home).values()
            assert v == return_functional_exact(g, home)
            assert v.value == return_value_matrix(mean_matrix(g), [home])[0, 0]
        (w,) = even_return_functional(g, env, 0, cfg).values()
        assert w == return_functional_mc(g, 0, cfg)


def test_every_phase_of_a_long_schedule_matches_the_product_sign():
    rng = np.random.default_rng(14)
    checked = 0
    for _ in range(60):
        K, n_states, P = (int(x) for x in rng.integers((2, 2, 3), (6, 4, 6)))
        g = random_graph(rng, K, m_range=(1.0, 1.0))
        env = EnvironmentModel(states=tuple(f"e{i}" for i in range(n_states)),
                               means=rng.uniform(0.2, 2.0, (n_states, K)),
                               schedule=Periodic(tuple(rng.integers(0, n_states, P).tolist())))
        log_rho = math.log(growth_rate(periodic_mean_matrix(g, env)).rho)
        if abs(log_rho) <= 1e-6:
            continue
        checked += 1
        for v in even_return_functional(g, env, int(rng.integers(K))).values():
            assert v.persists == (log_rho > 0)
    assert checked >= 50


def test_period_three_mc_tracks_exact():
    g = MetapopGraph(m=[1.0, 1.0, 1.0],
                     D=[[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]])
    env = EnvironmentModel(states=("a", "b", "c"),
                           means=[[3.0, 0.4, 0.5], [0.5, 2.0, 0.3], [0.6, 0.4, 1.5]],
                           schedule=Periodic((0, 1, 2)))
    exact = even_return_functional(g, env)
    mc = even_return_functional(g, env, cfg=WalkConfig(n_trials=20_000, seed=3))
    assert list(exact) == list(mc) == ["a", "b", "c"]
    for phase, v in exact.items():
        assert abs(mc[phase].value - v.value) <= 4 * mc[phase].ci_halfwidth


def test_repeated_schedules_keep_verdicts_and_first_phase_keys():
    rng = np.random.default_rng(15)
    for _ in range(20):
        g = random_graph(rng, 3, m_range=(1.0, 1.0))
        means = rng.uniform(0.2, 2.0, (2, 3))

        def phases(order):
            env = EnvironmentModel(states=("e1", "e2"), means=means, schedule=Periodic(order))
            return even_return_functional(g, env)

        once, twice = phases((0, 1)), phases((0, 1, 0, 1))
        assert list(twice) == ["e1", "e2"]
        assert {k: v.persists for k, v in twice.items()} == {k: v.persists for k, v in once.items()}
        assert list(phases((0, 1, 0))) == ["e1", "e2"]


def _rotated_verdicts(g, env, home, cfg):
    # the reference: the schedule rotated to start at each phase, every
    # rotation solved as the product of its mean matrices (or walked), and
    # the first phase of each state kept
    means = env.means[list(env.schedule.cycle)]
    out = {}
    for s, state in enumerate(env.schedule.cycle):
        rows = np.roll(means, -s, axis=0)
        if cfg is None:
            A = functools.reduce(np.matmul, [row[:, None] * g.D for row in rows])
            value = float(return_value_matrix(A, [home])[0, 0])
        else:
            value = walks._mc_verdict(*walks._excursions(
                g.D, rows, home, cfg.n_trials, cfg.seed, cfg.max_steps)).value
        out.setdefault(env.states[state], value)
    return out


@pytest.mark.parametrize("case", ["P12-exact", "P12-mc", "P365-exact"])
def test_even_return_solves_one_phase_per_reported_state(monkeypatch, case):
    rng = np.random.default_rng(16)
    g = random_graph(rng, 5, m_range=(1.0, 1.0))
    if case.startswith("P12"):
        env = EnvironmentModel(states=("a", "b", "c"), means=rng.uniform(0.3, 1.8, (3, 5)),
                               schedule=Periodic((2, 1, 0, 0, 1, 2, 2, 0, 1, 0, 2, 1)))
    else:
        # wet and dry seasons, the means scaled so that the year's product has rho = 0.8
        wet_dry = Periodic((0,) * 150 + (1,) * 215)
        means = rng.uniform(0.5, 1.5, (2, 5))
        rho = growth_rate(periodic_mean_matrix(g, EnvironmentModel(("wet", "dry"), means, wet_dry))).rho
        env = EnvironmentModel(("wet", "dry"), means * (0.8 / rho) ** (1 / 365), wet_dry)
    cfg = WalkConfig(n_trials=2000, seed=9, max_steps=10**4) if case.endswith("mc") else None
    calls = []
    solve = environments._phase_verdict

    def counted(*args):
        calls.append(args[1].shape)
        return solve(*args)

    monkeypatch.setattr(environments, "_phase_verdict", counted)
    out = even_return_functional(g, env, 1, cfg)
    assert list(out) == (["c", "b", "a"] if case.startswith("P12") else ["wet", "dry"])
    assert calls == [(len(env.schedule.cycle), g.K)] * len(out)
    assert {k: v.value for k, v in out.items()} == _rotated_verdicts(g, env, 1, cfg)
    assert all(0.0 < v.value < math.inf for v in out.values())


def _product(g, env):
    """Perron data of the one-period product of mean matrices."""
    return growth_rate(periodic_mean_matrix(g, env))


def test_edge_chain_matches_product_spectral():
    g, env = coupled_sinks()
    res, product = periodic_growth_and_occupancy(g, env), _product(g, env)
    assert abs(res.log_growth - 0.5 * math.log(product.rho)) < 1e-9
    assert res.occupancy.shape == (2, 2)
    assert np.abs(res.occupancy.sum(axis=1) - 1.0).max() < 1e-9
    assert np.all(res.occupancy >= 0)
    occ, steps = phase_occupancy(g, env, product)
    assert np.abs(occ - res.occupancy).max() < 1e-9
    assert np.all(steps >= 0)


def test_edge_chain_constant_env_doubles_single_rate():
    # per step the rate is the single one, so over the period it doubles
    g = two_patch()
    env = alternation(g, [2.0, 0.5], [2.0, 0.5])
    res = periodic_growth_and_occupancy(g, env)
    assert abs(2.0 * res.log_growth - 2.0 * math.log(1.25)) < 1e-9


def test_edge_chain_fully_mixing_closed_forms():
    rng = np.random.default_rng(3)
    for _ in range(10):
        K = int(rng.integers(2, 5))
        g, delta = random_fully_mixing(rng, K)
        mA = rng.uniform(0.1, 3.0, K)
        mB = rng.uniform(0.1, 3.0, K)
        env = EnvironmentModel(states=("e1", "e2"), means=[mA, mB],
                               schedule=Periodic((0, 1)))
        res = periodic_growth_and_occupancy(g, env)
        rho = math.sqrt(float(delta @ mA)) * math.sqrt(float(delta @ mB))
        assert abs(res.log_growth - math.log(rho)) < 1e-10
        expect = np.outer(delta * mA, delta * mB)
        expect /= expect.sum()
        marginals = [expect.sum(axis=1), expect.sum(axis=0)]
        assert np.abs(res.occupancy - marginals).max() < 1e-8
        occ, steps = phase_occupancy(g, env, _product(g, env))
        assert np.abs(occ - marginals).max() < 1e-8
        assert np.abs(steps - expect).max() < 1e-8


def test_edge_chain_respects_simplex_method():
    # the simplex ascent on the pair chain is the reference route
    g, env = coupled_sinks()
    log_rho, _, _ = pair_chain_answer(g, env, max_rate_gap)
    tw = periodic_growth_and_occupancy(g, env)
    assert abs(log_rho - 0.5 * math.log(_product(g, env).rho)) < 1e-6
    assert max_rate_gap(pair_chain(g, env)[0]).method == "simplex-optimize"


def test_edge_chain_simplex_method_on_weakly_coupled_graph():
    eps = 1e-6
    D = [[1 - 2 * eps, eps, eps], [eps, 1 - eps, 0.0], [0.3, 0.3, 0.4]]
    g = MetapopGraph(m=[1.0, 1.0, 1.0], D=D)
    env = EnvironmentModel(states=("e1", "e2"), means=[[2.0, 1.5, 0.5], [1.0, 1.8, 0.4]],
                           schedule=Periodic((0, 1)))
    log_rho, edges, marginals = pair_chain_answer(g, env, max_rate_gap)
    tw = periodic_growth_and_occupancy(g, env)
    assert abs(log_rho - tw.log_growth) <= 1e-10
    assert np.abs(marginals - tw.occupancy).max() <= 1e-6
    assert np.abs(edges - phase_occupancy(g, env, _product(g, env))[1]).max() <= 1e-6


@pytest.mark.parametrize("P", [2, 3])
def test_edge_chain_makes_no_eigen_solve_above_k(monkeypatch, P):
    # the edge chain (here 9 patches times P phases) is solved at the P-th
    # root of the one-period product's root, which one 9 x 9 eigen-solve gives
    rng = np.random.default_rng(33)
    g = random_graph(rng, 9)
    env = EnvironmentModel(("e1", "e2", "e3"), rng.uniform(0.3, 2.5, (3, 9)),
                           Periodic(tuple(range(P))))
    shapes = eigen_solve_shapes(monkeypatch)
    res = periodic_growth_and_occupancy(g, env)
    assert shapes == [(9, 9)]
    occ, _ = phase_occupancy(g, env, _product(g, env))
    assert edge_chain(g, env).shape == (P, 9)
    assert res.residual <= 1e-14
    assert np.abs(occ - res.occupancy).max() <= 1e-12


def test_edge_chain_at_the_product_root_on_hard_alternations():
    # random alternations up to K = 20; every second one has recipe
    # dispersal and means scaled by 10^U(-6, 0).  The reference is the pair
    # chain's own eigen-solve (argmax_occupancy on the chain of patch pairs).
    rng = np.random.default_rng(34)
    for n in range(20):
        K = int(rng.integers(2, 21))
        g = random_graph(rng, K)
        means = rng.uniform(0.3, 2.5, (2, K))
        if n % 2:
            g = MetapopGraph(m=g.m, D=recipe_dispersal(rng, g.D))
            means *= 10.0 ** rng.uniform(-6, 0, (2, K))
        env = alternation(g, *means)
        res = periodic_growth_and_occupancy(g, env)
        log_rho, edges, marginals = pair_chain_answer(g, env)
        product = _product(g, env)
        assert abs(res.log_growth - 0.5 * math.log(product.rho)) <= 1e-12
        assert abs(res.log_growth - log_rho) <= 1e-12
        occ, steps = phase_occupancy(g, env, product)
        assert np.abs(res.occupancy - marginals).max() <= 1e-12
        assert np.abs(occ - marginals).max() <= 1e-12
        assert np.abs(steps - edges).max() <= 1e-12


def test_edge_chain_cross_check_sees_a_wrong_chain(monkeypatch):
    # the twisted solve runs at the product's root, but the log root is read
    # off the chain's own vectors, so means off by up to 1e-6 move the
    # cross-check at first order (d log rho / d log m_(s, i) is the chain's
    # occupancy, phase_occupancy[s, i] / P), and the residual of the
    # supplied-root solve shows the wrong root
    rng = np.random.default_rng(35)
    g = random_graph(rng, 8)
    env = alternation(g, rng.uniform(0.3, 2.5, 8), rng.uniform(0.3, 2.5, 8))
    exact = periodic_growth_and_occupancy(g, env)
    chain = edge_chain(g, env)
    delta = rng.uniform(-1e-6, 1e-6, chain.shape)
    wrong = chain * (1.0 + delta)
    monkeypatch.setattr(environments, "edge_chain", lambda g, env: wrong)
    res = periodic_growth_and_occupancy(g, env)
    moved = res.log_growth - 0.5 * math.log(_product(g, env).rho)
    first_order = 0.5 * float(exact.occupancy.ravel() @ np.log1p(delta.ravel()))
    assert abs(first_order) >= 1e-8
    assert abs(moved - first_order) <= 1e-3 * abs(first_order)
    assert exact.residual <= 1e-14 and res.residual >= 1e-10


def _period_cases():
    """Random graphs and recipe-dispersal graphs with schedules of period 3 to 5."""
    rng = np.random.default_rng(36)
    for n in range(30):
        K, P = int(rng.integers(2, 9)), 3 + n % 3
        g = random_graph(rng, K)
        means = rng.uniform(0.3, 2.5, (P, K))
        if n % 2:
            g = MetapopGraph(m=g.m, D=recipe_dispersal(rng, g.D))
            means *= 10.0 ** rng.uniform(-6, 0, (P, K))
        yield g, EnvironmentModel(tuple(f"e{s}" for s in range(P)), means,
                                  Periodic(tuple(range(P))))


def test_spectral_and_twisted_phase_occupancy_agree_for_every_period():
    for g, env in _period_cases():
        res = periodic_growth_and_occupancy(g, env)
        P, product = len(env.schedule.cycle), _product(g, env)
        occ, steps = phase_occupancy(g, env, product)
        assert res.occupancy.shape == occ.shape == (P, g.K)
        assert abs(res.log_growth - math.log(product.rho) / P) <= 1e-12
        assert np.abs(occ - res.occupancy).max() <= 1e-12
        assert np.abs(steps.sum(axis=1) - occ[0]).max() <= 1e-12
        assert np.abs(steps.sum(axis=0) - occ[1]).max() <= 1e-12


def test_a_repeated_schedule_keeps_the_rate_and_phase_rows():
    rng = np.random.default_rng(37)
    for _ in range(10):
        g = random_graph(rng, 4)
        means = rng.uniform(0.3, 2.5, (2, 4))
        once, twice = (periodic_growth_and_occupancy(g, EnvironmentModel(("a", "b"), means,
                                                                         Periodic(order)))
                       for order in ((0, 1), (0, 1, 0, 1)))
        assert abs(twice.log_growth - once.log_growth) <= 1e-12
        assert np.abs(twice.occupancy - np.tile(once.occupancy, (2, 1))).max() <= 1e-12
        env = EnvironmentModel(("a", "b"), means, Periodic((0, 1, 0, 1)))
        occ, _ = phase_occupancy(g, env, _product(g, env))
        assert np.abs(occ - np.tile(once.occupancy, (2, 1))).max() <= 1e-12


def test_a_one_state_schedule_is_the_fixed_environment_on_both_routes():
    rng = np.random.default_rng(38)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 9)))
        env = EnvironmentModel(("e",), [g.m], Periodic((0,)))
        res = periodic_growth_and_occupancy(g, env)
        sd, product = growth_rate(mean_matrix(g)), _product(g, env)
        assert product.rho == sd.rho
        occ, _ = phase_occupancy(g, env, product)
        assert np.array_equal(occ[0], occupancy_spectral(sd))
        tw = argmax_occupancy(g)
        assert abs(res.log_growth - tw.log_growth) <= 1e-12
        assert np.abs(res.occupancy[0] - tw.occupancy).max() <= 1e-12


def test_lyapunov_constant_environment_recovers_log_rho():
    g = two_patch()
    env = EnvironmentModel(states=("e1", "e2"), means=[[2.0, 0.5], [2.0, 0.5]],
                           schedule=MarkovSwitching(0.4, 0.6))
    ly = lyapunov_estimate(g, env, n_steps=200_000, seed=5)
    assert abs(ly.gamma - math.log(1.25)) <= max(ly.ci_halfwidth, 1e-9)


def test_lyapunov_deterministic_alternation_recovers_periodic_rate():
    g, env_p = coupled_sinks()
    env = EnvironmentModel(states=env_p.states, means=env_p.means,
                           schedule=MarkovSwitching(1.0, 1.0))
    rho2 = growth_rate(periodic_mean_matrix(g, env_p)).rho
    ly = lyapunov_estimate(g, env, n_steps=400_000, seed=6)
    assert abs(ly.gamma - 0.5 * math.log(rho2)) <= max(3 * ly.ci_halfwidth, 1e-6)


def test_lyapunov_scalar_case_is_exact_mixture():
    g = MetapopGraph(m=[1.0], D=[[1.0]])
    env = EnvironmentModel(states=("e1", "e2"), means=[[2.0], [0.25]],
                           schedule=MarkovSwitching(0.3, 0.7))
    ly = lyapunov_estimate(g, env, n_steps=400_000, seed=7)
    nu = 0.7 / (0.3 + 0.7)
    target = nu * math.log(2.0) + (1 - nu) * math.log(0.25)
    assert abs(ly.gamma - target) <= 3 * ly.ci_halfwidth


def test_lyapunov_determinism_and_seed_sensitivity():
    g, env_p = coupled_sinks()
    env = EnvironmentModel(states=env_p.states, means=env_p.means,
                           schedule=MarkovSwitching(0.5, 0.5))
    a = lyapunov_estimate(g, env, n_steps=50_000, seed=1)
    b = lyapunov_estimate(g, env, n_steps=50_000, seed=1)
    c = lyapunov_estimate(g, env, n_steps=50_000, seed=2)
    assert a == b
    assert a.gamma != c.gamma


def _propagate_k_reference(mats, w, burn, batch, n_batches, K):
    """The step-by-step l1-renormalized propagation loop, kept as reference."""
    rng_k = range(K)
    x = [1.0 / K] * K
    log = math.log

    def step(x, a):
        y = [sum(x[i] * a[i][j] for i in rng_k) for j in rng_k]
        s = sum(y)
        return [yj / s for yj in y], s

    for t in range(burn):
        x, _ = step(x, mats[w[t]])
    sums = np.empty(n_batches)
    t = burn
    for b in range(n_batches):
        acc = 0.0
        prod = 1.0
        cnt = 0
        for _ in range(batch):
            x, s = step(x, mats[w[t]])
            prod *= s
            cnt += 1
            t += 1
            if cnt == 32:
                acc += log(prod)
                prod = 1.0
                cnt = 0
        acc += log(prod)
        sums[b] = acc
    return sums, x


@pytest.mark.parametrize("K,zero_means,n_states,schedule", [
    *(pytest.param(K, zero_means, 2, MarkovSwitching(0.3, 0.6), id=f"{K}-{zero_means}")
      for K, zero_means in [(1, False), (2, False), (3, False), (8, False),
                            (2, True), (3, True), (8, True)]),
    # three stacked states: a period-3 cycle, and the two-state chain beside
    # a state it never applies
    pytest.param(3, False, 3, Periodic((0, 1, 2)), id="3-False-period3"),
    pytest.param(3, False, 3, MarkovSwitching(0.3, 0.6), id="3-False-markov-of-three"),
])
def test_lyapunov_block_products_match_step_loop(K, zero_means, n_states, schedule):
    # 10_300 steps give batches of 103: odd, not a power of two and not a
    # multiple of the period 3
    n_steps, seed = 10_300, 21
    rng = np.random.default_rng([K, zero_means])
    D = rng.dirichlet(np.ones(K), size=K)
    means = rng.uniform(0.1, 3.0, (n_states, K))
    if zero_means:
        means[1, 1:] = 0.0
    g = MetapopGraph(m=np.ones(K), D=D)
    env = EnvironmentModel(states=tuple(f"e{s + 1}" for s in range(n_states)), means=means,
                           schedule=schedule)
    ly = lyapunov_estimate(g, env, n_steps=n_steps, seed=seed)

    w = _env_path(env.schedule, n_steps + LYAPUNOV_BURN_IN,
                         np.random.default_rng([seed, 0]))
    batch = n_steps // LYAPUNOV_BATCHES
    mats = [(env.means[s][:, None] * g.D).tolist() for s in range(n_states)]
    sums, _ = _propagate_k_reference(mats, w.tolist(), LYAPUNOV_BURN_IN, batch,
                                     LYAPUNOV_BATCHES, K)
    gamma = sums.sum() / (batch * LYAPUNOV_BATCHES)
    ci = 1.96 * (sums / batch).std(ddof=1) / math.sqrt(LYAPUNOV_BATCHES)
    assert ly.n_steps == batch * LYAPUNOV_BATCHES
    assert ly.gamma == pytest.approx(gamma, rel=1e-12)
    assert ly.ci_halfwidth == pytest.approx(ci, rel=1e-12)


def test_lyapunov_vanishing_vector_gives_minus_infinity():
    # a state whose means are all zero kills the whole population
    g = two_patch(M=1.0, m=1.0)
    env = EnvironmentModel(states=("e1", "e2"), means=[[1.5, 0.4], [0.0, 0.0]],
                           schedule=MarkovSwitching(0.5, 0.5))
    ly = lyapunov_estimate(g, env, n_steps=20_000, seed=3)
    assert ly.gamma == -math.inf
    assert ly.ci_halfwidth == 0.0
    assert ly.n_steps == 20_000


@pytest.mark.parametrize("slab,L", [(8, 1), (32, 3)])
def test_lyapunov_does_not_depend_on_the_slab(monkeypatch, slab, L):
    # a slab of 8 matrices leaves a table of 2 (L = 1, the mean matrices
    # themselves), one of 32 a table of 8 (L = 3); both cut each batch into
    # several pieces padded with identity words
    rng = np.random.default_rng(27)
    g = MetapopGraph(m=np.ones(3), D=rng.dirichlet(np.ones(3), size=3))
    env = EnvironmentModel(("e1", "e2"), rng.uniform(0.1, 3.0, (2, 3)), MarkovSwitching(0.3, 0.6))
    ly = lyapunov_estimate(g, env, n_steps=10_300, seed=4)
    monkeypatch.setattr(environments, "LYAPUNOV_SLAB_BYTES", slab * 8 * 3 * 3)
    assert environments._word_length(2, 3, 11_300) == L
    small = lyapunov_estimate(g, env, n_steps=10_300, seed=4)
    assert small.gamma == pytest.approx(ly.gamma, rel=1e-12)
    assert small.ci_halfwidth == pytest.approx(ly.ci_halfwidth, rel=1e-12)


@pytest.mark.parametrize("K", [3, 5, 8])
@pytest.mark.parametrize("schedule", [MarkovSwitching(0.3, 0.6), Periodic((0, 1, 2))],
                         ids=["markov", "period3"])
def test_lyapunov_on_a_fully_mixing_graph_is_the_path_mean_of_log_delta_m(K, schedule):
    # every row of D is delta, so each A_e = m_e delta^T has rank one: after
    # the first step the vector is delta, and step t grows it by delta . m_{w_t}
    rng = np.random.default_rng([23, K])
    g, delta = random_fully_mixing(rng, K)
    n_states = 3 if schedule.cycle else 2
    env = EnvironmentModel(tuple(f"e{s}" for s in range(n_states)),
                           rng.uniform(0.05, 3.0, (n_states, K)), schedule)
    # batches of 1003 steps, not a multiple of the period
    n_steps, seed = 100_300, 31
    ly = lyapunov_estimate(g, env, n_steps=n_steps, seed=seed)
    w = _env_path(schedule, n_steps + LYAPUNOV_BURN_IN, np.random.default_rng([seed, 0]))
    used = w[LYAPUNOV_BURN_IN:LYAPUNOV_BURN_IN + ly.n_steps]
    step_logs = np.log(env.means @ delta)[used]
    batch_means = step_logs.reshape(LYAPUNOV_BATCHES, -1).mean(axis=1)
    assert ly.gamma == pytest.approx(step_logs.mean(), rel=1e-12)
    assert ly.ci_halfwidth == pytest.approx(
        1.96 * batch_means.std(ddof=1) / math.sqrt(LYAPUNOV_BATCHES), rel=1e-12)


@pytest.mark.parametrize("K,n_steps", [(2, 10**6), (8, 10**5)])
def test_lyapunov_kernel_memory_stays_within_its_slabs(K, n_steps):
    # the inputs of the benchmark's randenv jobs; the path is drawn before
    # tracing, so the peak is the kernel's own: word table, codes and slabs
    rng = np.random.default_rng([29, K])
    g = MetapopGraph(m=np.ones(K), D=rng.dirichlet(np.ones(K), size=K))
    env = EnvironmentModel(("e1", "e2"), rng.uniform(0.1, 3.0, (2, K)), MarkovSwitching(0.4, 0.6))
    mats = env.means[:, :, None] * g.D
    w = _env_path(env.schedule, n_steps + LYAPUNOV_BURN_IN, np.random.default_rng([1, 0]))
    tracemalloc.start()
    try:
        environments._batch_log_growth(mats, w, LYAPUNOV_BURN_IN, LYAPUNOV_BATCHES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6


def _env_path_expanding_whole_runs(sched, n, rng):
    """The two-state sampler as it was before its sojourns were cut at n:
    every drawn sojourn is expanded, so it allocates about 256 / alpha bytes."""
    leave = sched.T[[0, 1], [1, 0]].tolist()
    cur = 0 if rng.random() < sched.start[0] else 1
    pieces = []
    total = 0
    while total < n:
        k = max(64, int((n - total) * max(leave) // 2) + 64)
        lens = np.empty(2 * k, dtype=np.int64)
        lens[0::2] = rng.geometric(leave[cur], size=k)
        lens[1::2] = rng.geometric(leave[1 - cur], size=k)
        states = np.empty(2 * k, dtype=np.int8)
        states[0::2] = cur
        states[1::2] = 1 - cur
        pieces.append(np.repeat(states, lens))
        total += int(lens.sum())
    return np.concatenate(pieces)[:n]


@pytest.mark.parametrize("alpha,beta", [(0.4, 0.6), (1.0, 1.0), (1.0, 0.01), (1e-3, 1e-3),
                                        (1e-5, 2e-5)])
@pytest.mark.parametrize("n", [2101, 11_000, 101_000])
def test_env_path_keeps_its_draws_when_cut_at_n(alpha, beta, n):
    sched = MarkovSwitching(alpha, beta)
    rng, ref_rng = np.random.default_rng([7, 0]), np.random.default_rng([7, 0])
    path = _env_path(sched, n, rng)
    ref = _env_path_expanding_whole_runs(sched, n, ref_rng)
    assert path.dtype == ref.dtype and np.array_equal(path, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_a_state_the_chain_cannot_leave_holds_the_path():
    # the second state cannot be left: one sojourn of the start state, then
    # the other state to the end
    sched = Schedule(T=[[0.9, 0.1], [0.0, 1.0]], state=(0, 1), start=[1.0, 0.0])
    path = _env_path(sched, 1000, np.random.default_rng(3))
    assert path.dtype == np.int8 and path.shape == (1000,)
    assert path[0] == 0 and path[-1] == 1 and np.count_nonzero(np.diff(path)) == 1
    # a start state that cannot be left holds the whole path
    for alpha, beta, state in ((0.0, 0.5, 0), (0.5, 0.0, 1)):
        path = _env_path(MarkovSwitching(alpha, beta), 1000, np.random.default_rng(3))
        assert np.array_equal(path, np.full(1000, state, dtype=np.int8))


def test_env_path_memory_follows_the_path_not_the_sojourns():
    # the old sampler expanded at least 64 sojourn pairs of mean 1e5 here,
    # about 26 MB for a path of 2101 steps
    tracemalloc.start()
    try:
        path = _env_path(MarkovSwitching(1e-5, 1e-5), 2101, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.shape == (2101,)
    assert peak <= 1e6


@pytest.mark.parametrize("n_states, dtype", [(3, np.uint8), (300, np.uint16)])
def test_a_periodic_path_takes_the_smallest_type_of_its_states(monkeypatch, n_states, dtype):
    # one byte a step, as the Markov path takes, until the state indices
    # outgrow it; the estimate is that of the int64 path bit for bit
    rng = np.random.default_rng(41)
    g = MetapopGraph(m=np.ones(2), D=rng.dirichlet(np.ones(2), size=2))
    env = EnvironmentModel(tuple(f"e{s}" for s in range(n_states)),
                           rng.uniform(0.3, 2.5, (n_states, 2)),
                           Periodic(tuple(range(n_states))))
    path = _env_path(env.schedule, 10_000, None)
    assert path.dtype == dtype
    assert np.array_equal(path, np.resize(np.arange(n_states), 10_000))
    ly = lyapunov_estimate(g, env, n_steps=20_000, seed=2)
    monkeypatch.setattr(environments, "_env_path",
                        lambda sched, n, rng: _env_path(sched, n, rng).astype(np.int64))
    assert lyapunov_estimate(g, env, n_steps=20_000, seed=2) == ly


def test_even_return_mc_reports_truncation():
    # the even-time return can only come at step 2 before the cap of 3
    p, q = 0.6, 0.3
    g = two_patch(M=1.0, m=1.0, p=p, q=q)
    env = alternation(g, [2.0, 0.5], [0.5, 2.0])
    n = 2500
    exact = 1.0 - ((1 - p) ** 2 + p * q)
    res = even_return_functional(g, env, cfg=WalkConfig(max_steps=3, n_trials=n, seed=2))
    for v in res.values():
        assert v.truncated_mass > 0
        assert abs(v.truncated_mass - exact) <= 4 * math.sqrt(exact * (1 - exact) / n)


def test_lower_bound_worked_example():
    lb = random_env_lower_bound(10.0, 0.8, 0.5, 0.5, 0.5, 0.5)
    assert abs(lb - 0.34657359027997264) < 1e-12
    assert lb > 0


def test_lower_bound_sentinel_paths():
    assert random_env_lower_bound(1.0, 1.0, 0.0, 0.5, 0.5, 0.5) == -math.inf
    # alpha = 0 puts no weight on the log(pq) term, so p = 0 is harmless
    assert math.isfinite(random_env_lower_bound(1.0, 1.0, 0.0, 0.5, 0.0, 0.5))


def test_lower_bound_ignores_M2_and_m1():
    # the bound's arguments simply do not include M2, m1; check a grid of
    # instances where only those change leaves gamma-hat above the bound
    g = two_patch(M=1.0, m=1.0, p=0.5, q=0.5)
    bound = random_env_lower_bound(10.0, 0.8, 0.5, 0.5, 0.5, 0.5)
    for M2 in (0.01, 0.1, 1.0):
        env = EnvironmentModel(states=("e1", "e2"),
                               means=[[10.0, 0.9], [M2, 0.8]],
                               schedule=MarkovSwitching(0.5, 0.5))
        ly = lyapunov_estimate(g, env, n_steps=100_000, seed=11)
        assert bound <= ly.gamma + ly.ci_halfwidth


def test_coupled_sinks_random_environment_persists():
    # both patches are time-averaged sinks, the bound is positive, and the
    # simulated exponent agrees
    M1, M2, m1, m2 = 10.0, 0.05, 0.9, 0.8
    assert math.sqrt(M1 * M2) <= 1.0 and math.sqrt(m1 * m2) <= 1.0
    bound = random_env_lower_bound(M1, m2, 0.5, 0.5, 0.5, 0.5)
    assert bound > 0
    g = two_patch(M=1.0, m=1.0, p=0.5, q=0.5)
    env = EnvironmentModel(states=("e1", "e2"), means=[[M1, m1], [M2, m2]],
                           schedule=MarkovSwitching(0.5, 0.5))
    ly = lyapunov_estimate(g, env, n_steps=300_000, seed=13)
    assert ly.gamma > 0
    assert bound <= ly.gamma + ly.ci_halfwidth


def test_environment_json_roundtrip():
    env = load_environment(
        {
            "states": ["e1", "e2"],
            "means": [[4.0, 0.9], [0.2, 0.9]],
            "schedule": {"periodic": ["e1", "e2"]},
        }
    )
    assert env.schedule.cycle == (0, 1)
    assert np.array_equal(env.schedule.T, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(env.schedule.start, [1.0, 0.0])
    menv = load_environment(
        {
            "states": ["e1", "e2"],
            "means": [[4.0, 0.9], [0.2, 0.9]],
            "schedule": {"markov": {"alpha": 0.25, "beta": 0.75}},
        }
    )
    assert menv.schedule.cycle is None
    assert np.array_equal(menv.schedule.T, [[0.75, 0.25], [0.75, 0.25]])
    assert np.array_equal(menv.schedule.start, [0.75, 0.25])


def test_environment_validation():
    with pytest.raises(ValidationError):
        EnvironmentModel(states=("a",), means=[[1.0], [2.0]], schedule=Periodic((0,)))
    with pytest.raises(ValidationError):
        EnvironmentModel(states=("a", "b"), means=[[1.0], [2.0]],
                         schedule=Periodic(()))
    with pytest.raises(ValidationError):
        MarkovSwitching(0.0, 0.0)
    # a repeated name would leave one of its rows unreachable by name
    with pytest.raises(ValidationError, match="environment state 'a' is named twice"):
        EnvironmentModel(states=("a", "b", "a"), means=np.ones((3, 2)), schedule=Periodic((0, 2)))
    with pytest.raises(ValidationError, match="environment state 'a' is named twice"):
        load_environment({"states": ["a", "a"], "means": [[4.0, 0.9], [0.2, 0.9]],
                          "schedule": {"periodic": ["a", "a"]}})
    for schedule in ({"periodic": [["a"], "b"]}, {"markov": {"alpha": 0.5, "beta": 0.5}}):
        with pytest.raises(ValidationError, match="state names must be strings or numbers"):
            load_environment({"states": [["a"], "b"], "means": [[4.0, 0.9], [0.2, 0.9]],
                              "schedule": schedule})
    g = MetapopGraph(m=[1.0, 1.0], D=[[0.0, 1.0], [1.0, 0.0]])
    env = alternation(g, [2.0, 0.5], [2.0, 0.5])
    with pytest.raises(ValidationError):
        # the edge chain of the pure two-cycle is reducible/periodic
        periodic_growth_and_occupancy(g, env)


ENV_JSON = {"states": ["a", "b"], "means": [[4.0, 0.9], [0.2, 0.9]], "schedule": {"periodic": ["a", "b"]}}
ENV_REFUSALS = {
    "start over three phases": (lambda: Schedule(T=np.eye(2), state=(0, 1), start=[1.0, 0.0, 0.0]),
                                "schedule needs a P x P matrix T and a start law over P phases"),
    "alpha above 1": (lambda: MarkovSwitching(1.5, 0.5), "alpha must lie in [0, 1]"),
    "negative mean": (lambda: EnvironmentModel(("a",), [[1.0, -0.5]], Periodic((0,))),
                      "environment means must be finite and >= 0"),
    "unknown state index": (lambda: EnvironmentModel(("a",), [[1.0, 1.0]], Periodic((0, 1))),
                            "schedule names an unknown state"),
    "states not a list": (lambda: load_environment({**ENV_JSON, "states": "ab"}),
                          "environment states must be a JSON list"),
    "periodic not a list": (lambda: load_environment({**ENV_JSON, "schedule": {"periodic": "ab"}}),
                            "periodic schedule must be a JSON list of state names"),
    "periodic unknown name": (lambda: load_environment({**ENV_JSON, "schedule": {"periodic": ["a", "z"]}}),
                              "periodic schedule names unknown state 'z'"),
    "schedule of no kind": (lambda: load_environment({**ENV_JSON, "schedule": {"weekly": ["a"]}}),
                            'schedule must contain "periodic" or "markov"'),
    "closed form q above 1": (lambda: two_patch_periodic_criterion(2.0, 0.5, 0.5, 2.0, 0.5, 1.5),
                              "q must lie in [0, 1]"),
    "closed form negative mean": (lambda: two_patch_periodic_criterion(-2.0, 0.5, 0.5, 2.0, 0.5, 0.5),
                                  "M1 must be >= 0"),
    "too few Lyapunov steps": (
        lambda: lyapunov_estimate(two_patch(), alternation(None, [2.0, 0.5], [0.5, 2.0]),
                                  n_steps=LYAPUNOV_BURN_IN + LYAPUNOV_BATCHES),
        "n_steps too small for burn-in plus batching"),
}


@pytest.mark.parametrize("build, message", list(ENV_REFUSALS.values()), ids=list(ENV_REFUSALS))
def test_environment_refusals_name_their_fault(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_schedule_kind_is_decided_by_its_data():
    # periodic iff T is a permutation and the start is one phase; the cycle
    # is the start phase's orbit, read in states
    assert Periodic((2, 0, 2)).cycle == (2, 0, 2)
    swap = [[0.0, 1.0], [1.0, 0.0]]
    assert Schedule(T=swap, state=(0, 1), start=[0.0, 1.0]).cycle == (1, 0)
    two_cycles = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert Schedule(T=two_cycles, state=(0, 1, 1), start=[0.0, 0.0, 1.0]).cycle == (1,)
    # the stationary start of the deterministic swap still draws
    assert MarkovSwitching(1.0, 1.0).cycle is None
    assert MarkovSwitching(0.0, 0.5).cycle is None


def test_a_random_schedule_must_be_the_two_state_chain():
    third = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValidationError, match="two-state chain"):
        Schedule(T=third, state=(0, 1, 2), start=np.full(3, 1.0 / 3.0))
    with pytest.raises(ValidationError, match="two-state chain"):
        Schedule(T=[[0.5, 0.5], [0.5, 0.5]], state=(1, 0), start=[0.5, 0.5])
    with pytest.raises(ValidationError, match="probability laws"):
        Schedule(T=[[0.5, 0.6], [0.5, 0.5]], state=(0, 1), start=[0.5, 0.5])
    with pytest.raises(ValidationError, match="probability laws"):
        Schedule(T=[[0.0, 1.0], [1.0, 0.0]], state=(0, 1), start=[math.nan, 1.0])


@pytest.mark.parametrize("P", [1, 2, 3, 4, 5])
def test_lyapunov_on_a_periodic_schedule_is_the_product_rate(P):
    # from P = 3 on, the reversed order is no rotation of the schedule, so a
    # path taken in the wrong order shows
    rng = np.random.default_rng([19, P])
    g = MetapopGraph(m=np.ones(3), D=rng.dirichlet(np.ones(3), size=3))
    env = EnvironmentModel(states=("e1", "e2", "e3"), means=rng.uniform(0.2, 2.5, (3, 3)),
                           schedule=Periodic(tuple(t % 3 for t in range(P))))
    ly = lyapunov_estimate(g, env, n_steps=10**5, seed=P)
    target = math.log(growth_rate(periodic_mean_matrix(g, env)).rho) / P
    assert abs(ly.gamma - target) <= max(ly.ci_halfwidth, 1e-12)


# every entry point that reads an environment's means on a graph
ENV_ON_GRAPH = {
    "periodic_mean_matrix": periodic_mean_matrix,
    "even_return_functional": even_return_functional,
    "edge_chain": edge_chain,
    "periodic_growth_and_occupancy": periodic_growth_and_occupancy,
    "phase_occupancy": lambda g, env: phase_occupancy(g, env, None),
    "lyapunov_estimate": lambda g, env: lyapunov_estimate(g, env, n_steps=2000),
    "simulate": lambda g, env: simulate(g, env=env, horizon=5, n_runs=10),
    "extinction_probability": lambda g, env: extinction_probability(g, env=env, n_runs=10),
}


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("name", list(ENV_ON_GRAPH))
def test_environment_of_another_patch_count_is_refused(name, width):
    g = two_patch()
    env = EnvironmentModel(("e1", "e2"), np.full((2, width), 1.5), Periodic((0, 1)))
    with pytest.raises(ValidationError, match=f"cover {width} patches, the graph has 2"):
        ENV_ON_GRAPH[name](g, env)


def test_edge_chain_ignores_a_state_the_schedule_never_applies():
    g = MetapopGraph(m=[1.0, 1.0], D=[[0.5, 0.5], [0.5, 0.5]])
    means = [[4.0, 0.9], [0.2, 0.9]]
    with_c = EnvironmentModel(("a", "b", "c"), means + [[0.0, 1.0]], Periodic((0, 1)))
    without_c = EnvironmentModel(("a", "b"), means, Periodic((0, 1)))
    got, want = (periodic_growth_and_occupancy(g, env) for env in (with_c, without_c))
    assert got.log_growth == want.log_growth
    assert abs(got.log_growth - 0.149) < 5e-4
    assert np.array_equal(got.occupancy, want.occupancy)
    assert got.residual == want.residual
    with pytest.raises(ValidationError, match="positive means"):
        periodic_growth_and_occupancy(
            g, EnvironmentModel(("a", "b"), [[4.0, 0.9], [0.0, 0.9]], Periodic((0, 1))))


def _dense_phase_occupancy(g, env):
    """log rho per step and the P x K phase occupancy of the twisted route,
    with its own eigen-solve, on the dense space-time chain of P*K patches."""
    chain = space_time_chain(g, env)
    dense = _twisted_occupancy(chain.D, chain.m[None, :])
    occ = dense.occupancy.reshape(len(env.schedule.cycle), g.K)
    return dense.log_growth, occ / occ.sum(axis=1, keepdims=True)


def test_a_periodic_product_gets_occupancy_on_both_routes():
    # a graph of period d moves its walker one class on per step; a schedule
    # of period P coprime to d makes the edge chain irreducible, and the
    # one-period product keeps period d.  A survivor's occupancy at steps
    # s mod P is a time average, which settles all the same: both routes
    # answer, and agree with the dense space-time chain
    rng = np.random.default_rng(39)
    for d, P in ((2, 3), (3, 2), (3, 4), (4, 3), (2, 5), (3, 5), (2, 1), (3, 1), (4, 7)):
        for _ in range(20):
            b = int(rng.integers(1, 4))
            D = np.kron(np.roll(np.eye(d), 1, axis=1), np.ones((b, b)))
            D *= rng.uniform(0.1, 1.0, D.shape)
            g = MetapopGraph(m=np.ones(d * b), D=D / D.sum(axis=1, keepdims=True))
            env = EnvironmentModel(tuple(f"e{s}" for s in range(P)),
                                   rng.uniform(0.3, 2.5, (P, d * b)), Periodic(tuple(range(P))))
            A = periodic_mean_matrix(g, env)
            assert validate_graph(A).period == d
            product = growth_rate(A)
            log_rho, want = _dense_phase_occupancy(g, env)
            res = periodic_growth_and_occupancy(g, env)
            occ, steps = phase_occupancy(g, env, product)
            assert abs(res.log_growth - log_rho) <= 1e-12
            assert abs(res.log_growth - math.log(product.rho) / P) <= 1e-12
            assert np.abs(res.occupancy - want).max() <= 1e-12
            assert np.abs(occ - want).max() <= 1e-12
            # the steps out of phase 0 land in phase 1 (phase 0 when P = 1)
            assert np.abs(steps.sum(axis=1) - occ[0]).max() <= 1e-12
            assert np.abs(steps.sum(axis=0) - occ[1 % P]).max() <= 1e-12
    # one phase: the edge chain is the graph, a 3-cycle, whose walker
    # spends a third of its steps in each patch
    g = MetapopGraph(m=[2.0, 0.5, 1.0], D=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    env = EnvironmentModel(("e",), [g.m], Periodic((0,)))
    res = periodic_growth_and_occupancy(g, env)
    assert abs(res.log_growth) <= 1e-12  # rho^3 = 2 * 0.5 * 1
    for occ in (res.occupancy[0], argmax_occupancy(g).occupancy,
                occupancy_spectral(growth_rate(mean_matrix(g))),
                phase_occupancy(g, env, _product(g, env))[0][0]):
        assert np.abs(occ - 1 / 3).max() <= 1e-12


def test_the_edge_chain_checks_the_product_once(monkeypatch):
    # without the product's Perron data the edge chain checks the product's
    # structure once, and its refusal still names the edge chain
    calls = []
    def counted(*args, _check=graph._assumption_report):
        calls.append(1)
        return _check(*args)
    monkeypatch.setattr(graph, "_assumption_report", counted)
    g = two_patch()
    periodic_growth_and_occupancy(g, alternation(g, [4.0, 0.9], [0.2, 0.9]))
    assert len(calls) == 1
    reducible = MetapopGraph(m=[2.0, 0.5], D=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError,
                       match="^edge chain needs an irreducible graph; this one is not irreducible$"):
        periodic_growth_and_occupancy(reducible, alternation(reducible, [2.0, 0.5], [1.0, 1.0]))


def test_the_edge_chain_matches_its_dense_space_time_graph():
    # the reference: the twisted route with its own eigen-solve on the dense
    # chain of P*K patches, the Kronecker product of the cyclic shift and D
    for g, env in _period_cases():
        res = periodic_growth_and_occupancy(g, env)
        log_rho, occ = _dense_phase_occupancy(g, env)
        assert abs(res.log_growth - log_rho) <= 1e-12
        assert np.abs(res.occupancy - occ).max() <= 1e-12


def test_a_long_period_forms_no_matrix_of_the_chain_size():
    # 365 phases of 50 patches: the dense chain would take 2.7 GB a matrix
    rng = np.random.default_rng(40)
    g = random_graph(rng, 50)
    env = EnvironmentModel(tuple(f"e{s}" for s in range(365)),
                           rng.uniform(0.9, 1.1, (365, 50)), Periodic(tuple(range(365))))
    tracemalloc.start()
    try:
        res, product = periodic_growth_and_occupancy(g, env), _product(g, env)
        occ, _ = phase_occupancy(g, env, product)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20
    assert abs(res.log_growth - math.log(product.rho) / 365) <= 1e-12
    assert np.abs(occ - res.occupancy).max() <= 1e-12
