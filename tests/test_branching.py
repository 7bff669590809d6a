import math

import numpy as np
import pytest

from sourcesink import (
    EnvironmentModel,
    MarkovSwitching,
    MetapopGraph,
    OffspringLaw,
    Periodic,
    StatisticalError,
    ValidationError,
    argmax_occupancy,
    extinction_probability,
    growth_rate,
    mean_matrix,
    patch_series,
    simulate,
    survivor_occupancy,
)
from sourcesink.branching import (
    _backward_lineages,
    _env_states_for_gen,
    _generation,
    _run_chunk,
    geometric_laws,
)
from sourcesink.walks import CHUNK
from conftest import random_graph, two_patch


def test_offspring_law_validation():
    with pytest.raises(ValidationError):
        OffspringLaw("deterministic", 1.5)
    with pytest.raises(ValidationError):
        OffspringLaw("bernoulli-pair", 1.0, p0=0.5, pair_n=3)
    with pytest.raises(ValidationError):
        OffspringLaw("nope", 1.0)
    law = OffspringLaw("bernoulli-pair", 1.5, p0=0.25, pair_n=2)
    assert not law.fixes_single_offspring()
    assert OffspringLaw("deterministic", 1.0).fixes_single_offspring()


def test_law_means_must_match_graph():
    g = two_patch()
    bad = [[OffspringLaw("poisson", 2.0), OffspringLaw("poisson", 0.4)]]
    with pytest.raises(ValidationError):
        simulate(g, laws=bad, horizon=5, n_runs=10)


def test_sample_brood_respects_means():
    rng = np.random.default_rng(0)
    z = np.full(20_000, 10, dtype=np.int64)
    for law in (
        OffspringLaw("poisson", 1.3),
        OffspringLaw("geometric", 0.7),
        OffspringLaw("deterministic", 2.0),
        OffspringLaw("bernoulli-pair", 1.2, p0=0.4, pair_n=2),
    ):
        brood = law.sample_brood(z, rng)
        assert abs(brood.mean() / 10 - law.mean) < 0.02
        assert law.sample_brood(np.zeros(3, dtype=np.int64), rng).sum() == 0


def test_deterministic_single_offspring_population_is_constant():
    g = two_patch(M=1.0, m=1.0)
    laws = [[OffspringLaw("deterministic", 1.0)] * 2]
    rep = simulate(g, laws=laws, horizon=40, n_runs=200, seed=1,
                   allow_degenerate=True)
    assert rep.survival_prob == 1.0
    assert abs(rep.growth_rate_hat) < 1e-12


def test_degenerate_law_rejected_by_default():
    g = two_patch(M=1.0, m=1.0)
    laws = [[OffspringLaw("deterministic", 1.0)] * 2]
    with pytest.raises(ValidationError):
        simulate(g, laws=laws, horizon=5, n_runs=10)


def test_supercritical_growth_and_survival():
    g = two_patch()
    rep = simulate(g, horizon=120, n_runs=3000, seed=3)
    assert abs(rep.growth_rate_hat - math.log(1.25)) <= 3 * rep.growth_rate_ci
    # survival probability must be clearly positive
    assert rep.survival_prob - 3 * rep.survival_ci > 0


def test_subcritical_dies_out():
    g = two_patch(M=1.1, m=0.1, p=0.9, q=0.1)
    assert growth_rate(mean_matrix(g)).rho < 1
    rep = simulate(g, horizon=300, n_runs=3000, seed=4, track_lineage=False)
    assert rep.survival_prob <= 0.005


def test_sign_agreement_panel():
    # >= 20 instances spanning both regimes: positive survival iff rho > 1
    rng = np.random.default_rng(5)
    done_super = done_sub = 0
    while done_super < 10 or done_sub < 10:
        g = random_graph(rng, int(rng.integers(2, 5)), m_range=(0.3, 2.0))
        rho = growth_rate(mean_matrix(g)).rho
        if not (0.2 < rho < 3.0) or abs(rho - 1) < 0.1:
            continue
        rep = simulate(g, horizon=120, n_runs=1500,
                       seed=int(rng.integers(2**31)), track_lineage=False)
        if rho > 1:
            assert rep.survival_prob - 3 * rep.survival_ci > 0
            done_super += 1
        else:
            assert rep.survival_prob < 0.02
            done_sub += 1


def test_martingale_normalization_settles():
    # |Z_n| / rho^n should have small relative drift over [h/2, h] per run;
    # horizon kept below the escape point so the window is fully stochastic
    g = two_patch()
    horizon = 60
    series = patch_series(g, horizon=horizon, n_runs=400, seed=6)
    totals = series.sum(axis=2).astype(float)
    alive = totals[:, -1] > 0
    rho = 1.25
    lo = horizon // 2
    r_lo = totals[alive, lo] / rho**lo
    r_hi = totals[alive, horizon] / rho**horizon
    drift = np.abs(r_hi / r_lo - 1.0)
    assert np.median(drift) < 0.05


def test_survivor_occupancy_brute_force_oracle():
    # agent-level simulation with explicit per-individual ancestry tallies
    rng = np.random.default_rng(77)
    horizon, runs = 25, 4000
    freqs = []
    for _ in range(runs):
        patches = np.array([0], dtype=np.int64)
        tallies = np.array([[1, 0]], dtype=np.int64)
        for _ in range(horizon):
            if patches.size == 0:
                break
            kids = rng.poisson(np.where(patches == 0, 2.0, 0.5))
            parent = np.repeat(np.arange(patches.size), kids)
            if parent.size == 0:
                patches = parent
                break
            patches = (rng.random(parent.size) < 0.5).astype(np.int64)
            tallies = tallies[parent]
            tallies[np.arange(parent.size), patches] += 1
        if patches.size:
            pick = rng.integers(patches.size)
            freqs.append(tallies[pick] / (horizon + 1))
    brute = np.array(freqs)
    bmean = brute.mean(axis=0)
    bse = brute.std(axis=0, ddof=1) / math.sqrt(brute.shape[0])

    occ, ci = survivor_occupancy(two_patch(), horizon=horizon, n_runs=60_000, seed=8)
    # the flow-backward estimator must agree with the agent-level oracle
    assert abs(occ[0] - bmean[0]) <= 1.96 * bse[0] + ci[0]


def test_survivor_occupancy_converges_to_variational_optimum():
    g = two_patch()
    phi = argmax_occupancy(g).occupancy
    occ, ci = survivor_occupancy(g, horizon=1600, n_runs=3000, seed=9)
    assert np.all(np.abs(occ - phi) <= np.maximum(ci, 1e-4) + 0.46 / 1600)


def test_survivor_occupancy_constant_means_is_stationary():
    g = two_patch(M=0.9, m=0.9, p=0.3, q=0.6)
    # subcritical but alive often enough at a short horizon
    occ, ci = survivor_occupancy(g, horizon=40, n_runs=40_000, seed=10)
    u = np.array([2.0 / 3.0, 1.0 / 3.0])
    assert np.all(np.abs(occ - u) <= np.maximum(3 * ci, 0.02))


def test_survivor_occupancy_single_patch_trivial():
    g = MetapopGraph(m=[2.0], D=[[1.0]])
    occ, ci = survivor_occupancy(g, horizon=50, n_runs=200, seed=11)
    assert occ[0] == 1.0 and ci[0] == 0.0


def test_survivor_occupancy_errors_when_everything_dies():
    g = two_patch(M=0.2, m=0.1)
    with pytest.raises(StatisticalError):
        survivor_occupancy(g, horizon=120, n_runs=300, seed=12)


def test_lineage_tallies_sum_to_horizon_plus_one():
    g = two_patch()
    horizon = 30
    rep = simulate(g, horizon=horizon, n_runs=500, seed=13)
    # occupancy_hat is a mean of per-run frequency vectors, each of which
    # sums to one because tallies cover horizon + 1 lineage points
    assert abs(rep.occupancy_hat.sum() - 1.0) < 1e-12


def test_extinction_probability_supercritical_single_patch():
    g = MetapopGraph(m=[2.0], D=[[1.0]])
    laws = [[OffspringLaw("deterministic", 2.0)]]
    q, ci = extinction_probability(g, laws=laws, n_runs=300, seed=14,
                                   escape_cap=10**4)
    assert q == 0.0


def test_extinction_probability_subcritical_is_one():
    g = two_patch(M=1.1, m=0.1, p=0.9, q=0.1)
    q, ci = extinction_probability(g, n_runs=2000, seed=15)
    assert q == 1.0


def test_runs_starting_past_the_escape_cap_count_as_escaped():
    # every run starts above the cap, so none is stepped and none dies out,
    # though from these means all of them would
    g = MetapopGraph(m=[0.5, 0.5], D=np.full((2, 2), 0.5))
    assert extinction_probability(g, n_runs=2000, seed=1, n_initial=5, escape_cap=2) == (0.0, 0.0)
    with pytest.raises(ValidationError, match="escape_cap"):
        simulate(g, horizon=5, n_runs=10, escape_cap=0)


def test_extinction_power_law_in_initial_size():
    # independent initial lines: q_k = q_1^k
    g = two_patch(M=1.6, m=0.4)
    q1, ci1 = extinction_probability(g, n_runs=40_000, seed=16, n_initial=1,
                                     escape_cap=10**5)
    for k in (2, 3):
        qk, cik = extinction_probability(g, n_runs=40_000, seed=16 + k,
                                         n_initial=k, escape_cap=10**5)
        assert abs(qk - q1**k) <= 2.5 * (cik + k * q1 ** (k - 1) * ci1)


def test_reports_are_deterministic_and_thread_invariant():
    g = two_patch()
    a = simulate(g, horizon=50, n_runs=1500, seed=17)
    b = simulate(g, horizon=50, n_runs=1500, seed=17)
    c = simulate(g, horizon=50, n_runs=1500, seed=17)
    assert a.to_dict() == b.to_dict() == c.to_dict()
    d = simulate(g, horizon=50, n_runs=1500, seed=18)
    assert d.to_dict() != a.to_dict()


def test_geometric_laws_reproduce_growth():
    g = two_patch()
    rep = simulate(g, laws=geometric_laws(g), horizon=100, n_runs=2000, seed=19,
                   track_lineage=False)
    assert abs(rep.growth_rate_hat - math.log(1.25)) <= 4 * rep.growth_rate_ci


def test_periodic_environment_growth_matches_product_rate():
    from sourcesink import periodic_mean_matrix

    g = two_patch(M=1.0, m=1.0)
    env = EnvironmentModel(states=("e1", "e2"), means=[[4.0, 0.9], [0.2, 0.9]],
                           schedule=Periodic((0, 1)))
    rho2 = growth_rate(periodic_mean_matrix(g, env)).rho
    rep = simulate(g, env=env, horizon=120, n_runs=2000, seed=20,
                   track_lineage=False)
    assert abs(rep.growth_rate_hat - 0.5 * math.log(rho2)) <= 5e-3


def test_markov_environment_runs():
    g = two_patch(M=1.0, m=1.0)
    env = EnvironmentModel(states=("e1", "e2"), means=[[10.0, 0.9], [0.05, 0.8]],
                           schedule=MarkovSwitching(0.5, 0.5))
    rep = simulate(g, env=env, horizon=150, n_runs=1500, seed=21,
                   track_lineage=False)
    assert rep.survival_prob > 0  # coupled sinks persist through dispersal


def test_patch_series_shape_and_start():
    g = two_patch()
    series = patch_series(g, horizon=20, n_runs=7, seed=22)
    assert series.shape == (7, 21, 2)
    assert np.all(series[:, 0, 0] == 1)
    assert np.all(series[:, 0, 1] == 0)


def test_entry_points_reject_bad_home_run_count_and_initial_size():
    g = two_patch()
    for home in (-1, 2):
        with pytest.raises(ValidationError, match="home patch .* out of range"):
            simulate(g, horizon=5, n_runs=10, start_patch=home)
        with pytest.raises(ValidationError, match="home patch .* out of range"):
            patch_series(g, horizon=5, n_runs=3, start_patch=home)
        with pytest.raises(ValidationError, match="home patch .* out of range"):
            extinction_probability(g, home=home, n_runs=10)
    with pytest.raises(ValidationError, match="n_runs"):
        extinction_probability(g, n_runs=0)
    with pytest.raises(ValidationError, match="n_runs"):
        patch_series(g, n_runs=0)
    for n0 in (0, -1):
        with pytest.raises(ValidationError, match="n_initial"):
            extinction_probability(g, n_runs=10, n_initial=n0)


def _reference_generation(Z, states, laws, D, rng):
    """The per-state brood-and-dispersal loop each caller used to repeat."""
    K = Z.shape[1]
    flows = np.zeros((Z.shape[0], K, K), dtype=np.int64)
    for s in np.unique(states):
        in_s = states == s
        for i in range(K):
            brood = laws[s][i].sample_brood(Z[in_s, i], rng)
            flows[in_s, i, :] = rng.multinomial(brood, D[i])
    return flows


@pytest.mark.parametrize("schedule", [None, Periodic((1, 0)), MarkovSwitching(0.4, 0.3)])
def test_generation_kernel_matches_reference_loop(schedule):
    # one law kind per patch; runs with zero parents draw nothing, so the
    # kernel on live runs only leaves the stream where the loop over all
    # runs leaves it
    rows = [
        [OffspringLaw("poisson", 1.5), OffspringLaw("geometric", 0.8),
         OffspringLaw("deterministic", 2.0), OffspringLaw("bernoulli-pair", 1.2, p0=0.4, pair_n=2)],
        [OffspringLaw("poisson", 0.3), OffspringLaw("geometric", 2.5),
         OffspringLaw("deterministic", 1.0), OffspringLaw("bernoulli-pair", 0.5, p0=0.75, pair_n=2)],
    ]
    g = random_graph(np.random.default_rng(40), 4)
    env = None
    laws = rows[:1]
    if schedule is not None:
        means = [[law.mean for law in row] for row in rows]
        env = EnvironmentModel(states=("e1", "e2"), means=means, schedule=schedule)
        laws = rows
    draw = np.random.default_rng(41)
    states = np.zeros(300, dtype=np.int64)
    for t in range(6):
        states = _env_states_for_gen(env, t, states, draw)
        Z = draw.integers(0, 4, size=(300, 4)) * (draw.random((300, 1)) < 0.6)
        live = Z.sum(axis=1) > 0
        assert 0 < live.sum() < 300
        ref_rng, rng = np.random.default_rng([42, t]), np.random.default_rng([42, t])
        ref = _reference_generation(Z, states, laws, g.D, ref_rng)
        flows = _generation(Z[live], states[live], laws, g.D, rng)
        assert np.array_equal(flows, ref[live])
        assert not ref[~live].any()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _reference_run_chunk(g, env, laws, horizon, n_runs, rng, start_patch, escape_cap,
                         want_lineage):
    """``_run_chunk`` as it was before the generation driver: its own loop."""
    K = g.K
    Z = np.zeros((n_runs, K), dtype=np.int64)
    Z[:, start_patch] = 1
    Zf = np.zeros((n_runs, K))
    escaped = np.zeros(n_runs, dtype=bool)
    active = np.ones(n_runs, dtype=bool)
    env_states = np.zeros(n_runs, dtype=np.int64)
    flows = np.zeros((horizon, n_runs, K, K)) if want_lineage else None
    sizes = np.zeros((horizon + 1, n_runs))
    sizes[0] = 1.0
    A_by_state = [
        (env.means[s][:, None] * g.D) if env is not None else mean_matrix(g)
        for s in range(env.n_states if env is not None else 1)
    ]
    for t in range(horizon):
        env_states = _env_states_for_gen(env, t, env_states, rng)
        if active.any():
            flows_a = _generation(Z[active], env_states[active], laws, g.D, rng)
            Z[active] = flows_a.sum(axis=1)
            if want_lineage:
                flows[t, active] = flows_a
        if escaped.any():
            esc = np.where(escaped)[0]
            for s in np.unique(env_states[esc]):
                rows = esc[env_states[esc] == s]
                flow_f = Zf[rows][:, :, None] * A_by_state[s][None, :, :]
                Zf[rows] = flow_f.sum(axis=1)
                if want_lineage:
                    flows[t, rows] = flow_f
        totals = Z.sum(axis=1)
        newly = totals > escape_cap
        if newly.any():
            Zf[newly] = Z[newly]
            escaped |= newly
            Z[newly] = 0
            totals[newly] = 0
        active = totals > 0
        sizes[t + 1] = totals + np.where(escaped, Zf.sum(axis=1), 0.0)
    final = np.where(escaped[:, None], Zf, Z.astype(float))
    alive = final.sum(axis=1) > 0
    lineage_freq = None
    if want_lineage:
        lineage_freq = _backward_lineages(flows, final, alive, horizon, K, rng)
    return alive, escaped, sizes, lineage_freq


def _reference_patch_series(g, env, laws, horizon, n_runs, seed, start_patch, escape_cap):
    """``patch_series``'s own loop before the generation driver."""
    rng = np.random.default_rng([seed, 0])
    K = g.K
    Z = np.zeros((n_runs, K), dtype=np.int64)
    Z[:, start_patch] = 1
    env_states = np.zeros(n_runs, dtype=np.int64)
    out = np.zeros((n_runs, horizon + 1, K), dtype=np.int64)
    out[:, 0] = Z
    active = np.ones(n_runs, dtype=bool)
    for t in range(horizon):
        env_states = _env_states_for_gen(env, t, env_states, rng)
        if active.any():
            Z[active] = _generation(Z[active], env_states[active], laws, g.D, rng).sum(axis=1)
        totals = Z.sum(axis=1)
        active &= (totals > 0) & (totals <= escape_cap)
        out[:, t + 1] = Z
    return out


def _reference_extinctions(g, env, laws, home, n_runs, seed, n_initial, max_generations,
                           escape_cap):
    """``extinction_probability``'s own chunk loop before the generation driver."""
    dead_total = 0
    for c in range((n_runs + CHUNK - 1) // CHUNK):
        size = min(CHUNK, n_runs - c * CHUNK)
        rng = np.random.default_rng([seed, c])
        K = g.K
        Z = np.zeros((size, K), dtype=np.int64)
        Z[:, home] = n_initial
        env_states = np.zeros(size, dtype=np.int64)
        undecided = np.ones(size, dtype=bool)
        for t in range(max_generations):
            if not undecided.any():
                break
            env_states = _env_states_for_gen(env, t, env_states, rng)
            Z[undecided] = _generation(Z[undecided], env_states[undecided], laws, g.D,
                                       rng).sum(axis=1)
            totals = Z.sum(axis=1)
            undecided &= (totals > 0) & (totals <= escape_cap)
        dead_total += int((Z.sum(axis=1) == 0).sum())
    q_hat = dead_total / n_runs
    return q_hat, 1.96 * math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / n_runs)


@pytest.mark.parametrize("schedule", [None, Periodic((1, 0)), MarkovSwitching(0.4, 0.3)])
@pytest.mark.parametrize("dies_early", [False, True])
def test_driver_matches_reference_loops(schedule, dies_early):
    # mixed laws; with the small escape cap runs escape mid-run, and long
    # before the horizon no run is live while escaped runs still follow
    # their environment
    rows = [
        [OffspringLaw("poisson", 1.5), OffspringLaw("geometric", 0.8),
         OffspringLaw("deterministic", 2.0), OffspringLaw("bernoulli-pair", 1.2, p0=0.4, pair_n=2)],
        [OffspringLaw("poisson", 0.3), OffspringLaw("geometric", 2.5),
         OffspringLaw("deterministic", 1.0), OffspringLaw("bernoulli-pair", 0.5, p0=0.75, pair_n=2)],
    ]
    if dies_early:
        rows = [[OffspringLaw("poisson", m) for m in row] for row in ([0.3, 0.2, 0.1, 0.4],
                                                                       [0.1, 0.5, 0.2, 0.3])]
    D = random_graph(np.random.default_rng(43), 4).D
    if schedule is None:
        g, env, laws = MetapopGraph(m=[law.mean for law in rows[0]], D=D), None, rows[:1]
    else:
        g, laws = MetapopGraph(m=np.ones(4), D=D), rows
        means = [[law.mean for law in row] for row in rows]
        env = EnvironmentModel(states=("e1", "e2"), means=means, schedule=schedule)
    horizon, cap = 60, 200
    for lineage in (True, False):
        ref_rng, rng = np.random.default_rng(44), np.random.default_rng(44)
        ref = _reference_run_chunk(g, env, laws, horizon, 300, ref_rng, 1, cap, lineage)
        got = _run_chunk(g, env, laws, horizon, 300, rng, 1, cap, lineage)
        for a, b in zip(got, ref):
            assert (a is None and b is None) or np.array_equal(a, b)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        alive, escaped = ref[0], ref[1]
        if dies_early:
            assert not alive.any() and not ref[2][-1].any()
        else:
            assert 0 < escaped.sum() < 300 and (~alive).any()
    series = patch_series(g, laws, horizon=40, n_runs=30, seed=45, env=env, start_patch=1,
                          escape_cap=cap)
    assert np.array_equal(series, _reference_patch_series(g, env, laws, 40, 30, 45, 1, cap))
    for n_initial in (1, 2):
        got = extinction_probability(g, laws, home=2, n_runs=CHUNK + 300, seed=46,
                                     n_initial=n_initial, max_generations=50,
                                     escape_cap=cap, env=env)
        assert got == _reference_extinctions(g, env, laws, 2, CHUNK + 300, 46, n_initial,
                                             50, cap)
