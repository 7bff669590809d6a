import math
import tracemalloc

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
    _Edges,
    _Record,
    _env_states_for_gen,
    _generation,
    _run_chunk,
    geometric_laws,
    poisson_laws,
)
from sourcesink.walks import CHUNK
from conftest import random_graph, two_patch


def _masked_brood(law, z, rng):
    """Poisson and bernoulli-pair broods drawn for the positive entries only."""
    out = np.zeros_like(z)
    alive = z > 0
    if alive.any():
        if law.kind == "poisson":
            out[alive] = rng.poisson(law.mean * z[alive])
        else:
            out[alive] = law.pair_n * rng.binomial(z[alive], 1.0 - law.p0)
    return out


@pytest.mark.parametrize("law", [
    OffspringLaw("poisson", 1.7), OffspringLaw("poisson", 0.0),
    OffspringLaw("bernoulli-pair", 1.2, p0=0.4, pair_n=2),
    OffspringLaw("bernoulli-pair", 2.7, p0=0.1, pair_n=3),
    OffspringLaw("bernoulli-pair", 0.0, p0=1.0, pair_n=2),
], ids=lambda law: f"{law.kind}-{law.mean}")
def test_draws_at_zero_consume_no_randomness(law):
    # sample_brood draws for every entry, zeros included; numpy must leave
    # the stream where a draw for the positive entries only leaves it.
    # Counts up to 60 reach both of numpy's Poisson and binomial samplers.
    draw = np.random.default_rng(49)
    z = draw.integers(1, 60, 500) * (draw.random(500) < 0.5)
    rng, ref_rng = np.random.default_rng(50), np.random.default_rng(50)
    for _ in range(3):
        assert np.array_equal(law.sample_brood(z, rng), _masked_brood(law, z, ref_rng))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_offspring_law_validation():
    with pytest.raises(ValidationError):
        OffspringLaw("deterministic", 1.5)
    with pytest.raises(ValidationError):
        OffspringLaw("bernoulli-pair", 1.0, p0=0.5, pair_n=3)
    with pytest.raises(ValidationError):
        OffspringLaw("nope", 1.0)
    # laws that simulate could not draw from: each passed the mean checks
    with pytest.raises(ValidationError, match=r"p0 must lie in \[0, 1\], not 1.5"):
        OffspringLaw("bernoulli-pair", 1.0, p0=1.5, pair_n=-2)
    with pytest.raises(ValidationError, match="pair_n must be an integer, not 2.5"):
        OffspringLaw("bernoulli-pair", 1.0, p0=0.6, pair_n=2.5)
    for kind in ("poisson", "geometric", "deterministic", "bernoulli-pair"):
        with pytest.raises(ValidationError, match="mean must be finite and >= 0, not nan"):
            OffspringLaw(kind, math.nan, p0=0.5, pair_n=2)
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


def test_survivor_occupancy_on_a_periodic_graph_is_the_twisted_optimum():
    # a bipartite graph: the lineage alternates sides, and its occupancy, a
    # time average, still settles.  Both horizons are even, so the c/(h+1)
    # transient is the same at each and two horizons cancel it, weighted as
    # in criterion 9b.  The runs share their seed, so the two estimates
    # correlate positively and the CI, which takes their errors as
    # independent, is the wider one.
    g = MetapopGraph(m=[3.0, 1.5, 1.4, 1.6],
                     D=[[0, 0, .5, .5], [0, 0, .3, .7], [.6, .4, 0, 0], [.2, .8, 0, 0]])
    phi = argmax_occupancy(g).occupancy
    r2 = simulate(g, horizon=200, n_runs=4000, seed=1)
    r1 = simulate(g, horizon=100, n_runs=4000, seed=1)
    w2, w1 = 201 / 100, 101 / 100
    phi_hat = w2 * r2.occupancy_hat - w1 * r1.occupancy_hat
    ci = np.hypot(w2 * r2.occupancy_ci, w1 * r1.occupancy_ci)
    assert np.all(np.abs(phi_hat - phi) <= ci)


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


def test_lineage_storage_holds_only_what_the_backward_pass_reads():
    # one lineage chunk: 655 runs at K = 8 and horizon 200, for which a
    # dense (horizon, runs, K, K) flow array would take 64 MB; flows are
    # kept for live runs only, and an escaped run keeps K expected counts
    g = random_graph(np.random.default_rng(47), 8, m_range=(0.9, 1.5))
    g = MetapopGraph(m=g.m * 1.25 / growth_rate(mean_matrix(g)).rho, D=g.D)
    tracemalloc.start()
    try:
        rep = simulate(g, horizon=200, n_runs=655, seed=48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_escaped > 0 and rep.n_survived < rep.n_runs
    assert peak < 32 << 20


def _torus(side, keep=0.8):
    """Stepping-stone dispersal on a side x side torus: each patch keeps
    ``keep`` of its newborns and sends the rest equally to its four
    neighbours."""
    K = side * side
    D = np.zeros((K, K))
    for i in range(K):
        r, c = divmod(i, side)
        D[i, i] = keep
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            D[i, ((r + dr) % side) * side + (c + dc) % side] += (1.0 - keep) / 4
    return D


def test_lineage_flows_on_a_sparse_torus_take_memory_per_edge():
    # a 10 x 10 torus at horizon 20: a lineage chunk is 41 runs, whose dense
    # (horizon, runs, K, K) int64 flow history would take 66 MB; per-edge
    # flows (five edges a patch, plus the last entries) take under 2 MB
    g = MetapopGraph(m=np.random.default_rng(51).uniform(1.1, 1.6, 100), D=_torus(10))
    horizon, chunk = 20, 41
    tracemalloc.start()
    try:
        rep = simulate(g, horizon=horizon, n_runs=2 * chunk, seed=52)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_survived > 0
    assert peak < horizon * chunk * g.K * g.K * 8 / 8


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


# fixed, periodic and Markov schedules, on K = 4 patches with a full
# dispersal matrix and on K = 9 with zero entries (ids ending in K9)
SCHEDULES_AND_SIZES = [
    pytest.param(schedule, K, id=name + ("" if K == 4 else "-K9"))
    for K in (4, 9)
    for schedule, name in ((None, "None"), (Periodic((1, 0)), "schedule1"),
                           (MarkovSwitching(0.4, 0.3), "schedule2"))
]


def _dense_flows(flows, D):
    """Per-edge flows (runs, E + 1) as a dense (runs, K, K) array.

    The edges are each row's positive entries plus its last entry, row by
    row in column order; the last column of ``flows`` is all zeros."""
    support = D > 0
    support[:, -1] = True
    src, dst = np.nonzero(support)
    dense = np.zeros((len(flows), len(D), len(D)), dtype=np.int64)
    dense[:, src, dst] = flows[:, :-1]
    assert not flows[:, -1].any()
    return dense


def _law_rows(K):
    """Two states' laws on K patches, one law kind per patch in turn."""
    kinds = [
        (OffspringLaw("poisson", 1.5), OffspringLaw("poisson", 0.3)),
        (OffspringLaw("geometric", 0.8), OffspringLaw("geometric", 2.5)),
        (OffspringLaw("deterministic", 2.0), OffspringLaw("deterministic", 1.0)),
        (OffspringLaw("bernoulli-pair", 1.2, p0=0.4, pair_n=2),
         OffspringLaw("bernoulli-pair", 0.5, p0=0.75, pair_n=2)),
    ]
    return [[kinds[i % 4][s] for i in range(K)] for s in (0, 1)]


def _sparse_dispersal(K=9):
    """A K >= 8 dispersal matrix with zero entries: patch i keeps half its
    newborns and sends the rest to i + 1 and i + 3, so most rows have a
    zero last entry and three (rows K - 4, K - 2 and K - 1) a positive one."""
    D = np.zeros((K, K))
    for i in range(K):
        D[i, i] += 0.5
        D[i, (i + 1) % K] += 0.3
        D[i, (i + 3) % K] += 0.2
    assert np.array_equal(np.flatnonzero(D[:, -1]), [K - 4, K - 2, K - 1])
    return D


@pytest.mark.parametrize("schedule, K", SCHEDULES_AND_SIZES)
def test_generation_kernel_matches_reference_loop(schedule, K):
    # one law kind per patch; runs with zero parents draw nothing, so the
    # kernel on live runs only leaves the stream where the loop over all
    # runs leaves it; at K = 9 the split over a row's positive entries and
    # its last entry draws what the split over the whole row draws
    rows = _law_rows(K)
    D = random_graph(np.random.default_rng(40), 4).D if K == 4 else _sparse_dispersal(K)
    g = MetapopGraph(m=[law.mean for law in rows[0]], D=D)
    env = EnvironmentModel(states=("fixed",), means=[g.m], schedule=Periodic((0,)))
    laws = rows[:1]
    if schedule is not None:
        means = [[law.mean for law in row] for row in rows]
        env = EnvironmentModel(states=("e1", "e2"), means=means, schedule=schedule)
        laws = rows
    edges = _Edges(g.D)
    draw = np.random.default_rng(41)
    states = np.zeros(300, dtype=np.int64)
    for t in range(6):
        states = _env_states_for_gen(env, t, states, draw)
        Z = draw.integers(0, 4, size=(300, K)) * (draw.random((300, 1)) < 0.6)
        live = Z.sum(axis=1) > 0
        assert 0 < live.sum() < 300
        ref_rng, rng = np.random.default_rng([42, t]), np.random.default_rng([42, t])
        ref = _reference_generation(Z, states, laws, g.D, ref_rng)
        flows = np.zeros((live.sum(), edges.n + 1), dtype=np.int64)
        counts = _generation(Z[live], states[live], laws, edges, rng, flows)
        assert np.array_equal(_dense_flows(flows, g.D), ref[live])
        assert np.array_equal(counts, ref[live].sum(axis=1))
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
            flows_a = _reference_generation(Z[active], env_states[active], laws, g.D, rng)
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
        lineage_freq = _reference_backward_lineages(flows, final, alive, horizon, K, rng)
    return alive, escaped, sizes, lineage_freq


def _reference_backward_lineages(flows, final, alive, horizon, K, rng):
    """The backward lineage pass over a dense (horizon, runs, K, K) flow array."""
    idx = np.where(alive)[0]
    if idx.size == 0:
        return np.zeros((len(alive), K))
    probs = final[idx]
    probs = probs / probs.sum(axis=1, keepdims=True)
    cur = _reference_categorical_rows(probs, rng)
    tallies = np.zeros((idx.size, K), dtype=np.int64)
    rows = np.arange(idx.size)
    tallies[rows, cur] += 1
    for t in range(horizon - 1, -1, -1):
        cols = flows[t, idx, :, :][rows, :, cur]
        colsum = cols.sum(axis=1, keepdims=True)
        # a zero column can only happen for the run's pre-start rows; guard
        safe = colsum[:, 0] > 0
        probs = np.where(safe[:, None], cols / np.where(colsum == 0, 1.0, colsum), 1.0 / K)
        cur = _reference_categorical_rows(probs, rng)
        tallies[rows, cur] += 1
    freq = np.zeros((len(alive), K))
    freq[idx] = tallies / float(horizon + 1)
    return freq


def _reference_categorical_rows(probs, rng):
    """One categorical draw per row, by a cumulative sum and a row reduction."""
    c = np.cumsum(probs, axis=1)
    c[:, -1] = 1.0
    u = rng.random((probs.shape[0], 1))
    return (u > c).sum(axis=1)


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
            Z[active] = _reference_generation(Z[active], env_states[active], laws, g.D,
                                              rng).sum(axis=1)
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
            Z[undecided] = _reference_generation(Z[undecided], env_states[undecided], laws,
                                                 g.D, rng).sum(axis=1)
            totals = Z.sum(axis=1)
            undecided &= (totals > 0) & (totals <= escape_cap)
        dead_total += int((Z.sum(axis=1) == 0).sum())
    q_hat = dead_total / n_runs
    return q_hat, 1.96 * math.sqrt(max(q_hat * (1.0 - q_hat), 0.0) / n_runs)


@pytest.mark.parametrize("schedule, K", SCHEDULES_AND_SIZES)
@pytest.mark.parametrize("dies_early", [False, True])
def test_driver_matches_reference_loops(schedule, dies_early, K):
    # mixed laws; with the small escape cap runs escape mid-run, and long
    # before the horizon no run is live while escaped runs still follow
    # their environment.  At K = 9 the dispersal rows have zero entries,
    # most of them a zero last entry, so the per-edge kernel meets rows it
    # splits over fewer categories than the reference's dense loop
    rows = _law_rows(K)
    if dies_early:
        rows = [[OffspringLaw("poisson", m) for m in np.resize(row, K)]
                for row in ([0.3, 0.2, 0.1, 0.4], [0.1, 0.5, 0.2, 0.3])]
    D = random_graph(np.random.default_rng(43), 4).D if K == 4 else _sparse_dispersal(K)
    if schedule is None:
        g, laws = MetapopGraph(m=[law.mean for law in rows[0]], D=D), rows[:1]
        env = EnvironmentModel(states=("fixed",), means=[g.m], schedule=Periodic((0,)))
    else:
        g, laws = MetapopGraph(m=np.ones(K), D=D), rows
        means = [[law.mean for law in row] for row in rows]
        env = EnvironmentModel(states=("e1", "e2"), means=means, schedule=schedule)
    horizon, cap = 60, 200
    for lineage in (True, False):
        ref_rng, rng = np.random.default_rng(44), np.random.default_rng(44)
        alive, escaped, sizes, freq = _reference_run_chunk(g, env, laws, horizon, 300, ref_rng,
                                                           1, cap, lineage)
        got = _run_chunk(g, env, laws, _Edges(g.D), horizon, 300, rng, 1, cap,
                         _Record() if lineage else None)
        assert np.array_equal(got[0], alive) and np.array_equal(got[1], escaped)
        # the chunk keeps the sizes of the growth window [h/2, h] of its survivors only
        assert np.array_equal(got[2], sizes[horizon // 2:, alive].T)
        assert (got[3] is None) == (freq is None)
        assert freq is None or np.array_equal(got[3], freq[alive])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if dies_early:
            assert not alive.any() and not sizes[-1].any()
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


def test_a_periodic_schedule_of_many_states_matches_the_reference_loop():
    # 130 states, the first two past what an int8 holds: each run's state
    # must index its row of laws and its mean matrix as is
    K, n_states, horizon, cap = 4, 130, 20, 200
    means = np.random.default_rng(53).uniform(1.0, 1.8, (n_states, K))
    g = MetapopGraph(m=np.ones(K), D=random_graph(np.random.default_rng(43), K).D)
    env = EnvironmentModel(states=tuple(f"e{s}" for s in range(n_states)), means=means,
                           schedule=Periodic(tuple(range(n_states))[::-1]))
    laws = poisson_laws(g, env)
    for lineage in (True, False):
        ref_rng, rng = np.random.default_rng(54), np.random.default_rng(54)
        alive, escaped, sizes, freq = _reference_run_chunk(g, env, laws, horizon, 300, ref_rng,
                                                           0, cap, lineage)
        got = _run_chunk(g, env, laws, _Edges(g.D), horizon, 300, rng, 0, cap,
                         _Record() if lineage else None)
        assert 0 < escaped.sum() < 300 and (~alive).any()
        assert np.array_equal(got[0], alive) and np.array_equal(got[1], escaped)
        assert np.array_equal(got[2], sizes[horizon // 2:, alive].T)
        assert freq is None or np.array_equal(got[3], freq[alive])
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        # one chunk of simulate is this run chunk on stream (seed, 0)
        alive, escaped, _, freq = _reference_run_chunk(
            g, env, laws, horizon, 300, np.random.default_rng([55, 0]), 0, cap, lineage)
        rep = simulate(g, horizon=horizon, n_runs=300, seed=55, env=env, escape_cap=cap,
                       track_lineage=lineage)
        assert (rep.n_survived, rep.n_escaped) == (alive.sum(), escaped.sum())
        assert (rep.occupancy_hat is None) == (freq is None)
        assert freq is None or np.array_equal(rep.occupancy_hat, freq[alive].mean(axis=0))
    series = patch_series(g, laws, horizon=30, n_runs=20, seed=56, env=env, escape_cap=cap)
    assert np.array_equal(series, _reference_patch_series(g, env, laws, 30, 20, 56, 0, cap))


def test_fixed_environment_is_the_one_state_periodic_schedule(monkeypatch):
    # env=None and the explicit one-state schedule of g.m give the same
    # results and leave every generator in the same state
    made = []

    def recorded(*args, _make=np.random.default_rng):
        made.append(_make(*args))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recorded)
    g = random_graph(np.random.default_rng(47), 3, m_range=(0.8, 2.0))
    one = EnvironmentModel(states=("fixed",), means=[g.m], schedule=Periodic((0,)))
    runs = {}
    for env in (None, one):
        made.clear()
        sims = [simulate(g, horizon=30, n_runs=400, seed=48, env=env, track_lineage=lin,
                         escape_cap=cap).to_dict()
                for lin in (True, False) for cap in (300, 10**7)]
        series = patch_series(g, horizon=25, n_runs=12, seed=49, env=env, escape_cap=300)
        q = extinction_probability(g, n_runs=CHUNK + 100, seed=50, env=env,
                                   max_generations=60, escape_cap=300)
        runs[env is None] = (sims, series.tolist(), q, [r.bit_generator.state for r in made])
    assert runs[True] == runs[False]
    assert len(runs[True][3]) > 4
