"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them inline).
Multi-clause criteria print one line per clause, tagged 1, 2, ... 9a, 9b.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from sourcesink import (
    EnvironmentModel,
    MarkovSwitching,
    Periodic,
    PipelineSpec,
    WalkConfig,
    argmax_occupancy,
    collapse,
    depleting_rate,
    growth_rate,
    lyapunov_estimate,
    max_rate_gap,
    mean_matrix,
    periodic_growth_and_occupancy,
    periodic_mean_matrix,
    pipeline_depleting_rate,
    pipeline_to_motif,
    random_env_lower_bound,
    rate_function,
    return_functional_exact,
    return_functional_mc,
    simulate,
    stationary_distribution,
    two_patch_periodic_criterion,
)
from conftest import (
    random_fully_mixing,
    random_graph,
    random_two_habitat,
    sanov_lattice_rate,
    symmetric_walk_visits,
    two_patch,
)


def report(tag, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {tag}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@functools.lru_cache(maxsize=1)
def panel_200():
    rng = np.random.default_rng(20260810)
    return tuple(random_graph(rng, int(rng.integers(2, 7))) for _ in range(200))


def test_criterion_1_cross_method_growth_rate():
    t0 = time.perf_counter()
    worst_simplex = worst_twisted = 0.0
    for g in panel_200():
        log_rho = math.log(growth_rate(mean_matrix(g)).rho)
        worst_twisted = max(worst_twisted, abs(log_rho - argmax_occupancy(g).log_growth))
        worst_simplex = max(worst_simplex, abs(log_rho - max_rate_gap(g).log_growth))
    elapsed = time.perf_counter() - t0
    report(
        1,
        "cross-method growth rate on 200 instances",
        worst_simplex <= 1e-6 and worst_twisted <= 1e-8 and elapsed <= 60.0,
        f"simplex {worst_simplex:.2e} <= 1e-6, twisted {worst_twisted:.2e} <= 1e-8, "
        f"{elapsed:.1f}s <= 60s",
    )


def test_criterion_2_persistence_equivalence():
    agree = total = flagged = 0
    for g in panel_200():
        rho = growth_rate(mean_matrix(g)).rho
        v = return_functional_exact(g)
        in_band = abs(rho - 1.0) <= 1e-9 or (
            math.isfinite(v.value) and abs(v.value - 1.0) <= 1e-9
        )
        if in_band:
            flagged += 1
            continue
        total += 1
        agree += v.persists == (rho > 1.0)
    report(
        2,
        "persistence equivalence spectral vs excursion",
        agree == total,
        f"{agree}/{total} agree, {flagged} flagged near-critical",
    )


def test_criterion_3_two_habitat_closed_forms():
    rng = np.random.default_rng(3)
    worst_crit = 0.0
    for _ in range(100):
        g = random_two_habitat(rng, int(rng.integers(2, 7)))
        e = depleting_rate(g)
        M, p = g.m[0], float(g.D[0, 1:].sum())
        v = return_functional_exact(g)
        worst_crit = max(worst_crit, abs(M * (1 - p) + e * M * p - v.value))
    worst_2p = 0.0
    for _ in range(100):
        M, m = rng.uniform(1.05, 3.0), rng.uniform(0.05, 0.95)
        p, q = rng.uniform(0.05, 0.95, 2)
        g = two_patch(M=M, m=m, p=p, q=q)
        worst_2p = max(worst_2p, abs(depleting_rate(g) - m * q / (1 - m * (1 - q))))
    report(
        3,
        "two-habitat depleting-rate criterion",
        worst_crit <= 1e-10 and worst_2p <= 1e-12,
        f"criterion match {worst_crit:.2e} <= 1e-10, 2-patch formula {worst_2p:.2e}",
    )


def test_criterion_4_pipeline_closed_form():
    rng = np.random.default_rng(4)
    worst_e = worst_id = worst_red = 0.0
    for n in range(1, 11):
        for _ in range(100):
            spec = PipelineSpec(
                n=n,
                p=float(rng.uniform(0.05, 0.95)),
                L=float(rng.uniform(0.0, 1.0)),
                s=float(rng.uniform(0.0, 0.6)),
                l=float(rng.uniform(0.02, 0.38)),
                m=float(rng.uniform(0.05, 0.99)),
                M=float(rng.uniform(1.0, 3.0)),
            )
            r = pipeline_depleting_rate(spec)
            e_lin = depleting_rate(collapse(pipeline_to_motif(spec)))
            worst_e = max(worst_e, abs(r.e - e_lin))
            worst_id = max(
                worst_id,
                abs(r.lam * r.mu - spec.l / spec.r),
                abs(r.lam + r.mu - (1 - spec.m * spec.s) / (spec.m * spec.r)),
            )
    for _ in range(100):
        # n = 1 reduction
        s, m, l = rng.uniform(0.0, 0.6), rng.uniform(0.05, 0.99), 0.2
        spec = PipelineSpec(n=1, p=0.5, L=float(rng.uniform(0, 1)), s=s, l=l, m=m, M=2.0)
        worst_red = max(
            worst_red, abs(pipeline_depleting_rate(spec).e - (1 - s) * m / (1 - m * s))
        )
        # isotropic reduction
        li = (1.0 - s) / 2.0
        spec = PipelineSpec(n=int(rng.integers(1, 9)), p=0.5,
                            L=float(rng.uniform(0, 1)), s=s, l=li, m=m, M=2.0)
        r = pipeline_depleting_rate(spec)
        iso = (r.lam**spec.n - r.mu**spec.n + r.lam - r.mu) / (
            r.lam ** (spec.n + 1) - r.mu ** (spec.n + 1)
        )
        worst_red = max(worst_red, abs(r.e - iso))
    report(
        4,
        "pipeline depleting rate: closed form vs linear system",
        worst_e <= 1e-10 and worst_id <= 1e-12 and worst_red <= 1e-12,
        f"e {worst_e:.2e} <= 1e-10, root identities {worst_id:.2e} <= 1e-12, "
        f"reductions {worst_red:.2e} <= 1e-12",
    )


def test_criterion_5_fully_mixing_oracles():
    rng = np.random.default_rng(5)
    worst_rho = worst_I = worst_phi = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 6))
        g, delta = random_fully_mixing(rng, K)
        rho = growth_rate(mean_matrix(g)).rho
        worst_rho = max(worst_rho, abs(rho - float(delta @ g.m)))
        f = rng.dirichlet(np.ones(K))
        kl = float(np.sum(f * np.log(f / delta)))
        worst_I = max(worst_I, abs(rate_function(g, f).cost - kl))
        phi = argmax_occupancy(g).occupancy
        expect = delta * g.m / float(delta @ g.m)
        worst_phi = max(worst_phi, float(np.abs(phi - expect).max()))
    report(
        5,
        "fully mixing closed forms (rho, KL cost, occupancy)",
        worst_rho <= 1e-10 and worst_I <= 1e-10 and worst_phi <= 1e-10,
        f"rho {worst_rho:.2e}, I {worst_I:.2e}, phi {worst_phi:.2e}, all <= 1e-10",
    )


def test_criterion_6_occupancy_vs_stationary():
    rng = np.random.default_rng(6)
    min_sep = math.inf
    worst_eq = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 7))
        g = random_graph(rng, K, min_spread=0.05)
        sep = float(
            np.abs(argmax_occupancy(g).occupancy - stationary_distribution(g)).max()
        )
        min_sep = min(min_sep, sep)
        c = float(rng.uniform(0.2, 2.0))
        gc = random_graph(rng, K, m_range=(c, c))
        worst_eq = max(
            worst_eq,
            float(np.abs(argmax_occupancy(gc).occupancy - stationary_distribution(gc)).max()),
        )
    report(
        6,
        "occupancy equals stationary law only for constant means",
        min_sep > 1e-6 and worst_eq <= 1e-9,
        f"min separation {min_sep:.2e} > 1e-6, constant-mean gap {worst_eq:.2e} <= 1e-9",
    )


def test_criterion_7_periodic_environment():
    rng = np.random.default_rng(7)
    agree = total = 0
    for _ in range(500):
        M1, M2, m1, m2 = rng.uniform(0.05, 3.0, 4)
        p, q = rng.uniform(0.02, 0.98, 2)
        g = two_patch(M=1.0, m=1.0, p=p, q=q)
        env = EnvironmentModel(states=("e1", "e2"), means=[[M1, m1], [M2, m2]],
                               schedule=Periodic((0, 1)))
        rho = growth_rate(periodic_mean_matrix(g, env)).rho
        if abs(rho - 1.0) <= 1e-9:
            continue
        total += 1
        agree += two_patch_periodic_criterion(M1, M2, m1, m2, p, q).persists == (rho > 1)
    ok_criterion = agree == total

    coup = two_patch_periodic_criterion(4.0, 0.2, 0.9, 0.9, 0.5, 0.5)
    ok_coupled = coup.persists and 4.0 * 0.2 <= 1.0 and 0.9 * 0.9 <= 1.0

    worst_mix = 0.0
    for _ in range(50):
        K = int(rng.integers(2, 5))
        g, delta = random_fully_mixing(rng, K)
        mA, mB = rng.uniform(0.1, 3.0, K), rng.uniform(0.1, 3.0, K)
        env = EnvironmentModel(states=("e1", "e2"), means=[mA, mB],
                               schedule=Periodic((0, 1)))
        rho = math.sqrt(growth_rate(periodic_mean_matrix(g, env)).rho)
        geo = math.sqrt(float(delta @ mA)) * math.sqrt(float(delta @ mB))
        worst_mix = max(worst_mix, abs(rho - geo))

    worst_edge = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 4))
        g = random_graph(rng, K, m_range=(1.0, 1.0))
        mA, mB = rng.uniform(0.2, 2.5, K), rng.uniform(0.2, 2.5, K)
        env = EnvironmentModel(states=("e1", "e2"), means=[mA, mB],
                               schedule=Periodic((0, 1)))
        res = periodic_growth_and_occupancy(g, env)
        rho = growth_rate(periodic_mean_matrix(g, env)).rho
        worst_edge = max(worst_edge, abs(res.log_growth - 0.5 * math.log(rho)))
    report(
        7,
        "periodic environment (criterion, coupled sinks, mixing, edge chain)",
        ok_criterion and ok_coupled and worst_mix <= 1e-10 and worst_edge <= 1e-6,
        f"criterion {agree}/{total}, coupled sinks {ok_coupled}, "
        f"mixing rho {worst_mix:.2e} <= 1e-10, edge-chain {worst_edge:.2e} <= 1e-6",
    )


def test_criterion_8_random_environment():
    rng = np.random.default_rng(8)
    # 10 constant and 10 alternating environments at 1e6 steps
    ok_const = ok_alt = True
    for i in range(10):
        g = random_graph(rng, 2, m_range=(0.3, 2.5))
        envc = EnvironmentModel(states=("e1", "e2"), means=[g.m, g.m],
                                schedule=MarkovSwitching(0.5, 0.5))
        ly = lyapunov_estimate(g, envc, n_steps=10**6, seed=800 + i)
        target = math.log(growth_rate(mean_matrix(g)).rho)
        ok_const &= abs(ly.gamma - target) <= max(ly.ci_halfwidth, 1e-9)

        mA, mB = rng.uniform(0.2, 2.5, 2), rng.uniform(0.2, 2.5, 2)
        env_alt = EnvironmentModel(states=("e1", "e2"), means=[mA, mB],
                                   schedule=MarkovSwitching(1.0, 1.0))
        env_per = EnvironmentModel(states=("e1", "e2"), means=[mA, mB],
                                   schedule=Periodic((0, 1)))
        rho2 = growth_rate(periodic_mean_matrix(g, env_per)).rho
        ly2 = lyapunov_estimate(g, env_alt, n_steps=10**6, seed=900 + i)
        ok_alt &= abs(ly2.gamma - 0.5 * math.log(rho2)) <= max(ly2.ci_halfwidth, 1e-9)

    ok_bound = True
    for i in range(100):
        M1 = float(rng.uniform(1.0, 12.0))
        M2, m1, m2 = rng.uniform(0.05, 1.0, 3)
        p, q = rng.uniform(0.1, 0.9, 2)
        alpha, beta = rng.uniform(0.1, 0.95, 2)
        g = two_patch(M=1.0, m=1.0, p=p, q=q)
        env = EnvironmentModel(states=("e1", "e2"), means=[[M1, m1], [M2, m2]],
                               schedule=MarkovSwitching(alpha, beta))
        bound = random_env_lower_bound(M1, m2, p, q, alpha, beta)
        ly = lyapunov_estimate(g, env, n_steps=10**5, seed=1000 + i)
        ok_bound &= bound <= ly.gamma + ly.ci_halfwidth

    # coupled sinks with a positive bound must show a positive exponent
    bound = random_env_lower_bound(10.0, 0.8, 0.5, 0.5, 0.5, 0.5)
    g = two_patch(M=1.0, m=1.0, p=0.5, q=0.5)
    env = EnvironmentModel(states=("e1", "e2"), means=[[10.0, 0.9], [0.05, 0.8]],
                           schedule=MarkovSwitching(0.5, 0.5))
    ly = lyapunov_estimate(g, env, n_steps=10**6, seed=88)
    ok_coupled = bound > 0 and ly.gamma > 0

    report(
        8,
        "random environment (Lyapunov vs oracles, lower bound, coupled sinks)",
        ok_const and ok_alt and ok_bound and ok_coupled,
        f"const {ok_const}, alternating {ok_alt}, bound {ok_bound}, "
        f"coupled gamma {ly.gamma:.4f} > 0 with bound {bound:.4f} > 0",
    )


@functools.lru_cache(maxsize=1)
def benchmark_sim():
    t0 = time.perf_counter()
    rep = simulate(two_patch(), horizon=200, n_runs=10**4, seed=0)
    return rep, time.perf_counter() - t0


def test_criterion_9a_supercritical_growth_rate():
    rep, _ = benchmark_sim()
    delta = abs(rep.growth_rate_hat - math.log(1.25))
    report(
        "9a",
        "simulated growth rate within 95% CI of log(1.25)",
        delta <= rep.growth_rate_ci,
        f"|{rep.growth_rate_hat:.6f} - {math.log(1.25):.6f}| = {delta:.2e} "
        f"vs CI {rep.growth_rate_ci:.2e}",
    )


@functools.lru_cache(maxsize=1)
def companion_sim():
    return simulate(two_patch(), horizon=50, n_runs=10**4, seed=1)


def test_criterion_9b_survivor_occupancy():
    # The lineage frequency at horizon h has expectation phi + c/(h+1) up to
    # geometrically vanishing terms, with c ~ -0.35 in the source coordinate.
    # Both ends of the lineage feed c: it starts in patch 0 under survival
    # conditioning, and its recent end follows the stable profile, not phi.
    # occupancy_ci covers Monte Carlo error only, so two horizons cancel c
    # (Richardson extrapolation):
    # phi_hat = [(h2+1) occ_h2 - (h1+1) occ_h1] / (h2 - h1).
    rep2, _ = benchmark_sim()
    rep1 = companion_sim()
    h2, h1 = rep2.horizon, rep1.horizon
    w2, w1 = (h2 + 1) / (h2 - h1), (h1 + 1) / (h2 - h1)
    phi_hat = w2 * rep2.occupancy_hat - w1 * rep1.occupancy_hat
    ci = np.hypot(w2 * rep2.occupancy_ci, w1 * rep1.occupancy_ci)
    target = np.array([0.8, 0.2])
    dev = np.abs(phi_hat - target)
    ok = bool(np.all(dev <= ci))
    report(
        "9b",
        "survivor occupancy within per-coordinate 95% CI of (0.8, 0.2)",
        ok,
        f"horizons {h1}/{h2} extrapolated: deviation {dev.max():.2e} "
        f"vs CI {ci.max():.2e}",
    )


def test_criterion_9c_subcritical_and_runtime():
    _, t_super = benchmark_sim()
    t0 = time.perf_counter()
    g = two_patch(M=1.1, m=0.1, p=0.9, q=0.1)
    rep = simulate(g, horizon=500, n_runs=10**4, seed=0, track_lineage=False)
    elapsed = time.perf_counter() - t0 + t_super
    report(
        "9c",
        "matched subcritical instance dies out; runtime within budget",
        rep.survival_prob <= 0.01 and elapsed <= 300.0,
        f"survival {rep.survival_prob:.4f} <= 0.01, total {elapsed:.0f}s <= 300s",
    )


@functools.lru_cache(maxsize=1)
def sanov_visits():
    return symmetric_walk_visits(10, 10**6, (20, 40))


@pytest.mark.parametrize("f0", [0.6, 0.7, 0.8])
def test_criterion_10_sanov_desk_check(f0):
    rate_hat = sanov_lattice_rate(sanov_visits(), f0, 20, 40)
    target = rate_function(two_patch(), [f0, 1 - f0]).cost
    rel = abs(rate_hat - target) / target
    report(
        10,
        f"Sanov lattice rate at f = {f0}",
        rel <= 0.15,
        f"two-length estimate {rate_hat:.5f} vs I = {target:.5f}, rel {rel:.1%} <= 15%",
    )


def test_criterion_11_reproducibility(tmp_path):
    from sourcesink.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "graph": {"m": [2.0, 0.5], "D": [[0.5, 0.5], [0.5, 0.5]]},
        "seed": 7,
        "simulate": {"horizon": 60, "n_runs": 2000},
        "mc": {"n_trials": 5000},
    }))
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / f"{name}.json"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    ok_sim = outs[0] == outs[1] == outs[2]

    g = two_patch()
    mc1 = return_functional_mc(g, 0, WalkConfig(n_trials=4000, seed=3))
    mc2 = return_functional_mc(g, 0, WalkConfig(n_trials=4000, seed=3))
    env = EnvironmentModel(states=("e1", "e2"), means=[[2.0, 0.5], [0.3, 0.9]],
                           schedule=MarkovSwitching(0.5, 0.5))
    ly1 = lyapunov_estimate(g, env, n_steps=50_000, seed=5)
    ly2 = lyapunov_estimate(g, env, n_steps=50_000, seed=5)
    report(
        11,
        "Monte Carlo reports byte-identical across runs",
        ok_sim and mc1 == mc2 and ly1 == ly2,
        f"cli bytes {ok_sim}, walk MC {mc1 == mc2}, lyapunov {ly1 == ly2}",
    )
