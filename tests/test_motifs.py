import math

import numpy as np
import pytest

from sourcesink import (
    Motif,
    PipelineSpec,
    ValidationError,
    collapse,
    depleting_rate,
    growth_rate,
    load_motif,
    mean_matrix,
    pipeline_depleting_rate,
    pipeline_to_motif,
    return_functional_exact,
    type_return_functional,
)
from sourcesink.walks import CRITICAL_BAND
from conftest import random_graph


def chessboard_motif():
    # alternating sources and sinks; each patch's neighbors are all of the
    # other class, so the infinite board folds to two patches
    return Motif(
        types=(0, 1),
        means_by_type=[1.5, 0.6],
        D=[[0.0, 1.0], [1.0, 0.0]],
    )


def test_chessboard_collapses_to_two_patches():
    g = collapse(chessboard_motif())
    assert g.K == 2
    assert np.allclose(g.m, [1.5, 0.6])
    assert np.allclose(g.D, [[0.0, 1.0], [1.0, 0.0]])


def test_periodic_linear_array_collapses_to_cycle():
    # period-4 array source-sink-sink-sink folds to a 4-cycle of classes
    D = np.zeros((4, 4))
    for k in range(4):
        D[k, (k + 1) % 4] = 0.5
        D[k, (k - 1) % 4] = 0.5
    motif = Motif(types=(0, 1, 1, 1), means_by_type=[2.0, 0.8], D=D)
    g = collapse(motif)
    assert g.K == 4
    assert np.allclose(g.m, [2.0, 0.8, 0.8, 0.8])


def test_collapse_of_finite_graph_is_identity():
    spec = PipelineSpec(n=7, p=0.5, L=0.5, s=0.0, l=0.5, m=0.5, M=2.0)
    motif = pipeline_to_motif(spec)
    g = collapse(motif)
    assert g.K == 8
    assert np.allclose(g.D.sum(axis=1), 1.0)


def test_collapse_rejects_broken_stochasticity():
    with pytest.raises(ValidationError):
        Motif(types=(0, 1), means_by_type=[2.0, 0.5],
              D=[[0.5, 0.4], [0.5, 0.5]])


def test_type_return_equals_plain_return_for_single_source_patch():
    motif = chessboard_motif()
    v = type_return_functional(motif)
    w = return_functional_exact(collapse(motif))
    assert abs(v.value - w.value) < 1e-12
    assert v.persists == w.persists


def test_type_return_all_unit_means_is_one():
    motif = Motif(types=(0, 1), means_by_type=[1.0, 1.0],
                  D=[[0.5, 0.5], [0.5, 0.5]])
    v = type_return_functional(motif)
    assert abs(v.value - 1.0) < 1e-12
    assert not v.persists


def test_type_return_sign_matches_collapsed_spectral():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        spec = PipelineSpec(
            n=n,
            p=float(rng.uniform(0.05, 0.95)),
            L=float(rng.uniform(0.0, 1.0)),
            s=float(rng.uniform(0.0, 0.5)),
            l=float(rng.uniform(0.05, 0.45)),
            m=float(rng.uniform(0.05, 0.95)),
            M=float(rng.uniform(1.0, 3.0)),
        )
        motif = pipeline_to_motif(spec)
        v = type_return_functional(motif)
        rho = growth_rate(mean_matrix(collapse(motif))).rho
        if abs(rho - 1.0) <= 1e-9:
            continue
        assert v.persists == (rho > 1.0)


def test_type_return_multiple_source_patches_uses_matrix_form():
    # two inequivalent source patches of the same type on a 4-ring
    D = np.zeros((4, 4))
    for k in range(4):
        D[k, (k + 1) % 4] = 0.6
        D[k, (k - 1) % 4] = 0.4
    motif = Motif(types=(0, 1, 0, 1), means_by_type=[1.8, 0.5], D=D)
    v = type_return_functional(motif)
    rho = growth_rate(mean_matrix(collapse(motif))).rho
    assert v.persists == (rho > 1.0)


def test_type_return_answers_with_two_source_types():
    # every patch of either source type is home
    motif = Motif(types=(0, 1, 2), means_by_type=[2.0, 1.5, 0.4],
                  D=np.full((3, 3), 1 / 3))
    v = type_return_functional(motif)
    rho = growth_rate(mean_matrix(collapse(motif))).rho
    assert abs(rho - 1.3) < 1e-12
    assert v.persists and math.isfinite(v.value) and v.value > 1.0


def test_type_return_two_source_types_can_go_extinct():
    # both types are sources, yet the motif dies out: the home-set value
    # over the two source patches and rho both sit below 1
    motif = Motif(types=(0, 1, 2), means_by_type=[1.3, 1.1, 0.4],
                  D=[[0.2, 0.4, 0.4], [0.4, 0.3, 0.3], [0.4, 0.2, 0.4]])
    v = type_return_functional(motif)
    rho = growth_rate(mean_matrix(collapse(motif))).rho
    assert round(v.value, 3) == 0.895 and round(rho, 3) == 0.910
    assert not v.persists


def test_type_return_sign_matches_spectral_with_several_source_types():
    rng = np.random.default_rng(11)
    verdicts = []
    for _ in range(240):
        n_src, n_sink = int(rng.integers(2, 4)), int(rng.integers(1, 3))
        means = np.concatenate([rng.uniform(1.001, 1.6, n_src), rng.uniform(0.05, 0.95, n_sink)])
        extra = rng.integers(0, means.size, int(rng.integers(0, 3)))
        types = tuple(rng.permutation(np.concatenate([np.arange(means.size), extra])))
        motif = Motif(types=types, means_by_type=means, D=random_graph(rng, len(types)).D)
        v = type_return_functional(motif)
        rho = growth_rate(mean_matrix(collapse(motif))).rho
        if abs(math.log(rho)) <= CRITICAL_BAND or v.near_critical:
            continue
        assert v.persists == (rho > 1.0), (motif, v, rho)
        verdicts.append(v.persists)
    assert len(verdicts) >= 200
    assert 0 < sum(verdicts) < len(verdicts)


def test_pipeline_roots_and_identities():
    spec = PipelineSpec(n=3, p=0.5, L=0.5, s=0.0, l=0.5, m=0.5, M=2.0)
    rates = pipeline_depleting_rate(spec)
    assert abs(rates.lam - (2.0 + math.sqrt(3.0))) < 1e-12
    assert abs(rates.mu - (2.0 - math.sqrt(3.0))) < 1e-12
    assert abs(rates.lam * rates.mu - spec.l / spec.r) < 1e-12
    assert abs(rates.lam + rates.mu - (1 - spec.m * spec.s) / (spec.m * spec.r)) < 1e-12


def test_pipeline_roots_straddle_one_for_sink_means():
    rng = np.random.default_rng(4)
    for _ in range(50):
        spec = PipelineSpec(
            n=int(rng.integers(1, 8)),
            p=float(rng.uniform(0.1, 0.9)),
            L=float(rng.uniform(0.0, 1.0)),
            s=float(rng.uniform(0.0, 0.6)),
            l=float(rng.uniform(0.05, 0.35)),
            m=float(rng.uniform(0.05, 0.99)),
            M=2.0,
        )
        rates = pipeline_depleting_rate(spec)
        assert rates.lam > 1.0 > rates.mu >= 0.0
        assert abs(rates.lam * rates.mu - spec.l / spec.r) < 1e-12
        assert abs(
            rates.lam + rates.mu - (1 - spec.m * spec.s) / (spec.m * spec.r)
        ) < 1e-12


def test_pipeline_single_sink_closed_form():
    # n = 1 reduces to e = (1-s) m / (1 - m s), independent of L
    for L in (0.0, 0.25, 0.7, 1.0):
        spec = PipelineSpec(n=1, p=0.4, L=L, s=0.2, l=0.3, m=0.5, M=2.0)
        e = pipeline_depleting_rate(spec).e
        assert abs(e - (1 - 0.2) * 0.5 / (1 - 0.5 * 0.2)) < 1e-12
    spec0 = PipelineSpec(n=1, p=0.4, L=0.5, s=0.0, l=0.5, m=0.5, M=2.0)
    assert abs(pipeline_depleting_rate(spec0).e - 0.5) < 1e-12


def test_pipeline_isotropic_independent_of_split():
    # l = r: e = (lam^n - mu^n + lam - mu) / (lam^(n+1) - mu^(n+1))
    rates = {}
    for L in (0.0, 0.3, 0.8, 1.0):
        spec = PipelineSpec(n=4, p=0.5, L=L, s=0.1, l=0.45, m=0.6, M=2.0)
        rates[L] = pipeline_depleting_rate(spec)
    vals = [r.e for r in rates.values()]
    assert max(vals) - min(vals) < 1e-12
    r = rates[0.3]
    lam, mu, n = r.lam, r.mu, 4
    direct = (lam**n - mu**n + lam - mu) / (lam ** (n + 1) - mu ** (n + 1))
    assert abs(r.e - direct) < 1e-12


def test_pipeline_long_pipe_limit():
    spec = PipelineSpec(n=50, p=0.5, L=0.3, s=0.0, l=0.5, m=0.5, M=2.0)
    r = pipeline_depleting_rate(spec)
    assert abs(r.e - (0.3 / r.lam + 0.7 * r.mu)) < 1e-10


def test_pipeline_matches_linear_system_over_grid():
    rng = np.random.default_rng(6)
    for _ in range(60):
        spec = PipelineSpec(
            n=int(rng.integers(1, 11)),
            p=float(rng.uniform(0.05, 0.95)),
            L=float(rng.uniform(0.0, 1.0)),
            s=float(rng.uniform(0.0, 0.6)),
            l=float(rng.uniform(0.02, 0.38)),
            m=float(rng.uniform(0.05, 0.99)),
            M=float(rng.uniform(1.0, 3.0)),
        )
        e_closed = pipeline_depleting_rate(spec).e
        e_linear = depleting_rate(collapse(pipeline_to_motif(spec)))
        assert abs(e_closed - e_linear) < 1e-10


def test_pipeline_criterion_matches_type_return():
    spec = PipelineSpec(n=3, p=0.5, L=0.5, s=0.0, l=0.5, m=0.5, M=2.0)
    e = pipeline_depleting_rate(spec).e
    crit = spec.M * (1 - spec.p) + e * spec.M * spec.p
    v = type_return_functional(pipeline_to_motif(spec))
    assert abs(crit - v.value) < 1e-10


def test_pipeline_single_sink_motif_shape():
    spec = PipelineSpec(n=1, p=0.4, L=0.7, s=0.25, l=0.3, m=0.5, M=2.0)
    motif = pipeline_to_motif(spec)
    g = collapse(motif)
    assert g.K == 2
    assert abs(g.D[1, 0] - (1 - 0.25)) < 1e-12  # q = l + r = 1 - s
    assert abs(g.D[0, 1] - 0.4) < 1e-12


def test_pipeline_degenerate_rejected():
    with pytest.raises(ValidationError):
        pipeline_depleting_rate(
            PipelineSpec(n=2, p=0.5, L=0.5, s=0.5, l=0.5, m=0.5, M=2.0)
        )  # r = 0
    with pytest.raises(ValidationError):
        pipeline_depleting_rate(
            PipelineSpec(n=2, p=0.5, L=0.5, s=0.0, l=0.5, m=0.0, M=2.0)
        )  # m = 0


def test_motif_json_roundtrip():
    motif = chessboard_motif()
    again = load_motif(motif.to_dict())
    assert again.types == motif.types
    assert np.array_equal(again.D, motif.D)
    with pytest.raises(ValidationError):
        load_motif({"types": [0], "means_by_type": [1.0]})
