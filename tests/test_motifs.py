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


def test_collapse_is_the_graph_the_motif_keeps():
    # row 1 sums to 1 - 1.1e-16, so it renormalizes once, when the motif is
    # built; a second build would renormalize it again and move last bits
    D = [[0.1, 0.2, 0.7], [0.2, 0.7, 0.1], [0.7, 0.1, 0.2]]
    motif = Motif(types=(0, 1, 1), means_by_type=[2.0, 0.5], D=D)
    assert not np.array_equal(motif.D, D)
    assert collapse(motif) is collapse(motif)
    assert np.array_equal(collapse(motif).D, motif.D)
    assert np.array_equal(collapse(motif).m, [2.0, 0.5, 0.5])


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


NEUTRAL_SINKS = [(0.0, 0.5), (0.1, 0.45), (0.2, 0.4), (0.5, 0.25)]  # (s, l) with l = r


@pytest.mark.parametrize("s, l", NEUTRAL_SINKS)
@pytest.mark.parametrize("n", [1, 7, 250])
@pytest.mark.parametrize("L", [0.5, 0.2])
def test_pipeline_double_root_matches_linear_system(s, l, n, L):
    # m = 1 and l = r: the quadratic has the double root lam = mu = 1, where
    # the closed form takes its limit mu/lam -> 1
    spec = PipelineSpec(n=n, p=0.5, L=L, s=s, l=l, m=1.0, M=2.0)
    r = pipeline_depleting_rate(spec)
    assert r.lam == r.mu == 1.0
    assert abs(r.e - depleting_rate(collapse(pipeline_to_motif(spec)))) <= 1e-12
    # just off the double root the distinct-root formula agrees as closely
    near = PipelineSpec(n=n, p=0.5, L=L, s=s, l=l, m=1.0 - 1e-9, M=2.0)
    assert pipeline_depleting_rate(near).lam > 1.0
    assert abs(pipeline_depleting_rate(near).e
               - depleting_rate(collapse(pipeline_to_motif(near)))) <= 1e-12


CONJUGATE_SINKS = [(0.2, 0.4), (0.0, 0.5), (0.5, 0.25)]  # (s, l) with l = r


@pytest.mark.parametrize("s, l", CONJUGATE_SINKS)
@pytest.mark.parametrize("n", [3, 7, 20])
def test_pipeline_on_conjugate_roots_matches_linear_system(s, l, n):
    # every m > 1 with l = r gives the quadratic conjugate roots; the
    # closed form in them is the linear route's rate while the sink block
    # is subcritical, and inf where the linear route is inf
    finite = infinite = 0
    for m in 1.0 + np.geomspace(5e-4, 0.2, 40):
        spec = PipelineSpec(n=n, p=0.5, L=0.3, s=s, l=l, m=float(m), M=2.0)
        rates = pipeline_depleting_rate(spec)
        assert rates.lam is None and rates.mu is None
        linear = depleting_rate(collapse(pipeline_to_motif(spec)))
        rho = m * (s + 2 * math.sqrt(l * spec.r) * math.cos(math.pi / (n + 1)))
        assert math.isinf(rates.e) == math.isinf(linear) == (rho >= 1)
        if math.isinf(linear):
            infinite += 1
        else:
            finite += 1
            assert abs(rates.e - linear) <= 1e-9 * linear
    assert finite >= 5 and (infinite > 0 or n == 3)


def _pipeline_sweep(rng, count):
    # real, double and conjugate roots, l = r, one-way (r = 0), l = 0,
    # lethal (m = 0) and neutral (m = 1) sinks, pipes of 1 to 2000 sinks
    for _ in range(count):
        n = int(rng.choice([1, 2, 3, 7, 10, 50, 100, 250, 1000, 2000]))
        p = float(rng.uniform(0.05, 1.0))
        L = [0.0, 0.5, 1.0, rng.uniform()][rng.integers(4)]
        s = float(rng.uniform(0.0, 0.9))
        l = [1.0 - s, (1.0 - s) / 2.0, 0.0, rng.uniform(0.0, 1.0 - s)][rng.integers(4)]
        m = [0.0, 1.0, rng.uniform(), rng.uniform(1.0, 3.0), rng.uniform(0.0, 1.2)][rng.integers(5)]
        yield PipelineSpec(n=n, p=p, L=float(L), s=s, l=float(l), m=float(m), M=2.0)


def test_pipeline_closed_form_and_linear_route_agree_on_a_seeded_sweep():
    # the closed form raises nothing and is never NaN, and where the ring is
    # irreducible both routes are inf together (rho(sink block) >= 1 -
    # CRITICAL_RADIUS_TOL) or agree; subnormal rates differ only in absolute terms
    compared = infinite = 0
    for spec in _pipeline_sweep(np.random.default_rng(1), 20_000):
        e = pipeline_depleting_rate(spec).e
        assert e >= 0.0, spec
        reducible = (spec.r == 0 and spec.L == 0) or (spec.l == 0 and spec.R == 0)
        if spec.n > 250 or compared == 300 or reducible:  # the linear route refuses a reducible ring
            continue
        linear = depleting_rate(collapse(pipeline_to_motif(spec)))
        assert math.isinf(e) == math.isinf(linear), spec
        if math.isinf(e):
            infinite += 1
        else:
            assert abs(e - linear) <= 1e-12 * linear + 1e-300, spec
        compared += 1
    assert compared == 300 and 0 < infinite < compared


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


PIPE = dict(n=2, p=0.5, L=0.5, s=0.2, l=0.4, m=0.5, M=2.0)
MOTIF_REFUSALS = {
    "no type means": (lambda: Motif(types=(0,), means_by_type=[], D=[[1.0]]),
                      "means_by_type must be a non-empty vector"),
    "type out of range": (lambda: Motif(types=(0, 2), means_by_type=[1.5, 0.6],
                                        D=[[0.5, 0.5], [0.5, 0.5]]),
                          "patch type out of range of means_by_type"),
    "no sink": (lambda: PipelineSpec(**{**PIPE, "n": 0}), "need at least one sink in the pipeline"),
    "p above 1": (lambda: PipelineSpec(**{**PIPE, "p": 1.5}), "p must lie in [0, 1]"),
    "l + s above 1": (lambda: PipelineSpec(**{**PIPE, "s": 0.7}), "l + s must not exceed 1"),
    "negative mean": (lambda: PipelineSpec(**{**PIPE, "M": -1.0}), "means must be >= 0"),
}


@pytest.mark.parametrize("build, message", list(MOTIF_REFUSALS.values()), ids=list(MOTIF_REFUSALS))
def test_motif_and_pipeline_refusals_name_their_fault(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_motif_json_roundtrip():
    labelled = Motif(types=(0, 1), means_by_type=[1.5, 0.6], D=[[0, 1], [1, 0]], labels=("a", "b"))
    for motif in (chessboard_motif(), labelled):
        again = load_motif(motif.to_dict())
        assert again.types == motif.types
        assert np.array_equal(again.D, motif.D)
        assert again.labels == motif.labels
    assert "labels" not in chessboard_motif().to_dict()
    with pytest.raises(ValidationError):
        load_motif({"types": [0], "means_by_type": [1.0]})
    with pytest.raises(ValidationError, match="motif labels must be a JSON list"):
        load_motif({**labelled.to_dict(), "labels": "ab"})


def test_motif_means_are_read_only():
    motif = chessboard_motif()
    with pytest.raises(ValueError):
        motif.means_by_type[0] = 99.0
    with pytest.raises(ValueError):
        motif.means_by_type.flags.writeable = True
    assert motif.means_by_type.tolist() == [1.5, 0.6]
