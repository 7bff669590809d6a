import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sourcesink import (
    EnvironmentModel,
    MetapopGraph,
    PipelineSpec,
    ValidationError,
    as_frequencies,
    collapse,
    growth_rate,
    load_graph,
    mean_matrix,
    pipeline_to_motif,
    stationary_distribution,
    validate_graph,
)
from sourcesink.environments import Periodic, edge_chain
from conftest import random_graph, two_patch


def test_two_patch_self_loops_are_primitive():
    rep = validate_graph(two_patch(M=2.0, m=0.5, p=0.5, q=0.5))
    assert rep.irreducible
    assert rep.aperiodic
    assert rep.positive_means
    assert rep.period == 1


def test_directed_two_cycle_has_period_two():
    g = MetapopGraph(m=[1.0, 1.0], D=[[0.0, 1.0], [1.0, 0.0]])
    rep = validate_graph(g)
    assert rep.irreducible
    assert rep.period == 2
    assert not rep.aperiodic


def test_disconnected_graph_is_reducible():
    g = MetapopGraph(m=[1.0, 1.0], D=[[1.0, 0.0], [0.0, 1.0]])
    assert not validate_graph(g).irreducible


def test_three_cycle_period():
    D = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    rep = validate_graph(MetapopGraph(m=[1, 1, 1], D=D))
    assert rep.irreducible and rep.period == 3


def test_period_divides_every_cycle_length():
    # enumerate cycles through state 0 for small graphs and check divisibility
    rng = np.random.default_rng(5)
    for _ in range(20):
        K = int(rng.integers(2, 6))
        g = random_graph(rng, K)
        rep = validate_graph(g)
        adj = [set(np.where(row > 0)[0]) for row in g.D]
        # lengths of closed walks through 0 up to length 2K by DFS
        lengths = set()

        def walk(node, depth):
            if depth > 2 * K:
                return
            for nxt in adj[node]:
                if nxt == 0:
                    lengths.add(depth + 1)
                else:
                    walk(nxt, depth + 1)

        walk(0, 0)
        for length in lengths:
            assert length % rep.period == 0


# Reference structure checks: adjacency-list walkers, one Python loop per
# vertex and edge, kept to check the level-set implementation against.


def _ref_successors(D):
    return [list(np.where(row > 0)[0]) for row in D]


def _ref_reachable(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _ref_components(D):
    k = D.shape[0]
    adj = _ref_successors(D)
    radj = [list(np.where(D[:, j] > 0)[0]) for j in range(k)]
    comps = []
    assigned = [False] * k
    for s in range(k):
        if assigned[s]:
            continue
        comp = sorted(_ref_reachable(adj, s) & _ref_reachable(radj, s))
        for v in comp:
            assigned[v] = True
        comps.append(comp)
    return comps


def _ref_component_period(D, comp):
    inside = set(comp)
    level = {comp[0]: 0}
    frontier = [comp[0]]
    adj = _ref_successors(D)
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in inside and v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    g = 0
    for u in comp:
        for v in adj[u]:
            if v in inside:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 0


def _ref_structure(D):
    """(irreducible, aperiodic, period) by the reference walkers."""
    comps = _ref_components(D)
    irreducible = len(comps) == 1 and len(comps[0]) == D.shape[0]
    period = 0
    for comp in comps:
        period = math.gcd(period, _ref_component_period(D, comp))
    period = period or 1
    return irreducible, irreducible and period == 1, period


def _weighted(rng, S):
    """A graph on support S (every row non-empty) with random weights."""
    D = np.where(S, rng.uniform(0.1, 1.0, S.shape), 0.0)
    return MetapopGraph(m=rng.uniform(0.5, 2.0, S.shape[0]), D=D / D.sum(axis=1)[:, None])


def _fill_empty_rows(rng, S, allowed):
    for i in np.where(~S.any(axis=1))[0]:
        S[i, rng.choice(np.where(allowed[i])[0])] = True
    return S


def _sparse_support(rng):
    K = int(rng.integers(1, 13))
    S = rng.random((K, K)) < rng.uniform(0.05, 0.5)
    return _fill_empty_rows(rng, S, np.ones((K, K), dtype=bool))


def _block_cyclic_support(rng):
    """Edges only from block c to block c + 1 (mod p), p = 2..4; a third
    of the graphs get one extra edge anywhere, which may cut the period."""
    p = int(rng.integers(2, 5))
    K = int(rng.integers(p, 13))
    block = rng.permutation(np.arange(K) % p)
    allowed = block[None, :] == (block[:, None] + 1) % p
    S = _fill_empty_rows(rng, allowed & (rng.random((K, K)) < 0.4), allowed)
    if rng.random() < 1 / 3:
        S[rng.integers(K), rng.integers(K)] = True
    return S


def _reducible_support(rng):
    """Two to five classes in a random order, edges between classes only
    forward.  Each class is a ring of 1-4 vertices with a few chords; a
    singleton that is not last may have no self-loop, a class without a
    cycle."""
    sizes = rng.integers(1, 5, size=int(rng.integers(2, 6)))
    K = int(sizes.sum())
    start = np.concatenate([[0], np.cumsum(sizes)])
    S = np.zeros((K, K), dtype=bool)
    later = np.zeros((K, K), dtype=bool)
    for c, size in enumerate(sizes):
        idx = np.arange(start[c], start[c + 1])
        later[idx, start[c + 1]:] = True
        if size == 1 and c < len(sizes) - 1 and rng.random() < 0.5:
            continue
        S[idx, np.roll(idx, -1)] = True
        S[np.ix_(idx, idx)] |= rng.random((size, size)) < 0.15
    S |= later & (rng.random((K, K)) < 0.2)
    S = _fill_empty_rows(rng, S, later)
    perm = rng.permutation(K)
    return S[np.ix_(perm, perm)]


def _large_graphs():
    rng = np.random.default_rng(24)
    g = random_graph(rng, 24)
    env = EnvironmentModel(
        states=("e1", "e2"), means=rng.uniform(0.3, 2.5, (2, 24)), schedule=Periodic((0, 1))
    )
    graphs = [edge_chain(g, env)[0]]
    for n, s in ((250, 0.2), (250, 0.0), (249, 0.0)):
        spec = PipelineSpec(n=n, p=1.0 if s == 0.0 else 0.5, L=0.5, s=s,
                            l=(1 - s) / 2, m=0.5, M=2.0)
        graphs.append(collapse(pipeline_to_motif(spec)))
    return graphs


def test_structure_matches_reference_walkers():
    rng = np.random.default_rng(8)
    graphs = [
        _weighted(rng, make(rng))
        for make in (_sparse_support, _block_cyclic_support, _reducible_support)
        for _ in range(700)
    ] + _large_graphs()
    periods = {}
    for g in graphs:
        rep = validate_graph(g)
        expected = _ref_structure(g.D)
        assert (rep.irreducible, rep.aperiodic, rep.period) == expected
        assert validate_graph(mean_matrix(g)) == rep
        periods.setdefault(rep.irreducible, set()).add(rep.period)
        if g.K > 12:
            continue
        if rep.irreducible:
            sd = growth_rate(mean_matrix(g))
            assert sd.periodic_warning == (not rep.aperiodic)
        else:
            with pytest.raises(ValidationError, match="not irreducible"):
                growth_rate(mean_matrix(g))
    # every kind was drawn: periods 1-4, irreducible and reducible
    assert periods[True] >= {1, 2, 3, 4} and periods[False] >= {1, 2, 3, 4}


def test_large_supports_structure():
    chain, ring, odd_ring, even_ring = _large_graphs()
    assert chain.K > 300
    assert validate_graph(chain).aperiodic
    assert validate_graph(ring).aperiodic
    # a ring of 251 patches without self-loops: cycles of length 2 and 251
    assert validate_graph(odd_ring).period == 1
    # of 250 patches: every cycle has even length
    assert validate_graph(even_ring).period == 2


def test_malformed_row_is_rejected_with_row_index():
    with pytest.raises(ValidationError, match="row 1"):
        MetapopGraph(m=[1.0, 1.0], D=[[0.5, 0.5], [0.6, 0.5]])


def test_row_noise_within_tolerance_is_renormalized():
    eps = 5e-13
    g = MetapopGraph(m=[1.0, 1.0], D=[[0.5, 0.5 + eps], [0.5, 0.5]])
    assert np.allclose(g.D.sum(axis=1), 1.0, atol=1e-15)


def test_negative_entries_rejected():
    with pytest.raises(ValidationError):
        MetapopGraph(m=[1.0, 1.0], D=[[1.1, -0.1], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        MetapopGraph(m=[-0.5, 1.0], D=[[0.5, 0.5], [0.5, 0.5]])


def test_stationary_doubly_stochastic_is_uniform():
    u = stationary_distribution(two_patch())
    assert np.allclose(u, [0.5, 0.5], atol=1e-12)


def test_stationary_hand_solved_2x2():
    # balance equations of [[0.9, 0.1], [0.3, 0.7]] give (0.75, 0.25)
    g = MetapopGraph(m=[1.0, 1.0], D=[[0.9, 0.1], [0.3, 0.7]])
    u = stationary_distribution(g)
    assert np.allclose(u, [0.75, 0.25], atol=1e-11)


def test_stationary_equal_weight_cycle_is_uniform():
    D = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    u = stationary_distribution(MetapopGraph(m=[1, 1, 1], D=D))
    assert np.allclose(u, [1 / 3] * 3, atol=1e-11)


def test_stationary_fixed_point_residual():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 7)))
        u = stationary_distribution(g)
        assert np.abs(u @ g.D - u).max() <= 1e-10
        assert u.min() > 0
        assert abs(u.sum() - 1.0) < 1e-12


def _exact_stationary(D):
    """Stationary law of the float matrix D with rows renormalized exactly,
    by Gauss-Jordan elimination in rationals on u(I - D) = 0, sum u = 1."""
    k = D.shape[0]
    P = [[Fraction(x) for x in row] for row in D.tolist()]
    P = [[x / sum(row) for x in row] for row in P]
    M = [[int(i == j) - P[j][i] for j in range(k)] + [Fraction(0)] for i in range(k)]
    M[-1] = [Fraction(1)] * (k + 1)
    for c in range(k):
        r = next(r for r in range(c, k) if M[r][c] != 0)
        M[c], M[r] = M[r], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(k):
            if r != c and M[r][c] != 0:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    return np.array([float(row[-1]) for row in M])


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8])
def test_stationary_matches_exact_rational_solve_when_weakly_coupled(eps):
    # two sources coupled with weight eps and a sink: the chain's spectral
    # gap is of order eps, which bounds the attainable relative accuracy
    D = np.array([[1 - 2 * eps, eps, eps], [eps, 1 - eps, 0.0], [0.3, 0.3, 0.4]])
    for order in itertools.permutations(range(3)):
        g = MetapopGraph(m=[2.0, 2.0, 0.5], D=D[np.ix_(order, order)])
        exact = _exact_stationary(g.D)
        u = stationary_distribution(g)
        assert np.abs(u / exact - 1.0).max() <= 1e-15 / eps, order


def test_stationary_requires_irreducible():
    g = MetapopGraph(m=[1.0, 1.0], D=[[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        stationary_distribution(g)


def test_validate_graph_is_pure():
    g = two_patch()
    assert validate_graph(g) == validate_graph(g)


def test_as_frequencies_checks_simplex():
    f = as_frequencies([0.25, 0.75])
    assert np.allclose(f, [0.25, 0.75])
    with pytest.raises(ValidationError):
        as_frequencies([0.5, 0.6])
    with pytest.raises(ValidationError):
        as_frequencies([-0.1, 1.1])
    with pytest.raises(ValidationError):
        as_frequencies([0.5, 0.5], k=3)


def test_graph_json_roundtrip(tmp_path):
    g = two_patch(M=1.7, m=0.3, p=0.25, q=0.75)
    path = tmp_path / "g.json"
    path.write_text(__import__("json").dumps(g.to_dict()))
    g2 = load_graph(path)
    assert np.array_equal(g.m, g2.m)
    assert np.array_equal(g.D, g2.D)


def test_graph_arrays_are_immutable():
    g = two_patch()
    with pytest.raises(ValueError):
        g.D[0, 0] = 0.9
    with pytest.raises(ValueError):
        g.m[0] = 3.0
