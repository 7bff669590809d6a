import itertools
import math
import re
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
import sourcesink as ss
from sourcesink import graph
from sourcesink.environments import Periodic
from conftest import pair_chain, random_graph, space_time_chain, two_patch


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
    graphs = [pair_chain(g, env)[0], space_time_chain(g, env)]
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
            # occupancy is a time average, so both routes answer at every period
            sd = growth_rate(mean_matrix(g))
            tw = ss.argmax_occupancy(g)
            assert abs(math.log(sd.rho) - tw.log_growth) <= 1e-12
            assert np.abs(ss.occupancy_spectral(sd) - tw.occupancy).max() <= 1e-12
        else:
            with pytest.raises(ValidationError, match="not irreducible"):
                growth_rate(mean_matrix(g))
    # every kind was drawn: periods 1-4, irreducible and reducible
    assert periods[True] >= {1, 2, 3, 4} and periods[False] >= {1, 2, 3, 4}


def test_large_supports_structure():
    chain, space_time, ring, odd_ring, even_ring = _large_graphs()
    assert chain.K > 300
    assert validate_graph(chain).aperiodic
    # the space-time chain steps from phase to phase, so its period is the schedule's
    assert space_time.K == 48 and validate_graph(space_time).irreducible
    assert validate_graph(space_time).period == 2
    assert validate_graph(ring).aperiodic
    # a ring of 251 patches without self-loops: cycles of length 2 and 251
    assert validate_graph(odd_ring).period == 1
    # of 250 patches: every cycle has even length
    assert validate_graph(even_ring).period == 2


# a frozen dataclass that holds an array -> a call that builds one
ARRAY_VALUES = {
    "MetapopGraph": lambda: MetapopGraph(m=[1, 2], D=[[0.5, 0.5], [0.5, 0.5]]),
    "Motif": lambda: ss.Motif(types=[0, 1], means_by_type=[1.5, 0.6], D=[[0.5, 0.5], [0.5, 0.5]]),
    "Schedule": lambda: Periodic((0, 1)),
    "EnvironmentModel": lambda: _alternation(two_patch()),
    "SpectralData": lambda: growth_rate(mean_matrix(two_patch())),
    "RateEvaluation": lambda: ss.rate_function(two_patch(), [0.5, 0.5]),
    "VariationalResult": lambda: ss.argmax_occupancy(two_patch()),
    "SimReport": lambda: ss.simulate(two_patch(), horizon=3, n_runs=4, seed=0),
}


@pytest.mark.parametrize("name", list(ARRAY_VALUES))
def test_values_holding_arrays_compare_and_hash_by_identity(name):
    # an array has no single truth value, so value equality would raise;
    # these compare and hash by identity instead
    a, b = ARRAY_VALUES[name](), ARRAY_VALUES[name]()
    assert type(a).__name__ == name
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2


def test_assumption_reports_compare_by_value():
    a, b = ARRAY_VALUES["MetapopGraph"](), ARRAY_VALUES["MetapopGraph"]()
    assert validate_graph(a) == validate_graph(b)
    assert len({validate_graph(a), validate_graph(b)}) == 1


def test_malformed_row_is_rejected_with_row_index():
    with pytest.raises(ValidationError, match="row 1"):
        MetapopGraph(m=[1.0, 1.0], D=[[0.5, 0.5], [0.6, 0.5]])


def test_row_noise_within_tolerance_is_renormalized():
    eps = 5e-13
    g = MetapopGraph(m=[1.0, 1.0], D=[[0.5, 0.5 + eps], [0.5, 0.5]])
    assert np.allclose(g.D.sum(axis=1), 1.0, atol=1e-15)


GRAPH_REFUSALS = {
    "no patch": (([], np.zeros((0, 0))), {}, "need at least one patch"),
    "dispersal of another size": (([1.0, 1.0], np.full((3, 3), 1 / 3)), {},
                                  "dispersal matrix shape (3, 3) does not match 2 patches"),
    "dispersal entry nan": (([1.0, 1.0], [[0.5, math.nan], [0.5, 0.5]]), {},
                            "dispersal entries must be finite"),
    "one label for two patches": (([1.0, 1.0], [[0.5, 0.5], [0.5, 0.5]]), {"labels": ("a",)},
                                  "labels length does not match patch count"),
}


@pytest.mark.parametrize("args, kw, message", list(GRAPH_REFUSALS.values()), ids=list(GRAPH_REFUSALS))
def test_graph_refusals_name_their_fault(args, kw, message):
    with pytest.raises(ValidationError) as err:
        MetapopGraph(*args, **kw)
    assert str(err.value) == message


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


def test_structure_is_checked_once_per_graph_and_every_call_for_a_matrix(monkeypatch):
    # a graph's arrays are read-only copies, so its report is kept; a bare
    # matrix may change between calls, so it is checked each time
    calls = []
    structure = graph._structure

    def counted(S):
        calls.append(S.shape)
        return structure(S)

    monkeypatch.setattr(graph, "_structure", counted)
    g = two_patch()
    assert validate_graph(g) is validate_graph(g)
    stationary_distribution(g)
    assert calls == [(2, 2)]
    A = mean_matrix(g)
    validate_graph(A)
    validate_graph(A)
    assert len(calls) == 3


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
    with pytest.raises(ValueError):
        g.D.flags.writeable = True


# two closed patches; a 3-cycle, whose two-step product is a 3-cycle too; a
# two-cycle, whose two-step product is two closed patches; a zero mean
REDUCIBLE = MetapopGraph(m=[2.0, 0.5], D=[[1.0, 0.0], [0.0, 1.0]])
CYCLE3 = MetapopGraph(m=[2.0, 0.5, 1.0], D=[[0, 1, 0], [0, 0, 1], [1, 0, 0]])
BIPARTITE = MetapopGraph(m=[2.0, 0.5], D=[[0.0, 1.0], [1.0, 0.0]])
ZERO_MEAN = MetapopGraph(m=[2.0, 0.0], D=[[0.5, 0.5], [0.5, 0.5]])


def _alternation(g):
    """Two states applied in turn: the graph's means, and nine tenths of them."""
    return EnvironmentModel(("a", "b"), [g.m, 0.9 * g.m], Periodic((0, 1)))


# route -> (the ``what`` its refusals name, a call of it on a graph)
ROUTES = {
    "stationary_distribution": ("stationary distribution", stationary_distribution),
    "growth_rate": ("growth rate", lambda g: growth_rate(mean_matrix(g))),
    "return_functional_exact": ("persistence criterion", ss.return_functional_exact),
    "return_functional_mc": ("persistence criterion",
                             lambda g: ss.return_functional_mc(g, 0, ss.WalkConfig(n_trials=10))),
    "even_return_functional": ("persistence criterion",
                               lambda g: ss.even_return_functional(g, _alternation(g))),
    "depleting_rate": ("depleting rate", ss.depleting_rate),
    "sample_excursion": ("excursion sampling", ss.sample_excursion),
    "rate_function": ("rate function", lambda g: ss.rate_function(g, np.full(g.K, 1 / g.K))),
    "max_rate_gap": ("simplex ascent", ss.max_rate_gap),
    "argmax_occupancy": ("twisted-chain occupancy", ss.argmax_occupancy),
    "edge_chain": ("edge chain", lambda g: ss.periodic_growth_and_occupancy(g, _alternation(g))),
    "lyapunov_estimate": ("Lyapunov estimation",
                          lambda g: ss.lyapunov_estimate(g, _alternation(g), n_steps=2000)),
    "type_return_functional": ("type-return criterion", lambda g: ss.type_return_functional(
        ss.Motif(types=range(g.K), means_by_type=g.m, D=g.D))),
    # given the product's Perron data, which a reducible product has none of
    "phase_occupancy": ("phase occupancy", lambda g: ss.phase_occupancy(
        g, _alternation(g), growth_rate(ss.periodic_mean_matrix(g, _alternation(g))))),
}
GATE_CASES = (
    [(name, "reducible", REDUCIBLE, "needs an irreducible graph; this one is not irreducible")
     for name in ROUTES if name != "phase_occupancy"]
    # the edge chain of a two-step alternation on a bipartite graph splits
    # into two classes, as the two-step product does
    + [("edge_chain", "bipartite", BIPARTITE,
        "needs an irreducible graph; this one is not irreducible")]
    + [(name, "zero-mean", ZERO_MEAN, "needs positive means; a patch has mean 0")
       for name in ("growth_rate", "max_rate_gap", "argmax_occupancy", "edge_chain")]
)


@pytest.mark.parametrize("name, g, wording", [(n, g, w) for n, _, g, w in GATE_CASES],
                         ids=[f"{n}-{kind}" for n, kind, _, _ in GATE_CASES])
def test_every_route_words_a_structural_refusal_alike_and_names_itself(name, g, wording):
    what, call = ROUTES[name]
    with pytest.raises(ValidationError) as e:
        call(g)
    assert str(e.value) == f"{what} {wording}"


# route -> its occupancy rows on a graph, each the patch occupancy of one phase
OCCUPANCY_ROUTES = {
    "argmax_occupancy": lambda g: ss.argmax_occupancy(g).occupancy[None, :],
    # the simplex ascent holds the ties of the three cyclic classes
    "max_rate_gap": lambda g: ss.max_rate_gap(g).occupancy[None, :],
    "edge_chain": lambda g: ss.periodic_growth_and_occupancy(g, _alternation(g)).occupancy,
    "phase_occupancy": lambda g: ss.phase_occupancy(
        g, _alternation(g), growth_rate(ss.periodic_mean_matrix(g, _alternation(g))))[0],
}


@pytest.mark.parametrize("name", list(OCCUPANCY_ROUTES))
def test_every_occupancy_route_answers_on_a_periodic_graph(name):
    # occupancy is a time average: on a 3-cycle, a third of the steps in
    # each patch at every phase of a two-step alternation, whose edge chain
    # is irreducible since 2 and 3 are coprime
    occ = OCCUPANCY_ROUTES[name](CYCLE3)
    assert np.abs(occ - 1 / 3).max() <= 1e-12


HOME_ROUTES = {
    "return_functional_exact": lambda g, h: ss.return_functional_exact(g, h),
    "return_functional_mc": lambda g, h: ss.return_functional_mc(g, h, ss.WalkConfig(n_trials=10)),
    "sample_excursion": lambda g, h: ss.sample_excursion(g, h),
    "simulate": lambda g, h: ss.simulate(g, horizon=3, n_runs=4, start_patch=h),
    "extinction_probability": lambda g, h: ss.extinction_probability(g, home=h, n_runs=4),
}


@pytest.mark.parametrize("home", [1.5, True, np.float64(1.0), "1"])
@pytest.mark.parametrize("route", list(HOME_ROUTES))
def test_a_home_patch_that_is_not_an_integer_is_refused(route, home):
    message = f"home patch must be an integer, not {home!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        HOME_ROUTES[route](two_patch(), home)


@pytest.mark.parametrize("route", list(HOME_ROUTES))
def test_a_numpy_integer_home_patch_is_accepted(route):
    HOME_ROUTES[route](two_patch(), np.int64(1))


# route -> (a call of it with keyword settings, its integer settings and the
# least value each takes)
SETTING_ROUTES = {
    "WalkConfig": (lambda g, **kw: ss.WalkConfig(**kw),
                   {"n_trials": 1, "max_steps": 1, "seed": 0}),
    "sample_excursion": (lambda g, **kw: ss.sample_excursion(g, **kw),
                         {"max_steps": 1, "seed": 0}),
    "simulate": (lambda g, **kw: ss.simulate(g, **{"horizon": 3, "n_runs": 4, **kw}),
                 {"horizon": 1, "n_runs": 1, "seed": 0, "escape_cap": 1}),
    "patch_series": (lambda g, **kw: ss.patch_series(g, **{"horizon": 3, "n_runs": 4, **kw}),
                     {"horizon": 1, "n_runs": 1, "seed": 0, "escape_cap": 1}),
    "extinction_probability": (
        lambda g, **kw: ss.extinction_probability(g, **{"n_runs": 4, **kw}),
        {"n_runs": 1, "seed": 0, "n_initial": 1, "max_generations": 1, "escape_cap": 1}),
    "lyapunov_estimate": (
        lambda g, **kw: ss.lyapunov_estimate(g, _alternation(g), **{"n_steps": 2000, **kw}),
        {"n_steps": 1, "seed": 0}),
}
SETTING_CASES = [(route, name, least) for route, (_, settings) in SETTING_ROUTES.items()
                 for name, least in settings.items()]


@pytest.mark.parametrize("bad", ["fraction", "bool", "string", "below"])
@pytest.mark.parametrize("route, name, least", SETTING_CASES,
                         ids=[f"{route}-{name}" for route, name, _ in SETTING_CASES])
def test_integer_settings_are_refused_unless_whole_and_in_range(route, name, least, bad):
    value = {"fraction": 2.5, "bool": True, "string": "3", "below": least - 1}[bad]
    message = (f"{name} must be >= {least}, not {value}" if bad == "below"
               else f"{name} must be an integer, not {value!r}")
    call, _ = SETTING_ROUTES[route]
    with pytest.raises(ValidationError, match=re.escape(message)):
        call(two_patch(), **{name: value})


def test_whole_valued_settings_are_taken_as_ints():
    cfg = ss.WalkConfig(n_trials=np.int64(20), max_steps=5.0, seed=np.int64(3))
    assert (cfg.n_trials, cfg.max_steps, cfg.seed) == (20, 5, 3)
    assert all(type(v) is int for v in (cfg.n_trials, cfg.max_steps, cfg.seed))
    rep = ss.simulate(two_patch(), horizon=4.0, n_runs=np.int64(6), seed=2.0)
    assert rep.to_dict() == ss.simulate(two_patch(), horizon=4, n_runs=6, seed=2).to_dict()
