"""Shared instance generators and estimators for the test suite.

Random graphs are drawn with positive self-loop mass on every patch: that
guarantees aperiodicity and keeps the set of realizable occupancy
frequencies full-dimensional, so the simplex Newton solver meets no ties
(tied, lockstep and periodic supports are exercised separately).
"""

import math

import numpy as np

from sourcesink import MetapopGraph, argmax_occupancy, edge_chain, validate_graph


def random_graph(rng, K, m_range=(0.05, 3.0), zero_frac=0.35, min_spread=0.0):
    """An irreducible aperiodic instance with means drawn in m_range."""
    while True:
        D = rng.dirichlet(np.ones(K) * 0.7, size=K)
        mask = rng.random((K, K)) < zero_frac
        D = np.where(mask & (D < 0.5), 0.0, D)
        D[np.diag_indices(K)] += rng.uniform(0.05, 0.3, K)
        s = D.sum(axis=1)
        if np.any(s == 0):
            continue
        D = D / s[:, None]
        m = rng.uniform(*m_range, K)
        if min_spread and (m.max() - m.min()) < min_spread:
            continue
        g = MetapopGraph(m=m, D=D)
        rep = validate_graph(g)
        if rep.irreducible and rep.aperiodic:
            return g


def recipe_dispersal(rng, D):
    """``D`` with each off-diagonal entry times 10^U(-9, -2), diagonal refilled.

    Weak, uneven coupling: the hard-graph recipe for the Perron solvers and
    the simplex route.  Rows stay stochastic and the support is unchanged.
    """
    K = D.shape[0]
    D = D * 10.0 ** rng.uniform(-9, -2, (K, K))
    D[np.diag_indices(K)] = 0.0
    D[np.diag_indices(K)] = 1.0 - D.sum(axis=1)
    return D


def hard_graphs(n, seed=2026):
    """``n`` recipe graphs, K = 2 ... 64; every second one also has its
    means scaled by 10^U(-6, 0), so some patches are nearly lethal."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        K = int(rng.integers(2, 65))
        g = random_graph(rng, K)
        m = g.m * 10.0 ** rng.uniform(-6, 0, K) if i % 2 else g.m
        yield MetapopGraph(m=m, D=recipe_dispersal(rng, g.D))


def scaled_coupling_graphs(n, seed=2026):
    """``n`` graphs, K = 2 ... 64, each with every off-diagonal dispersal
    entry times one scalar 10^U(-9, -2) and the diagonal refilled; every
    second one also has its means scaled by 10^U(-6, 0), drawn after the
    scalar.  The simplex route answers some of them only through its
    fallback tiers: the float-plateau exit and the ``_J_NOISE`` floor."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        K = int(rng.integers(2, 65))
        g = random_graph(rng, K)
        D = g.D * 10.0 ** rng.uniform(-9, -2)
        D[np.diag_indices(K)] = 0.0
        D[np.diag_indices(K)] = 1.0 - D.sum(axis=1)
        m = g.m * 10.0 ** rng.uniform(-6, 0, K) if i % 2 else g.m
        yield MetapopGraph(m=m, D=D)


def pair_chain(g, env):
    """The P = 2 edge chain of consecutive patch pairs, kept as the reference
    for the space-time chain of a two-state alternation.

    States are the pairs (i, j) with D[i, j] > 0, patch i at even steps and
    j at odd ones; transition (i, j) -> (k, l) is D[j, k] D[k, l], and pair
    (i, j) has the two-step mean m_i(e1) m_j(e2).  Returns the chain as a
    graph and the pairs' patch indices (I, J).
    """
    ma, mb = env.means[list(env.schedule.cycle)]
    I, J = np.nonzero(g.D > 0)
    B = g.D[np.ix_(J, I)] * g.D[I, J][None, :]
    return MetapopGraph(m=ma[I] * mb[J], D=B), (I, J)


def space_time_chain(g, env):
    """The edge chain of a periodic schedule as a dense graph of P*K patches:
    patch s*K + i is patch i at phase s and disperses by D into phase
    s + 1 mod P.  The package solves it block by block and never forms it."""
    means = edge_chain(g, env)
    return MetapopGraph(m=means.ravel(), D=np.kron(np.roll(np.eye(len(means)), 1, axis=1), g.D))


def pair_chain_answer(g, env, occupancy_of=None):
    """log rho per step, the K x K pair frequencies and the 2 x K phase
    occupancies of the pair chain, by ``occupancy_of`` (default: the
    twisted route with its own eigen-solve) on it."""
    chain, (I, J) = pair_chain(g, env)
    res = (occupancy_of or argmax_occupancy)(chain)
    edges = np.zeros((g.K, g.K))
    edges[I, J] = res.occupancy
    return 0.5 * res.log_growth, edges, np.array([edges.sum(axis=1), edges.sum(axis=0)])


def eigen_solve_shapes(monkeypatch):
    """The shapes of the matrices that reach ``np.linalg.eig``/``eigvals``
    from now on, in call order."""
    shapes = []
    for name in ("eig", "eigvals"):
        def counted(A, _solve=getattr(np.linalg, name)):
            shapes.append(np.shape(A))
            return _solve(A)
        monkeypatch.setattr(np.linalg, name, counted)
    return shapes


def random_fully_mixing(rng, K, m_range=(0.05, 3.0)):
    """Parent-independent migration: every row of D is the same delta."""
    delta = rng.dirichlet(np.ones(K) * 2.0)
    while delta.min() < 1e-3:
        delta = rng.dirichlet(np.ones(K) * 2.0)
    D = np.tile(delta, (K, 1))
    m = rng.uniform(*m_range, K)
    return MetapopGraph(m=m, D=D), delta


def random_two_habitat(rng, K):
    """Patch 0 is the source (mean M > 1), all other patches share one mean."""
    g = random_graph(rng, K)
    M = rng.uniform(1.05, 3.0)
    m = rng.uniform(0.05, 0.95)
    return MetapopGraph(m=[M] + [m] * (K - 1), D=g.D)


def two_patch(M=2.0, m=0.5, p=0.5, q=0.5):
    return MetapopGraph(m=[M, m], D=[[1.0 - p, p], [q, 1.0 - q]])


def symmetric_walk_visits(seed, trials, lengths):
    """Visits to patch 0 over steps X_1..X_n of the walk on ``two_patch()``.

    With rows (1/2, 1/2) every step after X_0 is uniform and independent, so
    the count at length n is Binomial(n, 1/2) and F_0 + F_1 = 1.  Returns
    {n: counts} for each n in ``lengths``, read off the same walks.  Rows are
    drawn in blocks to bound memory; the stream is that of a single
    (trials, max(lengths)) draw.
    """
    rng = np.random.default_rng(seed)
    block = 10**5
    n_max = max(lengths)
    parts = {n: [] for n in lengths}
    for start in range(0, trials, block):
        steps = rng.random((min(block, trials - start), n_max)) < 0.5
        counts = np.cumsum(steps, axis=1, dtype=np.int16)
        for n in lengths:
            parts[n].append(counts[:, n - 1])
    return {n: np.concatenate(c) for n, c in parts.items()}


def sanov_lattice_rate(visits, f0, n1, n2):
    """Two-length estimate of the Sanov rate I((f0, 1 - f0)) from walk counts.

    At a lattice point (n f0 an integer) the local limit theorem gives
    P_n(F = f) ~ C n^{-(K-1)/2} exp(-n I(f)) (Bahadur & Rao), here with K = 2.
    Differencing log P at two lengths cancels C; adding back the power term
    leaves a bias of O(1/(n1 n2)).  A window estimate -(1/n) log P(|F - f| <=
    eps) would converge instead to the infimum of I over the window.
    """
    logs = []
    for n in (n1, n2):
        k = round(n * f0)
        assert abs(n * f0 - k) < 1e-9, f"n f0 = {n * f0} is not a lattice point"
        p_hat = float(np.mean(visits[n] == k))
        assert p_hat > 0, f"no walk of length {n} hit F_0 = {f0}"
        logs.append(math.log(p_hat))
    return -(logs[1] - logs[0] + 0.5 * math.log(n2 / n1)) / (n2 - n1)
