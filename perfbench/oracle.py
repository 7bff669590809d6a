"""Independent output checks for benchmark jobs.

Nothing here imports ``sourcesink``: every expected value is recomputed
from the job's config with plain numpy (dense eigenvalues, direct linear
solves, the offspring generating-function fixed point, an independent
Lyapunov run).  ``check(job, report)`` returns the list of failed checks;
an empty list means the report passed.

Tolerances are fixed beforehand from each route's own accuracy.  Monte
Carlo checks allow three reported 95% halfwidths (about six standard
errors), and the survivor-occupancy check also allows the lineage
transient of about -0.46/h that the package documents at horizon h.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# deterministic routes: power iteration and Newton solves converge far below this
EXACT_TOL = 1e-8
# the simplex ascent certifies its value to a duality gap of 1e-7 (1e-5 on a plateau)
SIMPLEX_VALUE_TOL = 1e-5
# ... and its argmax only to about the square root of that
SIMPLEX_OCC_TOL = 1e-2
MC_WIDTHS = 3.0
# slack for the Lyapunov batch-means CI, which ignores correlation between batches
LYAPUNOV_SLACK = 2e-3
LYAPUNOV_ORACLE_STEPS = 200_000
# growth slopes over [h/2, h] carry an O(1/h) transient from the starting profile
GROWTH_SLACK = 5e-3


def perron(A: np.ndarray) -> float:
    """Spectral radius of a non-negative matrix by a dense eigen-solve."""
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def perron_occupancy(A: np.ndarray) -> np.ndarray:
    """Normalized left * right Perron vectors of a primitive matrix."""
    w, vr = np.linalg.eig(A)
    right = np.abs(vr[:, np.argmax(w.real)].real)
    w, vl = np.linalg.eig(A.T)
    left = np.abs(vl[:, np.argmax(w.real)].real)
    phi = left * right
    return phi / phi.sum()


def stationary(D: np.ndarray) -> np.ndarray:
    """uD = u, sum u = 1, by one bordered linear solve."""
    K = D.shape[0]
    M = np.vstack([(D.T - np.eye(K)), np.ones(K)])
    rhs = np.zeros(K + 1)
    rhs[-1] = 1.0
    u, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    return u


def return_value(A: np.ndarray, homes: list) -> np.ndarray:
    """First-return mean matrix over the home set (inf if the rest is supercritical)."""
    K = A.shape[0]
    away = [i for i in range(K) if i not in homes]
    if not away:
        return A[np.ix_(homes, homes)]
    B = A[np.ix_(away, away)]
    if perron(B) >= 1.0:
        return np.full((len(homes), len(homes)), math.inf)
    G = np.linalg.solve(np.eye(len(away)) - B, A[np.ix_(away, homes)])
    return A[np.ix_(homes, homes)] + A[np.ix_(homes, away)] @ G


def depleting_rate(m_sink: float, D: np.ndarray) -> float:
    """e = E[m^S] over sink sojourns S, by the first-passage solve into patch 0."""
    a = np.linalg.solve(np.eye(len(D) - 1) - m_sink * D[1:, 1:], m_sink * D[1:, 0])
    return float(D[0, 1:] @ a / D[0, 1:].sum())


def extinction_vector(m: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Minimal fixed point q = F(q) of Poisson brood then dispersal.

    F_i(s) = exp(m_i ((D s)_i - 1)); iteration from 0 increases
    monotonically to the extinction probabilities.
    """
    q = np.zeros(len(m))
    for _ in range(1_000_000):
        nxt = np.exp(m * (D @ q - 1.0))
        if np.max(np.abs(nxt - q)) <= 1e-15:
            return nxt
        q = nxt
    raise RuntimeError("generating-function iteration did not settle")


def lyapunov(mats: list, alpha: float, beta: float, n: int, seed: int) -> tuple:
    """Top Lyapunov exponent of a Markov-switched product, with a 95% CI.

    Draws its own environment path (stationary start, switch with alpha
    from state 0 and beta from state 1) and uses 100 batch means.
    """
    rng = np.random.default_rng([seed, 9_173])
    burn, n_batches = 1000, 100
    u = rng.random(n + burn)
    w = np.empty(n + burn, dtype=np.int64)
    w[0] = 0 if u[0] < beta / (alpha + beta) else 1
    leave = (alpha, beta)
    for t in range(1, n + burn):
        w[t] = 1 - w[t - 1] if u[t] < leave[w[t - 1]] else w[t - 1]
    K = mats[0].shape[0]
    x = np.full(K, 1.0 / K)
    logs = np.empty(n + burn)
    for t in range(n + burn):
        x = x @ mats[w[t]]
        s = x.sum()
        x /= s
        logs[t] = math.log(s)
    batch = n // n_batches
    sums = logs[burn: burn + batch * n_batches].reshape(n_batches, batch).mean(axis=1)
    return float(sums.mean()), float(1.96 * sums.std(ddof=1) / math.sqrt(n_batches))


def _num(x):
    if isinstance(x, str):
        return {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}[x]
    return float(x)


def _close(a, b, tol) -> bool:
    a, b = _num(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def _graph(cfg: dict) -> tuple:
    if "graph" in cfg:
        return np.array(cfg["graph"]["m"], dtype=float), np.array(cfg["graph"]["D"], dtype=float)
    if "motif" in cfg:
        mt = cfg["motif"]
        means = np.array(mt["means_by_type"], dtype=float)
        return means[np.array(mt["types"])], np.array(mt["D"], dtype=float)
    return _pipeline(cfg["pipeline"])


def _pipeline(spec: dict) -> tuple:
    """Source 0 on a ring of n sinks: left entry at sink n, right at sink 1."""
    n, p, L, s, l = spec["n"], spec["p"], spec["L"], spec["s"], spec["l"]
    r = 1.0 - s - l
    K = n + 1
    D = np.zeros((K, K))
    D[0, 0] = 1.0 - p
    D[0, 1] += p * (1.0 - L)
    D[0, n] += p * L
    for k in range(1, K):
        D[k, k] += s
        D[k, k - 1] += l
        D[k, (k + 1) % K] += r
    m = np.full(K, float(spec["m"]))
    m[0] = spec["M"]
    return m, D


class Oracle:
    """Checks reports; expensive expected values are cached per config."""

    def __init__(self):
        self._cache = {}

    def check(self, job, report: dict) -> list:
        fn = getattr(self, "_check_" + job.command)
        return fn(job, report)

    def _cached(self, job, key, fn):
        k = (job.name, key)
        if k not in self._cache:
            self._cache[k] = fn()
        return self._cache[k]

    def _check_analyze(self, job, rep) -> list:
        bad = []
        m, D = _graph(job.config)
        A = m[:, None] * D
        rho = self._cached(job, "rho", lambda: perron(A))
        log_rho = math.log(rho)
        if not _close(rep["verdict"]["log_rho"], log_rho, EXACT_TOL):
            bad.append("log_rho")
        if abs(log_rho) > 1e-9 and rep["verdict"]["persists"] != (rho > 1.0):
            bad.append("persistence sign")
        phi = self._cached(job, "phi", lambda: perron_occupancy(A))
        if np.max(np.abs(np.array(rep["spectral"]["phi"]) - phi)) > 1e-6:
            bad.append("spectral occupancy")
        u = self._cached(job, "u", lambda: stationary(D))
        if np.max(np.abs(np.array(rep["stationary"]) - u)) > EXACT_TOL:
            bad.append("stationary law")
        home = int(job.config.get("home", 0))
        R = self._cached(job, "R", lambda: float(return_value(A, [home])[0, 0]))
        if not _close(rep["return_functional"]["R"], R, EXACT_TOL):
            bad.append("exact R")
        var = rep["variational"]
        if not _close(var["twisted"]["log_rho"], log_rho, EXACT_TOL):
            bad.append("twisted log_rho")
        if np.max(np.abs(np.array(var["twisted"]["phi"]) - phi)) > 1e-6:
            bad.append("twisted occupancy")
        if not _close(var["simplex"]["log_rho"], log_rho, SIMPLEX_VALUE_TOL):
            bad.append("simplex log_rho")
        if np.max(np.abs(np.array(var["simplex"]["phi"]) - phi)) > SIMPLEX_OCC_TOL:
            bad.append("simplex occupancy")
        if "--trials" in job.flags:
            mc = rep.get("return_functional_mc")
            if mc is None:
                bad.append("missing Monte Carlo R")
            elif abs(_num(mc["R"]) - R) > MC_WIDTHS * _num(mc["ci"]) or mc["truncated_mass"] != 0:
                bad.append("Monte Carlo R")
        return bad

    def _check_periodic(self, job, rep) -> list:
        bad = []
        _, D = _graph(job.config)
        env = job.config["env"]
        means = np.array(env["means"], dtype=float)
        index = {s: i for i, s in enumerate(env["states"])}
        order = [index[s] for s in env["schedule"]["periodic"]]
        mats = [means[s][:, None] * D for s in order]
        A2 = functools.reduce(np.matmul, mats)
        rho = self._cached(job, "rho", lambda: perron(A2))
        if not _close(rep["product_matrix_rho"], rho, EXACT_TOL):
            bad.append("product rho")
        if not _close(rep["log_rho_per_step"], math.log(rho) / len(order), EXACT_TOL):
            bad.append("log_rho per step")
        if rep["persists"] != (rho > 1.0):
            bad.append("persistence sign")
        if len(order) == 2:
            if not _close(rep["edge_chain"]["log_rho"], 0.5 * math.log(rho), EXACT_TOL):
                bad.append("edge-chain log_rho")
            phases = {env["schedule"]["periodic"][0]: mats[0] @ mats[1],
                      env["schedule"]["periodic"][1]: mats[1] @ mats[0]}
            for phase, P in phases.items():
                R = float(return_value(P, [int(job.config.get("home", 0))])[0, 0])
                got = rep["even_return"][phase]
                if not _close(got["R"], R, EXACT_TOL) or got["persists"] != (rho > 1.0):
                    bad.append(f"even return {phase}")
            if "two_patch_criterion" in rep and rep["two_patch_criterion"]["persists"] != (rho > 1.0):
                bad.append("closed-form sign")
        return bad

    def _check_pipeline(self, job, rep) -> list:
        bad = []
        m, D = _graph(job.config)
        A = m[:, None] * D
        rho = self._cached(job, "rho", lambda: perron(A))
        if rep["persists"] != (rho > 1.0):
            bad.append("persistence sign")
        R = self._cached(job, "R", lambda: float(return_value(A, [0])[0, 0]))
        if not _close(rep["return_functional"]["R"], R, EXACT_TOL):
            bad.append("return R")
        if not _close(rep["criterion_value"], R, EXACT_TOL):
            bad.append("closed-form criterion")
        e = self._cached(job, "e", lambda: depleting_rate(m[1], D))
        if not _close(rep["e_linear_system"], e, EXACT_TOL) or not _close(rep["e"], e, EXACT_TOL):
            bad.append("depleting rate")
        return bad

    def _check_simulate(self, job, rep) -> list:
        bad = []
        r = rep["report"]
        cfg = job.config
        m, D = _graph(cfg)
        h = int(cfg["simulate"]["horizon"])
        if r["n_survived"] == 0 or not 0.0 < r["survival_prob"] <= 1.0:
            return ["no survivors"]
        if "env" in cfg:
            env = cfg["env"]
            means = np.array(env["means"], dtype=float)
            a, b = env["schedule"]["markov"]["alpha"], env["schedule"]["markov"]["beta"]
            A1, A2 = means[0][:, None] * D, means[1][:, None] * D
            # Jensen: the survivors' growth cannot beat the annealed mean product
            annealed = np.block([[(1 - a) * A1, a * A1], [b * A2, (1 - b) * A2]])
            bound = math.log(self._cached(job, "annealed", lambda: perron(annealed)))
            if r["growth_rate_hat"] > bound + MC_WIDTHS * r["growth_rate_ci"] + GROWTH_SLACK:
                bad.append("growth above the annealed bound")
        else:
            A = m[:, None] * D
            rho = self._cached(job, "rho", lambda: perron(A))
            q = self._cached(job, "q", lambda: extinction_vector(m, D))
            home = int(cfg.get("home", 0))
            if abs(r["survival_prob"] - (1.0 - q[home])) > MC_WIDTHS * r["survival_ci"]:
                bad.append("survival probability")
            if abs(r["growth_rate_hat"] - math.log(rho)) > MC_WIDTHS * r["growth_rate_ci"] + GROWTH_SLACK:
                bad.append("growth rate")
            if r["occupancy_hat"] is not None:
                phi = self._cached(job, "phi", lambda: perron_occupancy(A))
                dev = np.abs(np.array(r["occupancy_hat"]) - phi)
                if np.any(dev > MC_WIDTHS * np.array(r["occupancy_ci"]) + 1.0 / (h + 1)):
                    bad.append("survivor occupancy")
        if cfg["simulate"].get("lineage", True):
            if r["occupancy_hat"] is None or abs(sum(r["occupancy_hat"]) - 1.0) > 1e-9:
                bad.append("occupancy is not a distribution")
        elif r["occupancy_hat"] is not None:
            bad.append("occupancy reported without lineage")
        return bad

    def _check_randenv(self, job, rep) -> list:
        bad = []
        cfg = job.config
        _, D = _graph(cfg)
        env = cfg["env"]
        means = np.array(env["means"], dtype=float)
        mk = env["schedule"]["markov"]
        mats = [means[0][:, None] * D, means[1][:, None] * D]
        n = min(int(cfg["randenv"]["n_steps"]), LYAPUNOV_ORACLE_STEPS)
        g_o, ci_o = self._cached(
            job, "gamma", lambda: lyapunov(mats, mk["alpha"], mk["beta"], n, int(cfg["seed"])))
        ly = rep["lyapunov"]
        if abs(ly["gamma"] - g_o) > MC_WIDTHS * math.hypot(ly["ci"], ci_o) + LYAPUNOV_SLACK:
            bad.append("Lyapunov exponent")
        if rep["persists"] != (ly["gamma"] > 0.0):
            bad.append("persistence sign")
        return bad
