"""Command-line front end.

One executable with subcommands.  Every run reads its settings from one
resolved JSON config: a flag overrides one config key and exists only on
the subcommands that read it, so re-running a report's ``config`` block
gives the same report.  Each report embeds that config, its hash (of the
``dumps_report`` text) and the seed, with fixed float formatting so
identical inputs give byte-identical outputs.

``main`` is the one front door: it resolves the config, calls
``cmd_<name>(cfg, args)`` for the report body, writes the
``command``/``provenance``/``config`` header before that body and maps
errors to exit codes: 0 success, 2 validation error (including an
unreadable or malformed config or model file), 3 numerical
non-convergence, 4 statistical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .branching import patch_series, poisson_laws, geometric_laws, simulate
from .environments import (
    EnvironmentModel,
    edge_chain,
    even_return_functional,
    load_environment,
    lyapunov_estimate,
    periodic_growth_and_occupancy,
    periodic_mean_matrix,
    phase_occupancy,
    random_env_lower_bound,
    two_patch_periodic_criterion,
)
from .errors import ConvergenceError, StatisticalError, ValidationError
from .graph import (
    MetapopGraph,
    _integer,
    _json_object,
    _number,
    _object,
    load_graph,
    stationary_distribution,
    validate_graph,
)
from .motifs import (
    _home_patches,
    collapse,
    load_motif,
    load_pipeline,
    pipeline_depleting_rate,
    pipeline_to_motif,
    type_return_functional,
)
from .spectral import growth_rate, mean_matrix, occupancy_spectral
from .variational import argmax_occupancy, max_rate_gap, rate_grid_2patch
from .walks import (
    WalkConfig,
    depleting_rate,
    return_functional_exact,
    return_functional_mc,
    _excursion_walk,
)

EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_STATISTICAL = 4
# the ``--excursions-out`` walk's step cap when the config sets no mc.max_steps
EXCURSIONS_MAX_STEPS = 10**5


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_report(obj, indent: int = 0) -> str:
    """Canonical JSON with 17-significant-digit floats (round-trip exact).

    Keys are JSON-escaped strings.  A list of scalars is written on one
    line; one whose items are all Python floats is formatted by a single
    ``%`` operation over the whole row, unless the row holds nan or ±inf,
    which take the per-item path and stay quoted (``"nan"``, ``"inf"``,
    ``"-inf"``).  Both paths give the same bytes.
    An array is written as its ``tolist()``.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(k))}: {dumps_report(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if set(map(type, seq)) == {float}:
            row = ", ".join(["%.17g"] * len(seq)) % tuple(seq)
            if "n" not in row:  # no nan, inf or -inf
                return "[" + row + "]"
        flat = all(isinstance(x, (int, float, bool, str, type(None))) for x in seq)
        if flat:
            return "[" + ", ".join(dumps_report(x) for x in seq) + "]"
        items = [f"{pad}  {dumps_report(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return dumps_report(obj.tolist(), indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "csv":
        text = _report_csv(report)
    else:
        text = dumps_report(report) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _flatten(prefix: str, obj, rows: list) -> None:
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    elif isinstance(obj, float):
        rows.append((prefix, _fmt_float(obj).strip('"')))
    else:
        rows.append((prefix, str(obj)))


def _report_csv(report: dict) -> str:
    """Flattened ``key,value`` rows; only fields that need it are quoted."""
    rows: list = [("key", "value")]
    _flatten("", report, rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _provenance(config: dict) -> dict:
    return {
        "config_sha256": hashlib.sha256(dumps_report(config).encode()).hexdigest(),
        "seed": config["seed"],
        "version": __version__,
    }


def _load_config(args) -> dict:
    """Resolve config file plus flag overrides (flags win).

    An override flag's ``dest`` is the key it sets: ``name`` or ``block.name``.
    """
    cfg = _json_object(args.config, "config") if args.config else {}
    for block in ("mc", "simulate", "randenv"):
        _object(cfg.get(block, {}), f'config "{block}"')
    for key in args.overrides:
        value = getattr(args, key)
        if value is not None:
            block, _, name = key.rpartition(".")
            (cfg.setdefault(block, {}) if block else cfg)[name] = value
    cfg["seed"] = _integer(cfg.get("seed", 0), "seed", 0)
    return cfg


def _threads(args) -> int:
    return 1  # simulate runs on one thread; kept for the benchmark's provenance record


def _graph_from_config(cfg: dict) -> MetapopGraph:
    if "graph" in cfg:
        return load_graph(cfg["graph"])
    if "motif" in cfg:
        return collapse(load_motif(cfg["motif"]))
    if "pipeline" in cfg:
        return collapse(pipeline_to_motif(load_pipeline(cfg["pipeline"])))
    raise ValidationError('config needs one of "graph", "motif" or "pipeline"')


def _walk_config(cfg: dict, max_steps: int = 10**7) -> WalkConfig:
    """The config's ``mc`` block, with ``max_steps`` where it sets none."""
    mc = cfg.get("mc", {})
    return WalkConfig(
        max_steps=_number(mc.get("max_steps", max_steps), "mc max_steps", int),
        n_trials=_number(mc.get("n_trials", 10**5), "mc n_trials", int),
        seed=cfg["seed"],
    )


def _home(cfg: dict) -> int:
    return _number(cfg.get("home", 0), "home", int)


def _laws_from_config(cfg, g, env):
    name = cfg.get("simulate", {}).get("laws", "poisson")
    if name == "poisson":
        return poisson_laws(g, env)
    if name == "geometric":
        return geometric_laws(g, env)
    raise ValidationError(f"unknown law family {name!r} (use poisson or geometric)")


def _env_from_config(cfg: dict, what: str) -> EnvironmentModel:
    """The config's environment, which ``what`` analysis needs."""
    if "env" not in cfg:
        raise ValidationError(f'{what} analysis needs an "env" block')
    return load_environment(cfg["env"])


def _write_csv(path: str, header: str, lines) -> None:
    """A sidecar CSV: the header, then one already formatted line per row."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for line in lines:
            f.write(line + "\n")


def cmd_validate(cfg: dict, args) -> dict:
    g = _graph_from_config(cfg)
    report = validate_graph(g)
    return {
        "graph": g.to_dict(),
        "assumptions": dataclasses.asdict(report),
    }


def cmd_analyze(cfg: dict, args) -> dict:
    g = _graph_from_config(cfg)
    home = _home(cfg)
    report = validate_graph(g)
    sd = growth_rate(mean_matrix(g))
    u = stationary_distribution(g)
    phi_spec = occupancy_spectral(sd)
    verdict = return_functional_exact(g, home)
    tw = argmax_occupancy(g)
    mg = max_rate_gap(g)
    log_rho = math.log(sd.rho)
    out = {
        "assumptions": dataclasses.asdict(report),
        "spectral": {
            "rho": sd.rho,
            "left": sd.left,
            "right": sd.right,
            "phi": phi_spec,
            "residual": sd.residual,
        },
        "stationary": u,
        "return_functional": verdict.to_dict(),
        "variational": {"twisted": {"log_rho": tw.log_growth, "phi": tw.occupancy},
                        "simplex": {"log_rho": mg.log_growth, "phi": mg.occupancy,
                                    "iterations": mg.iterations,
                                    "inner_steps": mg.inner_steps, "gap": mg.gap}},
        "verdict": {
            "persists": verdict.persists,
            "log_rho": log_rho,
        },
        "cross_checks": {
            "log_rho_minus_simplex_max": log_rho - mg.log_growth,
            "log_rho_minus_twisted_max": log_rho - tw.log_growth,
            "phi_spectral_vs_twisted_linf": float(
                np.abs(phi_spec - tw.occupancy).max()
            ),
            "spectral_vs_return_sign_agree": (sd.rho > 1.0) == verdict.persists,
        },
    }
    if "mc" in cfg:
        mc = return_functional_mc(g, home, _walk_config(cfg))
        out["return_functional_mc"] = mc.to_dict()
        out["cross_checks"]["exact_minus_mc"] = verdict.value - mc.value
    if args.grid_out:
        _write_csv(args.grid_out, "f1,R,I,R_minus_I",
                   (f"{f1:.17g},{R:.17g},{I:.17g},{RI:.17g}"
                    for f1, R, I, RI in rate_grid_2patch(g)))
    if args.excursions_out:
        walk = _excursion_walk(g, home, cfg["seed"],
                               _walk_config(cfg, EXCURSIONS_MAX_STEPS).max_steps)
        _write_csv(args.excursions_out, "step,patch", (f"{s},{p}" for s, p in enumerate(walk)))
    return out


def cmd_simulate(cfg: dict, args) -> dict:
    g = _graph_from_config(cfg)
    env = load_environment(cfg["env"]) if "env" in cfg else None
    sim = cfg.get("simulate", {})
    # the run settings ``simulate`` and ``patch_series`` share
    run = dict(laws=_laws_from_config(cfg, g, env),
               horizon=_number(sim.get("horizon", 200), "simulate horizon", int),
               seed=cfg["seed"], env=env, start_patch=_home(cfg))
    n_runs = _number(sim.get("n_runs", 10**4), "simulate n_runs", int)
    lineage = sim.get("lineage", True)
    if not isinstance(lineage, bool):
        raise ValidationError(f"simulate lineage must be true or false, not {lineage!r}")
    rep = simulate(g, n_runs=n_runs, track_lineage=lineage, **run)
    if lineage and rep.n_survived == 0:
        raise StatisticalError(
            "no run survived to the horizon, so survivor statistics are "
            'undefined; increase n_runs or set "simulate": {"lineage": false}'
        )
    if args.series_out:
        series = patch_series(g, n_runs=min(n_runs, 100), **run)
        _write_csv(args.series_out, "run,n," + ",".join(f"Z_{i}" for i in range(g.K)),
                   (f"{r},{t}," + ",".join(str(int(x)) for x in series[r, t])
                    for r, t in np.ndindex(series.shape[:2])))
    return {"report": rep.to_dict()}


def cmd_periodic(cfg: dict, args) -> dict:
    g = _graph_from_config(cfg)
    env = _env_from_config(cfg, "periodic")
    ev = even_return_functional(g, env, _home(cfg))  # refuses a random schedule
    cycle = env.schedule.cycle
    sd = growth_rate(periodic_mean_matrix(g, env))
    log_rho, persists = math.log(sd.rho) / len(cycle), sd.rho > 1.0
    out = {
        "product_matrix_rho": sd.rho,
        "product_matrix_residual": sd.residual,
        "log_rho_per_step": log_rho,
        "persists": persists,
        "even_return": {phase: v.to_dict() for phase, v in ev.items()},
        "cross_checks": {"even_return_sign_agree": all(v.persists == persists for v in ev.values())},
    }
    # occupancy is a time average, so it settles on every irreducible
    # product, periodic or not; the edge chain needs positive means and is
    # solved at the product's root, so a run makes one eigen-solve
    occ, steps = phase_occupancy(g, env, sd)
    out.update(phase_occupancy=occ, occupancy_edges=steps)
    if edge_chain(g, env).all():
        ec = periodic_growth_and_occupancy(g, env, sd)
        out["edge_chain"] = {"log_rho": ec.log_growth, "phase_occupancy": ec.occupancy,
                             "residual": ec.residual}
        out["cross_checks"].update({
            "edge_chain_vs_product_log_rho": ec.log_growth - log_rho,
            "phase_occupancy_spectral_vs_twisted_linf":
                float(np.abs(occ - ec.occupancy).max()),
        })
    if g.K == 2 and len(cycle) == 2:
        (M1, m1), (M2, m2) = env.means[list(cycle)].tolist()
        crit = two_patch_periodic_criterion(M1, M2, m1, m2, float(g.D[0, 1]), float(g.D[1, 0]))
        out["two_patch_criterion"] = crit.to_dict()
        out["cross_checks"]["closed_form_sign_agree"] = crit.persists == persists
    return out


def cmd_randenv(cfg: dict, args) -> dict:
    g = _graph_from_config(cfg)
    env = _env_from_config(cfg, "random-environment")
    n_steps = _number(cfg.get("randenv", {}).get("n_steps", 10**6), "randenv n_steps", int)
    ly = lyapunov_estimate(g, env, n_steps=n_steps, seed=cfg["seed"])
    out = {
        "lyapunov": ly.to_dict(),
        "persists": ly.gamma > 0.0,
    }
    if g.K == 2 and env.schedule.state == (0, 1):
        bound = random_env_lower_bound(
            M1=float(env.means[0][0]),
            m2=float(env.means[1][1]),
            p=float(g.D[0, 1]),
            q=float(g.D[1, 0]),
            alpha=float(env.schedule.T[0, 1]),
            beta=float(env.schedule.T[1, 0]),
        )
        out["lower_bound"] = bound
        out["cross_checks"] = {
            "bound_below_gamma_plus_ci": bound <= ly.gamma + ly.ci_halfwidth
        }
    return out


def cmd_pipeline(cfg: dict, args) -> dict:
    if "pipeline" not in cfg:
        raise ValidationError('pipeline analysis needs a "pipeline" block')
    spec = load_pipeline(cfg["pipeline"])
    rates = pipeline_depleting_rate(spec)
    motif = pipeline_to_motif(spec)
    e_linear = depleting_rate(collapse(motif))
    verdict = type_return_functional(motif)
    criterion = spec.M * (1.0 - spec.p) + rates.e * spec.M * spec.p
    # complex roots are left out
    roots = {} if rates.lam is None else {"lambda": rates.lam, "mu": rates.mu}
    return {
        **roots,
        "e": rates.e,
        "e_linear_system": e_linear,
        "criterion_value": criterion,
        "persists": verdict.persists,
        "return_functional": verdict.to_dict(),
        "motif": motif.to_dict(),
        "cross_checks": {
            "e_closed_minus_linear": None
            if math.isinf(rates.e) and math.isinf(e_linear)
            else rates.e - e_linear,
            # sinks with m > 1 are homes too; then R is not the source's return value
            "criterion_minus_return": criterion - verdict.value
            if math.isfinite(verdict.value) and _home_patches(motif) == [0]
            else None,
        },
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="sourcesink",
        description="Persistence, growth and lineage occupancy of "
        "source-sink metapopulations",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(overrides=())

    def override(p, flag, key, help):
        p.add_argument(flag, type=int, default=None, dest=key, help=help)
        p.set_defaults(overrides=p.get_default("overrides") + (key,))

    p = sub.add_parser("validate", help="check graph assumptions")
    common(p)

    p = sub.add_parser("analyze", help="fixed-environment cross-method analysis")
    common(p)
    override(p, "--seed", "seed", "RNG seed")
    override(p, "--trials", "mc.n_trials", "Monte Carlo excursion count")
    p.add_argument("--grid-out", default=None,
                   help="CSV of the two-patch rate landscape (f1, R, I, R-I)")
    p.add_argument("--excursions-out", default=None,
                   help="CSV dump of one seeded excursion (step, patch)")

    p = sub.add_parser("simulate", help="multitype branching simulation")
    common(p)
    override(p, "--seed", "seed", "RNG seed")
    override(p, "--trials", "simulate.n_runs", "number of branching runs")
    override(p, "--horizon", "simulate.horizon", "generations per run")
    p.add_argument("--series-out", default=None,
                   help="CSV of per-run patch-count time series")

    p = sub.add_parser("periodic", help="periodic-environment analysis")
    common(p)

    p = sub.add_parser("randenv", help="Lyapunov growth exponent under any schedule")
    common(p)
    override(p, "--seed", "seed", "RNG seed")

    p = sub.add_parser("pipeline", help="sink-pipeline closed forms")
    common(p)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        # looked up per call, so a rebound ``cmd_*`` is the one that runs
        body = globals()[f"cmd_{args.command}"](cfg, args)
        report = {"command": args.command, "provenance": _provenance(cfg),
                  "config": cfg, **body}
    except ValidationError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as e:
        detail = "" if e.residual is None else f" (residual {e.residual:.3g})"
        print(f"numerical non-convergence: {e}{detail}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except StatisticalError as e:
        print(f"statistical failure: {e}", file=sys.stderr)
        return EXIT_STATISTICAL
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
