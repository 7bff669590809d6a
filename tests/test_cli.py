import csv
import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from sourcesink import cli
from sourcesink.cli import dumps_report, main
from sourcesink.graph import MetapopGraph, _assumption_report
from sourcesink.environments import random_env_lower_bound
from sourcesink.errors import ConvergenceError
from conftest import eigen_solve_shapes

GRAPH = {"m": [2.0, 0.5], "D": [[0.5, 0.5], [0.5, 0.5]]}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def _reference_dumps(obj, indent=0):
    """The one-call-per-item serializer that ``dumps_report`` must match."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {_reference_dumps(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(x, (int, float, bool, str, type(None))) for x in seq)
        if flat:
            return "[" + ", ".join(_reference_dumps(x) for x in seq) + "]"
        items = [f"{pad}  {_reference_dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return '"nan"'
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return format(x, ".17g")
    if isinstance(obj, np.ndarray):
        return _reference_dumps(obj.tolist(), indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def test_dumps_report_matches_reference_serializer(tmp_path, monkeypatch):
    reports = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda rep, args: (reports.append(rep), emit(rep, args)))
    rng = np.random.default_rng(7)
    K = 6
    D = rng.dirichlet(np.ones(K), size=K) + 0.1 * np.eye(K)
    graph = {"m": rng.uniform(0.3, 2.5, K).tolist(),
             "D": (D / D.sum(axis=1, keepdims=True)).tolist()}
    env2 = {"states": ["e1", "e2"], "means": [[4.0, 0.9, 0.5], [0.2, 0.9, 1.1]],
            "schedule": {"periodic": ["e1", "e2"]}}
    small = {"m": [1.0, 1.0], "D": [[0.5, 0.5], [0.5, 0.5]]}
    runs = [
        ("analyze", {"graph": graph, "seed": 3}, ["--trials", "200"]),
        ("pipeline", {"pipeline": {"n": 250, "p": 0.5, "L": 0.5, "s": 0.0, "l": 0.5,
                                   "m": 0.5, "M": 2.0}}, []),
        ("periodic", {"graph": {"m": [1.0] * 3, "D": [[0.4, 0.3, 0.3]] * 3},
                      "env": env2}, []),
        ("simulate", {"graph": GRAPH, "seed": 5,
                      "simulate": {"horizon": 20, "n_runs": 200}}, []),
        ("randenv", {"graph": small, "seed": 4, "randenv": {"n_steps": 2000},
                     "env": {"states": ["e1", "e2"], "means": [[10.0, 0.9], [0.05, 0.8]],
                             "schedule": {"markov": {"alpha": 0.5, "beta": 0.5}}}}, []),
    ]
    for i, (command, config, extra) in enumerate(runs):
        cfg = write_cfg(tmp_path, config, f"cfg{i}.json")
        code, out = run(tmp_path, [command, "--config", cfg] + extra, f"out{i}.json")
        assert code == 0, command
        assert out.read_text() == _reference_dumps(reports[i]) + "\n", command
    assert len(reports) == len(runs)

    nonfinite = [math.nan, math.inf, -math.inf]
    edge = {
        "floats": [0.1, -0.0, 5e-324, 2.2250738585072014e-308, 1e17, 2.0**60, 1.7976931348623157e308],
        "nonfinite": nonfinite,
        "finite_then_nan": [1.5, math.nan],
        "ints": [0, -1, 10**17, 2**60, -(2**63)],
        "numpy_scalars": [np.float64(0.25), np.int64(3), np.bool_(True), np.float64(math.nan)],
        "np_float_row": [np.float64(0.1), 0.2],
        "np_int_row": [np.int64(1), 2],
        "np_bool": np.bool_(False),
        "bools_in_floats": [True, 0.5, False],
        "bools_in_ints": [1, True],
        "ints_and_floats": [1, 2.5],
        "strings_and_none": ["a", None, 1.0],
        "empty": [[], {}, ()],
        "ragged": [[1.0, 2.0], [3.0], [], [[4.0, math.inf]], 5.0],
        "tuple_row": (0.5, 1.5),
        "vector": np.linspace(-1.0, 1.0, 7),
        "matrix": np.array([[1.0 / 3.0, math.nan], [-math.inf, 1e-300]]),
        "int_matrix": np.arange(6).reshape(2, 3),
        "bool_array": np.array([True, False]),
        "scalar": 1e-7,
        "nested": {"inner": {"deep": [0.1, 0.2, 0.3]}},
    }
    assert cli.dumps_report(edge) == _reference_dumps(edge)
    for row in (nonfinite, [1e300 * 1e10], [0.0, -math.inf, 0.0]):
        assert cli.dumps_report(row) == _reference_dumps(row)

    plain = {"a": 1, 2: [0.5], "under_score": {}, "CamelCase.dot-dash 9": "x"}
    assert cli.dumps_report(plain) == _reference_dumps(plain)


def test_dumps_report_float_formatting():
    s = dumps_report({"x": 1.0 / 3.0, "inf": math.inf, "i": 3, "b": True, "n": None})
    assert "0.33333333333333331" in s
    assert '"inf"' in s
    parsed = json.loads(s)
    assert parsed["x"] == 1.0 / 3.0  # round-trip exact
    assert parsed["b"] is True


def test_validate_command(tmp_path):
    cfg = write_cfg(tmp_path, {"graph": GRAPH})
    code, out = run(tmp_path, ["validate", "--config", cfg])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["assumptions"]["irreducible"] is True
    assert rep["assumptions"]["period"] == 1
    assert rep["provenance"]["seed"] == 0


def test_validate_writes_a_motifs_labels_under_the_graph(tmp_path):
    motif = {"types": [0, 1], "means_by_type": [1.5, 0.6], "D": [[0, 1], [1, 0]],
             "labels": ["a", "b"]}
    code, out = run(tmp_path, ["validate", "--config", write_cfg(tmp_path, {"motif": motif})])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["graph"]["labels"] == ["a", "b"]
    assert rep["config"]["motif"]["labels"] == ["a", "b"]


def test_validate_rejects_bad_rows_with_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"graph": {"m": [1, 1], "D": [[0.6, 0.5], [0.5, 0.5]]}})
    code = main(["validate", "--config", cfg])
    assert code == 2
    assert "row 0" in capsys.readouterr().err


def test_analyze_cross_checks(tmp_path):
    cfg = write_cfg(tmp_path, {"graph": GRAPH, "seed": 3})
    code, out = run(tmp_path, ["analyze", "--config", cfg])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["spectral"]["rho"] - 1.25) < 1e-9
    assert 0.0 <= rep["spectral"]["residual"] <= 1e-14
    assert rep["return_functional"]["persists"] is True
    assert abs(rep["return_functional"]["R"] - 4.0 / 3.0) < 1e-12
    assert abs(rep["cross_checks"]["log_rho_minus_simplex_max"]) < 1e-6
    assert abs(rep["cross_checks"]["log_rho_minus_twisted_max"]) < 1e-8
    assert rep["cross_checks"]["spectral_vs_return_sign_agree"] is True
    simplex = rep["variational"]["simplex"]
    assert simplex["iterations"] >= 1 and 0.0 <= simplex["gap"] <= 1e-7


def test_analyze_weakly_coupled_answers_fast(tmp_path):
    eps = 1e-5
    graph = {"m": [2.0, 2.0, 0.5],
             "D": [[1 - 2 * eps, eps, eps], [eps, 1 - eps, 0.0], [0.3, 0.3, 0.4]]}
    cfg = write_cfg(tmp_path, {"graph": graph, "seed": 3})
    code, out = run(tmp_path, ["analyze", "--config", cfg])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["cross_checks"]["log_rho_minus_simplex_max"]) <= 1e-9


def test_analyze_unit_means_reports_extinction(tmp_path):
    cfg = write_cfg(
        tmp_path, {"graph": {"m": [1.0, 1.0], "D": [[0.7, 0.3], [0.4, 0.6]]}}
    )
    code, out = run(tmp_path, ["analyze", "--config", cfg])
    rep = json.loads(out.read_text())
    assert rep["verdict"]["persists"] is False
    u = rep["stationary"]
    phi = rep["variational"]["twisted"]["phi"]
    assert max(abs(a - b) for a, b in zip(u, phi)) < 1e-6


def test_analyze_emits_grid_and_excursions(tmp_path):
    cfg = write_cfg(tmp_path, {"graph": GRAPH})
    grid = tmp_path / "grid.csv"
    exc = tmp_path / "exc.csv"
    code = main(
        ["analyze", "--config", cfg, "--out", str(tmp_path / "r.json"),
         "--grid-out", str(grid), "--excursions-out", str(exc)]
    )
    assert code == 0
    lines = grid.read_text().strip().splitlines()
    assert lines[0] == "f1,R,I,R_minus_I"
    assert len(lines) == 100
    elines = exc.read_text().strip().splitlines()
    assert elines[0] == "step,patch"
    assert elines[1] == "0,0"
    assert elines[-1].endswith(",0")  # excursions close at home


def test_simulate_zero_survivors_exits_4(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "graph": {"m": [0.2, 0.1], "D": [[0.5, 0.5], [0.5, 0.5]]},
        "simulate": {"horizon": 100, "n_runs": 50},
    })
    assert main(["simulate", "--config", cfg]) == 4
    assert "no run survived" in capsys.readouterr().err
    cfg2 = write_cfg(tmp_path, {
        "graph": {"m": [0.2, 0.1], "D": [[0.5, 0.5], [0.5, 0.5]]},
        "simulate": {"horizon": 100, "n_runs": 50, "lineage": False},
    }, "cfg2.json")
    code, out = run(tmp_path, ["simulate", "--config", cfg2])
    assert code == 0
    assert json.loads(out.read_text())["report"]["survival_prob"] == 0.0


def test_simulate_home_out_of_range_exits_2(tmp_path, capsys):
    for home in (-1, 3):
        cfg = write_cfg(tmp_path, {"graph": GRAPH, "home": home,
                                   "simulate": {"horizon": 10, "n_runs": 20}})
        assert main(["simulate", "--config", cfg]) == 2
        assert f"home patch {home} out of range" in capsys.readouterr().err


def test_simulate_reports_and_series(tmp_path):
    cfg = write_cfg(tmp_path, {"graph": GRAPH, "seed": 5,
                               "simulate": {"horizon": 40, "n_runs": 400}})
    series = tmp_path / "series.csv"
    code, out = run(tmp_path, ["simulate", "--config", cfg,
                               "--series-out", str(series)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["report"]["n_runs"] == 400
    assert 0.0 < rep["report"]["survival_prob"] < 1.0
    head = series.read_text().splitlines()[0]
    assert head == "run,n,Z_0,Z_1"


def test_simulate_byte_identical_across_threads(tmp_path):
    cfg = write_cfg(tmp_path, {"graph": GRAPH, "seed": 9,
                               "simulate": {"horizon": 30, "n_runs": 500}})
    _, out1 = run(tmp_path, ["simulate", "--config", cfg], "a.json")
    _, out2 = run(tmp_path, ["simulate", "--config", cfg], "b.json")
    assert out1.read_bytes() == out2.read_bytes()


def test_periodic_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "graph": {"m": [1.0, 1.0], "D": [[0.5, 0.5], [0.5, 0.5]]},
        "env": {"states": ["e1", "e2"], "means": [[4.0, 0.9], [0.2, 0.9]],
                "schedule": {"periodic": ["e1", "e2"]}},
    })
    code, out = run(tmp_path, ["periodic", "--config", cfg])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["persists"] is True
    assert abs(rep["product_matrix_rho"] - 1.3475) < 1e-9
    assert abs(rep["cross_checks"]["edge_chain_vs_product_log_rho"]) < 1e-9
    assert 0.0 <= rep["product_matrix_residual"] <= 1e-14
    assert 0.0 <= rep["edge_chain"]["residual"] <= 1e-14
    assert rep["two_patch_criterion"]["persists"] is True
    assert rep["cross_checks"]["even_return_sign_agree"] is True
    for occ in (rep["phase_occupancy"], rep["edge_chain"]["phase_occupancy"]):
        assert len(occ) == 2 and all(abs(sum(row) - 1.0) <= 1e-12 for row in occ)
    assert rep["cross_checks"]["phase_occupancy_spectral_vs_twisted_linf"] <= 1e-12
    steps = np.array(rep["occupancy_edges"])
    assert np.abs(steps.sum(axis=1) - rep["phase_occupancy"][0]).max() <= 1e-12
    assert np.abs(steps.sum(axis=0) - rep["phase_occupancy"][1]).max() <= 1e-12


def test_divergent_return_value_is_written_as_inf(tmp_path):
    # m(1 - q) = 1.2 * 0.9 >= 1: the away block diverges
    cfg = write_cfg(tmp_path, {"graph": {"m": [2.0, 1.2], "D": [[0.9, 0.1], [0.1, 0.9]]}})
    code, js = run(tmp_path, ["analyze", "--config", cfg])
    assert code == 0
    assert '"R": "inf",' in js.read_text()
    code, out = run(tmp_path, ["analyze", "--config", cfg, "--format", "csv"], "out.csv")
    assert code == 0
    assert "return_functional.R,inf\n" in out.read_text()


def test_periodic_one_state_schedule_writes_the_analyze_return_value(tmp_path):
    env = {"states": ["e"], "means": [GRAPH["m"]], "schedule": {"periodic": ["e"]}}
    code, per = run(tmp_path, ["periodic", "--config",
                               write_cfg(tmp_path, {"graph": GRAPH, "env": env, "home": 1})])
    assert code == 0
    code, ana = run(tmp_path, ["analyze", "--config",
                               write_cfg(tmp_path, {"graph": GRAPH, "home": 1})], "a.json")
    assert code == 0
    r_line = re.compile(r'"R": (.*),\n')
    per_text = per.read_text()
    assert r_line.findall(per_text) == r_line.findall(ana.read_text())
    rep, fixed = json.loads(per_text), json.loads(ana.read_text())
    assert list(rep["even_return"]) == ["e"]
    # one phase: the same log rho and spectral occupancy, and the edge chain
    # is the graph itself, solved at the known root instead of by eigen-solve
    assert rep["log_rho_per_step"] == fixed["verdict"]["log_rho"]
    assert rep["phase_occupancy"] == [fixed["spectral"]["phi"]]
    assert abs(rep["edge_chain"]["log_rho"] - fixed["variational"]["twisted"]["log_rho"]) <= 1e-14
    twisted = np.array(fixed["variational"]["twisted"]["phi"])
    assert np.abs(rep["edge_chain"]["phase_occupancy"][0] - twisted).max() <= 1e-14
    assert rep["cross_checks"]["even_return_sign_agree"] is True


def test_randenv_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "graph": {"m": [1.0, 1.0], "D": [[0.5, 0.5], [0.5, 0.5]]},
        "env": {"states": ["e1", "e2"], "means": [[10.0, 0.9], [0.05, 0.8]],
                "schedule": {"markov": {"alpha": 0.5, "beta": 0.5}}},
        "randenv": {"n_steps": 50000},
        "seed": 4,
    })
    code, out = run(tmp_path, ["randenv", "--config", cfg])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["persists"] is True
    assert abs(rep["lower_bound"] - 0.34657359027997264) < 1e-10
    assert rep["cross_checks"]["bound_below_gamma_plus_ci"] is True


PERIOD3 = {"graph": {"m": [1.0, 1.0], "D": [[0.5, 0.5], [0.5, 0.5]]},
           "env": {"states": ["a", "b", "c"], "means": [[4.0, 0.9], [0.2, 0.9], [1.0, 1.0]],
                   "schedule": {"periodic": ["a", "b", "c"]}}}


def test_periodic_answers_survivor_occupancy_for_a_period_of_three(tmp_path):
    code, out = run(tmp_path, ["periodic", "--config", write_cfg(tmp_path, PERIOD3)])
    assert code == 0
    rep = json.loads(out.read_text())
    for occ in (rep["phase_occupancy"], rep["edge_chain"]["phase_occupancy"]):
        assert len(occ) == 3 and all(abs(sum(row) - 1.0) <= 1e-12 for row in occ)
    assert rep["cross_checks"]["phase_occupancy_spectral_vs_twisted_linf"] <= 1e-12
    assert abs(rep["cross_checks"]["edge_chain_vs_product_log_rho"]) <= 1e-12
    assert "two_patch_criterion" not in rep


def test_periodic_answers_a_zero_mean_without_the_edge_chain(tmp_path):
    # state b kills patch 1: the product and the spectral phase occupancy
    # stand, but the edge chain needs positive means and is left out
    cfg = json.loads(json.dumps(PERIOD3))
    cfg["env"]["means"][1] = [0.2, 0.0]
    code, out = run(tmp_path, ["periodic", "--config", write_cfg(tmp_path, cfg)])
    assert code == 0
    rep = json.loads(out.read_text())
    mats = [np.array(m)[:, None] * np.full((2, 2), 0.5) for m in cfg["env"]["means"]]
    rho = max(abs(np.linalg.eigvals(mats[0] @ mats[1] @ mats[2])))
    assert abs(rep["product_matrix_rho"] - rho) <= 1e-12 and rep["persists"] is False
    assert len(rep["phase_occupancy"]) == 3 and rep["phase_occupancy"][1][1] == 0.0
    assert "edge_chain" not in rep
    assert set(rep["cross_checks"]) == {"even_return_sign_agree"}


def test_periodic_reports_occupancy_on_a_periodic_product(tmp_path):
    # a 3-cycle under one state: growth as analyze would give it, and a
    # survivor's occupancy, a time average, is a third in each patch on
    # both routes
    env = {"states": ["e"], "means": [[2.0, 0.5, 1.0]], "schedule": {"periodic": ["e"]}}
    graph = {"m": [1.0, 1.0, 1.0], "D": [[0, 1, 0], [0, 0, 1], [1, 0, 0]]}
    code, out = run(tmp_path, ["periodic", "--config",
                               write_cfg(tmp_path, {"graph": graph, "env": env})])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["log_rho_per_step"]) <= 1e-12  # rho^3 = 2 * 0.5 * 1
    for occ in (rep["phase_occupancy"], rep["edge_chain"]["phase_occupancy"]):
        assert np.abs(np.array(occ) - 1 / 3).max() <= 1e-12
    # every step moves one patch on round the cycle
    assert np.abs(np.array(rep["occupancy_edges"]) - np.array(graph["D"]) / 3).max() <= 1e-12
    assert rep["cross_checks"]["phase_occupancy_spectral_vs_twisted_linf"] <= 1e-12
    assert abs(rep["cross_checks"]["edge_chain_vs_product_log_rho"]) <= 1e-12


def test_analyze_refuses_a_periodic_graph_by_its_simplex_route(tmp_path, capsys):
    # the twisted route answers a bipartite graph, but its cyclic classes
    # each carry half the occupancy, which the simplex ascent cannot move on
    graph = {"m": [3.0, 1.5, 1.4, 1.6],
             "D": [[0, 0, .5, .5], [0, 0, .3, .7], [.6, .4, 0, 0], [.2, .8, 0, 0]]}
    code, out = run(tmp_path, ["analyze", "--config", write_cfg(tmp_path, {"graph": graph})])
    assert code == 2 and not out.exists()
    assert "simplex ascent needs a full-dimensional occupancy set" in capsys.readouterr().err


def test_randenv_on_a_periodic_schedule_is_the_product_rate(tmp_path):
    cfg = write_cfg(tmp_path, PERIOD3)
    code, per = run(tmp_path, ["periodic", "--config", cfg], "per.json")
    assert code == 0
    code, ran = run(tmp_path, ["randenv", "--config", cfg], "ran.json")
    assert code == 0
    rep = json.loads(ran.read_text())
    gap = rep["lyapunov"]["gamma"] - json.loads(per.read_text())["log_rho_per_step"]
    assert abs(gap) <= rep["lyapunov"]["ci"]
    # three phases are not the two states of the bound's chain
    assert "lower_bound" not in rep
    # the alternation e1, e2 is that chain with alpha = beta = 1
    cfg = write_cfg(tmp_path, {"graph": GRAPH, "env": PERIODIC_ENV,
                               "randenv": {"n_steps": 20000}}, "alt.json")
    code, ran = run(tmp_path, ["randenv", "--config", cfg], "alt-out.json")
    assert code == 0
    rep = json.loads(ran.read_text())
    assert rep["lower_bound"] == random_env_lower_bound(4.0, 0.9, 0.5, 0.5, 1.0, 1.0)


def _periodic_eigen_solve_shapes(tmp_path, monkeypatch, schedule):
    m, D = [1.0, 1.0, 1.0], [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4]]
    env = {"states": ["e1", "e2", "e3"],
           "means": [[2.0, 0.5, 1.2], [0.4, 1.5, 0.9], [1.1, 0.7, 0.3]],
           "schedule": {"periodic": schedule}}
    cfg = write_cfg(tmp_path, {"graph": {"m": m, "D": D}, "env": env})
    shapes = eigen_solve_shapes(monkeypatch)
    code, out = run(tmp_path, ["periodic", "--config", cfg])
    rep = json.loads(out.read_text())
    assert code == 0 and len(rep["edge_chain"]["phase_occupancy"]) == len(schedule)
    return shapes


def test_periodic_command_makes_one_eigen_solve(tmp_path, monkeypatch):
    # the edge chain is solved at the root of the product's one eigen-solve
    assert _periodic_eigen_solve_shapes(tmp_path, monkeypatch, ["e1", "e2"]) == [(3, 3)]


def test_periodic_command_makes_one_eigen_solve_for_a_period_of_three(tmp_path, monkeypatch):
    assert _periodic_eigen_solve_shapes(tmp_path, monkeypatch, ["e1", "e2", "e3"]) == [(3, 3)]


def test_randenv_vanishing_population_reports_minus_inf(tmp_path):
    cfg = write_cfg(tmp_path, {
        "graph": {"m": [1.0, 1.0], "D": [[0.5, 0.5], [0.5, 0.5]]},
        "env": {"states": ["e1", "e2"], "means": [[1.5, 0.4], [0.0, 0.0]],
                "schedule": {"markov": {"alpha": 0.5, "beta": 0.5}}},
        "randenv": {"n_steps": 20000},
        "seed": 4,
    })
    code, out = run(tmp_path, ["randenv", "--config", cfg])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["persists"] is False
    assert rep["lyapunov"]["gamma"] == "-inf"
    assert rep["lyapunov"]["ci"] == 0.0


def test_pipeline_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "pipeline": {"n": 1, "p": 0.4, "L": 0.5, "s": 0.2, "l": 0.3,
                      "m": 0.5, "M": 2.0},
    })
    code, out = run(tmp_path, ["pipeline", "--config", cfg])
    assert code == 0
    rep = json.loads(out.read_text())
    # n = 1 closed form: e = (1-s) m / (1 - m s)
    assert abs(rep["e"] - 0.8 * 0.5 / 0.9) < 1e-12
    assert abs(rep["cross_checks"]["e_closed_minus_linear"]) < 1e-12


def test_reports_embed_resolved_config_and_are_reproducible(tmp_path):
    cfg = write_cfg(tmp_path, {"graph": GRAPH, "seed": 11})
    _, a = run(tmp_path, ["analyze", "--config", cfg], "a.json")
    _, b = run(tmp_path, ["analyze", "--config", cfg], "b.json")
    assert a.read_bytes() == b.read_bytes()
    rep = json.loads(a.read_text())
    assert rep["config"]["graph"]["m"] == [2.0, 0.5]
    assert len(rep["provenance"]["config_sha256"]) == 64


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path, {"graph": GRAPH, "seed": 11})
    _, a = run(tmp_path, ["analyze", "--config", cfg, "--seed", "12"], "a.json")
    rep = json.loads(a.read_text())
    assert rep["provenance"]["seed"] == 12
    assert rep["config"]["seed"] == 12


def test_csv_format_output(tmp_path):
    cfg = write_cfg(tmp_path, {"graph": GRAPH})
    code, out = run(tmp_path, ["validate", "--config", cfg, "--format", "csv"],
                    "out.csv")
    assert code == 0
    text = out.read_text()
    assert text.startswith("key,value\n")
    assert "assumptions.irreducible,True" in text


def test_periodic_report_keys_are_escaped(tmp_path):
    states = ['wet "A"', "dry\\B \u00e9t\u00e9"]
    cfg = write_cfg(tmp_path, {
        "graph": {"m": [1.0, 1.0], "D": [[0.5, 0.5], [0.5, 0.5]]},
        "env": {"states": states, "means": [[4.0, 0.9], [0.2, 0.9]],
                "schedule": {"periodic": states}},
    })
    code, out = run(tmp_path, ["periodic", "--config", cfg])
    assert code == 0
    with open(out) as f:
        rep = json.load(f)
    assert set(rep["even_return"]) == set(states)
    assert rep["config"]["env"]["states"] == states
    # Non-ASCII keys are \u-escaped, like string values.
    assert '"dry\\\\B \\u00e9t\\u00e9": {' in out.read_text()


def test_csv_quotes_keys_and_values_only_where_needed(tmp_path):
    states = ["wet,A", 'dry "B"']
    cfg = write_cfg(tmp_path, {
        "graph": {"m": [1.0, 1.0], "D": [[0.5, 0.5], [0.5, 0.5]]},
        "env": {"states": states, "means": [[4.0, 0.9], [0.2, 0.9]],
                "schedule": {"periodic": states}},
    })
    code, out = run(tmp_path, ["periodic", "--config", cfg, "--format", "csv"], "out.csv")
    assert code == 0
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert all(len(row) == 2 for row in rows), [r for r in rows if len(r) != 2]
    values = dict(rows[1:])
    for i, name in enumerate(states):
        assert values[f"config.env.states[{i}]"] == name
    assert "even_return.wet,A.R" in values
    assert rows[0] == ["key", "value"]


def test_main_builds_its_parser_once_and_looks_up_the_command_per_call(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, {"graph": GRAPH})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "a.json")]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_validate", lambda cfg, args: calls.append(args) or {"x": 1})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "b.json")]) == 0
    assert len(calls) == 1
    assert json.loads((tmp_path / "b.json").read_text())["x"] == 1
    assert cli.build_parser() is cli.build_parser()


def test_csv_format_writes_one_row_per_array_entry(tmp_path):
    rng = np.random.default_rng(2)
    K = 12
    D = rng.dirichlet(np.ones(K), size=K) + 0.2 * np.eye(K)
    graph = {"m": rng.uniform(0.3, 2.5, K).tolist(),
             "D": (D / D.sum(axis=1, keepdims=True)).tolist()}
    cfg = write_cfg(tmp_path, {"graph": graph, "seed": 1})
    code, out = run(tmp_path, ["analyze", "--config", cfg, "--format", "csv"], "out.csv")
    assert code == 0
    code, js = run(tmp_path, ["analyze", "--config", cfg], "out.json")
    assert code == 0
    lines = out.read_text().splitlines()
    assert all(len(line.split(",")) == 2 for line in lines), lines
    rows = dict(line.split(",") for line in lines[1:])
    left = json.loads(js.read_text())["spectral"]["left"]
    assert len(left) == K
    for i, x in enumerate(left):
        assert float(rows[f"spectral.left[{i}]"]) == x
    assert "config.graph.D[11][11]" in rows


MARKOV_ENV = {"states": ["e1", "e2"], "means": [[10.0, 0.9], [0.05, 0.8]],
              "schedule": {"markov": {"alpha": 0.5, "beta": 0.5}}}
PERIODIC_ENV = {"states": ["e1", "e2"], "means": [[4.0, 0.9], [0.2, 0.9]],
                "schedule": {"periodic": ["e1", "e2"]}}
PIPELINE = {"n": 1, "p": 0.4, "L": 0.5, "s": 0.2, "l": 0.3, "m": 0.5, "M": 2.0}
COMMAND_CONFIGS = {
    "validate": {"graph": GRAPH},
    "analyze": {"graph": GRAPH, "seed": 3},
    "simulate": {"graph": GRAPH, "seed": 5, "simulate": {"horizon": 20, "n_runs": 200}},
    "periodic": {"graph": GRAPH, "env": PERIODIC_ENV},
    "randenv": {"graph": GRAPH, "seed": 4, "env": MARKOV_ENV, "randenv": {"n_steps": 2000}},
    "pipeline": {"pipeline": PIPELINE},
}


@pytest.mark.parametrize("command, config, builds, checks", [
    # the pipeline's motif keeps the one graph that the depleting rate and
    # the type-return criterion share; periodic checks the graph (even
    # return) and the product (growth rate), and the occupancy routes read
    # the product's kept verdict
    ("pipeline", {"pipeline": {**PIPELINE, "n": 4}}, 1, 1),
    ("periodic", PERIOD3, 1, 2),
])
def test_a_run_builds_and_checks_each_model_once(tmp_path, monkeypatch, command, config,
                                                 builds, checks):
    counts = {"builds": 0, "checks": 0}
    post_init = MetapopGraph.__post_init__

    def built(self):
        counts["builds"] += 1
        post_init(self)

    def checked(support, means):
        counts["checks"] += 1
        return _assumption_report(support, means)

    monkeypatch.setattr(MetapopGraph, "__post_init__", built)
    monkeypatch.setattr("sourcesink.graph._assumption_report", checked)
    code, _ = run(tmp_path, [command, "--config", write_cfg(tmp_path, config)])
    assert code == 0
    assert counts == {"builds": builds, "checks": checks}


@pytest.mark.parametrize("command", list(COMMAND_CONFIGS))
def test_every_report_opens_with_the_same_header(tmp_path, command):
    config = COMMAND_CONFIGS[command]
    code, out = run(tmp_path, [command, "--config", write_cfg(tmp_path, config)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert list(rep)[:3] == ["command", "provenance", "config"]
    assert rep["command"] == command
    resolved = {"seed": 0, **config}
    canonical = dumps_report(rep["config"])
    assert rep["provenance"]["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    assert rep["provenance"]["seed"] == resolved["seed"]


# every flag each subcommand accepts, each with a value to pass it
COMMAND_FLAGS = {
    "validate": {},
    "analyze": {"--seed": "4", "--trials": "200", "--grid-out": "grid.csv",
                "--excursions-out": "exc.csv"},
    "simulate": {"--seed": "6", "--trials": "100", "--horizon": "15",
                 "--series-out": "series.csv"},
    "periodic": {},
    "randenv": {"--seed": "5"},
    "pipeline": {},
}


@pytest.mark.parametrize("command", list(COMMAND_CONFIGS))
def test_a_reports_config_alone_reproduces_the_report(tmp_path, command):
    # every config holds integral floats such as 2.0, which the report writes as 2
    config = {**COMMAND_CONFIGS[command], "seed": 7.0}
    flags = [x for flag, value in COMMAND_FLAGS[command].items()
             for x in (flag, str(tmp_path / value) if flag.endswith("-out") else value)]
    code, first = run(tmp_path, [command, "--config", write_cfg(tmp_path, config), *flags],
                      "first.json")
    assert code == 0
    echoed = write_cfg(tmp_path, json.loads(first.read_text())["config"], "echoed.json")
    code, second = run(tmp_path, [command, "--config", echoed], "second.json")
    assert code == 0
    assert second.read_bytes() == first.read_bytes()


def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys):
    (sub,) = [a for a in cli.build_parser()._actions if a.choices and "analyze" in a.choices]
    common = {"-h", "--help", "--config", "--out", "--format"}
    for command, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags == common | set(COMMAND_FLAGS[command]), command
    cfg = write_cfg(tmp_path, {"graph": GRAPH, "pipeline": PIPELINE, "env": PERIODIC_ENV})
    out = tmp_path / "out.json"
    for argv in ("validate --seed 1", "analyze --horizon 5", "periodic --trials 5",
                 "randenv --trials 5", "pipeline --horizon 3"):
        with pytest.raises(SystemExit) as exit_:
            main([*argv.split(), "--config", cfg, "--out", str(out)])
        assert exit_.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


def test_excursion_sidecar_stops_at_the_configured_step_cap(tmp_path):
    # a trap graph whose excursions from patch 0 run for hundreds of steps
    exc = tmp_path / "exc.csv"
    cfg = write_cfg(tmp_path, {"graph": {"m": [2, 0.5], "D": [[0, 1], [0.001, 0.999]]},
                               "mc": {"max_steps": 5, "n_trials": 1000}})
    code, _ = run(tmp_path, ["analyze", "--config", cfg, "--excursions-out", str(exc)])
    assert code == 0
    lines = exc.read_text().splitlines()
    assert lines[0] == "step,patch" and len(lines) <= 5 + 2


def test_excursion_sidecar_is_written_as_the_walk_goes(tmp_path, monkeypatch):
    # on this trap graph the walk from patch 0 stays at patch 1 far beyond the
    # step cap, so the sidecar holds every one of mc.max_steps steps; a path
    # kept whole costs at least 8 bytes a step (1.6 MB here), a streamed one
    # nothing that grows with the steps.  The report's own Monte Carlo route
    # is capped short, since only the sidecar is measured.
    steps = 10**5
    mc = cli.return_functional_mc
    monkeypatch.setattr(cli, "return_functional_mc",
                        lambda g, home, cfg: mc(g, home, dataclasses.replace(cfg, max_steps=10)))
    cfg = write_cfg(tmp_path, {"graph": {"m": [2.0, 0.5], "D": [[0, 1], [1e-9, 1 - 1e-9]]},
                               "mc": {"max_steps": steps, "n_trials": 10}})
    exc = tmp_path / "exc.csv"
    argv = ["analyze", "--config", cfg, "--excursions-out", str(exc)]
    assert run(tmp_path, argv)[0] == 0  # warm caches, so the trace sees the write alone
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    lines = exc.read_text().splitlines()
    assert len(lines) == steps + 2 and lines[-1] == f"{steps},1"
    assert peak < 0.5e6, peak


def test_excursion_sidecar_stops_at_its_own_cap_without_mc_max_steps(tmp_path):
    # the walk from patch 0 stays at patch 1 for about 1e9 steps; with no
    # mc block the sidecar stops at EXCURSIONS_MAX_STEPS, not at the Monte
    # Carlo default of 1e7
    cfg = write_cfg(tmp_path, {"graph": {"m": [2.0, 0.5], "D": [[0, 1], [1e-9, 1 - 1e-9]]}})
    exc = tmp_path / "exc.csv"
    code, _ = run(tmp_path, ["analyze", "--config", cfg, "--excursions-out", str(exc)])
    assert code == 0
    lines = exc.read_text().splitlines()
    assert lines[0] == "step,patch" and len(lines) <= 10**5 + 2
    assert cli.EXCURSIONS_MAX_STEPS == 10**5


def test_float_seed_is_read_as_its_integer(tmp_path):
    csvs = []
    for seed in (3.0, 3):
        exc = tmp_path / f"exc{seed!r}.csv"
        cfg = write_cfg(tmp_path, {"graph": GRAPH, "seed": seed}, f"cfg{seed!r}.json")
        code, _ = run(tmp_path, ["analyze", "--config", cfg, "--excursions-out", str(exc)])
        assert code == 0
        csvs.append(exc.read_text())
    assert csvs[0] == csvs[1]


MALFORMED = {
    "missing config file": ("validate", None),
    "invalid JSON": ("validate", "{not json"),
    "config not UTF-8": ("validate", b'{"seed": "\xff"}'),
    "config not an object": ("validate", "[1, 2]"),
    "missing graph file": ("validate", {"graph": "nope.json"}),
    "ragged D": ("validate", {"graph": {"m": [1, 1], "D": [[0.5, 0.5], [1.0]]}}),
    "non-numeric m": ("analyze", {"graph": {"m": [1, "x"], "D": [[0.5, 0.5], [0.5, 0.5]]}}),
    "non-numeric types": ("validate", {"motif": {"types": [0, "a"], "means_by_type": [1.5, 0.6],
                                                 "D": [[0, 1], [1, 0]]}}),
    "non-numeric env means": ("periodic", {"graph": GRAPH, "env": {
        **PERIODIC_ENV, "means": [[4.0, "x"], [0.2, 0.9]]}}),
    "pipeline not an object": ("pipeline", {"pipeline": [1, 2]}),
    "non-numeric pipeline field": ("pipeline", {"pipeline": {**PIPELINE, "n": "x"}}),
    "non-numeric home": ("analyze", {"graph": GRAPH, "home": "x"}),
    "simulate block not an object": ("simulate", {"graph": GRAPH, "simulate": [1]}),
    "lineage a string": ("simulate", {"graph": GRAPH, "simulate": {"lineage": "no"}}),
    "lineage a number": ("simulate", {"graph": GRAPH, "simulate": {"lineage": 1}}),
    "lineage null": ("simulate", {"graph": GRAPH, "simulate": {"lineage": None}}),
    "mc block not an object": ("analyze --trials 10", {"graph": GRAPH, "mc": 3}),
    "non-numeric markov alpha": ("randenv", {"graph": GRAPH, "env": {
        **MARKOV_ENV, "schedule": {"markov": {"alpha": "x", "beta": 0.5}}}}),
    "markov without beta": ("randenv", {"graph": GRAPH, "env": {
        **MARKOV_ENV, "schedule": {"markov": {"alpha": 0.5}}}}),
    "labels not a list": ("validate", {"graph": {**GRAPH, "labels": 5}}),
    "motif labels not a list": ("validate", {"motif": {"types": [0, 1], "means_by_type": [1.5, 0.6],
                                                       "D": [[0, 1], [1, 0]], "labels": 5}}),
    "periodic on a markov schedule": ("periodic", {"graph": GRAPH, "env": MARKOV_ENV}),
    "reducible graph": ("analyze", {"graph": {"m": [2.0, 0.5], "D": [[1, 0], [0, 1]]}}),
    "rate grid of three patches": ("analyze --grid-out grid.csv", {"graph": {
        "m": [2.0, 0.5, 1.0], "D": [[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.3, 0.3, 0.4]]}}),
    "negative seed with trials": ("analyze --trials 10 --seed -1", {"graph": GRAPH}),
    "negative seed": ("simulate --seed -1", {"graph": GRAPH}),
    "non-numeric seed": ("analyze", {"graph": GRAPH, "seed": "x"}),
    "non-numeric seed with trials": ("analyze --trials 10", {"graph": GRAPH, "seed": "x"}),
    "repeated state name": ("periodic", {"graph": GRAPH, "env": {
        **PERIODIC_ENV, "states": ["a", "a"], "schedule": {"periodic": ["a", "a"]}}}),
    "state name a list": ("randenv", {"graph": GRAPH, "env": {
        **MARKOV_ENV, "states": [["a"], "b"]}}),
    "periodic env of three patches": ("periodic", {"graph": GRAPH, "env": {
        **PERIODIC_ENV, "means": [[4.0, 0.9, 1.0], [0.2, 0.9, 1.0]]}}),
    "randenv env of three patches": ("randenv", {"graph": GRAPH, "env": {
        **MARKOV_ENV, "means": [[10.0, 0.9, 1.0], [0.05, 0.8, 1.0]]}}),
    "simulate env of one patch": ("simulate", {"graph": GRAPH, "env": {
        **PERIODIC_ENV, "means": [[4.0], [0.2]]}}),
}


@pytest.mark.parametrize("command, config", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_input_exits_2_without_a_report(tmp_path, monkeypatch, capsys, command, config):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "cfg.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    elif config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out.json"
    assert main([*command.split(), "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists() and not (tmp_path / "grid.csv").exists()
    assert capsys.readouterr().err.startswith("validation error: ")


def test_missing_model_is_validation_error(tmp_path):
    cfg = write_cfg(tmp_path, {"seed": 1})
    assert main(["analyze", "--config", cfg]) == 2


def test_non_convergence_exits_3_and_prints_residual(tmp_path, monkeypatch, capsys):
    def stalled(g):
        raise ConvergenceError("x", residual=1e-3)

    monkeypatch.setattr(cli, "max_rate_gap", stalled)
    cfg = write_cfg(tmp_path, {"graph": GRAPH})
    code = main(["analyze", "--config", cfg, "--out", str(tmp_path / "r.json")])
    assert code == 3
    assert "numerical non-convergence: x (residual 0.001)" in capsys.readouterr().err


def test_trials_zero_exits_2_like_negative_trials(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"graph": GRAPH})
    for command, trials, message in (
        ("analyze", 0, "n_trials must be >= 1"),
        ("analyze", -1, "n_trials must be >= 1"),
        ("simulate", 0, "n_runs must be >= 1"),
    ):
        out = tmp_path / f"{command}{trials}.json"
        code = main([command, "--config", cfg, "--trials", str(trials), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
