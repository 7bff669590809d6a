"""Span tracing of the package's public functions, from outside the package.

``Tracer.install()`` wraps every public module-level function of each layer
module in a span recorder and rebinds the wrapper under every name that
holds the original in any ``sourcesink`` module: ``cli`` and
``environments`` call their own imported copies (``cli.growth_rate``,
``environments.growth_rate``), so patching only the defining module would
miss those calls.  ``uninstall()`` puts every original back.

A span is (id, parent, name, start, end, thread).  Parents come from a
per-thread stack, so spans opened in a worker thread of ``simulate`` are
roots in that thread.  A function that calls itself (``dumps_report``)
records one span for the outermost call.  Spans stay in memory until
``write_jsonl``.  Self time is a span's duration minus its children's.

Some spans also carry counts read from the call's arguments or result
(runs simulated, Monte Carlo trials, Lyapunov steps, ascent iterations,
report bytes); ``summary()`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "graph", "spectral", "walks", "variational",
          "environments", "branching", "motifs")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _simulate_name(args, kwargs):
    lineage = _arg(args, kwargs, 8, "track_lineage", True)
    return "branching.simulate." + ("lineage" if lineage else "nolineage")


def _simulate_counts(args, kwargs, res):
    return {"runs": res.n_runs, "run_generations": res.n_runs * res.horizon,
            "survived": res.n_survived, "escaped": res.n_escaped}


def _mc_counts(args, kwargs, res):
    cfg = _arg(args, kwargs, 2, "cfg")
    n = cfg.n_trials if cfg is not None else 10**5
    return {"trials": n, "truncated": res.truncated_mass * n}


# span names that depend on the call, and counts read from calls
RENAME = {"branching.simulate": _simulate_name}
COUNTS = {
    "branching.simulate": _simulate_counts,
    "walks.return_functional_mc": _mc_counts,
    "environments.lyapunov_estimate": lambda a, k, res: {"steps": res.n_steps},
    "variational.max_rate_gap": lambda a, k, res: {"iterations": res.iterations},
    "cli.dumps_report": lambda a, k, res: {"bytes": len(res)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn):
        rename = RENAME.get(name)
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                label = rename(args, kwargs) if rename else name
                self.spans.append((sid, parent, label, t0, t1, threading.get_ident()))
            if count:
                for key, val in count(args, kwargs, res).items():
                    self.counts[f"{name}.{key}"] += val
            return res

        return traced

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"sourcesink.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "sourcesink" and not modname.startswith("sourcesink."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def self_times(self) -> dict:
        """name -> (calls, total duration, self time) over all spans."""
        child = defaultdict(float)
        for _, parent, _, t0, t1, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, _, name, t0, t1, _ in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[sid]
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for sid, parent, name, t0, t1, thread in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start": t0, "end": t1, "thread": thread}) + "\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass per-layer numbers: name -> (value, unit)."""
    st = tracer.self_times()
    c = tracer.counts

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2] / passes

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0] / passes

    def rate(num, den):
        return num / den if den > 0 else 0.0

    sim_time = total("branching.simulate.lineage") + total("branching.simulate.nolineage")
    runs = c["branching.simulate.runs"]
    mc_trials = c["walks.return_functional_mc.trials"]
    out = {
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.report_bytes": (c["cli.dumps_report.bytes"] / passes, "bytes"),
        "graph.validate_graph.calls": (calls("graph.validate_graph"), "count"),
        "graph.validate_graph.self_s": (self_s("graph.validate_graph"), "s"),
        "graph.stationary_distribution.self_s": (self_s("graph.stationary_distribution"), "s"),
        "spectral.growth_rate.self_s": (self_s("spectral.growth_rate"), "s"),
        "spectral.perron_value.calls": (calls("spectral.perron_value"), "count"),
        "spectral.perron_value.self_s": (self_s("spectral.perron_value"), "s"),
        "walks.return_functional_exact.self_s": (self_s("walks.return_functional_exact"), "s"),
        "walks.depleting_rate.self_s": (self_s("walks.depleting_rate"), "s"),
        "walks.return_functional_mc.self_s": (self_s("walks.return_functional_mc"), "s"),
        "walks.mc.trials_per_s": (rate(mc_trials, total("walks.return_functional_mc")), "1/s"),
        "walks.mc.truncated_frac": (rate(c["walks.return_functional_mc.truncated"], mc_trials), "ratio"),
        "variational.max_rate_gap.self_s": (self_s("variational.max_rate_gap"), "s"),
        "variational.max_rate_gap.iterations": (c["variational.max_rate_gap.iterations"] / passes, "count"),
        "variational.argmax_occupancy.self_s": (self_s("variational.argmax_occupancy"), "s"),
        "environments.edge_chain.self_s": (self_s("environments.edge_chain"), "s"),
        "environments.periodic_growth_and_occupancy.self_s":
            (self_s("environments.periodic_growth_and_occupancy"), "s"),
        "environments.even_return_functional.self_s": (self_s("environments.even_return_functional"), "s"),
        "environments.lyapunov_estimate.self_s": (self_s("environments.lyapunov_estimate"), "s"),
        "environments.lyapunov.steps_per_s":
            (rate(c["environments.lyapunov_estimate.steps"], total("environments.lyapunov_estimate")), "1/s"),
        "branching.simulate.lineage.self_s": (self_s("branching.simulate.lineage"), "s"),
        "branching.simulate.nolineage.self_s": (self_s("branching.simulate.nolineage"), "s"),
        "branching.run_generations_per_s": (rate(c["branching.simulate.run_generations"], sim_time), "1/s"),
        "branching.survived_frac": (rate(c["branching.simulate.survived"], runs), "ratio"),
        "branching.escaped_frac": (rate(c["branching.simulate.escaped"], runs), "ratio"),
        "motifs.collapse.self_s": (self_s("motifs.collapse"), "s"),
        "motifs.type_return_functional.self_s": (self_s("motifs.type_return_functional"), "s"),
        "motifs.pipeline_depleting_rate.self_s": (self_s("motifs.pipeline_depleting_rate"), "s"),
    }
    for layer in LAYERS:
        busy = sum(row[2] for name, row in st.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (busy / passes, "s")
    return out
