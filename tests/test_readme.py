"""The README's examples run as written: the library quick start gives the
values its comments state, and the config block runs every subcommand."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sourcesink.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# the quick start's commented expressions and the values their comments state
STATED = {
    "sd.rho": 1.25,
    "occupancy_spectral(sd)": [0.8, 0.2],
    "argmax_occupancy(g).occupancy": [0.8, 0.2],
    "return_functional_exact(g).value": 4.0 / 3.0,
    "max_rate_gap(g).log_growth": math.log(1.25),
}


def _block(lang):
    (body,) = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    return body


def test_quick_start_gives_the_values_its_comments_state():
    code, ns = _block("python"), {}
    exec(code, ns)
    for expr, value in STATED.items():
        assert expr.removesuffix(".value") in code
        assert np.abs(np.asarray(eval(expr, ns)) - value).max() <= 1e-9, expr
    assert eval("return_functional_exact(g).persists", ns)
    # the simulated estimates are the ones marked ~
    assert abs(ns["rep"].growth_rate_hat - math.log(1.25)) <= 0.01
    assert np.abs(ns["rep"].occupancy_hat - [0.8, 0.2]).max() <= 0.01


@pytest.mark.parametrize("command",
                         ["validate", "analyze", "simulate", "periodic", "randenv", "pipeline"])
def test_config_block_runs_every_subcommand(tmp_path, command):
    cfg = json.loads(re.sub(r"//[^\n]*", "", _block("jsonc")))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "report.json")]) == 0
