"""The benchmark's tracer (``perfbench/tracing.py``), installed in-process
around one small run of each Monte Carlo subcommand and one small rate solve. It wraps fracldp's layer
entry points and reads their arguments and results, so a change to what a
traced function takes or returns shows up here, not first in a traced
benchmark run."""

import importlib.util
import json
import os

import numpy as np
import pytest

from fracldp import cli, rate, stochastic, zoo
from fracldp.grids import Field
from fracldp.skeleton import Control, TimeGrid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIGS = {
    "mc-ldp": {
        "experiment": {"name": "mc-ldp", "eps_list": [0.5], "n_paths": 100,
                       "n_level_samples": 2},
        "model": {"preset": "scalar-linear"},
        "timegrid": {"horizon": 1.0, "n_steps": 16},
    },
    "simulate": {
        "experiment": {"name": "simulate", "n_paths": 4},
        "model": {"preset": "default"},
        "timegrid": {"n_steps": 8},
    },
}


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_run_computes_its_layer_metrics(tmp_path, capsys, name):
    doc = {**CONFIGS[name], "run": {"seed": 0, "output_dir": str(tmp_path / "out")}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    originals = (stochastic.batch_paths, stochastic.step_once, np.fft.rfftn)
    tracer = _tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        code = cli.main([name, "--config", str(config)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (stochastic.batch_paths, stochastic.step_once, np.fft.rfftn) == originals
    metrics = tracer.layer_metrics(mark)
    assert metrics["skeleton.step_once.calls"] > 0
    assert metrics["persist.records_bytes"] > 0
    if name == "simulate":
        assert metrics["stochastic.batch_paths.calls"] == 1
        assert metrics["stochastic.batch_paths.path_steps"] == 4 * 8


def test_traced_rate_solve_runs_the_adjoint():
    """A small endpoint solve under the tracer reaches L-BFGS, so the adjoint
    spans and the iteration count are read; every forward sweep runs its
    steps through the traced ``skeleton.step_once``; and uninstall restores
    the bindings the tracer rebinds in ``rate``."""
    model = zoo.default_model()
    tg = TimeGrid(0.2, 8)
    u0 = zoo.default_initial_datum(model.grid)
    planted = Control(tg, np.full((tg.n_steps, model.noise.n_modes), 0.5))
    target = Field(model.grid, rate.g0_map(model, u0, planted, tg)[-1])
    query = rate.RateQuery(u0=u0, target_endpoint=target, tau_end=1e-3)
    originals = (rate._adjoint_grad, rate._objective_and_grad, rate._forward_states)
    tracer = _tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        result = rate.minimize_rate(model, query, tg)
    finally:
        tracer.uninstall()
    assert result.converged
    assert (rate._adjoint_grad, rate._objective_and_grad, rate._forward_states) == originals
    metrics = tracer.layer_metrics(mark)
    assert metrics["rate.objective_and_grad.calls"] > 0
    assert metrics["rate.adjoint_s"] > 0
    assert metrics["rate.minimize_rate.lbfgs_iters"] == result.iterations > 0
    sweeps = sum(1 for span in tracer.spans[mark[0]:] if span[0] == "rate.forward")
    assert metrics["skeleton.step_once.calls"] == tg.n_steps * sweeps > 0
