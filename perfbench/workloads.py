"""The four benchmark workloads: inputs from the seed, one timed operation, checks.

Each workload is a class with

* ``setup(root, seed, work_dir)`` -- everything a fresh process does before the
  timed run: import fracldp (and numpy/scipy), parse the config, build the
  model and its step kernel, prepare the inputs;
* ``run()`` -- one timed operation (a ``fracldp.cli.main`` call, or the batch
  of ``minimize_rate`` calls), returning its raw outcome;
* ``check(outcome)`` -- the per-seed output checks, returning
  ``(problems, key_numbers)``;
* ``requested_work`` -- the work the operation was asked for, in the unit the
  ``work_per_s`` metric counts for this workload.

Key numbers are compared against ``reference.json`` on the reference seed with
the tolerances in ``TOLERANCES``; they are tolerances, not byte equality, so a
kernel change that drifts the last bits still passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

REFERENCE_SEED = 0

# (relative, absolute) tolerance per key-number family
TOLERANCES = {
    "sim-default": {"mean_terminal_l2": (1e-6, 0.0), "mean_energy": (1e-6, 0.0)},
    # one path in 1000 crossing the ball boundary moves p_hat by 0.001
    "mc-ldp-scalar": {"p_hat": (0.0, 0.002)},
    # endpoint solves stop anywhere inside the tau-ball, so values may move
    "rate-endpoint": {"value": (0.02, 1e-4)},
    "validate-boundary": {"margin": (1e-6, 1e-9)},
}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _close(a: float, b: float, rel: float, abs_: float) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


class CliWorkload:
    """A ``fracldp`` subcommand run from a config file written at setup."""

    command = ""
    shipped = ""  # config file under configs/ the workload runs as is

    def base_config(self, root: str) -> dict:
        with open(os.path.join(root, "configs", self.shipped), encoding="utf-8") as handle:
            return json.load(handle)

    def setup(self, root: str, seed: int, work_dir: str) -> None:
        from fracldp import cli
        from fracldp.config import (build_model_from_config, build_timegrid,
                                    parse_config)
        from fracldp.skeleton import StepKernel

        doc = self.base_config(root)
        doc.setdefault("run", {})
        doc["run"]["seed"] = seed
        self.out_dir = os.path.join(work_dir, "out")
        doc["run"]["output_dir"] = self.out_dir
        self.config_path = os.path.join(work_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
        with open(self.config_path, "r", encoding="utf-8") as handle:
            self.cfg = parse_config(handle.read())
        # built only so that setup_s covers them; the timed CLI run rebuilds its own
        model = build_model_from_config(self.cfg)
        StepKernel.build(model, build_timegrid(self.cfg))
        self.cli = cli

    def run(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        # looked up per call so that a traced binding is the one called
        return self.cli.main([self.command, "--config", self.config_path])

    def check(self, code):
        problems = []
        if code != 0:
            return [f"exit code {code}, expected 0"], {}
        with open(os.path.join(self.out_dir, "manifest.json"), encoding="utf-8") as handle:
            manifest = json.load(handle)
        for name, digest in sorted(manifest["outputs"].items()):
            if _sha256(os.path.join(self.out_dir, name)) != digest:
                problems.append(f"checksum of {name} does not match the manifest")
        if manifest["seed"] != self.cfg.run["seed"]:
            problems.append(f"manifest seed {manifest['seed']} != {self.cfg.run['seed']}")
        with open(os.path.join(self.out_dir, "records.ndjson"), encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        kinds = {}
        for rec in records:
            kinds[rec["kind"]] = kinds.get(rec["kind"], 0) + 1
        expected = self.expected_kinds()
        if kinds != expected:
            problems.append(f"record kinds {kinds}, expected {expected}")
            return problems, {}
        more, numbers = self.key_numbers(records)
        return problems + more, numbers

    def expected_kinds(self) -> dict:
        raise NotImplementedError

    def key_numbers(self, records):
        raise NotImplementedError


class SimDefault(CliWorkload):
    """``simulate`` on the default preset: the array-bound batched step kernel."""

    command = "simulate"
    n_paths = 4096

    def base_config(self, root):
        return {
            "experiment": {"name": "simulate", "n_paths": self.n_paths, "epsilon": 0.1},
            "model": {"preset": "default"},
            "timegrid": {"horizon": 0.25, "n_steps": 64},
            "run": {"workers": 1},
        }

    @property
    def requested_work(self):
        return self.n_paths * self.cfg.timegrid["n_steps"]

    def expected_kinds(self):
        return {"path": self.n_paths}

    def key_numbers(self, records):
        problems = []
        if [r["stream_id"] for r in records] != list(range(self.n_paths)):
            problems.append("path records are not streams 0..n_paths-1 in order")
        blown = sum(1 for r in records if r["blow_up"])
        if blown:
            problems.append(f"{blown} paths blew up")
            return problems, {}
        n = len(records)
        return problems, {
            "mean_terminal_l2": sum(r["terminal_l2"] for r in records) / n,
            "mean_energy": sum(r["energy"] for r in records) / n,
        }


class McLdpScalar(CliWorkload):
    """``mc-ldp`` exactly as shipped: tiny arrays, Python campaign loops."""

    command = "mc-ldp"
    shipped = "mc-ldp.json"

    @property
    def requested_work(self):
        exp = self.cfg.experiment
        n_data = 2 if exp["data"] == "auto" else len(exp["data"])
        return (exp["n_paths"] * self.cfg.timegrid["n_steps"]
                * len(exp["eps_list"]) * n_data)

    def expected_kinds(self):
        exp = self.cfg.experiment
        n_data = 2 if exp["data"] == "auto" else len(exp["data"])
        n_eps = len(exp["eps_list"])
        n_ctrl = len(exp["control_amplitudes"])
        return {
            "rate": n_data * n_ctrl,
            "cell": n_eps * n_data * (n_ctrl + len(exp["s_levels"])),
            "verdict": 1,
            "uniformity": n_eps,
            "uniformity-verdict": 1,
        }

    def key_numbers(self, records):
        problems = [
            f"rate solve datum {r['datum']} control {r['control']} did not converge"
            for r in records if r["kind"] == "rate" and not r["converged"]
        ]
        verdict = next(r for r in records if r["kind"] == "verdict")
        uni = next(r for r in records if r["kind"] == "uniformity-verdict")
        numbers = {
            "verdict": verdict["verdict"],
            "uniformity_passed": uni["passed"],
        }
        for r in records:
            if r["kind"] == "cell":
                key = f"p_hat[{r['probe']},eps={r['eps']},datum={r['datum']},{r['target']}]"
                numbers[key] = r["p_hat"]
        return problems, numbers


class ValidateBoundary(CliWorkload):
    """``validate-model`` exactly as shipped: the structural validators."""

    command = "validate-model"
    shipped = "validate-model.json"

    @property
    def requested_work(self):
        return self.cfg.experiment["n_samples"]

    def expected_kinds(self):
        # 3 drift and 9 noise conditions, one constants record per suite
        return {"condition": 12, "constants": 2, "verdict": 1}

    def key_numbers(self, records):
        problems = []
        numbers = {}
        for r in records:
            if r["kind"] == "condition":
                if not r["passed"]:
                    problems.append(f"condition {r['suite']}/{r['name']} failed")
                numbers[f"passed[{r['suite']},{r['name']}]"] = r["passed"]
                numbers[f"margin[{r['suite']},{r['name']}]"] = r["margin"]
            elif r["kind"] == "verdict" and not r["passed"]:
                problems.append("validation verdict is not passed")
        return problems, numbers


class RateEndpoint:
    """``minimize_rate`` toward reachable endpoints: the forward/adjoint sweep.

    The targets are the endpoints G0(u0, v)(T) of the amplitude-4 Gaussian
    controls ``4 * default_rng(j).standard_normal((64, 4))`` for the fixed
    panel j = 0..3. The panel does not depend on the seed: across draws a
    solve takes 9 to 120 L-BFGS iterations (0.3 to 5.5 s), so seed-drawn
    targets would make ``wall_s`` measure the draw, not the code. The seed
    sets the order in which the panel is solved. Of draws 0..63, draws 15, 29
    and 63 end not converged although their targets are reachable; that
    solver defect is outside what this workload times.
    """

    panel = (0, 1, 2, 3)
    amplitude = 4.0
    tau = 1e-3

    def setup(self, root, seed, work_dir):
        import numpy as np
        from fracldp import rate, zoo
        from fracldp.grids import Field
        from fracldp.rate import RateQuery, g0_map
        from fracldp.skeleton import Control, StepKernel, TimeGrid

        self.model = zoo.default_model()
        u0 = zoo.default_initial_datum(self.model.grid)
        tg = TimeGrid(0.25, 64)
        self.timegrid = tg
        StepKernel.build(self.model, tg)  # so that setup_s covers it; each solve builds its own
        order = np.random.default_rng(seed).permutation(len(self.panel))
        self.draws = [self.panel[i] for i in order]
        self.queries = []
        for j in self.draws:
            rng = np.random.default_rng(j)
            v = Control(tg, self.amplitude * rng.standard_normal((tg.n_steps, self.model.noise.n_modes)))
            end = Field(self.model.grid, g0_map(self.model, u0, v, tg)[-1])
            self.queries.append(RateQuery(u0=u0, target_endpoint=end, tau_end=self.tau))
        self.rate = rate

    @property
    def requested_work(self):
        return len(self.panel)

    def run(self):
        return [self.rate.minimize_rate(self.model, q, self.timegrid) for q in self.queries]

    def check(self, results):
        problems = []
        numbers = {}
        for j, res in zip(self.draws, results):
            if not res.converged:
                problems.append(f"draw {j}: not converged (residual {res.residual:.3e})")
            elif not res.residual <= self.tau:
                problems.append(f"draw {j}: residual {res.residual:.3e} > tau {self.tau}")
            numbers[f"value[draw={j}]"] = res.value
        return problems, numbers


WORKLOADS = {
    "sim-default": SimDefault,
    "mc-ldp-scalar": McLdpScalar,
    "rate-endpoint": RateEndpoint,
    "validate-boundary": ValidateBoundary,
}


def compare_reference(name: str, numbers: dict, reference: dict) -> list:
    """Problems found comparing key numbers against the stored reference."""
    tols = TOLERANCES[name]
    problems = []
    if set(numbers) != set(reference):
        return [f"key numbers {sorted(numbers)} differ from reference keys {sorted(reference)}"]
    for key, ref in reference.items():
        got = numbers[key]
        if isinstance(ref, (bool, str)) or ref is None:
            if got != ref:
                problems.append(f"{key}: {got!r}, reference {ref!r}")
            continue
        family = key.split("[", 1)[0]
        rel, abs_ = tols[family]
        if not _close(got, ref, rel, abs_):
            problems.append(f"{key}: {got!r}, reference {ref!r} (rel {rel}, abs {abs_})")
    return problems
