"""Spans and counters around fracldp's layer entry points, from outside the package.

``Tracer.install()`` rebinds each traced function in every fracldp module that
holds it -- ``step_once``, ``batch_paths``, ``sample_level_set`` and friends
are imported by name into several modules, and a binding left unwrapped would
let calls go uncounted. Spans (name, start, end, parent, attributes) are kept
in memory; ``layer_metrics()`` reduces one operation's spans to the per-layer
metrics and ``dump()`` writes them all out at the end.

Self time is a span's duration minus the durations of its direct children.
Byte volumes labelled *computed* are derived from array shapes, not measured.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

_VALIDATORS = ("models.validate_drift", "models.validate_noise")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, start_ns, end_ns, attrs]
        self.stack = []  # indices of open spans
        self.counters = {}
        self.validating = 0  # depth of open validator calls
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, attrs=None):
        """A traced stand-in for ``fn``; ``attrs(args, kwargs, result)`` adds attributes."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter_ns(), 0, {}]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _rebind_everywhere(self, original, replacement):
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "fracldp" or mod_name.startswith("fracldp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no fracldp module binds {original.__qualname__}")

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from fracldp import cli, config, ldp, models, persist, rate, skeleton, stochastic

        def step_attrs(args, kwargs, result):
            kernel, u = args[0], args[2]
            return {"fields": u.size // kernel.propagator.size}

        def batch_attrs(args, kwargs, result):
            model, u0, cfg, n_paths, base_seed = args[:5]
            refs = kwargs.get("references", args[7] if len(args) > 7 else ())
            offset = kwargs.get("stream_offset", args[5] if len(args) > 5 else 0)
            shift = kwargs.get("shift", args[6] if len(args) > 6 else None)
            key = (
                id(model), _digest(u0.values), cfg.epsilon, cfg.timegrid,
                cfg.linf_guard, base_seed,
                None if shift is None else _digest(shift.values),
            )
            return {
                "n_paths": n_paths,
                "path_steps": n_paths * cfg.timegrid.n_steps,
                "ref_path_steps": n_paths * cfg.timegrid.n_steps * len(refs),
                "blown": sum(1 for s in result if s.blow_step is not None),
                "identity": (key, offset, n_paths),
            }

        def rate_attrs(args, kwargs, result):
            return {"iters": result.iterations, "converged": bool(result.converged)}

        def write_attrs(args, kwargs, result):
            return {"bytes": os.path.getsize(args[0])}

        wrapped = [
            (skeleton.step_once, "skeleton.step_once", step_attrs),
            (stochastic.batch_paths, "stochastic.batch_paths", batch_attrs),
            (ldp.fw_bounds_experiment, "ldp.fw_bounds_experiment", None),
            (ldp.uniformity_sweep, "ldp.uniformity_sweep", None),
            (rate.minimize_rate, "rate.minimize_rate", rate_attrs),
            (rate._objective_and_grad, "rate.objective_and_grad", None),
            (rate._forward_states, "rate.forward", None),
            (rate._adjoint_grad, "rate.adjoint", None),
            (rate.sample_level_set, "rate.sample_level_set", None),
            (models.validate_drift, "models.validate_drift", None),
            (models.validate_noise, "models.validate_noise", None),
            (config.parse_config, "config.parse_config", None),
            (persist.write_ndjson, "persist.write_records", write_attrs),
            (persist.write_csv, "persist.write_records", write_attrs),
            (persist.write_manifest, "persist.write_manifest", write_attrs),
            (cli.main, "cli.main", None),
        ]
        tracer = self

        def validating(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                tracer.validating += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.validating -= 1
            return inner

        for fn, name, attrs in wrapped:
            inner = validating(fn) if name in _VALIDATORS else fn
            self._rebind_everywhere(fn, self.wrap(name, inner, attrs))

        self._patch_attr(
            stochastic.WienerDriver, "increments",
            self.wrap("stochastic.noise_gen", stochastic.WienerDriver.increments),
        )

        drift_value = models.DriftSpec.value

        @functools.wraps(drift_value)
        def counted_value(spec, t, coords, u):
            if tracer.validating:
                tracer._count("models.drift_evals")
                tracer._count("models.drift_eval_points", np.size(u))
            return drift_value(spec, t, coords, u)

        self._patch_attr(models.DriftSpec, "value", counted_value)

        for fft_name in ("fftn", "ifftn", "rfftn", "irfftn"):
            original = getattr(np.fft, fft_name)

            def counted_fft(a, *args, _fft=original, **kwargs):
                out = _fft(a, *args, **kwargs)
                tracer._count("numpy.fft.calls")
                if tracer.stack and tracer.spans[tracer.stack[-1]][0] == "skeleton.step_once":
                    tracer._count("skeleton.step_once.fft_bytes_computed",
                                  np.asarray(a).nbytes + out.nbytes)
                return out

            self._patch_attr(np.fft, fft_name, counted_fft)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def mark(self):
        """Position to pass to ``layer_metrics`` for the spans recorded after it."""
        if self.stack:
            raise RuntimeError("mark() inside an open span")
        return len(self.spans), dict(self.counters)

    def layer_metrics(self, mark) -> dict:
        """Per-layer metrics of the spans and counters recorded since ``mark``."""
        first, counters_before = mark
        spans = self.spans[first:]
        counters = {k: v - counters_before.get(k, 0) for k, v in self.counters.items()}
        dur = [(s[3] - s[2]) * 1e-9 for s in spans]
        child_s = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[1] >= first:
                child_s[s[1] - first] += dur[i]
        total = {}
        self_s = {}
        calls = {}
        for i, s in enumerate(spans):
            total[s[0]] = total.get(s[0], 0.0) + dur[i]
            self_s[s[0]] = self_s.get(s[0], 0.0) + dur[i] - child_s[i]
            calls[s[0]] = calls.get(s[0], 0) + 1

        def ancestors(i):
            p = spans[i][1]
            while p >= first:
                yield spans[p - first][0]
                p = spans[p - first][1]

        steps = [s for s in spans if s[0] == "skeleton.step_once"]
        fields = sum(s[4].get("fields", 0) for s in steps)
        batches = [(i, s) for i, s in enumerate(spans) if s[0] == "stochastic.batch_paths"]
        paths_under = {"ldp.fw_bounds_experiment": 0, "ldp.uniformity_sweep": 0}
        distinct = set()
        for i, s in batches:
            if not s[4]:
                continue  # raised before returning
            for name in set(ancestors(i)) & set(paths_under):
                paths_under[name] += s[4]["n_paths"]
            key, offset, n = s[4]["identity"]
            distinct.update((key, offset + b) for b in range(n))
        simulated = sum(s[4].get("n_paths", 0) for _, s in batches)
        solves = [s for s in spans if s[0] == "rate.minimize_rate"]
        writes = [s for s in spans if s[0].startswith("persist.write")]

        def g(d, k):
            return d.get(k, 0)

        return {
            "config.parse_s": g(total, "config.parse_config"),
            "skeleton.step_once.calls": g(calls, "skeleton.step_once"),
            "skeleton.step_once.self_s": g(self_s, "skeleton.step_once"),
            "skeleton.step_once.us_per_path_step":
                1e6 * g(self_s, "skeleton.step_once") / fields if fields else 0.0,
            "skeleton.step_once.fft_bytes_computed":
                g(counters, "skeleton.step_once.fft_bytes_computed"),
            "numpy.fft.calls": g(counters, "numpy.fft.calls"),
            "stochastic.batch_paths.calls": len(batches),
            "stochastic.batch_paths.path_steps": sum(s[4].get("path_steps", 0) for _, s in batches),
            "stochastic.batch_paths.ref_path_steps":
                sum(s[4].get("ref_path_steps", 0) for _, s in batches),
            "stochastic.batch_paths.self_s": g(self_s, "stochastic.batch_paths"),
            "stochastic.batch_paths.blown_paths": sum(s[4].get("blown", 0) for _, s in batches),
            "stochastic.noise_gen_s": g(total, "stochastic.noise_gen"),
            "ldp.fw_bounds_experiment.s": g(total, "ldp.fw_bounds_experiment"),
            "ldp.fw_bounds_experiment.self_s": g(self_s, "ldp.fw_bounds_experiment"),
            "ldp.fw_bounds_experiment.paths_simulated": paths_under["ldp.fw_bounds_experiment"],
            "ldp.uniformity_sweep.s": g(total, "ldp.uniformity_sweep"),
            "ldp.uniformity_sweep.paths_simulated": paths_under["ldp.uniformity_sweep"],
            "ldp.useful_path_ratio": len(distinct) / simulated if simulated else 1.0,
            "rate.minimize_rate.calls": len(solves),
            "rate.minimize_rate.s": g(total, "rate.minimize_rate"),
            "rate.minimize_rate.lbfgs_iters": sum(s[4].get("iters", 0) for s in solves),
            "rate.minimize_rate.not_converged": sum(1 for s in solves if not s[4].get("converged", False)),
            "rate.objective_and_grad.calls": g(calls, "rate.objective_and_grad"),
            "rate.objective_and_grad.s": g(total, "rate.objective_and_grad"),
            "rate.forward_s": g(total, "rate.forward"),
            "rate.adjoint_s": g(total, "rate.adjoint"),
            "rate.sample_level_set.calls": g(calls, "rate.sample_level_set"),
            "rate.sample_level_set.s": g(total, "rate.sample_level_set"),
            "models.validate_drift.s": g(total, "models.validate_drift"),
            "models.validate_noise.s": g(total, "models.validate_noise"),
            "models.drift_evals": g(counters, "models.drift_evals"),
            "models.drift_eval_points": g(counters, "models.drift_eval_points"),
            "persist.write_s": sum((s[3] - s[2]) * 1e-9 for s in writes),
            "persist.bytes_written": sum(s[4].get("bytes", 0) for s in writes),
            "persist.records_bytes":
                sum(s[4].get("bytes", 0) for s in writes if s[0] == "persist.write_records"),
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, parent index, start/end ns."""
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                attrs = {k: v for k, v in s[4].items() if k != "identity"}
                handle.write(json.dumps([s[0], s[1], s[2], s[3], attrs]) + "\n")


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


# counts that must repeat exactly between two operations on one seed
EXACT_COUNTS = (
    "skeleton.step_once.calls",
    "skeleton.step_once.fft_bytes_computed",
    "numpy.fft.calls",
    "stochastic.batch_paths.calls",
    "stochastic.batch_paths.path_steps",
    "stochastic.batch_paths.ref_path_steps",
    "stochastic.batch_paths.blown_paths",
    "ldp.fw_bounds_experiment.paths_simulated",
    "ldp.uniformity_sweep.paths_simulated",
    "rate.minimize_rate.calls",
    "rate.minimize_rate.lbfgs_iters",
    "rate.minimize_rate.not_converged",
    "rate.objective_and_grad.calls",
    "rate.sample_level_set.calls",
    "models.drift_evals",
    "models.drift_eval_points",
    "persist.records_bytes",
)
