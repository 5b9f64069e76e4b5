"""Command-line experiment orchestration.

One subcommand per experiment, all driven by a JSON config file; the
subcommand must match the config's ``experiment.name`` (fail-closed, no
guessing). Outputs land in the run directory as ``records.ndjson`` (or
``.csv``), next to an echoed ``config.json`` and a ``manifest.json`` holding
the config hash and per-output checksums.

Exit codes: 0 success; 2 configuration or validation failure; 3 blow-up
dominated (guard breached on most paths); 4 optimizer non-convergence.

Simulation batches are split into fixed-size chunks whose worker pool only
changes wall-clock, never content: path streams are counter-based with
absolute ids and the chunk shape is constant, so the records are identical
for any ``--workers`` value. The other subcommands run in one process; when
they are given more than one worker, the manifest lists ``run.workers`` under
``ignored_flags``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    build_data,
    build_datum,
    build_model_from_config,
    build_timegrid,
    parse_config,
    serialize_config,
)
from .grids import DomainError, GridMismatchError
from .ldp import (
    DependencyError,
    LdpExperimentPlan,
    fw_bounds_experiment,
    uniform_convergence_experiment,
    uniformity_sweep,
)
from .models import ConditionError, SamplingPlan, validate_drift, validate_noise
from .persist import (
    RunManifest,
    config_hash,
    sha256_file,
    write_csv,
    write_manifest,
    write_ndjson,
)
from .rate import (
    OptimizerSettings,
    RateQuery,
    action,
    g0_map,
    minimize_rate,
    sample_level_set,
)
from .skeleton import (
    BlowUpError,
    Control,
    apriori_bound_report,
    solve_skeleton,
    tail_mass_scan,
)
from .stochastic import (
    EstimationError,
    SdeConfig,
    batch_paths,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NONCONVERGED = 4

# paths per simulate chunk. A path's record is bit-identical in any batch of
# at least two paths, so the records depend neither on the worker count nor on
# this constant; 512 amortizes the per-step overhead at a bounded peak memory.
_SIM_CHUNK = 512


def _constant_control(tg, n_modes: int, amplitude: float) -> Control:
    return Control(tg, np.full((tg.n_steps, n_modes), float(amplitude)))


def _simulate_chunk(cfg_text: str, start: int, count: int) -> list:
    """Worker task: rebuild everything from the config echo and run one chunk."""
    cfg = parse_config(cfg_text)
    model = build_model_from_config(cfg)
    preset = cfg.model["preset"]
    exp = cfg.experiment
    tg = build_timegrid(cfg)
    u0 = build_datum(exp["datum"], model, preset)
    sde = SdeConfig(epsilon=exp["epsilon"], timegrid=tg, linf_guard=exp["linf_guard"])
    sums = batch_paths(model, u0, sde, count, cfg.run["seed"], stream_offset=start)
    return [s.as_record() for s in sums]


def _run_simulate(cfg: RunConfig):
    exp = cfg.experiment
    n = exp["n_paths"]
    cfg_text = serialize_config(cfg)
    starts = list(range(0, n, _SIM_CHUNK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # a one-path batch rounds differently: fold it into the last chunk
    chunks = [(start, end - start) for start, end in zip(starts, starts[1:] + [n])]
    workers = cfg.run["workers"]
    if workers > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                _simulate_chunk,
                [cfg_text] * len(chunks),
                [c[0] for c in chunks],
                [c[1] for c in chunks],
            ))
    else:
        parts = [_simulate_chunk(cfg_text, start, count) for start, count in chunks]
    records = [{"kind": "path", **rec} for part in parts for rec in part]
    blow = sum(1 for rec in records if rec["blow_up"])
    code = EXIT_BLOWUP if 2 * blow > n else EXIT_OK
    return records, blow, code


def _run_skeleton(cfg: RunConfig):
    model = build_model_from_config(cfg)
    preset = cfg.model["preset"]
    exp = cfg.experiment
    tg = build_timegrid(cfg)
    u0 = build_datum(exp["datum"], model, preset)
    control = _constant_control(tg, model.noise.n_modes, exp["control_amplitude"])
    sol = solve_skeleton(model, u0, control)
    records = [
        {"kind": "state", "step": i, "t": t, "l2": l2, "h_alpha_semi": semi, "lp": lp}
        for i, (t, l2, semi, lp) in enumerate(sol.diagnostics_rows())
    ]
    c_h, l2_v, lp_lp = sol.path_norm_components()
    records.append({
        "kind": "path-norm", "sup_l2": c_h, "l2_h_alpha": l2_v, "lp_lp": lp_lp,
    })
    records.append({"kind": "bound", **asdict(apriori_bound_report(model, sol, u0, control))})
    return records, 0, EXIT_OK


def _run_rate_min(cfg: RunConfig):
    model = build_model_from_config(cfg)
    preset = cfg.model["preset"]
    exp = cfg.experiment
    tg = build_timegrid(cfg)
    u0 = build_datum(exp["datum"], model, preset)
    settings = OptimizerSettings(
        max_iters=exp["max_iters"],
        max_continuations=exp["max_continuations"],
        residual_tol=exp["residual_tol"],
    )
    planted_action = None
    if exp["target"] == "endpoint":
        endpoint = build_datum(
            {"kind": "constant", "level": exp["endpoint_level"]}, model, preset
        )
        query = RateQuery(u0=u0, target_endpoint=endpoint, tau_end=exp["tau"],
                          settings=settings)
    else:
        if exp["target"] == "planted":
            control = _constant_control(tg, model.noise.n_modes, exp["control_amplitude"])
        else:
            control = Control.zero(tg, model.noise.n_modes)
        planted_action = action(control)
        query = RateQuery(u0=u0, target_path=g0_map(model, u0, control, tg),
                          settings=settings)
    result = minimize_rate(model, query, tg)
    record = {
        "kind": "rate",
        "target": exp["target"],
        "value": result.value,
        "residual": result.residual,
        "converged": bool(result.converged),
        "iterations": result.iterations,
        "penalty": result.penalty,
        "planted_action": planted_action,
    }
    code = EXIT_OK if result.converged else EXIT_NONCONVERGED
    return [record], 0, code


def _run_level_set(cfg: RunConfig):
    model = build_model_from_config(cfg)
    preset = cfg.model["preset"]
    exp = cfg.experiment
    tg = build_timegrid(cfg)
    u0 = build_datum(exp["datum"], model, preset)
    level = sample_level_set(
        model, u0, exp["level"], exp["n_samples"], tg, seed=cfg.run["seed"]
    )
    actions = [action(c) for c in level.controls]
    records = [
        {"kind": "member", "member": i, "action": a} for i, a in enumerate(actions)
    ]
    records.append({
        "kind": "summary", "level": exp["level"], "n_members": len(level),
        "max_action": max(actions),
    })
    return records, 0, EXIT_OK


def _run_mc_ldp(cfg: RunConfig):
    model = build_model_from_config(cfg)
    preset = cfg.model["preset"]
    exp = cfg.experiment
    tg = build_timegrid(cfg)
    seed = cfg.run["seed"]
    data = build_data(exp["data"], model, preset)
    controls = [
        _constant_control(tg, model.noise.n_modes, a)
        for a in exp["control_amplitudes"]
    ]
    records = []
    rates = []
    all_converged = True
    for d_idx, u0 in enumerate(data):
        row = []
        for c_idx, control in enumerate(controls):
            res = minimize_rate(
                model, RateQuery(u0=u0, target_path=g0_map(model, u0, control, tg)), tg
            )
            row.append(res)
            all_converged = all_converged and res.converged
            records.append({
                "kind": "rate", "datum": d_idx, "control": c_idx,
                "value": res.value, "residual": res.residual,
                "converged": bool(res.converged),
            })
        rates.append(row)
    if not all_converged:
        return records, 0, EXIT_NONCONVERGED

    plan = LdpExperimentPlan(
        model=model, initial_data=tuple(data), eps_list=tuple(exp["eps_list"]),
        delta=exp["delta"], timegrid=tg, s_levels=tuple(exp["s_levels"]),
        n_paths=exp["n_paths"], slack=exp["slack"],
    )
    report = fw_bounds_experiment(
        plan, controls, rates, base_seed=seed,
        n_level_samples=exp["n_level_samples"], level_seed=seed + 1,
    )
    records.extend({"kind": "cell", **rec} for rec in report.records)
    records.append({
        "kind": "verdict", "probe": report.probe, "verdict": report.verdict,
        "indeterminate_cells": report.indeterminate_cells,
        "lower_margins": report.lower_margins, "upper_margins": report.upper_margins,
        "slack": report.slack, "eps_list": report.eps_list, "notes": report.notes,
    })
    uni = uniformity_sweep(report)
    records.extend({"kind": "uniformity", **row} for row in uni.as_rows())
    records.append({
        "kind": "uniformity-verdict", "passed": bool(uni.passed),
        "warning": uni.warning,
    })
    return records, report.blow_up_count, EXIT_OK


def _run_validate_model(cfg: RunConfig):
    model = build_model_from_config(cfg)
    exp = cfg.experiment
    plan = SamplingPlan(
        n_samples=exp["n_samples"], u_max=exp["u_max"], n_fields=exp["n_fields"],
        seed=cfg.run["seed"],
    )
    drift_report = validate_drift(model.drift, plan, grid=model.grid)
    noise_report = validate_noise(model.noise, model.drift.p, plan)
    records = []
    for suite, report in (("drift", drift_report), ("noise", noise_report)):
        for check in report.checks:
            records.append({
                "kind": "condition", "suite": suite, "name": check.name,
                "margin": check.margin, "passed": bool(check.passed),
                "samples": check.samples,
            })
        records.append({
            "kind": "constants", "suite": suite, "constants": report.constants,
        })
    all_passed = drift_report.passed and noise_report.passed
    records.append({"kind": "verdict", "passed": bool(all_passed)})
    return records, 0, EXIT_OK if all_passed else EXIT_CONFIG


def _run_tail_scan(cfg: RunConfig):
    model = build_model_from_config(cfg)
    preset = cfg.model["preset"]
    exp = cfg.experiment
    tg = build_timegrid(cfg)
    u0 = build_datum(exp["datum"], model, preset)
    control = _constant_control(tg, model.noise.n_modes, exp["control_amplitude"])
    sol = solve_skeleton(model, u0, control)
    half = model.grid.half_length
    radii = exp["radii"]
    if radii == "auto":
        radii = [half / 8, half / 4, half / 2, 3 * half / 4]
    curve = tail_mass_scan(sol, radii)
    records = [{"kind": "tail", **row} for row in curve.as_rows()]
    return records, 0, EXIT_OK


def _run_cvs_sweep(cfg: RunConfig):
    model = build_model_from_config(cfg)
    preset = cfg.model["preset"]
    exp = cfg.experiment
    tg = build_timegrid(cfg)
    data = build_data(exp["data"], model, preset)
    controls = [
        _constant_control(tg, model.noise.n_modes, a)
        for a in exp["control_amplitudes"]
    ]
    table = uniform_convergence_experiment(
        model, data, controls, exp["eps_list"], exp["eta"], exp["n_paths"],
        base_seed=cfg.run["seed"],
    )
    records = [{"kind": "cell", **row} for row in table.as_rows()]
    records.append({
        "kind": "verdict", "passed": bool(table.passed), "eta": table.eta,
    })
    return records, table.blow_up_count, EXIT_OK


# each runner returns (records, paths that blew up, exit code)
EXPERIMENTS = {
    "simulate": _run_simulate,
    "skeleton": _run_skeleton,
    "rate-min": _run_rate_min,
    "level-set": _run_level_set,
    "mc-ldp": _run_mc_ldp,
    "validate-model": _run_validate_model,
    "tail-scan": _run_tail_scan,
    "cvs-sweep": _run_cvs_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracldp",
        description="Spectral SPDE experiments: simulation, rate minimization, "
                    "and large-deviation probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment from a config")
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.seed from the config")
        p.add_argument("--out", default=None,
                       help="override run.output_dir from the config")
        p.add_argument("--workers", type=int, default=None,
                       help="override run.workers from the config")
        p.add_argument("--format", choices=["ndjson", "csv"], default=None,
                       help="override run.format from the config")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    """Merge the flags into ``cfg.run`` and re-parse the echo, so that a flag
    is validated exactly like the config key it overrides."""
    flags = {"seed": args.seed, "output_dir": args.out, "workers": args.workers,
             "format": args.format}
    run = {**cfg.run, **{k: v for k, v in flags.items() if v is not None}}
    return parse_config(serialize_config(replace(cfg, run=run)))


def _numeric_knobs(experiment: dict) -> dict:
    out = {}
    for key, value in experiment.items():
        if isinstance(value, bool) or key == "name":
            continue
        if isinstance(value, (int, float)):
            out[key] = value
        elif isinstance(value, list) and value and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
        ):
            out[key] = value
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
        if cfg.experiment["name"] != args.command:
            raise ConfigError([{
                "key": "experiment.name",
                "expected": f"{args.command!r} (must match the subcommand)",
                "found": repr(cfg.experiment["name"]),
            }])
        cfg = _apply_overrides(cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    started = time.monotonic()
    try:
        records, blow_up_count, code = EXPERIMENTS[args.command](cfg)
    except (ConfigError, ConditionError, DependencyError, DomainError,
            GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BlowUpError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    wall = time.monotonic() - started

    out_dir = cfg.run["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    fmt = cfg.run["format"]
    data_name = f"records.{fmt}"
    data_path = os.path.join(out_dir, data_name)
    if fmt == "ndjson":
        write_ndjson(data_path, records)
    else:
        write_csv(data_path, records)
    serialized = serialize_config(cfg)
    echo_path = os.path.join(out_dir, "config.json")
    with open(echo_path, "w", encoding="utf-8") as handle:
        handle.write(serialized)
    manifest = RunManifest(
        config_hash=config_hash(serialized),
        artifact_version=__version__,
        experiment=args.command,
        seed=cfg.run["seed"],
        wall_clock_s=wall,
        outputs={
            data_name: sha256_file(data_path),
            "config.json": sha256_file(echo_path),
        },
        blow_up_count=blow_up_count,
        tolerances=_numeric_knobs(cfg.experiment),
        # only simulate runs a worker pool
        ignored_flags=(["run.workers"] if cfg.run["workers"] > 1 and args.command != "simulate" else []),
    )
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    status = {EXIT_OK: "ok", EXIT_CONFIG: "validation-failed",
              EXIT_BLOWUP: "blow-up-dominated", EXIT_NONCONVERGED: "not-converged"}
    print(f"{args.command}: {status[code]} ({len(records)} records -> {data_path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
