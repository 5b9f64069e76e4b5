"""End-to-end command-line runs: exit codes, outputs, manifests, determinism."""

import ast
import builtins
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracldp
from fracldp import cli
from fracldp.cli import main
from fracldp.config import EXPERIMENT_NAMES, parse_config, serialize_config
from fracldp.persist import RunManifest, read_manifest, read_ndjson, sha256_file

SCALAR = {"preset": "scalar-linear"}

# per-subcommand settings small enough to keep each run under a second or two
HAPPY = {
    "simulate": (SCALAR, {"n_paths": 40}),
    "skeleton": ({"preset": "default"}, {"control_amplitude": 0.3}),
    "rate-min": (SCALAR, {"target": "planted", "control_amplitude": 0.4}),
    "level-set": (SCALAR, {"level": 0.5, "n_samples": 4}),
    "mc-ldp": (SCALAR, {"eps_list": [0.5, 0.2], "n_paths": 100,
                        "control_amplitudes": [0.9], "s_levels": [0.2],
                        "n_level_samples": 4}),
    "validate-model": ({"preset": "pure-power"},
                       {"n_samples": 1000, "n_fields": 6}),
    "tail-scan": ({"preset": "default"}, {}),
    "cvs-sweep": (SCALAR, {"eps_list": [1.0, 0.3], "n_paths": 60,
                           "control_amplitudes": [0.3]}),
}


def write_config(tmp_path, name, model=None, experiment=None, fname="cfg.json",
                 **sections):
    doc = {"experiment": {"name": name, **(experiment or {})}}
    if model is not None:
        doc["model"] = model
    doc.update(sections)
    path = tmp_path / fname
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_cli(name, config, out, *extra):
    return main([name, "--config", str(config), "--out", str(out),
                 *map(str, extra)])


@pytest.mark.parametrize("name", sorted(HAPPY))
def test_happy_path_writes_records_and_manifest(tmp_path, name):
    model, experiment = HAPPY[name]
    cfg_path = write_config(tmp_path, name, model, experiment)
    out = tmp_path / "out"
    assert run_cli(name, cfg_path, out) == 0

    records = read_ndjson(out / "records.ndjson")
    assert records, "runs must produce at least one record"
    man = read_manifest(out / "manifest.json")
    assert set(man) == {f.name for f in dataclasses.fields(RunManifest)}
    assert man["experiment"] == name
    assert man["seed"] == 0
    for fname, digest in man["outputs"].items():
        assert sha256_file(out / fname) == digest
    # the echoed config is itself a valid config that round-trips
    echoed = (out / "config.json").read_text(encoding="utf-8")
    assert serialize_config(parse_config(echoed)) == echoed
    assert parse_config(echoed).run["output_dir"] == str(out)


def test_simulate_record_shape(tmp_path):
    cfg = write_config(tmp_path, "simulate", SCALAR, {"n_paths": 40})
    out = tmp_path / "out"
    run_cli("simulate", cfg, out)
    records = read_ndjson(out / "records.ndjson")
    assert len(records) == 40
    assert all(r["kind"] == "path" for r in records)
    assert [r["stream_id"] for r in records] == list(range(40))


def test_skeleton_records_include_bound_certificate(tmp_path):
    model, experiment = HAPPY["skeleton"]
    cfg = write_config(tmp_path, "skeleton", model, experiment)
    out = tmp_path / "out"
    run_cli("skeleton", cfg, out)
    kinds = {r["kind"] for r in read_ndjson(out / "records.ndjson")}
    assert {"state", "path-norm", "bound"} <= kinds
    bound = next(r for r in read_ndjson(out / "records.ndjson")
                 if r["kind"] == "bound")
    assert bound["passed"] is True
    assert bound["observed"] <= bound["bound"]


def test_rate_min_reports_convergence(tmp_path):
    model, experiment = HAPPY["rate-min"]
    cfg = write_config(tmp_path, "rate-min", model, experiment)
    out = tmp_path / "out"
    assert run_cli("rate-min", cfg, out) == 0
    rate = next(r for r in read_ndjson(out / "records.ndjson")
                if r["kind"] == "rate")
    assert rate["converged"] is True
    assert rate["value"] >= 0.0


def test_mc_ldp_emits_cells_and_verdicts(tmp_path):
    model, experiment = HAPPY["mc-ldp"]
    cfg = write_config(tmp_path, "mc-ldp", model, experiment)
    out = tmp_path / "out"
    assert run_cli("mc-ldp", cfg, out) == 0
    records = read_ndjson(out / "records.ndjson")
    kinds = {r["kind"] for r in records}
    assert {"rate", "cell", "verdict", "uniformity",
            "uniformity-verdict"} <= kinds
    verdict = next(r for r in records if r["kind"] == "verdict")
    assert verdict["verdict"] in {"pass", "fail", "indeterminate"}
    assert verdict["slack"] == 0.5
    assert verdict["eps_list"] == [0.5, 0.2]


def test_every_config_experiment_has_a_subcommand():
    assert set(cli.EXPERIMENTS) == set(EXPERIMENT_NAMES)


def test_validate_model_passes_for_admissible_preset(tmp_path):
    model, experiment = HAPPY["validate-model"]
    cfg = write_config(tmp_path, "validate-model", model, experiment)
    out = tmp_path / "out"
    assert run_cli("validate-model", cfg, out) == 0
    records = read_ndjson(out / "records.ndjson")
    verdict = next(r for r in records if r["kind"] == "verdict")
    assert verdict["passed"] is True
    assert all(r["passed"] for r in records if r["kind"] == "condition")
    drift = next(r for r in records if r["kind"] == "constants" and r["suite"] == "drift")
    assert {"lambda1", "lambda2"} <= set(drift["constants"])


def test_tail_scan_mass_decreases_with_radius(tmp_path):
    cfg = write_config(tmp_path, "tail-scan", {"preset": "default"})
    out = tmp_path / "out"
    run_cli("tail-scan", cfg, out)
    rows = [r for r in read_ndjson(out / "records.ndjson") if r["kind"] == "tail"]
    radii = [r["radius"] for r in rows]
    masses = [r["combined"] for r in rows]
    assert radii == sorted(radii)
    assert all(a >= b for a, b in zip(masses, masses[1:]))


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "simulate", SCALAR, {"n_paths": 40})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("simulate", cfg, out1)
    run_cli("simulate", cfg, out2)
    assert (out1 / "records.ndjson").read_bytes() == \
        (out2 / "records.ndjson").read_bytes()
    m1, m2 = read_manifest(out1 / "manifest.json"), read_manifest(out2 / "manifest.json")
    # the config echo pins each run's own output_dir, so only the data
    # checksum is directory-independent
    assert m1["outputs"]["records.ndjson"] == m2["outputs"]["records.ndjson"]
    assert m1["seed"] == m2["seed"]
    assert m1["tolerances"] == m2["tolerances"]


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# sha256 of records.ndjson for each shipped config
SHIPPED_RECORDS = {
    "mc-ldp.json": "b396c6bdc8e5c145756b03681d0ef0bb4c133245daeb8c83bef00f8eb3e04748",
    "rate-min.json": "9b252be053c9bc3b406e7376c8e2aaa02c5d77d3188e119b8bcf9f3ff80216cf",
    "simulate.json": "4db0d9417a0110a13cef78abaa3cf6878345d899b1e36cb3833894bb24bf3001",
    "validate-model.json": "108fa4a663ca7ff63e2979b79cfbfff01ff2919684a53120f3131545c0a8afba",
}


def test_shipped_config_records_are_pinned(tmp_path):
    """Records are byte-reproducible for a fixed config and seed, so a change
    that moves the bytes of a shipped config's run is a stated change."""
    assert sorted(os.listdir(CONFIGS)) == sorted(SHIPPED_RECORDS)
    for fname, digest in SHIPPED_RECORDS.items():
        config = os.path.join(CONFIGS, fname)
        with open(config, encoding="utf-8") as fh:
            name = json.load(fh)["experiment"]["name"]
        out = tmp_path / fname
        assert run_cli(name, config, out) == 0, fname
        assert sha256_file(out / "records.ndjson") == digest, (
            f"records of configs/{fname} moved; a re-pin must be stated in CHANGES.md "
            "with the records that changed and why"
        )


# Runs in a fresh interpreter: prints, after the import and after each
# subcommand, which heavy modules are loaded.
_IMPORT_PROBE = """
import json, sys
from fracldp.cli import main

def heavy():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process")

seen = {"import": heavy()}
for name, config, out in json.loads(sys.argv[1]):
    code = main([name, "--config", config, "--out", out])
    seen[name] = (code, heavy())
print(json.dumps(seen))
"""

LEAN = ("simulate", "skeleton", "level-set", "mc-ldp", "validate-model", "tail-scan", "cvs-sweep")


def test_no_subcommand_loads_scipy(tmp_path):
    """Importing the CLI and running any subcommand loads neither scipy nor the
    process pool (the rate solves of mc-ldp start from an exact least-squares
    control). That includes a rate solve that iterates: the rate solver's
    L-BFGS is the lab's own."""
    # an endpoint the zero control misses: the solve must run L-BFGS
    settings = {**HAPPY, "rate-min": (SCALAR, {"target": "endpoint", "endpoint_level": 0.2})}
    runs = []
    for name in (*LEAN, "rate-min"):
        model, experiment = settings[name]
        cfg = write_config(tmp_path, name, model, experiment, fname=f"{name}.json")
        runs.append([name, str(cfg), str(tmp_path / name)])
    src = os.path.dirname(os.path.dirname(fracldp.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(runs)],
        capture_output=True, text=True, env=env, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    for name in LEAN:
        assert seen[name] == [0, []], name
    assert seen["rate-min"] == [0, []]


def test_no_module_imports_scipy():
    """A static scan with ``ast``: no module of ``src/fracldp`` imports scipy,
    at module level or inside a function, so the lab's runtime needs numpy
    alone."""
    offenders = []
    for path in sorted(pathlib.Path(fracldp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "scipy"]
    assert offenders == []


def test_every_exception_class_maps_to_an_exit_code():
    """A static scan with ``ast``: every exception class that ``src/fracldp``
    defines is, or subclasses, a class that an ``except`` clause of
    ``cli.main`` maps to an exit code, so no library error leaves the CLI as
    a traceback. Bases match by their bare names, as in
    ``tests/test_reachability.py``."""
    src = pathlib.Path(fracldp.__file__).parent
    bases = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
    cli_tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    main_def = next(n for n in cli_tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
    mapped = {n.id for h in ast.walk(main_def) if isinstance(h, ast.ExceptHandler)
              for n in ast.walk(h.type) if isinstance(n, ast.Name)}
    assert {"ConfigError", "DomainError", "BlowUpError"} <= mapped

    def ancestors(name):
        return {name}.union(*(ancestors(b) for b in bases.get(name, [])))

    def builtin_exception(name):
        obj = getattr(builtins, name, None)
        return isinstance(obj, type) and issubclass(obj, BaseException)

    errors = [n for n in bases if any(builtin_exception(a) for a in ancestors(n))]
    assert "BlowUpError" in errors
    assert [n for n in errors if not ancestors(n) & mapped] == []


def test_overflowing_endpoint_target_exits_4(tmp_path):
    """An endpoint level of 1e160 overflows the squared "terminal" distance:
    an infinite residual, never a met tolerance, and the non-finite objective
    takes the blow-up retreat, so the run ends unconverged with its record
    written."""
    cfg = write_config(tmp_path, "rate-min", {"preset": "default"},
                       {"target": "endpoint", "endpoint_level": 1e160})
    out = tmp_path / "out"
    with np.errstate(invalid="ignore", over="ignore"):
        assert run_cli("rate-min", cfg, out) == 4
    rate = next(r for r in read_ndjson(out / "records.ndjson")
                if r["kind"] == "rate")
    assert rate["converged"] is False
    assert rate["value"] == "inf"


def test_overflowing_endpoint_target_emits_no_warning(tmp_path):
    """The overflow of that run's squared distance is legal and silent: only
    the terminal slice is squared, so no ignored slice multiplies inf, and
    the residual reads inf."""
    cfg = write_config(tmp_path, "rate-min", {"preset": "default"},
                       {"target": "endpoint", "endpoint_level": 1e160})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("rate-min", cfg, out) == 4
    rate = next(r for r in read_ndjson(out / "records.ndjson")
                if r["kind"] == "rate")
    assert rate["residual"] == "inf"

def test_worker_count_does_not_change_bytes(tmp_path):
    # two chunks: enough to exercise the pool split
    cfg = write_config(tmp_path, "simulate", SCALAR, {"n_paths": 600})
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    run_cli("simulate", cfg, serial)
    run_cli("simulate", cfg, pooled, "--workers", 2)
    assert (serial / "records.ndjson").read_bytes() == \
        (pooled / "records.ndjson").read_bytes()
    assert read_manifest(pooled / "manifest.json")["ignored_flags"] == []


@pytest.mark.parametrize("n_paths", [65, 1025])
def test_simulate_chunk_size_does_not_change_bytes(tmp_path, monkeypatch, n_paths):
    """Records do not depend on the chunk constant: every chunk holds at least
    two paths (a one-path tail joins the chunk before it), and a path's summary
    is bit-identical in any batch of two or more."""
    cfg = write_config(tmp_path, "simulate", {"preset": "default"}, {"n_paths": n_paths},
                       timegrid={"horizon": 0.25, "n_steps": 64})
    outputs = []
    for chunk in (64, 512):
        monkeypatch.setattr(cli, "_SIM_CHUNK", chunk)
        out = tmp_path / f"chunk{chunk}"
        assert run_cli("simulate", cfg, out) == 0
        outputs.append((out / "records.ndjson").read_bytes())
    assert outputs[0] == outputs[1]


def test_ignored_workers_flag_is_listed_in_the_manifest(tmp_path):
    model, experiment = HAPPY["mc-ldp"]
    cfg = write_config(tmp_path, "mc-ldp", model, experiment)
    single, pooled = tmp_path / "single", tmp_path / "pooled"
    assert run_cli("mc-ldp", cfg, single) == 0
    assert run_cli("mc-ldp", cfg, pooled, "--workers", 2) == 0
    assert read_manifest(single / "manifest.json")["ignored_flags"] == []
    assert read_manifest(pooled / "manifest.json")["ignored_flags"] == ["run.workers"]
    assert (single / "records.ndjson").read_bytes() == \
        (pooled / "records.ndjson").read_bytes()


def test_seed_override_changes_draws_and_manifest(tmp_path):
    cfg = write_config(tmp_path, "simulate", SCALAR, {"n_paths": 40})
    base, seeded = tmp_path / "base", tmp_path / "seeded"
    run_cli("simulate", cfg, base)
    run_cli("simulate", cfg, seeded, "--seed", 5)
    assert (base / "records.ndjson").read_bytes() != \
        (seeded / "records.ndjson").read_bytes()
    assert read_manifest(seeded / "manifest.json")["seed"] == 5


def test_csv_format_override(tmp_path):
    cfg = write_config(tmp_path, "simulate", SCALAR, {"n_paths": 10})
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out, "--format", "csv") == 0
    header = (out / "records.csv").read_text(encoding="utf-8").splitlines()[0]
    cols = header.split(",")
    assert cols == sorted(cols)
    assert "stream_id" in cols


def test_output_dir_from_config_when_no_flag(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "simulate", SCALAR, {"n_paths": 10},
                       run={"output_dir": "nested/run"})
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (tmp_path / "nested" / "run" / "records.ndjson").exists()


def test_subcommand_must_match_config_name(tmp_path, capsys):
    cfg = write_config(tmp_path, "simulate", SCALAR)
    assert run_cli("skeleton", cfg, tmp_path / "out") == 2
    assert "must match the subcommand" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "simulate", SCALAR, grid={"alpha": 1.5})
    assert run_cli("simulate", cfg, tmp_path / "out") == 2
    assert "grid.alpha" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run_cli("simulate", tmp_path / "absent.json", tmp_path / "out") == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("flags, key", [
    (["--seed", "-3"], "run.seed"),
    (["--workers", "0"], "run.workers"),
    # main, not run_cli: run_cli always passes its own --out
    (["--out", ""], "run.output_dir"),
], ids=["seed", "workers", "out"])
def test_bad_run_flag_exits_2(tmp_path, monkeypatch, capsys, flags, key):
    """Flags are validated like the config keys they override, before any run."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, "simulate", SCALAR)
    assert main(["simulate", "--config", str(cfg), *flags]) == 2
    assert key in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["conjure", "--config", "x.json"])
    assert excinfo.value.code == 2


def test_blow_up_dominated_run_exits_3_but_persists(tmp_path):
    cfg = write_config(tmp_path, "simulate", SCALAR,
                       {"n_paths": 40, "linf_guard": 0.01})
    out = tmp_path / "out"
    assert run_cli("simulate", cfg, out) == 3
    records = read_ndjson(out / "records.ndjson")
    assert len(records) == 40
    assert all(r["blow_up"] for r in records)
    assert read_manifest(out / "manifest.json")["blow_up_count"] == 40


def test_cvs_sweep_manifest_counts_blown_paths(tmp_path):
    """A constant datum just above the guard: the tamed drift pulls it below
    in one step, and the paths whose first noise increment points up by more
    than the gap blow. With eta far above the noise only blown paths exceed
    it, and one cell per eps makes each row's count that cell's."""
    cfg = write_config(tmp_path, "cvs-sweep", SCALAR, {
        "eps_list": [1.0, 0.1], "n_paths": 100, "eta": 10.0,
        "control_amplitudes": [0.0],
        "data": [{"kind": "constant", "level": 1.0e6 + 0.99}],
    }, run={"seed": 3})
    out = tmp_path / "out"
    assert run_cli("cvs-sweep", cfg, out) == 0
    cells = [r for r in read_ndjson(out / "records.ndjson") if r["kind"] == "cell"]
    blown = read_manifest(out / "manifest.json")["blow_up_count"]
    assert 0 < blown < 2 * 100
    assert blown == sum(r["exceed_count"] for r in cells)


def test_cvs_sweep_cell_with_every_path_blown_exits_3(tmp_path, capsys):
    """Superlinear noise (smooth power, q = 3) at a constant datum of 9e5
    drives every noisy path past the 1e6 guard within a few steps, while the
    noise-free skeleton, which the tamed drift moves by at most 1 a step,
    stays below it. The cell has no exceedance frequency to report, as in
    every other probe."""
    model = {"preset": "built", "noise_form": "smooth_power", "q": 3.0}
    cfg = write_config(tmp_path, "cvs-sweep", model, {
        "eps_list": [1.0, 0.1], "n_paths": 20, "control_amplitudes": [0.0],
        "data": [{"kind": "constant", "level": 9.0e5}],
    })
    assert run_cli("cvs-sweep", cfg, tmp_path / "out") == 3
    assert "every path blew up" in capsys.readouterr().err


def test_starved_optimizer_exits_4(tmp_path):
    cfg = write_config(tmp_path, "rate-min", SCALAR,
                       {"target": "endpoint", "endpoint_level": 40.0,
                        "tau": 1e-6, "max_iters": 3, "max_continuations": 1})
    out = tmp_path / "out"
    assert run_cli("rate-min", cfg, out) == 4
    rate = next(r for r in read_ndjson(out / "records.ndjson")
                if r["kind"] == "rate")
    assert rate["converged"] is False
