"""Command line front end.

Four subcommands (analyze, calibrate, simulate, weights) driven by a YAML
configuration file; the only flags are --config, --output, --threads and
--verbose, everything analytic lives in the config for auditability.  All
outputs are CSV plus one plain-text manifest per run.  Exit codes: 0 on
success, 1 for configuration or input problems, 2 for numeric failures.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import platform
import sys

import numpy as np
import yaml

from . import __version__
from .calibration import calibrate
from .cox import fit_cox
from .data import _format_float, _write_csv, load_csv
from .design import ModelMatrixSpec
from .errors import IrrvisError, PipelineError, ValidationError
from .gee import MarginalModelSpec
from .inference import _WEIGHT_KINDS, AnalysisConfig, Resampling, sweep
from .simlab import ScenarioConfig, run_study
from .weights import (SelectionSpec, _BalanceReport, balancing_weights,
                      export_weights, mle_weights, q_values)

log = logging.getLogger("irrvis")

_TOP_KEYS = {"input", "schema", "output", "seed",
             "analyze", "calibrate", "simulate", "weights"}

_SECTION_KEYS = {
    "analyze": {"weight_kind", "z_terms", "h_terms", "x_terms", "link",
                "variance", "theta", "selection_transform", "phi_grid",
                "resampling", "bootstrap_b", "bootstrap_seed"},
    "calibrate": {"z_terms", "selection_transform", "time_spline_df",
                  "target_rho2"},
    "simulate": {"outcome", "gamma_z", "phi_true", "n", "scenario", "n_reps"},
    "weights": {"kind", "z_terms", "h_terms", "selection_transform", "phi"},
}

_MISSING = object()


def _load_config(path) -> dict:
    try:
        with open(path, "r") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValidationError(f"config file is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValidationError("config file must contain a key-value mapping")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ValidationError(f"unknown key {key!r} in configuration")
    return raw


def _section(config: dict, name: str) -> dict:
    if name not in config:
        raise ValidationError(f"config has no {name!r} section")
    section = config[name]
    if not isinstance(section, dict):
        raise ValidationError(f"section {name!r} must be a key-value mapping")
    for key in section:
        if key not in _SECTION_KEYS[name]:
            raise ValidationError(f"unknown key {key!r} in section {name!r}")
    return section


def _get(section: dict, name: str, key: str, default=_MISSING):
    if key in section and section[key] is not None:
        return section[key]
    if default is _MISSING:
        raise ValidationError(f"section {name!r} needs key {key!r}")
    return default


def _number(value, kind, name: str, key: str):
    """``value`` of ``key`` in section ``name`` as ``kind`` (int or float)."""
    try:
        # a bool is an int, and int() would drop a fraction
        if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"key {key!r} in section {name!r} must be {what}, "
                              f"got {value!r}") from None


def _get_number(section: dict, name: str, key: str, kind, default=_MISSING):
    """``_get`` of a number; a None default stays None."""
    value = _get(section, name, key, default)
    return None if value is None else _number(value, kind, name, key)


def _terms(value, context: str) -> ModelMatrixSpec:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{context} must be a non-empty list of term strings")
    # YAML reads a bare constant term as the integer 1; accept it
    value = [str(v) if isinstance(v, (int, float)) else v for v in value]
    if not all(isinstance(v, str) for v in value):
        raise ValidationError(f"{context} must be a non-empty list of term strings")
    return ModelMatrixSpec(value)


def _dataset(config: dict):
    if not isinstance(config.get("input"), str):
        raise ValidationError("config needs an 'input' CSV path")
    schema = config.get("schema")
    if schema is not None and not isinstance(schema, dict):
        raise ValidationError("'schema' must be a mapping of field to column names")
    try:
        return load_csv(config["input"], schema)
    except OSError as exc:
        raise ValidationError(f"cannot read input file: {exc}") from exc


def _outdir(config: dict, flag) -> str:
    out = flag or config.get("output")
    if not out or not isinstance(out, str):
        raise ValidationError("no output directory: set 'output' in the config "
                              "to a path or pass --output")
    os.makedirs(out, exist_ok=True)
    return out


def _seed(config: dict) -> int:
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError("'seed' must be a non-negative integer")
    return seed


def _write_manifest(outdir: str, command: str, config_path, seed: int) -> None:
    with open(config_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    lines = [
        f"command={command}",
        f"config_sha256={digest}",
        f"seed={seed}",
        f"irrvis={__version__}",
        f"python={platform.python_version()}",
        f"numpy={np.__version__}",
        f"pyyaml={yaml.__version__}",
    ]
    with open(os.path.join(outdir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _marginal_model(section: dict, name: str) -> MarginalModelSpec:
    xspec = _terms(_get(section, name, "x_terms"), "x_terms")
    link = _get(section, name, "link", "identity")
    variance = _get(section, name, "variance", "constant")
    theta = _get_number(section, name, "theta", float, None)
    return MarginalModelSpec(xspec, link=link, variance=variance, theta=theta)


def _analysis_config(config: dict) -> AnalysisConfig:
    section = _section(config, "analyze")
    kind = _get(section, "analyze", "weight_kind", "none")
    if kind not in _WEIGHT_KINDS:
        raise ValidationError(f"unknown weight kind {kind!r} in section 'analyze'")
    model = _marginal_model(section, "analyze")
    zspec = hspec = None
    if kind == "none":
        for key in ("z_terms", "h_terms"):
            if section.get(key) is not None:
                raise ValidationError(f"key {key!r} only applies to weighted "
                                      "analyses")
    else:
        zspec = _terms(_get(section, "analyze", "z_terms"), "z_terms")
    if kind == "balancing" or (kind == "mle" and section.get("h_terms") is not None):
        hspec = _terms(_get(section, "analyze", "h_terms"), "h_terms")
    selection = SelectionSpec(_get(section, "analyze", "selection_transform",
                                   "identity"))
    grid = _get(section, "analyze", "phi_grid", [0.0])
    if not isinstance(grid, list):
        raise ValidationError("phi_grid must be a list of numbers")
    kind_r = _get(section, "analyze", "resampling", "none")
    if kind_r == "bootstrap":
        b = _get_number(section, "analyze", "bootstrap_b", int, 200)
        seed = _get_number(section, "analyze", "bootstrap_seed", int, _seed(config))
        resampling = Resampling("bootstrap", b, seed)
    else:
        for key in ("bootstrap_b", "bootstrap_seed"):
            if section.get(key) is not None:
                raise ValidationError(f"key {key!r} only applies to bootstrap "
                                      "resampling")
        resampling = Resampling(kind_r)
    return AnalysisConfig(model=model, weight_kind=kind, zspec=zspec,
                          hspec=hspec, selection=selection,
                          phi_grid=tuple(_number(p, float, "analyze", "phi_grid")
                                         for p in grid),
                          resampling=resampling)


def _phi_artifacts(dataset, outdir, phi, cox, wset, balance) -> None:
    """Visit model, weight and (given a ``_BalanceReport``) balance files of
    one phi."""
    tag = format(phi, "g")
    _write_csv(os.path.join(outdir, f"cox_phi{tag}.csv"), ["section", "key", "value"], [
        *(["coef", name, _format_float(value)]
          for name, value in zip(cox.names, cox.gamma)),
        *(["breslow", _format_float(time), _format_float(inc)]
          for time, inc in zip(cox.event_times, cox.increments))])
    export_weights(dataset, wset, os.path.join(outdir, f"weights_phi{tag}.csv"))
    if balance is not None:
        _write_csv(os.path.join(outdir, f"balance_phi{tag}.csv"),
                   ["term", "residual", "standardized_residual", "zero_sd"],
                   ([row["term"], _format_float(row["residual"]),
                     _format_float(row["standardized_residual"]), int(row["zero_sd"])]
                    for row in balance.rows(wset.weights, cox)))


def cmd_analyze(config: dict, config_path, outdir: str, threads) -> int:
    dataset = _dataset(config)
    acfg = _analysis_config(config)
    log.info("analyze: %d patients, %d grid points",
             dataset.n_patients, len(acfg.phi_grid))
    result = sweep(dataset, acfg)
    result.to_csv(os.path.join(outdir, "sweep.csv"))
    if acfg.weight_kind != "none":
        balance = None
        for phi, kept in result.fits.items():
            if isinstance(kept, PipelineError):
                log.warning("%s; no artifact files written", kept)
                continue
            if acfg.hspec is not None and balance is None:
                balance = _BalanceReport(dataset, acfg.hspec)
            _phi_artifacts(dataset, outdir, phi, *kept, balance)
    _write_manifest(outdir, "analyze", config_path, _seed(config))
    return 0


def cmd_calibrate(config: dict, config_path, outdir: str, threads) -> int:
    dataset = _dataset(config)
    section = _section(config, "calibrate")
    zspec = _terms(_get(section, "calibrate", "z_terms"), "z_terms")
    transform = _get(section, "calibrate", "selection_transform", "identity")
    df = _get_number(section, "calibrate", "time_spline_df", int, 5)
    target = _get_number(section, "calibrate", "target_rho2", float, None)
    result = calibrate(dataset, zspec, transform, df, target)
    result.to_csv(os.path.join(outdir, "calibration.csv"))
    with open(os.path.join(outdir, "calibration_report.txt"), "w") as fh:
        fh.write(result.report())
    _write_manifest(outdir, "calibrate", config_path, _seed(config))
    return 0


def cmd_simulate(config: dict, config_path, outdir: str, threads) -> int:
    section = _section(config, "simulate")
    cfg = ScenarioConfig(
        outcome=_get(section, "simulate", "outcome"),
        gamma_z=_get_number(section, "simulate", "gamma_z", float),
        phi_true=_get_number(section, "simulate", "phi_true", float),
        n=_get_number(section, "simulate", "n", int),
        scenario=_get(section, "simulate", "scenario"),
        n_reps=_get_number(section, "simulate", "n_reps", int, 200),
        seed=_seed(config),
    )
    log.info("simulate: %s reps=%d n=%d", cfg.scenario, cfg.n_reps, cfg.n)
    table = run_study(cfg, threads)
    table.to_csv(os.path.join(outdir, "metrics.csv"))
    _write_csv(os.path.join(outdir, "replicates.csv"),
               ["rep", "estimator", "parameter", "estimate"],
               ([rep, estimator, parameter, _format_float(block[rep, j])]
                for estimator, block in table.estimates.items()
                for rep in range(block.shape[0])
                for j, parameter in enumerate(("beta1", "beta2"))))
    _write_manifest(outdir, "simulate", config_path, _seed(config))
    return 0


def cmd_weights(config: dict, config_path, outdir: str, threads) -> int:
    dataset = _dataset(config)
    section = _section(config, "weights")
    kind = _get(section, "weights", "kind")
    if kind not in ("mle", "balancing"):
        raise ValidationError("weights kind must be mle or balancing")
    zspec = _terms(_get(section, "weights", "z_terms"), "z_terms")
    hspec = None
    if kind == "balancing" or section.get("h_terms") is not None:
        hspec = _terms(_get(section, "weights", "h_terms"), "h_terms")
    selection = SelectionSpec(_get(section, "weights", "selection_transform",
                                   "identity"))
    phi = _get_number(section, "weights", "phi", float, 0.0)
    q = q_values(dataset, selection, phi)
    cox = fit_cox(dataset, zspec, q)
    if kind == "mle":
        wset = mle_weights(cox, dataset, q)
    else:
        wset = balancing_weights(dataset, hspec, q, cox)
    balance = None if hspec is None else _BalanceReport(dataset, hspec)
    _phi_artifacts(dataset, outdir, phi, cox, wset, balance)
    _write_manifest(outdir, "weights", config_path, _seed(config))
    return 0


_COMMANDS = {
    "analyze": cmd_analyze,
    "calibrate": cmd_calibrate,
    "simulate": cmd_simulate,
    "weights": cmd_weights,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrvis",
        description="Marginal regression with irregular, possibly "
                    "outcome-dependent visit times.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML configuration file")
        p.add_argument("--output", help="output directory (overrides config)")
        p.add_argument("--threads", type=int,
                       help="parallel worker cap (default: IRRVIS_THREADS "
                            "or all cores)")
        p.add_argument("--verbose", action="store_true",
                       help="progress messages on stderr")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, format="%(message)s",
                        level=logging.INFO if args.verbose else logging.WARNING)
    try:
        config = _load_config(args.config)
        outdir = _outdir(config, args.output)
        return _COMMANDS[args.command](config, args.config, outdir, args.threads)
    except ValidationError as exc:
        print(f"irrvis: {exc}", file=sys.stderr)
        return 1
    except IrrvisError as exc:
        print(f"irrvis: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
