"""Command-line interface: estimate, compare, curves, simulate.

Input is the long-format CSV ``id,time,status,arm[,event_type][,w1,...]``.
Every report carries a provenance block (input hash, tau, alpha, survival
convention, version) and output is byte-identical across runs for the same
inputs and seeds. Exit codes: 0 success, 2 validation error, 3 numerical
degeneracy, 4 config error.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import io
import json
import math
import sys
from statistics import NormalDist

import click

from .augmentation import SingularCovariateError, augmented_contrast
from .core import (
    ArmDataset,
    StudyDataset,
    TruncationError,
    ValidationError,
    arm_truncation_message,
    read_arms_csv,
    read_study_csv,
    validate_truncation,
)
from .estimation import S_CONVENTIONS, fit_arm, km_survival, mcf
from .inference import (
    RatioUndefinedError,
    arm_variance,
    contrast_difference,
    contrast_ratio,
    fit_influence,
    weighted_contrast,
)
from .simulation import (
    ScenarioConfig,
    TrueValues,
    run_operating_characteristics,
    true_value_oracle,
)
from . import __version__

EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_CONFIG = 4


class ConfigError(Exception):
    """Request- or config-level problem (bad flag combination, bad file)."""


def _error_exit(exc: BaseException, code: int) -> None:
    record = {
        "error": {
            "code": code,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
    click.echo(json.dumps(record, sort_keys=True), err=True)
    sys.exit(code)


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (SingularCovariateError, RatioUndefinedError) as exc:
            _error_exit(exc, EXIT_DEGENERATE)
        except (ConfigError, json.JSONDecodeError) as exc:
            _error_exit(exc, EXIT_CONFIG)
        except ValidationError as exc:
            _error_exit(exc, EXIT_VALIDATION)
        except OSError as exc:
            _error_exit(exc, EXIT_CONFIG)

    return wrapper


def _read_input_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _read_csv_input(path: str, tau: float) -> tuple[io.StringIO, str]:
    """The input text and its SHA-256, after checking tau."""
    if not (tau > 0 and math.isfinite(tau)):
        raise ValidationError("tau must be positive and finite")
    raw = _read_input_bytes(path)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"input is not UTF-8: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from exc
    return io.StringIO(text), hashlib.sha256(raw).hexdigest()


def _load_study(path: str, tau: float, strict: bool) -> tuple[StudyDataset, str]:
    text, digest = _read_csv_input(path, tau)
    study = read_study_csv(text, tau)
    validate_truncation(study, strict=strict)
    return study, digest


def _load_arms(path: str, tau: float, strict: bool) -> tuple[list[ArmDataset], str]:
    """Arm-wise loader for the commands that accept single-arm input."""
    text, digest = _read_csv_input(path, tau)
    arms, _ = read_arms_csv(text)
    msgs = [m for a in arms.values() if (m := arm_truncation_message(a, tau))]
    if msgs and strict:
        raise TruncationError("; ".join(msgs))
    return [arms[k] for k in sorted(arms)], digest


def _provenance(command: str, digest: str, **extra) -> dict:
    prov = {
        "command": command,
        "input_sha256": digest,
        "version": __version__,
    }
    prov.update(extra)
    return prov


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_report(provenance: dict, header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for key in sorted(provenance):
        buf.write(f"# {key}={provenance[key]}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_csv_cell(v) for v in row) + "\n")
    return buf.getvalue()


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _subset_covariates(study: StudyDataset, names: tuple[str, ...]) -> StudyDataset:
    try:
        idx = [study.covariate_names.index(n) for n in names]
    except ValueError as exc:
        raise ConfigError(
            f"unknown covariate column; available: {list(study.covariate_names)}"
        ) from exc
    arms = [
        ArmDataset.from_columns(
            arm.arm, arm.subject_ids, arm.follow_up, arm.terminal,
            arm.covariates[:, idx], arm.event_times, arm.event_subjects,
            arm.event_type_labels,
        )
        for arm in study.arms()
    ]
    return StudyDataset(arms[0], arms[1], study.tau, covariate_names=names)


def _parse_weights(text: str) -> dict[int, float]:
    weights = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"bad weight entry {part!r}; expected type=weight")
        key, _, val = part.partition("=")
        try:
            weights[int(key.strip())] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad weight entry {part!r}") from exc
    if not weights:
        raise ConfigError("empty weight specification")
    return weights


@click.group()
@click.version_option(__version__, prog_name="aumcf")
def main():
    """Estimation and inference for the area under the mean cumulative
    function (AUMCF) with recurrent events and a terminal event."""


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.option("--tau", type=float, required=True, help="Truncation time.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--strict-tau", is_flag=True, help="Error when tau exceeds follow-up.")
@click.option("--s-convention", type=click.Choice(S_CONVENTIONS), default="left",
              show_default=True, help="Survival-curve continuity convention.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file (default: stdout).")
@_handle_errors
def estimate(input_path, tau, alpha, strict_tau, s_convention, fmt, out):
    """Per-arm AUMCF point estimates with influence-function CIs."""
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0, 1)")
    arm_data, digest = _load_arms(input_path, tau, strict_tau)
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    arms = []
    for arm in arm_data:
        fit = fit_arm(arm, tau, s_convention)
        theta = fit.theta
        se = (arm_variance(fit_influence(fit)) / arm.n) ** 0.5
        arms.append({
            "arm": arm.arm,
            "n": arm.n,
            "theta": theta,
            "se": se,
            "ci_lower": theta - z * se,
            "ci_upper": theta + z * se,
        })
    prov = _provenance("estimate", digest, tau=tau, alpha=alpha,
                       s_convention=s_convention)
    if fmt == "json":
        _emit(_json_report({"provenance": prov, "arms": arms}), out)
    else:
        header = ["arm", "n", "theta", "se", "ci_lower", "ci_upper"]
        rows = [[a[h] for h in header] for a in arms]
        _emit(_csv_report(prov, header, rows), out)


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.option("--tau", type=float, required=True, help="Truncation time.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--contrast", type=click.Choice(["diff", "ratio"]), default="diff",
              show_default=True)
@click.option("--covariates", default=None,
              help="Comma-separated covariate columns for augmentation.")
@click.option("--weights", default=None,
              help="Event-type weights as type=w,... for a weighted contrast.")
@click.option("--strict-tau", is_flag=True, help="Error when tau exceeds follow-up.")
@click.option("--s-convention", type=click.Choice(S_CONVENTIONS), default="left",
              show_default=True, help="Survival-curve continuity convention.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file (default: stdout).")
@_handle_errors
def compare(input_path, tau, alpha, contrast, covariates, weights, strict_tau,
            s_convention, fmt, out):
    """Two-sample AUMCF contrast (difference or ratio), optionally
    covariate-adjusted or weighted across event types."""
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0, 1)")
    if covariates and weights:
        raise ConfigError("--covariates and --weights are mutually exclusive")
    if covariates and contrast == "ratio":
        raise ConfigError("augmentation supports the difference contrast only")
    if weights and contrast == "ratio":
        raise ConfigError("weighted contrasts support the difference contrast only")
    study, digest = _load_study(input_path, tau, strict_tau)
    prov = _provenance("compare", digest, tau=tau, alpha=alpha,
                       s_convention=s_convention, contrast=contrast)

    if covariates:
        names = tuple(c.strip() for c in covariates.split(",") if c.strip())
        sub = _subset_covariates(study, names)
        aug = augmented_contrast(sub, alpha=alpha, s_convention=s_convention)
        if fmt == "json":
            payload = {"provenance": prov}
            payload.update(aug.to_dict())
            _emit(_json_report(payload), out)
        else:
            fields = list(aug.unadjusted.CSV_FIELDS)
            rows = [
                ["unadjusted"] + aug.unadjusted.to_csv_row(),
                ["adjusted"] + aug.adjusted.to_csv_row(),
            ]
            prov = dict(prov, relative_efficiency=aug.relative_efficiency)
            _emit(_csv_report(prov, ["method"] + fields, rows), out)
        return

    if weights:
        result = weighted_contrast(study, _parse_weights(weights), alpha=alpha,
                                   s_convention=s_convention)
    elif contrast == "ratio":
        result = contrast_ratio(study, alpha=alpha, s_convention=s_convention)
    else:
        result = contrast_difference(study, alpha=alpha, s_convention=s_convention)
    if fmt == "json":
        _emit(_json_report({"provenance": prov, "result": result.to_dict()}), out)
    else:
        _emit(_csv_report(prov, list(result.CSV_FIELDS), [result.to_csv_row()]), out)


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.option("--tau", type=float, required=True, help="Truncation time.")
@click.option("--strict-tau", is_flag=True, help="Error when tau exceeds follow-up.")
@click.option("--s-convention", type=click.Choice(S_CONVENTIONS), default="left",
              show_default=True, help="Survival-curve continuity convention.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file (default: stdout).")
@_handle_errors
def curves(input_path, tau, strict_tau, s_convention, out):
    """Export per-arm MCF and Kaplan-Meier step functions as long CSV
    (arm,curve,time,value), clipped at tau."""
    arm_data, digest = _load_arms(input_path, tau, strict_tau)
    prov = _provenance("curves", digest, tau=tau, s_convention=s_convention)
    rows = []
    for arm in arm_data:
        for name, fn in (("mcf", mcf(arm, s_convention)), ("km", km_survival(arm))):
            for t, v in fn.to_rows(tau):
                rows.append([arm.arm, name, t, v])
    _emit(_csv_report(prov, ["arm", "curve", "time", "value"], rows), out)


@main.command()
@click.argument("config_path", metavar="CONFIG")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--reps", type=int, default=None, help="Override replicate count.")
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--truth", type=float, default=None,
              help="True AUMCF difference; skips the Monte Carlo oracle.")
@click.option("--oracle-reps", type=int, default=50, show_default=True,
              help="Oracle datasets when --truth is not given.")
@click.option("--oracle-n", type=int, default=2000, show_default=True,
              help="Oracle subjects per arm when --truth is not given.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Worker processes for the replicate loop.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output file (default: stdout).")
@_handle_errors
def simulate(config_path, seed, reps, alpha, truth, oracle_reps, oracle_n,
             jobs, fmt, out):
    """Run the Monte Carlo harness for a JSON scenario config and report
    operating characteristics (bias, ESE, ASE, rejection, coverage)."""
    raw = _read_input_bytes(config_path)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        config = ScenarioConfig.from_dict(json.loads(raw.decode("utf-8")))
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        if reps is not None:
            config = dataclasses.replace(config, replicates=reps)
    except (ValidationError, TypeError) as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc
    methods = ("unadjusted", "adjusted") if config.covariate_mode != "none" else ("unadjusted",)
    truth_value: TrueValues | float
    if truth is not None:
        truth_value = truth
    else:
        truth_value = true_value_oracle(config, n_per_arm=oracle_n,
                                        replicates=oracle_reps)
    oc = run_operating_characteristics(
        config, methods=methods, truth=truth_value, alpha=alpha, n_jobs=jobs
    )
    prov = {
        "command": "simulate",
        "config_sha256": digest,
        "seed": config.seed,
        "version": __version__,
    }
    if fmt == "json":
        payload = {"provenance": prov}
        payload.update(oc.to_dict())
        _emit(_json_report(payload), out)
    else:
        header = list(oc.rows[0].CSV_FIELDS)
        rows = [r.to_csv_row() for r in oc.rows]
        _emit(_csv_report(dict(prov, alpha=alpha), header, rows), out)


if __name__ == "__main__":
    main()
