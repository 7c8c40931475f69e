"""Command-line interface: estimate, compare, curves, simulate.

Input is the long-format CSV ``id,time,status,arm[,event_type][,w1,...]``.
Every report carries a provenance block (the input or config hash, the
version and the flags that set its numbers), one writer puts each value in
its place in JSON or CSV, and output is byte-identical across runs for the
same inputs and seeds. Exit codes: 0 success, 2 validation error, 3 numerical
degeneracy, 4 config error (a flag that click cannot parse included).
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import sys

import click
import numpy as np

from .core import (
    ArmDataset,
    StudyDataset,
    TruncationError,
    ValidationError,
    arm_truncation_message,
    read_arms_csv,
    read_study_csv,
)
from .estimation import S_CONVENTIONS, km_survival, mcf
from .inference import (
    RatioUndefinedError,
    SingularCovariateError,
    check_weights,
    contrast,
    fit_arms,
    wald_z,
)
from .simulation import STREAM_VERSION, ScenarioConfig, run_operating_characteristics
from . import __version__

EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_CONFIG = 4


class ConfigError(Exception):
    """Request- or config-level problem (bad flag combination, bad file)."""


# the exit code of each failure: the first entry that matches wins
_EXIT_CODES = (
    ((SingularCovariateError, RatioUndefinedError, ArithmeticError), EXIT_DEGENERATE),
    ((ConfigError, json.JSONDecodeError, click.UsageError), EXIT_CONFIG),
    (ValidationError, EXIT_VALIDATION),
    (OSError, EXIT_CONFIG),
)


@contextlib.contextmanager
def _exit_codes():
    """A failure named in ``_EXIT_CODES`` exits with its code and one JSON
    error record; an overflow surfaces as a non-finite statistic (exit 3),
    not as numpy warnings on stderr."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except Exception as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                if isinstance(exc, click.UsageError):
                    exc = ConfigError(exc.format_message())
                error = {"code": code, "type": type(exc).__name__, "message": str(exc)}
                click.echo(json.dumps({"error": error}, sort_keys=True), err=True)
                sys.exit(code)
        raise


class _Cli(click.Group):
    """The ``aumcf`` group: parsing and running a command both fail through
    ``_exit_codes``; a bare ``aumcf`` prints the help and exits 0."""

    def parse_args(self, ctx, args):
        if not args and not ctx.resilient_parsing:
            click.echo(ctx.get_help(), color=ctx.color)
            ctx.exit()
        with _exit_codes():
            return super().parse_args(ctx, args)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


def _read_input_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _check_truncation(arms, tau: float, strict: bool) -> None:
    """With ``--strict-tau``, fail when some arm has no subject followed to tau."""
    msgs = [m for a in arms if (m := arm_truncation_message(a, tau))]
    if msgs and strict:
        raise TruncationError("; ".join(msgs))


def _load_study(path: str, tau: float, strict: bool) -> tuple[StudyDataset, str]:
    raw = _read_input_bytes(path)
    study = read_study_csv(raw, tau)
    _check_truncation(study.arms(), tau, strict)
    return study, hashlib.sha256(raw).hexdigest()


def _load_arms(path: str, tau: float, strict: bool) -> tuple[list[ArmDataset], str]:
    """Arm-wise loader for the commands that accept single-arm input."""
    raw = _read_input_bytes(path)
    arms, _ = read_arms_csv(raw)
    arms = [arms[k] for k in sorted(arms)]
    _check_truncation(arms, tau, strict)
    return arms, hashlib.sha256(raw).hexdigest()


def _provenance(command: str, digest: str, **extra) -> dict:
    prov = {
        "command": command,
        "input_sha256": digest,
        "version": __version__,
    }
    prov.update(extra)
    return prov


# the columns of a contrast's CSV report, after ``method`` when augmented
_CONTRAST_COLUMNS = (
    "kind", "tau", "theta1", "se1", "theta2", "se2", "point", "se",
    "ci_lower", "ci_upper", "p_value", "n1", "n2", "alpha",
)
_NON_FINITE = "report has a non-finite statistic (overflow or degenerate input)"


def _write_report(fmt: str, out: str | None, provenance: dict, blocks: dict,
                  records: list[dict], csv_comments: dict | None = None) -> None:
    """Write one report to ``out`` (default stdout): as JSON, the provenance
    and the top-level ``blocks``; as CSV, the provenance and ``csv_comments``
    as ``# key=value`` lines, then one row per record, keys as columns."""
    if fmt == "json":
        try:
            text = json.dumps({"provenance": provenance, **blocks}, sort_keys=True, indent=2,
                              allow_nan=False) + "\n"
        except ValueError as exc:
            raise ArithmeticError(_NON_FINITE) from exc
    else:
        buf = io.StringIO()
        for key, value in sorted({**provenance, **(csv_comments or {})}.items()):
            # a line break would end the comment: it is written as \r or \n,
            # and a backslash as \\, so that the escape can be undone
            value = (str(value).replace("\\", "\\\\")
                     .replace("\r", "\\r").replace("\n", "\\n"))
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")  # a float is written as its repr
        writer.writerow(records[0])
        for record in records:
            row = list(record.values())
            if any(isinstance(v, float) and not math.isfinite(v) for v in row):
                raise ArithmeticError(_NON_FINITE)
            writer.writerow(row)
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _check_tau(ctx, param, tau: float) -> float:
    if not (tau > 0 and math.isfinite(tau)):
        raise ValidationError("tau must be positive and finite")
    return tau


def _check_alpha(ctx, param, alpha: float) -> float:
    """``--alpha``, checked by the rule that the Wald z applies."""
    try:
        wald_z(alpha)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return alpha


def _comma_list(text: str, empty: str) -> list[str]:
    """The entries of a comma-separated flag value, blank ones skipped; a
    value with none left is a config error with message ``empty``."""
    entries = [part for part in text.split(",") if part.strip()]
    if not entries:
        raise ConfigError(empty)
    return entries


def _parse_covariates(ctx, param, text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    names = tuple(name.strip() for name in _comma_list(text, "empty covariate list"))
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigError(f"--covariates repeats the name {name!r}")
    return names


def _parse_weights(ctx, param, text: str | None) -> dict[int, float] | None:
    if text is None:
        return None
    weights = {}
    for part in _comma_list(text, "empty weight specification"):
        if "=" not in part:
            raise ConfigError(f"bad weight entry {part!r}; expected type=weight")
        key, _, val = part.partition("=")
        try:
            k, w = int(key.strip()), float(val)
        except ValueError as exc:
            raise ConfigError(f"bad weight entry {part!r}") from exc
        if k in weights:
            raise ConfigError(f"--weights repeats the event type {k}")
        weights[k] = w
        # each entry checked as it is read, by the rule the contrasts apply
        try:
            check_weights([w])
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
    return weights


# flags that several commands take, each declared once
_INPUT = click.argument("input_path", metavar="INPUT")
_TAU = click.option("--tau", type=float, required=True, callback=_check_tau,
                    help="Truncation time.")
_ALPHA = click.option("--alpha", type=float, default=0.05, show_default=True,
                      callback=_check_alpha)
_STRICT_TAU = click.option("--strict-tau", is_flag=True, help="Error when tau exceeds follow-up.")
_S_CONVENTION = click.option("--s-convention", type=click.Choice(S_CONVENTIONS), default="left",
                             show_default=True, help="Survival-curve continuity convention.")
_FORMAT = click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
                       show_default=True)
_OUT = click.option("--out", type=click.Path(dir_okay=False), default=None,
                    help="Output file (default: stdout).")


def _flags(*decorators):
    """The click parameter decorators applied as if stacked in this order."""
    return lambda fn: functools.reduce(lambda f, d: d(f), reversed(decorators), fn)


@click.group(cls=_Cli)
@click.version_option(__version__, prog_name="aumcf")
def main():
    """Estimation and inference for the area under the mean cumulative
    function (AUMCF) with recurrent events and a terminal event."""


@main.command()
@_flags(_INPUT, _TAU, _ALPHA, _STRICT_TAU, _S_CONVENTION, _FORMAT, _OUT)
def estimate(input_path, tau, alpha, strict_tau, s_convention, fmt, out):
    """Per-arm AUMCF point estimates with influence-function CIs."""
    z = wald_z(alpha)
    arm_data, digest = _load_arms(input_path, tau, strict_tau)
    fits, _, ses = fit_arms(arm_data, tau, s_convention)
    arms = [{
        "arm": fit.arm.arm,
        "n": fit.arm.n,
        "theta": fit.theta,
        "se": se,
        "ci_lower": fit.theta - z * se,
        "ci_upper": fit.theta + z * se,
    } for fit, se in zip(fits, ses)]  # zip drops the last SE, the difference's
    prov = _provenance("estimate", digest, tau=tau, alpha=alpha,
                       s_convention=s_convention)
    _write_report(fmt, out, prov, {"arms": arms}, arms)


@main.command()
@_flags(_INPUT, _TAU, _ALPHA)
@click.option("--contrast", "kind", type=click.Choice(["diff", "ratio"]), default="diff",
              show_default=True)
@click.option("--covariates", default=None, callback=_parse_covariates,
              help="Comma-separated covariate columns for augmentation.")
@click.option("--weights", default=None, callback=_parse_weights,
              help="Event-type weights as type=w,... for a weighted contrast.")
@_flags(_STRICT_TAU, _S_CONVENTION, _FORMAT, _OUT)
def compare(input_path, tau, alpha, kind, covariates, weights, strict_tau,
            s_convention, fmt, out):
    """Two-sample AUMCF contrast (difference or ratio), optionally
    weighted across event types and covariate-adjusted, in any combination."""
    study, digest = _load_study(input_path, tau, strict_tau)
    prov = _provenance("compare", digest, tau=tau, alpha=alpha,
                       s_convention=s_convention, contrast=kind)
    if weights is not None:
        prov["weights"] = ",".join(f"{k}={w!r}" for k, w in sorted(weights.items()))
    if covariates is not None:
        prov["covariates"] = ",".join(covariates)
        try:
            study = study.select_covariates(covariates)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
    result = contrast(study, alpha, s_convention, ratio=kind == "ratio",
                      weights=weights, augment=covariates is not None)

    if covariates is None:
        body = {"result": result.to_dict()}
        records = [{c: body["result"][c] for c in _CONTRAST_COLUMNS}]
        _write_report(fmt, out, prov, body, records)
    else:
        # JSON has null where the CSV comment keeps an infinite relative_efficiency
        body = result.to_dict()
        records = [{"method": m, **{c: body[m][c] for c in _CONTRAST_COLUMNS}}
                   for m in ("unadjusted", "adjusted")]
        _write_report(fmt, out, prov, body, records,
                      {"relative_efficiency": result.relative_efficiency})


@main.command()
@_flags(_INPUT, _TAU, _STRICT_TAU, _S_CONVENTION, _OUT)
def curves(input_path, tau, strict_tau, s_convention, out):
    """Export per-arm MCF and Kaplan-Meier step functions as long CSV
    (arm,curve,time,value), clipped at tau."""
    arm_data, digest = _load_arms(input_path, tau, strict_tau)
    prov = _provenance("curves", digest, tau=tau, s_convention=s_convention)
    rows = []
    for arm in arm_data:
        for name, fn in (("mcf", mcf(arm, s_convention)), ("km", km_survival(arm))):
            for t, v in fn.to_rows(tau):
                rows.append({"arm": arm.arm, "curve": name, "time": t, "value": v})
    _write_report("csv", out, prov, {}, rows)


@main.command()
@click.argument("config_path", metavar="CONFIG")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--reps", type=int, default=None, help="Override replicate count.")
@_ALPHA
@click.option("--truth", type=float, default=None,
              help="True AUMCF difference (default: the scenario's exact value).")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker processes for the replicate loop, at most one per replicate.")
@_flags(_FORMAT, _OUT)
def simulate(config_path, seed, reps, alpha, truth, jobs, fmt, out):
    """Run the Monte Carlo harness for a JSON scenario config and report
    operating characteristics (bias, ESE, ASE, rejection, coverage)."""
    raw = _read_input_bytes(config_path)
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError:
        raise  # malformed JSON keeps its own record
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"bad scenario config: not UTF-8: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from exc
    except (RecursionError, ValueError) as exc:
        # nesting deeper than the recursion limit, or an integer with more
        # digits than Python converts
        raise ConfigError(f"bad scenario config: {exc}") from exc
    try:
        config = ScenarioConfig.from_dict(data)
        if seed is not None:
            config = dataclasses.replace(config, seed=seed)
        if reps is not None:
            config = dataclasses.replace(config, replicates=reps)
    except (ValidationError, TypeError) as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc
    methods = ("unadjusted", "adjusted") if config.covariate_mode != "none" else ("unadjusted",)
    # the config fixes every draw, so data it cannot hold (say, too many
    # events for one arm) is a config error; singular covariates stay exit 3
    try:
        oc = run_operating_characteristics(
            config, methods=methods, truth=truth, alpha=alpha, n_jobs=jobs
        )
    except SingularCovariateError:
        raise
    except ValidationError as exc:
        raise ConfigError(f"bad scenario config: {exc}") from exc
    prov = {
        "command": "simulate",
        "config_sha256": digest,
        "seed": config.seed,
        "stream_version": STREAM_VERSION,
        "truth": "exact" if truth is None else "given",
        "version": __version__,
    }
    body = oc.to_dict()
    _write_report(fmt, out, prov, body, body["rows"], {"alpha": body["alpha"]})


if __name__ == "__main__":
    main()
