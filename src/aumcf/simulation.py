"""Scenario generators, true-value oracle, and the Monte Carlo harness.

Three generative scenarios are supported: independent competing risks
("icr"), a shared Gamma frailty linking the event and terminal processes
("frailty"), and a piecewise-constant event rate with a change point
("time_varying"). All randomness flows through counter-based Philox
streams keyed by (master seed, purpose, replicate, arm, subject), so
replicates are reproducible and independent of execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace, asdict

import numpy as np

from .augmentation import augmented_contrast
from .core import ArmDataset, StudyDataset, SubjectHistory, ValidationError
from .estimation import aumcf
from .inference import contrast_difference

SCENARIO_KINDS = ("icr", "frailty", "time_varying")
COVARIATE_MODES = ("none", "uninformative", "informative")

# stream purposes: keep dataset, oracle, and bootstrap draws disjoint
_PURPOSE_DATA = 0
_PURPOSE_ORACLE = 1
_PURPOSE_BOOTSTRAP = 2


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one simulation scenario."""

    kind: str = "icr"
    lambda_event: tuple[float, float] = (1.0, 1.0)
    lambda_death: tuple[float, float] = (0.2, 0.2)
    lambda_censor: float = 0.2
    frailty_variance: float = 3.0
    change_point: float = 1.0
    rate_multipliers: tuple[float, float] = (1.0, 1.0)
    covariate_mode: str = "none"
    death_log_effect: float = math.log(0.5)
    event_log_effect: float = math.log(2.0)
    n_per_arm: int = 200
    tau: float = 1.0
    replicates: int = 10_000
    seed: int = 0
    horizon_factor: float = 10.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.covariate_mode not in COVARIATE_MODES:
            raise ValidationError(f"unknown covariate mode {self.covariate_mode!r}")
        rates = (*self.lambda_event, *self.lambda_death, self.lambda_censor)
        if any(not np.isfinite(r) or r < 0 for r in rates):
            raise ValidationError("rates must be finite and nonnegative")
        if self.frailty_variance < 0:
            raise ValidationError("frailty variance must be nonnegative")
        if not self.tau > 0:
            raise ValidationError("tau must be positive")
        if self.kind == "time_varying" and not 0 < self.change_point < self.tau:
            raise ValidationError("change point must lie in (0, tau)")
        if self.n_per_arm < 1 or self.replicates < 1:
            raise ValidationError("n_per_arm and replicates must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config field(s): {sorted(unknown)}")
        data = dict(data)
        for key in ("lambda_event", "lambda_death", "rate_multipliers"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    @classmethod
    def from_json(cls, source) -> "ScenarioConfig":
        if hasattr(source, "read"):
            data = json.load(source)
        else:
            with open(source) as fh:
                data = json.load(fh)
        if not isinstance(data, dict):
            raise ValidationError("config file must contain a JSON object")
        return cls.from_dict(data)


@dataclass(frozen=True)
class TrueValues:
    """Oracle AUMCF values used for bias and coverage."""

    theta1: float
    theta2: float

    @property
    def delta(self) -> float:
        return self.theta1 - self.theta2


@dataclass(frozen=True)
class MethodOperatingCharacteristics:
    """Aggregated Monte Carlo metrics for one analysis method."""

    method: str
    replicates: int
    true_value: float
    bias: float
    ese: float
    ase: float
    rejection_rate: float
    coverage: float
    mcse_bias: float
    mcse_rejection: float
    mcse_coverage: float

    CSV_FIELDS = (
        "method", "replicates", "true_value", "bias", "ese", "ase",
        "rejection_rate", "coverage", "mcse_bias", "mcse_rejection",
        "mcse_coverage",
    )

    def to_csv_row(self) -> list:
        return [getattr(self, f) for f in self.CSV_FIELDS]


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Per-method operating characteristics for one scenario."""

    config: ScenarioConfig
    alpha: float
    rows: tuple[MethodOperatingCharacteristics, ...]

    def row(self, method: str) -> MethodOperatingCharacteristics:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "alpha": self.alpha,
            "rows": [asdict(r) for r in self.rows],
        }


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _next_event(rng, t: float, r1: float, r2: float, c: float) -> float:
    """Next arrival for a rate that switches from r1 to r2 at time c.

    Uses exact piecewise inversion: an exponential overshoot past c is
    rescaled by r1/r2 via memorylessness, no thinning step.
    """
    if t < c:
        if r1 > 0:
            nxt = t + rng.exponential(1.0 / r1)
            if nxt <= c:
                return nxt
            if r2 <= 0:
                return math.inf
            return c + (nxt - c) * (r1 / r2)
        if r2 <= 0:
            return math.inf
        return c + rng.exponential(1.0 / r2)
    if r2 <= 0:
        return math.inf
    return t + rng.exponential(1.0 / r2)


def simulate_subject(
    config: ScenarioConfig,
    arm: int,
    rng: np.random.Generator,
    subject_id: str = "s",
) -> SubjectHistory:
    """Draw one subject's history for the given arm (1 or 2).

    Draw order within the stream is fixed: frailty, covariate, terminal
    time, censoring time, then event gaps. When both the terminal and
    censoring rates are zero, follow-up is capped administratively at
    ``horizon_factor * tau`` with no terminal event.
    """
    j = arm - 1
    xi = 1.0
    if config.kind == "frailty" and config.frailty_variance > 0:
        shape = 1.0 / config.frailty_variance
        xi = rng.gamma(shape, config.frailty_variance)
    covariates: tuple[float, ...] = ()
    death_scale = event_scale = 1.0
    if config.covariate_mode != "none":
        w = rng.standard_normal()
        covariates = (w,)
        if config.covariate_mode == "informative":
            death_scale = math.exp(w * config.death_log_effect)
            event_scale = math.exp(w * config.event_log_effect)

    rate_death = config.lambda_death[j] * xi * death_scale
    death = rng.exponential(1.0 / rate_death) if rate_death > 0 else math.inf
    censor = (
        rng.exponential(1.0 / config.lambda_censor)
        if config.lambda_censor > 0
        else math.inf
    )
    x = min(death, censor)
    if math.isinf(x):
        x = config.horizon_factor * config.tau
        terminal = False
    else:
        terminal = death <= censor

    r1 = config.lambda_event[j] * xi * event_scale
    if config.kind == "time_varying":
        r2 = config.rate_multipliers[j] * r1
        c = config.change_point
    else:
        r2, c = r1, math.inf
    events = []
    t = 0.0
    while True:
        t = _next_event(rng, t, r1, r2, c)
        if t > x:
            break
        events.append(t)
    return SubjectHistory(
        subject_id=subject_id,
        follow_up=x,
        terminal=terminal,
        event_times=tuple(events),
        covariates=covariates,
    )


def generate_dataset(
    config: ScenarioConfig,
    replicate: int,
    purpose: int = _PURPOSE_DATA,
    n_per_arm: int | None = None,
) -> StudyDataset:
    """Deterministic dataset for one replicate of the scenario."""
    n = n_per_arm if n_per_arm is not None else config.n_per_arm
    arms = []
    for arm in (1, 2):
        subjects = [
            simulate_subject(
                config,
                arm,
                _stream(config.seed, purpose, replicate, arm, i),
                subject_id=f"a{arm}s{i:06d}",
            )
            for i in range(n)
        ]
        arms.append(ArmDataset(arm, subjects))
    names = ("w1",) if config.covariate_mode != "none" else ()
    return StudyDataset(arms[0], arms[1], tau=config.tau, covariate_names=names)


def true_value_oracle(
    config: ScenarioConfig,
    n_per_arm: int = 10_000,
    replicates: int = 2_000,
    s_convention: str = "left",
) -> TrueValues:
    """Monte Carlo truth: average AUMCF estimates under no censoring.

    Defaults match the reference procedure (2,000 datasets of 10,000 per
    arm); pass smaller values for desk-scale use.
    """
    no_censor = replace(config, lambda_censor=0.0)
    sums = np.zeros(2)
    for r in range(replicates):
        study = generate_dataset(no_censor, r, purpose=_PURPOSE_ORACLE, n_per_arm=n_per_arm)
        for k, arm in enumerate(study.arms()):
            sums[k] += aumcf(arm, config.tau, s_convention)
    return TrueValues(theta1=sums[0] / replicates, theta2=sums[1] / replicates)


def _replicate_worker(args):
    config, rep, methods, alpha, s_convention = args
    study = generate_dataset(config, rep)
    out = {}
    if "unadjusted" in methods and "adjusted" not in methods:
        res = contrast_difference(study, alpha=alpha, s_convention=s_convention)
        out["unadjusted"] = (res.point, res.se, res.ci_lower, res.ci_upper, res.p_value)
    if "adjusted" in methods:
        aug = augmented_contrast(study, alpha=alpha, s_convention=s_convention)
        for name, res in (("unadjusted", aug.unadjusted), ("adjusted", aug.adjusted)):
            if name in methods:
                out[name] = (res.point, res.se, res.ci_lower, res.ci_upper, res.p_value)
    return rep, out


def run_operating_characteristics(
    config: ScenarioConfig,
    methods: tuple[str, ...] = ("unadjusted",),
    truth: TrueValues | float | None = None,
    alpha: float = 0.05,
    s_convention: str = "left",
    n_jobs: int = 1,
) -> OperatingCharacteristics:
    """Monte Carlo operating characteristics of the requested contrasts.

    ``truth`` supplies the true difference for bias and coverage (a
    :class:`TrueValues` or a plain float); when omitted it is computed with
    :func:`true_value_oracle` at reference scale, which is expensive.
    Replicates may run in worker processes (``n_jobs``); aggregation is
    order-normalized by replicate index so parallel equals serial bitwise.
    """
    for m in methods:
        if m not in ("unadjusted", "adjusted"):
            raise ValidationError(f"unknown method {m!r}")
    if "adjusted" in methods and config.covariate_mode == "none":
        raise ValidationError("adjusted method requires a covariate mode")
    if truth is None:
        truth = true_value_oracle(config)
    true_delta = truth.delta if isinstance(truth, TrueValues) else float(truth)

    reps = config.replicates
    tasks = [(config, r, methods, alpha, s_convention) for r in range(reps)]
    if n_jobs > 1:
        # imported here: the pool machinery adds about 2 MB to every import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(_replicate_worker, tasks, chunksize=max(1, reps // (8 * n_jobs))))
    else:
        results = [_replicate_worker(t) for t in tasks]
    results.sort(key=lambda item: item[0])

    rows = []
    for method in methods:
        rec = np.array([res[method] for _, res in results])  # point, se, lo, hi, p
        points, ses, lo, hi, pvals = rec.T
        ese = float(np.std(points, ddof=1)) if reps > 1 else 0.0
        rej = float(np.mean(pvals < alpha))
        cov = float(np.mean((lo <= true_delta) & (true_delta <= hi)))
        rows.append(
            MethodOperatingCharacteristics(
                method=method,
                replicates=reps,
                true_value=true_delta,
                bias=float(np.mean(points)) - true_delta,
                ese=ese,
                ase=float(np.mean(ses)),
                rejection_rate=rej,
                coverage=cov,
                mcse_bias=ese / math.sqrt(reps),
                mcse_rejection=math.sqrt(rej * (1 - rej) / reps),
                mcse_coverage=math.sqrt(cov * (1 - cov) / reps),
            )
        )
    return OperatingCharacteristics(config=config, alpha=alpha, rows=tuple(rows))


def survival_bias_sensitivity(
    config: ScenarioConfig,
    death_rates: tuple[float, ...],
    modified_arm: int = 1,
    alpha: float = 0.05,
    n_jobs: int = 1,
) -> list[tuple[float, OperatingCharacteristics]]:
    """Operating characteristics across a terminal-rate grid for one arm.

    The base config must be a null scenario; bias and coverage are measured
    against the nominal null difference of zero, so a nonzero bias here
    quantifies the survival-bias failure mode (the arm with the lower
    terminal rate accrues more events purely by surviving longer). The
    grid is applied to ``modified_arm`` (default arm 1, so the reported
    difference is positive when that arm's mortality is reduced).
    """
    out = []
    for rate in death_rates:
        rates = list(config.lambda_death)
        rates[modified_arm - 1] = rate
        cfg = replace(config, lambda_death=tuple(rates))
        oc = run_operating_characteristics(
            cfg, methods=("unadjusted",), truth=0.0, alpha=alpha, n_jobs=n_jobs
        )
        out.append((rate, oc))
    return out


def bootstrap_se(
    study: StudyDataset,
    B: int = 1000,
    seed: int = 0,
    s_convention: str = "left",
) -> float:
    """Nonparametric bootstrap SE of the AUMCF difference.

    Subject-level resampling with replacement within each arm; the SD of
    the B resampled differences. Deterministic given the seed.
    """
    if B < 100:
        raise ValidationError("B must be at least 100")
    rng = _stream(seed, _PURPOSE_BOOTSTRAP)
    deltas = np.empty(B)
    for b in range(B):
        thetas = []
        for arm in study.arms():
            idx = rng.integers(0, arm.n, size=arm.n)
            thetas.append(aumcf(arm.take(idx), study.tau, s_convention))
        deltas[b] = thetas[0] - thetas[1]
    return float(np.std(deltas, ddof=1))
