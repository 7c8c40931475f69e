"""Scenario generators, exact true values, and the Monte Carlo harness.

Three generative scenarios are supported: independent competing risks
("icr"), a shared Gamma frailty linking the event and terminal processes
("frailty"), and a piecewise-constant event rate with a change point
("time_varying"). All randomness flows through counter-based Philox
streams keyed by (master seed, purpose, replicate[, arm]), so replicates
are reproducible and independent of execution order. Each arm of a
dataset is one stream drawn as vectors: Poisson event counts per subject
from the cumulative event rate up to follow-up, then the event times by
exact inversion of that rate. This layout is ``STREAM_VERSION`` 2.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace, asdict

import numpy as np

from .core import ArmDataset, StudyDataset, ValidationError
from .estimation import fit_arm
from .inference import contrast

SCENARIO_KINDS = ("icr", "frailty", "time_varying")
COVARIATE_MODES = ("none", "uninformative", "informative")
# the layout of the draws in each stream: bumped whenever the same config
# and seed start to give different datasets
STREAM_VERSION = 2

# stream purposes: keep dataset and bootstrap draws disjoint; both values
# key every stream, so renumbering them would change every draw
_PURPOSE_DATA = 0
_PURPOSE_BOOTSTRAP = 2
# Gauss rules of the exact truth: Hermite over the normal covariate, and
# Legendre on each of _GRADED_PIECES subintervals of each constant piece of
# the event rate, with edges at 0 and 2**-k of its length, k = 40, ..., 0
_HERMITE_NODES = 64
_LEGENDRE_NODES = 16
_GRADED_PIECES = 41
# the bootstrap weighs resamples a block at a time: a block's count matrix
# and the arrays built from it hold about this many cells each
_BOOTSTRAP_CELLS = 2 ** 13


# Every event of an arm is held at once: its uniform, owner, knot, time and
# the arm's sorted columns peak at about 80 bytes an event, so 10^7 events
# in one arm already take about 0.8 GB. A subject takes at least as much
# (its id string alone about 60 bytes), so the same bound caps ``n_per_arm``.
_MAX_ARM_EVENTS = 10_000_000
# run_operating_characteristics holds every replicate's task and results
# until the end, about 0.7 KB a replicate with both methods: 10^6
# replicates take about 0.7 GB.
_MAX_REPLICATES = 1_000_000


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
        # every number must be finite: a draw must not loop forever, and
        # reports echo the config as strict JSON
        if self.kind not in SCENARIO_KINDS:
            raise ValidationError(f"unknown scenario kind {self.kind!r}")
        if self.covariate_mode not in COVARIATE_MODES:
            raise ValidationError(f"unknown covariate mode {self.covariate_mode!r}")
        for name in ("lambda_event", "lambda_death", "rate_multipliers"):
            pair = getattr(self, name)
            if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_finite, pair))):
                raise ValidationError(f"{name} must be a pair of finite numbers")
        for name in ("lambda_censor", "frailty_variance", "change_point", "death_log_effect",
                     "event_log_effect", "tau", "horizon_factor"):
            if not _is_finite(getattr(self, name)):
                raise ValidationError(f"{name} must be a finite number")
        for name in ("n_per_arm", "replicates", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer")
        if min(*self.lambda_event, *self.lambda_death, self.lambda_censor,
               *self.rate_multipliers) < 0:
            raise ValidationError("rates and rate multipliers must be nonnegative")
        # the Gamma frailty's shape is 1 / variance
        v = self.frailty_variance
        if v < 0 or (v > 0 and not math.isfinite(1.0 / v)):
            raise ValidationError("frailty variance must be 0, or positive with a finite reciprocal")
        for name in ("tau", "horizon_factor"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be positive")
        if self.kind == "time_varying" and not 0 < self.change_point < self.tau:
            raise ValidationError("change point must lie in (0, tau)")
        if self.n_per_arm < 1 or self.replicates < 1:
            raise ValidationError("n_per_arm and replicates must be positive")
        for name, limit in (("n_per_arm", _MAX_ARM_EVENTS), ("replicates", _MAX_REPLICATES)):
            if getattr(self, name) > limit:
                raise ValidationError(f"{name} must be at most {limit}")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """The config of a parsed JSON object; lists become tuples."""
        if not isinstance(data, dict):
            raise ValidationError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown config field(s): {sorted(unknown)}")
        data = dict(data)
        for key in ("lambda_event", "lambda_death", "rate_multipliers"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        return cls(**data)


@dataclass(frozen=True)
class TrueValues:
    """True AUMCF values of the two arms, for bias and coverage."""

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


def _is_finite(value) -> bool:
    """A finite real number that is not a bool (JSON ``true`` is not a rate);
    an integer too large for a float is not finite."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _stream(seed: int, *key: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


@functools.lru_cache(maxsize=4)
def _subject_ids(arm: int, n: int) -> np.ndarray:
    """The ids ``a{arm}s{i:06d}`` of a simulated arm of n subjects, built
    once per (arm, n) and process: every replicate shares this read-only
    array, which ``ArmDataset`` copies."""
    ids = np.array([f"a{arm}s{i:06d}" for i in range(n)], dtype=object)
    ids.flags.writeable = False
    return ids


def _draw_arm(config: ScenarioConfig, arm: int, rng: np.random.Generator) -> ArmDataset:
    """One arm (1 or 2) of ``config.n_per_arm`` subjects, drawn as vectors.

    Draw order within the stream is fixed: frailty, covariate, terminal
    times, censoring times, event counts, then one uniform per event.
    Subject i has N_i ~ Poisson(L_i(X_i)) events, where L_i is its
    cumulative event rate (piecewise linear with one knot at the change
    point for ``time_varying``), at times L_i^{-1}(U * L_i(X_i)). When both
    the terminal and censoring rates are zero, follow-up is capped
    administratively at ``horizon_factor * tau`` with no terminal event.
    """
    j = arm - 1
    n = config.n_per_arm
    xi = np.ones(n)
    if config.kind == "frailty" and config.frailty_variance > 0:
        xi = rng.gamma(1.0 / config.frailty_variance, config.frailty_variance, n)
    w = np.empty((n, 0))
    death_scale = event_scale = xi
    # a zero rate divides to an infinite time; a huge one overflows into
    # the event-total check below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if config.covariate_mode != "none":
            w = rng.standard_normal((n, 1))
            if config.covariate_mode == "informative":
                death_scale = xi * np.exp(w[:, 0] * config.death_log_effect)
                event_scale = xi * np.exp(w[:, 0] * config.event_log_effect)
                for name, scale in (("death_log_effect", death_scale),
                                    ("event_log_effect", event_scale)):
                    if not np.isfinite(scale).all():
                        raise ValidationError(
                            f"arm {arm}: {name} {getattr(config, name):g} makes "
                            "exp(w * effect) overflow for a drawn covariate w"
                        )
        death = rng.standard_exponential(n) / (config.lambda_death[j] * death_scale)
        censor = rng.standard_exponential(n) / config.lambda_censor
        x = np.minimum(death, censor)
        terminal = death <= censor
        capped = np.isinf(x)
        x[capped] = config.horizon_factor * config.tau
        terminal[capped] = False

        r1 = config.lambda_event[j] * event_scale
        if config.kind == "time_varying":
            r2, c = config.rate_multipliers[j] * r1, config.change_point
        else:
            r2, c = r1, math.inf
        rate_x = r1 * np.minimum(x, c) + r2 * np.maximum(x - c, 0.0)
        total = rate_x.sum()
        if not total <= _MAX_ARM_EVENTS:
            raise ValidationError(
                f"arm {arm}: {total:.3g} expected events, more than the "
                f"{_MAX_ARM_EVENTS} one arm may hold"
            )
        counts = rng.poisson(rate_x)
        owner = np.repeat(np.arange(n), counts)
        target = rng.random(owner.size) * rate_x[owner]
        knot = r1[owner] * c
        times = np.where(target <= knot, target / r1[owner],
                         c + (target - knot) / r2[owner])
    return ArmDataset(
        arm,
        _subject_ids(arm, n),
        x,
        terminal,
        w,
        np.minimum(times, x[owner]),  # round-off may overshoot X
        owner,
        np.zeros(owner.size, dtype=np.int64),
    )


def generate_dataset(config: ScenarioConfig, replicate: int) -> StudyDataset:
    """Deterministic dataset for one replicate of the scenario: each arm
    is drawn from its own stream keyed by (seed, data purpose, replicate, arm)."""
    arm1, arm2 = (_draw_arm(config, arm, _stream(config.seed, _PURPOSE_DATA, replicate, arm))
                  for arm in (1, 2))
    names = ("w1",) if config.covariate_mode != "none" else ()
    return StudyDataset(arm1, arm2, tau=config.tau, covariate_names=names)


def true_value_oracle(config: ScenarioConfig) -> TrueValues:
    """Exact AUMCF of each arm, the mean of its estimate with no censoring.

    theta_j = int_0^U (tau - u) lambda_j(u) E[xi e^{b_E w} exp(-lambda_D,j
    xi e^{b_D w} u)] du, the mean cumulative count of events before death
    integrated over [0, tau]. The Gamma frailty xi (mean 1, variance v)
    gives E[xi e^{-a xi}] = (1 + a v)^{-(1/v + 1)}; w ~ N(0, 1) in the
    informative mode and 0 otherwise. U is tau, or the administrative cap
    ``horizon_factor * tau`` if smaller when the arm has no deaths. Each
    constant piece of lambda_j is integrated on subintervals that halve in
    length toward its start, so survival that falls on a scale far below
    tau keeps the integral at round-off (4e-16 relative at a frailty
    v * lambda_D * tau of 2,500); the Gauss-Hermite rule over w loses
    digits when an effect |b| is large (4e-10 at 4).
    """
    # imported here: numpy.polynomial adds about 3 ms to every import
    from numpy.polynomial.hermite_e import hermegauss
    from numpy.polynomial.legendre import leggauss

    tau, v = config.tau, config.frailty_variance
    w, pw = np.zeros(1), np.ones(1)  # the covariate is 0 outside the informative mode
    if config.covariate_mode == "informative":
        w, pw = hermegauss(_HERMITE_NODES)
        pw = pw / math.sqrt(2 * math.pi)  # weights of the standard normal density
    event_scale = pw * np.exp(config.event_log_effect * w)
    death_scale = np.exp(config.death_log_effect * w)
    x, g = leggauss(_LEGENDRE_NODES)
    grading = np.concatenate(([0.0], 0.5 ** np.arange(_GRADED_PIECES - 1, -1, -1.0)))
    thetas = []
    for j in range(2):
        lam_d = config.lambda_death[j]
        upper = tau if lam_d > 0 else min(tau, config.horizon_factor * tau)
        knot = min(config.change_point, upper) if config.kind == "time_varying" else upper
        theta = 0.0
        for lo, hi, rate in ((0.0, knot, 1.0), (knot, upper, config.rate_multipliers[j])):
            edges = lo + (hi - lo) * grading
            half = np.diff(edges)[:, None] / 2
            u = (edges[:-1, None] + half * (x + 1)).ravel()
            a = lam_d * death_scale[:, None] * u
            if config.kind == "frailty" and v > 0:
                alive = np.exp(-(1 / v + 1) * np.log1p(a * v))  # log1p: exact as v -> 0
            else:
                alive = np.exp(-a)
            theta += rate * (event_scale @ alive @ ((half * g).ravel() * (tau - u)))
        thetas.append(config.lambda_event[j] * float(theta))
    return TrueValues(theta1=thetas[0], theta2=thetas[1])


def _replicate_worker(args):
    config, rep, methods, alpha = args
    study = generate_dataset(config, rep)
    res = contrast(study, alpha, "left", augment="adjusted" in methods)
    by_method = ({"unadjusted": res.unadjusted, "adjusted": res.adjusted}
                 if "adjusted" in methods else {"unadjusted": res})
    return {m: (r.point, r.se, r.ci_lower, r.ci_upper, r.p_value)
            for m, r in by_method.items() if m in methods}


def run_operating_characteristics(
    config: ScenarioConfig,
    methods: tuple[str, ...] = ("unadjusted",),
    truth: TrueValues | float | None = None,
    alpha: float = 0.05,
    n_jobs: int = 1,
) -> OperatingCharacteristics:
    """Monte Carlo operating characteristics of the requested contrasts.

    ``truth`` supplies the true difference for bias and coverage (a
    :class:`TrueValues` or a plain float); when omitted it is the exact
    value from :func:`true_value_oracle`.
    Replicates may run in up to ``n_jobs`` worker processes, never more
    than there are replicates; results are aggregated in replicate order,
    so parallel equals serial bitwise.
    """
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, numbers.Integral):
        raise ValidationError("n_jobs must be an integer")
    if n_jobs < 1:
        raise ValidationError("n_jobs must be at least 1")
    for m in methods:
        if m not in ("unadjusted", "adjusted"):
            raise ValidationError(f"unknown method {m!r}")
    if "adjusted" in methods and config.covariate_mode == "none":
        raise ValidationError("adjusted method requires a covariate mode")
    if truth is None:
        truth = true_value_oracle(config)
    true_delta = truth.delta if isinstance(truth, TrueValues) else float(truth)

    reps = config.replicates
    # made one at a time as the replicates run, so no list of every task is held
    tasks = ((config, r, methods, alpha) for r in range(reps))
    workers = min(n_jobs, reps)
    if workers > 1:
        # imported here: the pool machinery adds about 2 MB to every import
        from concurrent.futures import ProcessPoolExecutor

        # map yields the results in task order
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_worker, tasks,
                                    chunksize=max(1, reps // (8 * workers))))
    else:
        results = list(map(_replicate_worker, tasks))

    rows = []
    for method in methods:
        rec = np.array([res[method] for res in results])  # point, se, lo, hi, p
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
) -> list[tuple[float, OperatingCharacteristics]]:
    """Operating characteristics across a terminal-rate grid for one arm.

    The base config must be a null scenario; bias and coverage are measured
    against the nominal null difference of zero, so a nonzero bias here
    quantifies the survival-bias failure mode (the arm with the lower
    terminal rate accrues more events purely by surviving longer). The
    grid is applied to ``modified_arm`` (default arm 1, so the reported
    difference is positive when that arm's mortality is reduced).
    """
    if not (isinstance(modified_arm, numbers.Integral) and modified_arm in (1, 2)):
        raise ValidationError(f"modified_arm must be 1 or 2, got {modified_arm!r}")
    out = []
    for rate in death_rates:
        rates = list(config.lambda_death)
        rates[modified_arm - 1] = rate
        cfg = replace(config, lambda_death=tuple(rates))
        out.append((rate, run_operating_characteristics(cfg, truth=0.0)))
    return out


def bootstrap_se(
    study: StudyDataset,
    B: int = 1000,
    seed: int = 0,
) -> float:
    """Nonparametric bootstrap SE of the AUMCF difference.

    Subject-level resampling with replacement within each arm; the SD of
    the B resampled differences. Deterministic given the seed. Each
    resample is one ``rng.integers(0, n, size=n)`` draw per arm, arm 1
    then arm 2 for each b, held as a count vector over the original arm's
    subjects: its AUMCF is a sum over the original arm's jumps on
    [0, tau] weighted by the counts, so no resampled arm is built. The SE
    agrees with refitting each resampled arm to round-off.
    """
    if isinstance(B, bool) or not isinstance(B, numbers.Integral):
        raise ValidationError("B must be an integer")
    if B < 100:
        raise ValidationError("B must be at least 100")
    rng = _stream(seed, _PURPOSE_BOOTSTRAP)
    arms = study.arms()
    fits = [fit_arm(arm, study.tau) for arm in arms]
    rows = max(1, _BOOTSTRAP_CELLS // max(arm.n + arm.event_times.size for arm in arms))
    deltas = np.empty(B)
    for lo in range(0, B, rows):
        size = min(rows, B - lo)
        counts = [np.empty((size, arm.n), dtype=np.int64) for arm in arms]
        for b in range(size):
            for arm, c in zip(arms, counts):
                c[b] = np.bincount(rng.integers(0, arm.n, size=arm.n), minlength=arm.n)
        theta1, theta2 = (fit.thetas(c) for fit, c in zip(fits, counts))
        deltas[lo:lo + size] = theta1 - theta2
    return float(np.std(deltas, ddof=1))
