"""Run one benchmark workload in this fresh process.

Usage: ``python3 perfbench/workload.py SPEC_JSON SPAWNED_AT``, started by
``run.py``. ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just
before the spawn, so set-up time counts interpreter start, the imports and
loading the input. With mode ``setup`` the process stops once it is ready
for the first op; with mode ``run`` it then runs closed-loop ops (one
client, no think time) for the given seconds and checks each op's output.
The result goes to the JSON file named in the spec.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

SIZES = {
    "full": {
        "trial_csv_10k": {"n": 10_000},
        "mc_frailty_n200": {"n": 200, "replicates": 20},
        "reanalysis_n2000": {"n": 2000},
        "bootstrap_n200": {"n": 200, "B": 200},
    },
    "tiny": {
        "trial_csv_10k": {"n": 300},
        "mc_frailty_n200": {"n": 30, "replicates": 3},
        "reanalysis_n2000": {"n": 200},
        "bootstrap_n200": {"n": 40, "B": 100},
    },
}
WEIGHTS = {1: 1.0, 2: 2.0, 3: 0.5}
REL_TOL = 1e-9
METHODS = ("unadjusted", "adjusted")
# wall-clock seconds between two samples of the speed probe
PROBE_PERIOD_S = 0.01
_REF_VALUES = [((i * 7919) % 10007) / 97 for i in range(300)]
_REF_ARRAY = np.random.default_rng(0).random(2000)


class Mismatch(Exception):
    """An op's output failed its check."""


def _close(name, got, want):
    if not abs(got - want) <= REL_TOL * max(abs(want), 1e-300):
        raise Mismatch(f"{name}: got {got!r}, reference {want!r}")


def _positive(name, value):
    if not (math.isfinite(value) and value > 0):
        raise Mismatch(f"{name}: {value!r} is not finite and positive")


def _reject_constant(token):
    raise Mismatch(f"non-JSON constant {token} in output")


def _hex(values):
    return tuple(float(v).hex() for v in values)


class TrialCsv:
    """The CLI ``compare --covariates w1,w2`` run in-process on the CSV."""

    def __init__(self, spec, size):
        import aumcf.cli

        self.cli = aumcf.cli.main
        self.input = spec["input"]
        self.argv = ["compare", self.input["path"], "--tau", repr(spec["tau"]),
                     "--covariates", "w1,w2"]
        self.subjects_per_op = 2 * size["n"]

    def op(self, k):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            self.cli.main(args=self.argv, prog_name="aumcf", standalone_mode=False)
        return buf.getvalue()

    def check(self, out):
        payload = json.loads(out, parse_constant=_reject_constant)
        if payload["provenance"]["input_sha256"] != self.input["sha256"]:
            raise Mismatch("provenance hash differs from the input's")
        ref = self.input["reference"]
        for part in METHODS:
            res = payload[part]
            _close(f"{part}.theta1", res["theta1"], ref["1"]["theta"])
            _close(f"{part}.theta2", res["theta2"], ref["2"]["theta"])
            _positive(f"{part}.se", res["se"])

    def corrupt(self, out):
        payload = json.loads(out)
        payload["adjusted"]["theta1"] *= 1 + 1e-6
        return json.dumps(payload)


class McFrailty:
    """Monte Carlo operating characteristics of a frailty scenario."""

    def __init__(self, spec, size):
        import aumcf

        self.aumcf = aumcf
        self.seed = spec["seed"]
        self.size = size
        self.subjects_per_op = 2 * size["n"] * size["replicates"]

    def op(self, k):
        config = self.aumcf.ScenarioConfig(
            kind="frailty", covariate_mode="informative", tau=1.0,
            n_per_arm=self.size["n"], replicates=self.size["replicates"],
            seed=self.seed + k,
        )
        # identical arms, so the true difference is zero
        return self.aumcf.run_operating_characteristics(
            config, methods=METHODS, truth=0.0, n_jobs=1
        )

    def check(self, oc):
        if tuple(r.method for r in oc.rows) != METHODS:
            raise Mismatch(f"methods {[r.method for r in oc.rows]}")
        for r in oc.rows:
            if r.replicates != self.size["replicates"]:
                raise Mismatch(f"{r.method}: {r.replicates} replicates")
            for name in ("rejection_rate", "coverage"):
                value = getattr(r, name)
                if not 0.0 <= value <= 1.0:
                    raise Mismatch(f"{r.method}.{name} = {value!r}")
            for name in ("bias", "ese", "ase"):
                if not math.isfinite(getattr(r, name)):
                    raise Mismatch(f"{r.method}.{name} is not finite")

    def fingerprint(self, oc):
        return [(r.method, _hex(dataclasses.astuple(r)[1:])) for r in oc.rows]

    def corrupt(self, oc):
        rows = (dataclasses.replace(oc.rows[0], coverage=1.5),) + oc.rows[1:]
        return dataclasses.replace(oc, rows=rows)


class Reanalysis:
    """The full analysis menu on a study loaded at set-up."""

    def __init__(self, spec, size):
        import aumcf

        self.aumcf = aumcf
        self.input = spec["input"]
        self.study = aumcf.read_study_csv(self.input["path"], spec["tau"])
        self.tau = spec["tau"]
        self.subjects_per_op = 2 * size["n"]

    def op(self, k):
        a, study = self.aumcf, self.study
        return {
            "difference": a.contrast_difference(study),
            "ratio": a.contrast_ratio(study),
            "augmented": a.augmented_contrast(study),
            "weighted": a.weighted_contrast(study, WEIGHTS),
            "curves": [(a.mcf(arm), a.km_survival(arm)) for arm in study.arms()],
        }

    def check(self, out):
        ref = self.input["reference"]
        aug = out["augmented"]
        for name, res in (("difference", out["difference"]), ("ratio", out["ratio"]),
                          ("unadjusted", aug.unadjusted), ("adjusted", aug.adjusted)):
            _close(f"{name}.theta1", res.theta1, ref["1"]["theta"])
            _close(f"{name}.theta2", res.theta2, ref["2"]["theta"])
            _positive(f"{name}.se", res.se)
        res = out["weighted"]
        for arm, got in (("1", res.theta1), ("2", res.theta2)):
            want = sum(w * ref[arm]["theta_by_type"][str(k)] for k, w in WEIGHTS.items())
            _close(f"weighted.theta{arm}", got, want)
        _positive("weighted.se", res.se)
        for arm, (mcf, km) in zip(("1", "2"), out["curves"]):
            _close(f"mcf{arm}(tau)", float(mcf(self.tau)), ref[arm]["mcf_tau"])
            _close(f"km{arm}(tau)", float(km(self.tau)), ref[arm]["km_tau"])

    def corrupt(self, out):
        diff = out["difference"]
        return dict(out, difference=dataclasses.replace(diff, theta1=diff.theta1 * (1 + 1e-6)))


class Bootstrap:
    """Bootstrap SE of the AUMCF difference on a study loaded at set-up."""

    def __init__(self, spec, size):
        import aumcf

        self.aumcf = aumcf
        self.study = aumcf.read_study_csv(spec["input"]["path"], spec["tau"])
        self.B = size["B"]
        self.subjects_per_op = 2 * size["n"] * self.B

    def op(self, k):
        return self.aumcf.bootstrap_se(self.study, B=self.B, seed=k)

    def check(self, se):
        _positive("bootstrap se", se)

    def fingerprint(self, se):
        return _hex([se])

    def corrupt(self, se):
        return -se


WORKLOADS = {
    "trial_csv_10k": TrialCsv,
    "mc_frailty_n200": McFrailty,
    "reanalysis_n2000": Reanalysis,
    "bootstrap_n200": Bootstrap,
}


def environment():
    """Versions and settings that decide which numbers may be compared."""
    import importlib.util

    import numpy

    import aumcf

    kernels = sys.modules.get("aumcf._kernels")
    active = getattr(kernels, "active_backend", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "aumcf": getattr(aumcf, "__version__", "unknown"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": active() if callable(active) else "absent",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "writes_bytecode": not sys.dont_write_bytecode,
    }


def reference_unit():
    """One unit of a fixed task that shares no code with aumcf, about 0.1 ms
    of grouping and sorting in Python and sorting a numpy array, the kinds
    of work the ops do. Its time measures how fast the machine runs."""
    sums = {}
    for i, v in enumerate(_REF_VALUES):
        sums[i % 17] = sums.get(i % 17, 0.0) + v
    ordered = sorted(_REF_VALUES)
    return ordered[0] + float(np.sort(_REF_ARRAY)[0]) + len(sums)


class SpeedProbe:
    """Times one reference unit every ``PROBE_PERIOD_S`` of wall time, from
    a SIGALRM handler, so inside the ops. The shared host runs this process
    up to twice as slow in stretches from a fraction of a second to minutes;
    an op's time over the mean unit time sampled during it (its cost in
    reference units, ``ref``) does not move with that speed, while its time
    does. Each sample runs the unit once untimed first: a unit timed with
    its code and data still evicted by the op slows more in the slow
    stretches than the op itself does. The probe's own time (a few percent
    of an op) is counted apart, so that it can be taken out of the op's."""

    def __init__(self):
        self.unit_s = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # the unit must not pay for scanning the program's objects
        reference_unit()
        t1 = time.perf_counter()
        reference_unit()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.unit_s.append(t2 - t1)
        self.spent_s += time.perf_counter() - t0

    def start(self):
        for _ in range(50):
            reference_unit()
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.unit_s), self.spent_s

    def since(self, mark):
        """Probe seconds since ``mark`` and the mean unit time sampled then,
        or the latest sample when none fell in that interval."""
        n, spent = mark
        return self.spent_s - spent, statistics.fmean(self.unit_s[n:] or self.unit_s[-1:])


def run_ops(workload, spec):
    """Closed-loop ops for ``spec['seconds']``. In a traced run every odd op
    runs with the tracer installed, so traced and untraced ops see the same
    machine conditions and their difference is the tracing overhead.

    Each op's time, less the speed probe's, is recorded in seconds and in
    reference units (see ``SpeedProbe``)."""
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    times = []  # (op, seconds, cost in reference units, traced)
    failed, errors = set(), []
    first = None
    k = 0
    probe = SpeedProbe()
    probe.start()
    stop = time.perf_counter() + spec["seconds"]
    while k < (2 if tracer else 1) or time.perf_counter() < stop:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.op = k
            tracer.install()
        mark = probe.mark()
        t0 = time.perf_counter()
        try:
            out, error = workload.op(k), None
        except (Exception, SystemExit) as exc:  # an op that fails is counted, not fatal
            out, error = None, exc
        dt = time.perf_counter() - t0
        probe_s, unit_s = probe.since(mark)
        if traced:
            tracer.uninstall()
        if error is None:
            try:
                if k == 0 and hasattr(workload, "fingerprint"):
                    first = workload.fingerprint(out)
                workload.check(workload.corrupt(out) if k == spec["corrupt_op"] else out)
            except (Exception, SystemExit) as exc:
                error = exc
        if error is not None:
            failed.add(k)
            errors.append(f"op {k}: {type(error).__name__}: {error}")
        dt -= probe_s
        times.append((k, dt, dt / unit_s, traced))
        k += 1
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # op 0 again, untimed: the same inputs must give bitwise the same output
    if first is not None and 0 not in failed:
        try:
            again = workload.fingerprint(workload.op(0))
        except (Exception, SystemExit) as exc:
            again = f"{type(exc).__name__}: {exc}"
        if again != first:
            failed.add(0)
            errors.append("op 0 repeated: output differs from the first run")

    def op_times(traced):
        """Seconds and costs of the ops that passed, op 0 (the warm-up)
        left out when there are others."""
        ops = [row for row in times if row[3] == traced]
        kept = ([row for row in ops if row[0] not in failed and row[0] != 0]
                or [row for row in ops if row[0] not in failed] or ops)
        return [row[1] for row in kept], [row[2] for row in kept]

    op_s, op_ref = op_times(False)
    result = {
        "attempted": k,
        "failed": len(failed),
        "errors": errors[:5],
        "op_s": op_s,
        "op_ref": op_ref,
        "probe_samples": len(probe.unit_s),
        "subjects_per_op": workload.subjects_per_op,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["traced_op_s"], result["traced_op_ref"] = op_times(True)
        result["per_layer"] = tracer.summary(sum(row[3] for row in times))
        result["absent"] = tracer.absent
        tracer.write(spec["trace_path"])
    return result


def main(spec_path, spawned_at):
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    sys.path.insert(0, src)
    size = SIZES[spec["size"]][spec["workload"]]
    workload = WORKLOADS[spec["workload"]](spec, size)
    setup_s = time.monotonic() - spawned_at
    loaded_from = os.path.realpath(sys.modules["aumcf"].__file__)
    if not loaded_from.startswith(src + os.sep):
        sys.exit(f"aumcf was imported from {loaded_from}, not from {src}")
    result = {"setup_s": setup_s}
    if spec["mode"] == "run":
        result["environment"] = environment()
        result.update(run_ops(workload, spec))
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
