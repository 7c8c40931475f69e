"""aumcf benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workload.py`` or ``all``. Run from
anywhere; the program under test is ``src/aumcf`` of the checkout that
holds this file. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it,
prefixed ``#``, give the environment and a per-workload summary that adds
the wall-clock ``op_p50_s`` and ``subjects_per_s``, ``fail_frac`` and, with
at least 100 timed ops, ``op_p90_s`` and ``op_p90_ref``. See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs
from workload import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
SETUP_SAMPLES = 7
P90_MIN_OPS = 100
DEADLINE_S = 170.0
# workloads whose input is a CSV; True where the check needs per-type thetas
CSV_INPUTS = {"trial_csv_10k": False, "reanalysis_n2000": True, "bootstrap_n200": False}
# single-threaded BLAS, fixed string hashing, and bytecode cached as after an
# install, so that set-up time does not depend on the caller's environment
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _spawn(spec: dict, spec_path: Path, deadline: float) -> dict:
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned_at = time.monotonic()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("workload.py")),
         str(spec_path), repr(spawned_at)],
        env=env, stdout=sys.stderr, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads(Path(spec["result"]).read_text())


def run_workload(name, seed, seconds, trace, size, corrupt_op, deadline) -> dict:
    """Time set-up in ``SETUP_SAMPLES`` fresh processes, the middle one of
    which goes on to run the ops. Half the others come before it and half
    after, so the median set-up time does not hang on the machine's state
    in one short moment."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        tmp = Path(tmp)
        spec = {
            "workload": name, "root": str(ROOT), "seed": seed, "seconds": seconds,
            "trace": bool(trace), "size": size, "corrupt_op": corrupt_op,
            "tau": inputs.TAU, "input": None, "result": str(tmp / "result.json"),
            "trace_path": str(WORK_DIR / f"trace-{name}.npz"),
        }
        if name in CSV_INPUTS:
            spec["input"] = inputs.write_input(
                tmp / "input.csv", SIZES[size][name]["n"], seed, CSV_INPUTS[name]
            )

        def setup_only():
            return _spawn(dict(spec, mode="setup"), tmp / "spec.json", deadline)["setup_s"]

        before = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
        result = _spawn(dict(spec, mode="run"), tmp / "spec.json", deadline)
        after = [setup_only() for _ in range(SETUP_SAMPLES // 2)]
    result["setup_samples"] = before + [result["setup_s"]] + after
    if spec["input"]:
        result["input"] = {k: spec["input"][k] for k in ("sha256", "rows")}
    return result


def end_to_end(r: dict) -> tuple[dict, dict]:
    """Bounded metrics and the human-readable summary of one workload."""
    ops, costs = r["op_s"], r["op_ref"]
    metrics = {
        "setup_s": {"value": statistics.median(r["setup_samples"]), "unit": "s"},
        "op_p50_ref": {"value": statistics.median(costs), "unit": "ref"},
        "subjects_per_ref": {"value": r["subjects_per_op"] * len(costs) / sum(costs),
                             "unit": "1/ref"},
        "peak_rss_mb": {"value": r["peak_rss_mb"], "unit": "MB"},
    }
    summary = {k: v["value"] for k, v in metrics.items()}
    summary.update(
        ops=r["attempted"],
        timed_ops=len(ops),
        op_p50_s=statistics.median(ops),
        op_p90_s=p90(ops),
        op_p90_ref=p90(costs),
        subjects_per_s=r["subjects_per_op"] * len(ops) / sum(ops),
        ref_unit_s=statistics.median(o / c for o, c in zip(ops, costs)),
        probe_samples=r["probe_samples"],
        fail_frac=r["failed"] / r["attempted"],
        setup_samples=r["setup_samples"],
        errors=r["errors"],
    )
    return metrics, summary


def p90(values):
    """The 90th percentile, only with at least ten samples beyond it."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= P90_MIN_OPS else None


def per_layer(r: dict) -> tuple[dict, dict]:
    """Per-op layer metrics of the traced half, plus the tracing overhead."""
    metrics = dict(r["per_layer"])
    overhead = statistics.median(r["traced_op_ref"]) / statistics.median(r["op_ref"]) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.absent_targets"] = {"value": len(r["absent"]), "unit": "count"}
    summary = {
        "ops": r["attempted"],
        "untraced_ops": len(r["op_s"]),
        "traced_ops": len(r["traced_op_s"]),
        "fail_frac": r["failed"] / r["attempted"],
        "absent": r["absent"],
        "errors": r["errors"],
    }
    return metrics, summary


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' is for the self-test only")
    parser.add_argument("--corrupt-op", type=int, default=-1,
                        help="falsify this op's output before its check (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "aumcf" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'aumcf'} is missing",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {
        name: run_workload(name, args.seed, args.seconds, args.trace, args.size,
                           args.corrupt_op, deadline)
        for name in names
    }
    first = next(iter(results.values()))
    env = dict(
        first["environment"], nproc=os.cpu_count(), git_sha=git_sha(),
        setup_samples=SETUP_SAMPLES, seconds=args.seconds, seed=args.seed,
        size=args.size, inputs={n: r["input"] for n, r in results.items() if "input" in r},
    )
    print("# environment " + json.dumps(env, sort_keys=True))
    metrics = {}
    for name, r in results.items():
        m, summary = (per_layer if args.trace else end_to_end)(r)
        print(f"# {name} " + json.dumps(summary))
        prefix = f"{name}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
