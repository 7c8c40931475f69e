"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload, traced and untraced: the run exits 0, its last line is
the result object with exactly the metrics ``BENCHMARK.json`` names (with
their units), and no op fails. With one op's output falsified, that op is
counted as failed. A copy of the benchmark without the program must exit
non-zero without a result, and a tracer target that no longer exists is
reported absent. Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.5",
         "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc, what):
    if proc.returncode != 0:
        sys.exit(f"FAIL {what}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        sys.exit(f"FAIL {what}: result keys {sorted(result)}")
    summary = json.loads(lines[-2].split(" ", 2)[2])
    return result, summary


def check_absent_targets():
    """A removed function or module is reported absent, not raised."""
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import PER_LAYER, TARGETS, Tracer

    gone = (("core.gone", "aumcf.core", "no_such_function"),
            ("kernels.gone", "aumcf.no_such_module", "influence_accumulate"))
    tracer = Tracer(TARGETS + gone)
    tracer.install()
    tracer.uninstall()
    if tracer.absent != ["core.gone", "kernels.gone"]:
        sys.exit(f"FAIL absent targets: {tracer.absent}")
    if set(tracer.summary(1)) != set(PER_LAYER):
        sys.exit("FAIL absent targets: per-layer metrics missing")
    print("ok   removed targets reported absent")


def main():
    check_absent_targets()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            result, summary = result_of(run(["--workload", workload, "--trace", str(trace)]), what)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                sys.exit(f"FAIL {what}: metrics {units} != {expected[trace]}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                sys.exit(f"FAIL {what}: a metric value is not a number")
            if not result["correct"] or result["failed"] or summary["fail_frac"] != 0:
                sys.exit(f"FAIL {what}: failures {summary['errors']}")
            print(f"ok   {what}: {result['attempted']} ops")
        what = f"{workload} with op 0 falsified"
        result, summary = result_of(run(["--workload", workload, "--corrupt-op", "0"]), what)
        if result["correct"] or result["failed"] != 1 or summary["fail_frac"] <= 0:
            sys.exit(f"FAIL {what}: not counted ({result['failed']} failed)")
        print(f"ok   {what}: fail_frac {summary['fail_frac']:.3g}")
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "bootstrap_n200", "--trace", "0"], cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            sys.exit("FAIL without the program: the benchmark did not refuse")
    print("ok   without the program: refused")


if __name__ == "__main__":
    main()
