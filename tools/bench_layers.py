"""Time the layers of a CSV read and of an arm build, best of 15, each with
its tracemalloc peak, and the CLI as a fresh process, best of 15 with the
child's peak RSS, and record them under LABEL in BENCH_layers.json; run it
again under the same LABEL to keep each layer's best over the runs.

Usage: PYTHONPATH=src python tools/bench_layers.py LABEL

The CSV at n/arm is perfbench/inputs.make_study_csv(n, 1); the simulated
arm is arm 1 of generate_dataset(ScenarioConfig(n_per_arm=n), 0). Each
ArmDataset build is timed on the arguments the reader or the simulator
gave it. The CLI layer runs ``python -m aumcf.cli compare CSV --tau 2
--covariates w1,w2`` from the tree that PYTHONPATH names, stdout to
/dev/null.
"""

import io, json, os, platform, subprocess, sys, tempfile, time, tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (200, 1000, 10_000, 100_000)  # n/arm
REPEAT = 15
sys.path.insert(0, str(ROOT / "perfbench"))
from inputs import make_study_csv  # noqa: E402

import aumcf  # noqa: E402
from aumcf import core, simulation  # noqa: E402
from aumcf.simulation import ScenarioConfig, generate_dataset  # noqa: E402


def first_build(module, call):
    """A rebuild of the first ArmDataset that ``call`` builds through
    ``module``, from the very arguments it was given."""
    args, real = [], module.ArmDataset
    module.ArmDataset = lambda *a: args.append(a) or real(*a)
    try:
        call()
    finally:
        module.ArmDataset = real
    return lambda: real(*args[0])


def measure(fn):
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    fn()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"best_ms": round(min(times) * 1e3, 3), "peak_mb": round(peak / 2**20, 3)}


# times a fresh process from a small launcher: a spawned process's
# ru_maxrss starts at the peak RSS of the process that spawned it, which
# here would be this script's
_LAUNCHER = """
import json, os, sys, time
argv, to_null = sys.argv[2:], [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
times, rss = [], []
for _ in range(int(sys.argv[1])):
    start = time.perf_counter()
    status, usage = os.wait4(os.posix_spawn(argv[0], argv, os.environ, file_actions=to_null), 0)[1:]
    times.append(time.perf_counter() - start)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{argv} exited with status {status}")
    rss.append(usage.ru_maxrss)  # KiB on Linux
print(json.dumps([min(times), min(rss)]))
"""


def measure_process(argv):
    """Best-of wall time of a fresh process, and the least of its runs'
    peak RSS, from the rusage that ``os.wait4`` returns."""
    env = dict(os.environ, PYTHONPATH=str(Path(aumcf.__file__).parents[1]))
    # the first run caches the bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out = subprocess.run([sys.executable, "-c", _LAUNCHER, str(REPEAT), *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    best, rss = json.loads(out)
    return {"best_ms": round(best * 1e3, 3), "peak_rss_mb": round(rss / 1024, 3)}


def layers(n):
    raw = make_study_csv(n, 1)[0]
    stream = lambda: io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    columns = core._read_columns(stream())[0]
    config = ScenarioConfig(n_per_arm=n, replicates=1)
    timed = {name: measure(fn) for name, fn in (
        ("read_study_csv", lambda: core.read_study_csv(raw, 2.0)),
        ("_read_columns", lambda: core._read_columns(stream())),
        ("_arms_from_rows", lambda: core._arms_from_rows(*columns)),
        ("ArmDataset_csv_arm", first_build(core, lambda: core.read_study_csv(raw, 2.0))),
        ("ArmDataset_simulated_arm", first_build(simulation, lambda: generate_dataset(config, 0))),
    )}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "study.csv")
        Path(path).write_bytes(raw)
        timed["cli_compare_process"] = measure_process(
            [sys.executable, "-m", "aumcf.cli", "compare", path, "--tau", "2",
             "--covariates", "w1,w2"])
    return timed


def main(label):
    out = ROOT / "BENCH_layers.json"
    doc = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    doc["environment"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(), "platform": platform.platform(),
    }
    runs = doc["runs"].setdefault(label, {})
    for n in SIZES:
        # a label run again keeps each layer's best time over its runs
        old, runs[str(n)] = runs.get(str(n), {}), layers(n)
        for name, m in runs[str(n)].items():
            m["best_ms"] = min(m["best_ms"], old.get(name, m)["best_ms"])
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
