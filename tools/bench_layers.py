"""Time the layers of a CSV read, of an arm build, of the fits and
contrasts, of the bootstrap and of a simulated draw, each with its
tracemalloc peak, and the CLI as a fresh process with the child's peak
RSS, for each of several source trees, and record each layer's best time
under the tree's LABEL in BENCH_layers.json.

Usage: python tools/bench_layers.py LABEL=TREE [LABEL=TREE ...]

TREE is the root of a checkout, whose src/aumcf is timed. At each size
the trees take turns, ROUNDS times, the order reversed every other round;
each round is a fresh process (``PYTHONPATH=TREE/src python
tools/bench_layers.py N`` prints one round at n/arm N as JSON) that runs
each layer REPEAT times. A layer's best is its least time over the rounds,
and over earlier runs under the same LABEL, so that one slow spell of the
machine does not cover a whole label's runs.

The CSV at n/arm is perfbench/inputs.make_study_csv(n, 1), read from its
bytes, as the CLI hands them over, and from a copy whose line breaks are
bare CRs; the study is that CSV read at tau 2. The simulated arm is arm 1
of generate_dataset(ScenarioConfig(n_per_arm=n), 0). ``_read_columns``,
``_arms_from_rows`` and each ArmDataset build are timed on the arguments
that the reader or the simulator gave them, so the script times older
trees too. ``fit_arm`` and ``fit_influence`` fit arm 1 of the study; the
contrasts and ``bootstrap_se`` (B=200, seed 0) take the whole study, the
weighted one with the benchmark's weights {1: 1, 2: 2, 3: 0.5}. The CLI
layer runs ``python -m aumcf.cli compare CSV --tau 2 --covariates w1,w2``
from the tree, stdout to /dev/null.
"""

import json, os, platform, subprocess, sys, tempfile, time, tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIZES = (200, 1000, 10_000, 100_000)  # n/arm
ROUNDS = 3
REPEAT = 5  # runs of each layer in one round
sys.path.insert(0, str(ROOT / "perfbench"))
from inputs import make_study_csv  # noqa: E402

WEIGHTS = {1: 1.0, 2: 2.0, 3: 0.5}


def first_call(module, name, call):
    """A rerun of the first call that ``call`` makes to ``module.name``,
    on the very arguments it was given; an argument that is a stream, as
    an older reader was handed, is rewound before each rerun."""
    args, real = [], getattr(module, name)
    setattr(module, name, lambda *a: args.append(a) or real(*a))
    try:
        call()
    finally:
        setattr(module, name, real)

    def rerun():
        for a in args[0]:
            if hasattr(a, "seek"):
                a.seek(0)
        return real(*args[0])
    return rerun


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
    """One round at n/arm: each layer's best of REPEAT runs, from the
    aumcf that PYTHONPATH names."""
    raw = make_study_csv(n, 1)[0]
    bare_cr = raw.replace(b"\n", b"\r")
    read = lambda: core.read_study_csv(raw, 2.0)
    study = read()
    fit = aumcf.fit_arm(study.arm1, study.tau)
    config = ScenarioConfig(n_per_arm=n, replicates=1)
    timed = {name: measure(fn) for name, fn in (
        ("read_study_csv", read),
        ("read_study_csv_bare_cr", lambda: core.read_study_csv(bare_cr, 2.0)),
        ("_read_columns", first_call(core, "_read_columns", read)),
        ("_arms_from_rows", first_call(core, "_arms_from_rows", read)),
        ("ArmDataset_csv_arm", first_call(core, "ArmDataset", read)),
        ("ArmDataset_simulated_arm",
         first_call(simulation, "ArmDataset", lambda: generate_dataset(config, 0))),
        ("fit_arm", lambda: aumcf.fit_arm(study.arm1, study.tau)),
        ("fit_influence", lambda: aumcf.fit_influence(fit)),
        ("contrast_difference", lambda: aumcf.contrast_difference(study)),
        ("contrast_ratio", lambda: aumcf.contrast_ratio(study)),
        ("weighted_contrast", lambda: aumcf.weighted_contrast(study, WEIGHTS)),
        ("augmented_contrast", lambda: aumcf.augmented_contrast(study)),
        ("bootstrap_se_B200", lambda: aumcf.bootstrap_se(study, B=200, seed=0)),
        ("generate_dataset", lambda: generate_dataset(config, 0)),
    )}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "study.csv")
        Path(path).write_bytes(raw)
        timed["cli_compare_process"] = measure_process(
            [sys.executable, "-m", "aumcf.cli", "compare", path, "--tau", "2",
             "--covariates", "w1,w2"])
    return timed


def main(pairs):
    trees = [pair.split("=", 1) for pair in pairs]
    out = ROOT / "BENCH_layers.json"
    doc = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    doc["environment"] = {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(), "platform": platform.platform(),
    }
    for n in SIZES:
        for r in range(ROUNDS):
            for label, tree in trees[::-1] if r % 2 else trees:
                src = Path(tree).resolve() / "src"
                env = dict(os.environ, PYTHONPATH=str(src))
                timed = json.loads(subprocess.run(
                    [sys.executable, __file__, str(n)], env=env,
                    stdout=subprocess.PIPE, text=True, check=True).stdout)
                # a label keeps each layer's best time over its rounds and runs
                old = doc["runs"].setdefault(label, {}).get(str(n), {})
                for name, m in timed.items():
                    m["best_ms"] = min(m["best_ms"], old.get(name, m)["best_ms"])
                doc["runs"][label][str(n)] = timed
        out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] and sys.argv[1].isdigit():
        import aumcf
        from aumcf import core, simulation
        from aumcf.simulation import ScenarioConfig, generate_dataset
        if Path(aumcf.__file__).parents[1] != Path(os.environ["PYTHONPATH"]).resolve():
            sys.exit(f"aumcf imported from {aumcf.__file__}, not from PYTHONPATH")
        print(json.dumps(layers(int(sys.argv[1]))))
    else:
        main(sys.argv[1:])
