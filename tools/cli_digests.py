"""Run a fixed grid of CLI command lines in process and print one line per
run: the exit code, the sha256 of its stdout, stderr and ``--out`` file,
and the command line, with the temporary directory written as TMP.

Usage: PYTHONPATH=src python tools/cli_digests.py > digests.txt

Run it on two trees and ``diff`` the two outputs: a change that keeps
every report and every error record byte-identical prints the same lines.
The inputs are seeded ``tests/conftest.random_study`` studies with 0-3
covariates and 1-3 event types, one whose covariate name holds a line
break, and one with no event; the ``simulate`` configs cover every
scenario kind with and without covariates.
"""

import hashlib, itertools, json, os, sys, tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from conftest import random_study  # noqa: E402

from aumcf import StudyDataset, write_records_csv  # noqa: E402
from aumcf.cli import main as cli  # noqa: E402

TAUS = ("0.5", "2", "1e300", "1e-300")
FORMATS = ("json", "csv")
WEIGHTS = ((), ("--weights", "0=1,1=2,2=0.5"), ("--weights", "0=1e300,1=1e-300"))
# the compare flags each contrast is run with besides its own
COMPARE_TAILS = (("--s-convention", "left"), ("--s-convention", "right", "--alpha", "0.2"),
                 ("--strict-tau",))
NO_EVENTS = "id,time,status,arm,w1\na,2,0,1,0.5\nb,3,0,1,1.5\nc,2,0,1,-1\n" \
            "d,2,0,2,0.1\ne,3,0,2,0.7\nf,4,0,2,2\n"


def write_inputs(tmp):
    """The (path, covariate names) of each input CSV, written under ``tmp``."""
    rng = np.random.default_rng(20261021)
    studies = {f"c{c}t{t}": random_study(rng, n=15, n_cov=c, n_types=t)
               for c in range(4) for t in range(1, 4)}
    s = random_study(rng, n=15, n_cov=1)
    studies["linebreak"] = StudyDataset(s.arm1, s.arm2, 1.0, ("a\nb",))
    inputs = []
    for name, study in studies.items():
        path = os.path.join(tmp, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            write_records_csv(study, fh)
        inputs.append((path, study.covariate_names))
    path = os.path.join(tmp, "no_events.csv")
    Path(path).write_text(NO_EVENTS)
    return inputs + [(path, ("w1",))]


def write_configs(tmp):
    paths = []
    for kind, mode in itertools.product(("icr", "frailty", "time_varying"),
                                        ("none", "informative")):
        path = os.path.join(tmp, f"{kind}_{mode}.json")
        Path(path).write_text(json.dumps({"kind": kind, "covariate_mode": mode, "n_per_arm": 20,
                                          "replicates": 3, "seed": 5, "tau": 2.0}))
        paths.append(path)
    return paths


def command_lines(inputs, configs, out):
    for (path, names), tau in itertools.product(inputs, TAUS):
        head = (path, "--tau", tau)
        for conv, strict in itertools.product(("left", "right"), ((), ("--strict-tau",))):
            tail = ("--s-convention", conv, *strict)
            yield ("curves", *head, *tail)
            for fmt, to in itertools.product(FORMATS, ((), ("--out", out))):
                yield ("estimate", *head, *tail, "--format", fmt, *to)
        # none, the first name, and all names in reverse order
        covariates = [()] + [("--covariates", ",".join(c))
                             for c in dict.fromkeys((names[:1], names[::-1])) if c]
        for kind, cov, weights, fmt, tail in itertools.product(
                ("diff", "ratio"), covariates, WEIGHTS, FORMATS, COMPARE_TAILS):
            yield ("compare", *head, "--contrast", kind, *cov, *weights, "--format", fmt, *tail)
        yield ("compare", *head, "--covariates", "nosuch")  # a config error
    for path in configs:
        for flags in (("--format", "json"), ("--format", "csv"),
                      ("--format", "csv", "--out", out), ("--alpha", "0.1", "--truth", "0"),
                      ("--reps", "0")):
            yield ("simulate", path, *flags)


def digest(runner, args, tmp, out):
    result = runner.invoke(cli, list(args))
    parts = [result.stdout_bytes, result.stderr_bytes]
    if os.path.exists(out):
        parts.append(Path(out).read_bytes())
        os.remove(out)
    if result.exit_code not in (0, 2, 3, 4):
        parts.append(repr(result.exception).encode())
    text = b"\0".join(parts).replace(tmp.encode(), b"TMP")
    return result.exit_code, hashlib.sha256(text).hexdigest()


def main():
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        for args in command_lines(write_inputs(tmp), write_configs(tmp), out):
            code, sha = digest(runner, args, tmp, out)
            shown = json.dumps([a.replace(tmp, "TMP") for a in args])
            print(code, sha, shown)


if __name__ == "__main__":
    main()
