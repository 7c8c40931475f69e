"""Span tracer that wraps the program's public functions from outside.

Each target is a function, a class (its ``__init__`` is wrapped) or a
click command (its ``callback`` is wrapped). A function is replaced under
every name that refers to it in every loaded ``aumcf`` module, so calls
through ``from .core import ...`` aliases are seen too. A target that a
refactor removed is reported as absent, never as an error, so the same
benchmark keeps running on later versions of the program.

Spans (name, op, start, end, parent) are appended to in-memory arrays
and written out only when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute); an optional fourth item names a counter
# taken at the boundary: "rows" counts returned records, "B" the resamples
TARGETS = (
    ("core.read_records_csv", "aumcf.core", "read_records_csv", "rows"),
    ("core.ingest_records", "aumcf.core", "ingest_records"),
    ("core.ingest_arm_datasets", "aumcf.core", "ingest_arm_datasets"),
    ("core.ArmDataset", "aumcf.core", "ArmDataset"),
    ("core.SubjectHistory", "aumcf.core", "SubjectHistory"),
    ("cli.compare", "aumcf.cli", "compare"),
    ("simulation.generate_dataset", "aumcf.simulation", "generate_dataset"),
    ("simulation.simulate_subject", "aumcf.simulation", "simulate_subject"),
    ("simulation._stream", "aumcf.simulation", "_stream"),
    ("simulation.run_operating_characteristics", "aumcf.simulation",
     "run_operating_characteristics"),
    ("simulation.bootstrap_se", "aumcf.simulation", "bootstrap_se", "B"),
    ("estimation.km_survival", "aumcf.estimation", "km_survival"),
    ("estimation.event_rate_increments", "aumcf.estimation", "event_rate_increments"),
    ("estimation.aumcf", "aumcf.estimation", "aumcf"),
    ("estimation.mcf", "aumcf.estimation", "mcf"),
    ("inference.influence_values", "aumcf.inference", "influence_values"),
    ("inference.kernel", "aumcf._kernels", "influence_accumulate"),
    ("inference.contrast_difference", "aumcf.inference", "contrast_difference"),
    ("inference.contrast_ratio", "aumcf.inference", "contrast_ratio"),
    ("inference.weighted_contrast", "aumcf.inference", "weighted_contrast"),
    ("augmentation.augmented_contrast", "aumcf.augmentation", "augmented_contrast"),
    ("augmentation.augmentation_weights", "aumcf.augmentation", "augmentation_weights"),
)

# per-layer metric -> (statistic, span names summed); statistics are per op
PER_LAYER = {
    "core.read_records_csv.s": ("busy", "core.read_records_csv"),
    "core.read_records_csv.rows": ("counter", "core.read_records_csv"),
    "core.ingest.s": ("self", "core.ingest_records", "core.ingest_arm_datasets"),
    "cli.compare.self_s": ("self", "cli.compare"),
    "core.ArmDataset.s": ("busy", "core.ArmDataset"),
    "core.ArmDataset.calls": ("calls", "core.ArmDataset"),
    "core.SubjectHistory.calls": ("calls", "core.SubjectHistory"),
    "simulation.generate_dataset.s": ("busy", "simulation.generate_dataset"),
    "simulation.simulate_subject.calls": ("calls", "simulation.simulate_subject"),
    "simulation.streams": ("calls", "simulation._stream"),
    "simulation.run_operating_characteristics.self_s":
        ("self", "simulation.run_operating_characteristics"),
    "simulation.bootstrap_se.self_s": ("self", "simulation.bootstrap_se"),
    "simulation.resamples": ("counter", "simulation.bootstrap_se"),
    "estimation.km_survival.s": ("busy", "estimation.km_survival"),
    "estimation.km_survival.calls": ("calls", "estimation.km_survival"),
    "estimation.event_rate_increments.s": ("busy", "estimation.event_rate_increments"),
    "estimation.event_rate_increments.calls": ("calls", "estimation.event_rate_increments"),
    "estimation.aumcf.s": ("busy", "estimation.aumcf"),
    "estimation.aumcf.calls": ("calls", "estimation.aumcf"),
    "estimation.mcf.s": ("busy", "estimation.mcf"),
    "inference.influence_values.self_s": ("self", "inference.influence_values"),
    "inference.influence_values.calls": ("calls", "inference.influence_values"),
    "inference.kernel.s": ("busy", "inference.kernel"),
    "inference.contrast_difference.self_s": ("self", "inference.contrast_difference"),
    "inference.contrast_ratio.self_s": ("self", "inference.contrast_ratio"),
    "inference.weighted_contrast.self_s": ("self", "inference.weighted_contrast"),
    "augmentation.augmented_contrast.self_s": ("self", "augmentation.augmented_contrast"),
    "augmentation.augmentation_weights.s": ("busy", "augmentation.augmentation_weights"),
}
UNITS = {"busy": "s", "self": "s", "calls": "count", "counter": "count"}


def _count_rows(args, kwargs, result):
    """Records returned; 0 once the reader stops returning a record list."""
    try:
        return len(result[0])
    except (TypeError, IndexError, KeyError):
        return 0


def _count_resamples(args, kwargs, result):
    """The ``B`` the call asked for (the workload passes it by keyword)."""
    return kwargs.get("B", 0)


COUNTERS = {"rows": _count_rows, "B": _count_resamples}


class Tracer:
    """Records one span per call of each wrapped target while installed.

    The targets are resolved once; ``install`` and ``uninstall`` then only
    swap the wrappers in and out, so single ops can be traced.
    """

    def __init__(self, targets=TARGETS):
        self.names: list[str] = []
        self.name_of = array("i")
        self.op_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)
        for name, module, attr, *counter in targets:
            try:
                obj = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            count = COUNTERS[counter[0]] if counter else None
            if count is not None:
                self.counters[name] = 0
            if isinstance(obj, type):
                self._patch_attr(obj, "__init__", self._wrap(name, obj.__init__, count))
            elif callable(getattr(obj, "callback", None)):
                self._patch_attr(obj, "callback", self._wrap(name, obj.callback, count))
            else:
                self._patch_names(obj, self._wrap(name, obj, count))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _patch_attr(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapped))

    def _patch_names(self, fn, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "aumcf" or mod_name.startswith("aumcf.")):
                continue
            for key, value in vars(mod).items():
                if value is fn:
                    self._patches.append((mod, key, fn, wrapped))

    def _wrap(self, name, fn, count):
        name_id = len(self.names)
        self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.op_of.append(tracer.op)
            tracer.parent_of.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                tracer.counters[name] += count(args, kwargs, result)
            return result

        return traced

    def summary(self, ops: int) -> dict:
        """Per-op busy seconds, self seconds and counts for ``PER_LAYER``."""
        name_of = np.frombuffer(self.name_of, dtype=np.intc)
        parent = np.frombuffer(self.parent_of, dtype=np.intc)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        stats = {
            "busy": np.bincount(name_of, weights=dur, minlength=k),
            "self": np.bincount(name_of, weights=dur - child, minlength=k),
            "calls": np.bincount(name_of, minlength=k).astype(float),
        }
        index = {name: i for i, name in enumerate(self.names)}
        metrics = {}
        for metric, (stat, *spans) in PER_LAYER.items():
            if stat == "counter":
                total = sum(self.counters.get(s, 0) for s in spans)
            else:
                total = sum(float(stats[stat][index[s]]) for s in spans if s in index)
            metrics[metric] = {"value": total / ops, "unit": UNITS[stat]}
        return metrics

    def write(self, path) -> None:
        """Write every span as arrays (names indexed by ``name``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.intc),
            op=np.frombuffer(self.op_of, dtype=np.intc),
            parent=np.frombuffer(self.parent_of, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
