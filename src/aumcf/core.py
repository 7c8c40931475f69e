"""Data model and ingestion for multiple event-time datasets.

A dataset consists of two treatment arms. Each subject contributes a
follow-up time X, a terminal-event indicator (True when the terminal event
was observed before censoring), zero or more event times on [0, X], and an
optional baseline covariate vector.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Optional, Sequence

import numpy as np


class Status(IntEnum):
    """Wire-level status codes for event records."""

    CENSOR = 0
    EVENT = 1
    DEATH = 2


class ValidationError(ValueError):
    """Raised when input records violate the data model."""


class TruncationError(ValidationError):
    """Raised in strict mode when the MCF is not identifiable up to tau."""


@dataclass(frozen=True)
class EventRecord:
    """One row of long-format input data."""

    subject_id: str
    time: float
    status: Status
    arm: int
    event_type: Optional[int] = None
    covariates: Optional[tuple[float, ...]] = None


@dataclass(frozen=True)
class SubjectHistory:
    """One subject's complete follow-up.

    ``follow_up`` is X = min(terminal time, censoring time); ``terminal``
    is True when the terminal event was observed at X. ``event_times`` are
    ascending, each in [0, X]; ties within a subject carry multiplicity.
    """

    subject_id: str
    follow_up: float
    terminal: bool
    event_times: tuple[float, ...] = ()
    event_types: tuple[int, ...] = ()
    covariates: tuple[float, ...] = ()

    def __post_init__(self):
        if not np.isfinite(self.follow_up) or self.follow_up < 0:
            raise ValidationError(
                f"subject {self.subject_id!r}: follow-up must be finite and >= 0"
            )
        if any(t < 0 or t > self.follow_up for t in self.event_times):
            raise ValidationError(
                f"subject {self.subject_id!r}: event time outside [0, X]"
            )
        if self.event_types and len(self.event_types) != len(self.event_times):
            raise ValidationError(
                f"subject {self.subject_id!r}: event_types/event_times length mismatch"
            )
        if list(self.event_times) != sorted(self.event_times):
            # one stable time order for the times and their type labels
            order = sorted(range(len(self.event_times)), key=self.event_times.__getitem__)
            object.__setattr__(self, "event_times", tuple(self.event_times[i] for i in order))
            if self.event_types:
                object.__setattr__(self, "event_types", tuple(self.event_types[i] for i in order))


_COLUMNS = (
    "subject_ids", "follow_up", "terminal", "covariates",
    "event_times", "event_subjects", "event_type_labels",
)


class ArmDataset:
    """All subjects of one treatment arm, held as read-only numpy columns.

    Per subject, in subject order: ``subject_ids``, ``follow_up``,
    ``terminal`` and the ``(n, p)`` matrix ``covariates``. Per event, sorted
    by time with ties broken by subject order: ``event_times``,
    ``event_subjects`` (the owning subject's row) and ``event_type_labels``
    (0 when unlabelled). Per-subject results (e.g. influence values) align
    with subject order. ``subjects`` is a per-subject object view built on
    first use.
    """

    def __init__(self, arm: int, subjects: Sequence[SubjectHistory]):
        """Adapter from subject objects, kept in the order given."""
        if len(subjects) == 0:
            raise ValidationError(f"arm {arm}: empty arm")
        dims = {len(s.covariates) for s in subjects}
        if len(dims) != 1:
            raise ValidationError(f"arm {arm}: inconsistent covariate dimensions")
        subjects = tuple(subjects)
        n = len(subjects)
        counts = [len(s.event_times) for s in subjects]
        total = sum(counts)
        chain = itertools.chain.from_iterable
        self._set_columns(
            arm,
            np.array([s.subject_id for s in subjects], dtype=object),
            np.array([s.follow_up for s in subjects], dtype=np.float64),
            np.array([s.terminal for s in subjects], dtype=bool),
            np.array([s.covariates for s in subjects], dtype=np.float64).reshape(n, dims.pop()),
            np.fromiter(chain(s.event_times for s in subjects), np.float64, total),
            np.repeat(np.arange(n, dtype=np.int64), counts),
            np.fromiter(
                chain(s.event_types or (0,) * len(s.event_times) for s in subjects),
                np.int64, total,
            ),
        )
        self._subjects = subjects

    @classmethod
    def from_columns(
        cls,
        arm: int,
        subject_ids,
        follow_up,
        terminal,
        covariates,
        event_times,
        event_subjects,
        event_type_labels,
    ) -> "ArmDataset":
        """Columnar constructor; ``covariates`` is ``(n, p)``.

        Events may come in any order: they are sorted by time, then by
        subject, then by the order given.
        """
        follow_up = np.array(follow_up, dtype=np.float64)
        n = follow_up.size
        if n == 0:
            raise ValidationError(f"arm {arm}: empty arm")
        subject_ids = np.array(subject_ids, dtype=object)
        terminal = np.array(terminal, dtype=bool)
        covariates = np.array(covariates, dtype=np.float64, order="C")
        event_times = np.asarray(event_times, dtype=np.float64)
        event_subjects = np.asarray(event_subjects, dtype=np.int64)
        event_type_labels = np.asarray(event_type_labels, dtype=np.int64)
        if (
            follow_up.ndim != 1 or subject_ids.shape != (n,) or terminal.shape != (n,)
            or covariates.ndim != 2 or covariates.shape[0] != n
            or event_times.ndim != 1
            or event_subjects.shape != event_times.shape
            or event_type_labels.shape != event_times.shape
        ):
            raise ValidationError(f"arm {arm}: column lengths disagree")
        if event_subjects.size and not (
            event_subjects.min() >= 0 and event_subjects.max() < n
        ):
            raise ValidationError(f"arm {arm}: event subject index out of range")
        bad = ~(np.isfinite(follow_up) & (follow_up >= 0))
        if bad.any():
            raise ValidationError(
                f"subject {subject_ids[np.argmax(bad)]!r}: "
                "follow-up must be finite and >= 0"
            )
        outside = ~((event_times >= 0) & (event_times <= follow_up[event_subjects]))
        if outside.any():
            raise ValidationError(
                f"subject {subject_ids[event_subjects[np.argmax(outside)]]!r}: "
                "event time outside [0, X]"
            )
        self = cls.__new__(cls)
        self._set_columns(arm, subject_ids, follow_up, terminal, covariates,
                          event_times, event_subjects, event_type_labels)
        return self

    def _set_columns(self, arm, subject_ids, follow_up, terminal, covariates,
                     event_times, event_subjects, event_type_labels) -> None:
        order = np.lexsort((event_subjects, event_times))
        self.arm = int(arm)
        self.n = follow_up.size
        self.subject_ids = subject_ids
        self.follow_up = follow_up
        self.terminal = terminal
        self.covariates = covariates
        self.event_times = event_times[order]
        self.event_subjects = event_subjects[order]
        self.event_type_labels = event_type_labels[order]
        for name in _COLUMNS:
            getattr(self, name).flags.writeable = False
        self._sorted_follow_up = np.sort(self.follow_up)
        self._subjects = None

    @property
    def subjects(self) -> tuple[SubjectHistory, ...]:
        """One :class:`SubjectHistory` per subject, in subject order."""
        if self._subjects is None:
            order, counts = self._events_by_subject()
            ends = np.cumsum(counts).tolist()
            times = self.event_times[order].tolist()
            types = self.event_type_labels[order].tolist()
            self._subjects = tuple(
                SubjectHistory(sid, x, d, tuple(times[a:b]), tuple(types[a:b]), tuple(w))
                for sid, x, d, w, a, b in zip(
                    self.subject_ids.tolist(), self.follow_up.tolist(),
                    self.terminal.tolist(), self.covariates.tolist(),
                    [0] + ends[:-1], ends,
                )
            )
        return self._subjects

    def _events_by_subject(self) -> tuple[np.ndarray, np.ndarray]:
        """Event rows grouped by subject, each group in time order, and the
        number of events of each subject."""
        return (np.argsort(self.event_subjects, kind="stable"),
                np.bincount(self.event_subjects, minlength=self.n))

    @property
    def covariate_dim(self) -> int:
        return self.covariates.shape[1]

    def at_risk(self, times: np.ndarray) -> np.ndarray:
        """Number of subjects with X >= t for each t (closed inequality)."""
        times = np.asarray(times, dtype=np.float64)
        return self.n - np.searchsorted(self._sorted_follow_up, times, side="left")

    def take(self, idx) -> "ArmDataset":
        """The arm of subjects ``idx`` (repeats allowed), in that order.

        Equals ``ArmDataset(arm, [self.subjects[i] for i in idx])`` column
        for column, without building subject objects.
        """
        idx = np.asarray(idx, dtype=np.int64)
        by_subject, counts = self._events_by_subject()
        starts = np.cumsum(counts) - counts
        k = counts[idx]
        # each picked subject's event rows, subject after subject, in time order
        rows = by_subject[np.repeat(starts[idx] - (np.cumsum(k) - k), k) + np.arange(k.sum())]
        out = ArmDataset.__new__(ArmDataset)
        out._set_columns(
            self.arm, self.subject_ids[idx], self.follow_up[idx], self.terminal[idx],
            self.covariates[idx], self.event_times[rows],
            np.repeat(np.arange(idx.size), k), self.event_type_labels[rows],
        )
        return out

    def __eq__(self, other):
        return (
            isinstance(other, ArmDataset)
            and self.arm == other.arm
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)
        )

    def __repr__(self):
        return f"ArmDataset(arm={self.arm}, n={self.n})"


@dataclass(frozen=True)
class StudyDataset:
    """Two-arm study with truncation time tau."""

    arm1: ArmDataset
    arm2: ArmDataset
    tau: float
    covariate_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.tau > 0 and np.isfinite(self.tau)):
            raise ValidationError("tau must be positive and finite")
        if self.arm1.covariate_dim != self.arm2.covariate_dim:
            raise ValidationError("covariate dimension differs across arms")

    @property
    def n(self) -> int:
        return self.arm1.n + self.arm2.n

    def arms(self) -> tuple[ArmDataset, ArmDataset]:
        return (self.arm1, self.arm2)


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of the identifiability check P(X >= tau) > 0 per arm."""

    ok: bool
    messages: tuple[str, ...] = ()


def ingest_arm_datasets(records: Iterable[EventRecord]) -> dict[int, ArmDataset]:
    """Group long-format records into per-arm datasets (one or both arms).

    Each subject must have exactly one CENSOR or DEATH record; its time is
    the follow-up X and must be the subject's maximum time. The output is a
    pure function of the record multiset: subjects are ordered by id within
    arm, so permuting the input leaves the result unchanged.
    """
    records = list(records)
    covs = [r.covariates for r in records]
    dims = {len(c) for c in covs if c is not None}
    if len(dims) > 1:
        raise ValidationError("covariate vectors of different lengths")
    p = dims.pop() if dims else 0
    return _arms_from_rows(
        [str(r.subject_id) for r in records],
        np.array([r.time for r in records], dtype=np.float64),
        np.array([r.status for r in records]),
        np.array([r.arm for r in records]),
        np.array([0 if r.event_type is None else r.event_type for r in records],
                 dtype=np.int64),
        np.array([(0.0,) * p if c is None else c for c in covs],
                 dtype=np.float64).reshape(len(records), p),
        np.array([c is not None for c in covs]) if p else None,
    )


def _arms_from_rows(ids, time, status, arm, event_type, covariates, cov_present=None):
    """Validate long-format rows given as columns and group them into arms.

    ``ids`` is a list of str; the other columns are arrays with one entry
    per row, ``covariates`` of shape ``(rows, p)``. ``cov_present`` marks
    the rows that carry covariates (default: all). Each error names the
    first offending subject: rows are checked in input order, then
    subjects in (arm, id) order.
    """
    if not ids:
        raise ValidationError("no records supplied")
    bad_arm = (arm != 1) & (arm != 2)
    bad_status = (status != Status.CENSOR) & (status != Status.EVENT) & (status != Status.DEATH)
    bad_time = ~(np.isfinite(time) & (time >= 0))
    bad = bad_arm | bad_status | bad_time
    if bad.any():
        k = int(np.argmax(bad))
        if bad_arm[k]:
            msg = "arm must be 1 or 2"
        elif bad_status[k]:
            msg = f"unknown status {status[k]}"
        else:
            msg = "negative or non-finite time"
        raise ValidationError(f"subject {ids[k]!r}: {msg}")
    arm = arm.astype(np.int64)

    # subjects are (arm, id) pairs, in arm order, then as sorted() orders
    # the ids (numpy's fixed-width str arrays would drop trailing NULs)
    uid = sorted(dict.fromkeys(ids))
    rank = dict(zip(uid, range(len(uid))))
    id_code = np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))
    keys, subj = np.unique((arm - 1) * len(uid) + id_code, return_inverse=True)
    subject_ids = np.array(uid, dtype=object)[keys % len(uid)]
    n_subj = keys.size
    is_end = status != Status.EVENT
    n_end = np.bincount(subj[is_end], minlength=n_subj)
    follow_up = np.zeros(n_subj)
    follow_up[subj[is_end]] = time[is_end]
    terminal = np.zeros(n_subj, dtype=bool)
    terminal[subj[is_end]] = status[is_end] == Status.DEATH
    is_event = ~is_end
    ev_subj, ev_time = subj[is_event], time[is_event]
    late = np.zeros(n_subj, dtype=bool)
    late[ev_subj[ev_time > follow_up[ev_subj]]] = True

    # a subject's covariates are those of its first row that carries them
    rows = np.arange(len(ids)) if cov_present is None else np.flatnonzero(cov_present)
    has_cov_subj, first = np.unique(subj[rows], return_index=True)
    ref = np.zeros(n_subj, dtype=np.int64)
    ref[has_cov_subj] = rows[first]
    has_cov = np.zeros(n_subj, dtype=bool)
    has_cov[has_cov_subj] = True
    ref_row = ref[subj[rows]]
    differs = (rows != ref_row) & (covariates[rows] != covariates[ref_row]).any(axis=1)
    conflict = np.zeros(n_subj, dtype=bool)
    conflict[subj[rows][differs]] = True
    cov = covariates[ref]
    nonfinite = has_cov & ~np.isfinite(cov).all(axis=1)

    problems = (
        (n_end == 0, "missing terminal/censor record"),
        (n_end > 1, "multiple terminal/censor records"),
        (late, "event time exceeds follow-up time"),
        (conflict, "conflicting covariate values"),
        (nonfinite, "missing or non-finite covariate"),
    )
    flagged = np.logical_or.reduce([mask for mask, _ in problems])
    if flagged.any():
        s = int(np.argmax(flagged))
        msg = next(m for mask, m in problems if mask[s])
        raise ValidationError(f"subject {subject_ids[s]!r}: {msg}")

    arms = {}
    n1 = int(np.searchsorted(keys, len(uid)))
    ev_arm = arm[is_event]
    ev_type = event_type[is_event]
    for a, lo, hi in ((1, 0, n1), (2, n1, n_subj)):
        if lo == hi:
            continue
        if not (has_cov[lo:hi].all() or not has_cov[lo:hi].any()):
            raise ValidationError(f"arm {a}: inconsistent covariate dimensions")
        p = covariates.shape[1] if has_cov[lo] else 0
        on = ev_arm == a
        arms[a] = ArmDataset.from_columns(
            a, subject_ids[lo:hi], follow_up[lo:hi], terminal[lo:hi],
            cov[lo:hi, :p], ev_time[on], ev_subj[on] - lo, ev_type[on],
        )
    return arms


def _two_arm_study(arms: dict[int, ArmDataset], tau: float,
                   covariate_names: tuple[str, ...] = ()) -> StudyDataset:
    for arm in (1, 2):
        if arm not in arms:
            raise ValidationError(f"arm {arm}: no subjects")
    return StudyDataset(arms[1], arms[2], float(tau), covariate_names)


def ingest_records(records: Iterable[EventRecord], tau: float) -> StudyDataset:
    """Group long-format records into a two-arm :class:`StudyDataset`."""
    return _two_arm_study(ingest_arm_datasets(records), tau)


def study_to_records(study: StudyDataset) -> list[EventRecord]:
    """Serialize a study back to long-format records (round-trips ingest)."""
    out: list[EventRecord] = []
    for arm_data in study.arms():
        for s in arm_data.subjects:
            cov = tuple(s.covariates) if s.covariates else None
            for k, t in enumerate(s.event_times):
                out.append(
                    EventRecord(
                        s.subject_id,
                        t,
                        Status.EVENT,
                        arm_data.arm,
                        event_type=s.event_types[k] if s.event_types else None,
                        covariates=cov,
                    )
                )
            status = Status.DEATH if s.terminal else Status.CENSOR
            out.append(
                EventRecord(s.subject_id, s.follow_up, status, arm_data.arm, covariates=cov)
            )
    return out


def validate_truncation(study: StudyDataset, strict: bool = False) -> TruncationReport:
    """Check that each arm has at least one subject with X >= tau.

    Without this the MCF is not identifiable up to tau; the default is a
    warning-level report, strict mode raises :class:`TruncationError`.
    """
    msgs = [m for arm_data in study.arms()
            if (m := arm_truncation_message(arm_data, study.tau))]
    if msgs and strict:
        raise TruncationError("; ".join(msgs))
    return TruncationReport(ok=not msgs, messages=tuple(msgs))


def arm_truncation_message(arm_data: ArmDataset, tau: float) -> Optional[str]:
    """Identifiability message for one arm, or None when X_max >= tau."""
    if float(arm_data.follow_up.max()) < tau:
        return (
            f"arm {arm_data.arm}: max follow-up "
            f"{arm_data.follow_up.max():g} < tau={tau:g}; "
            "MCF is not identifiable up to tau"
        )
    return None


# ---------------------------------------------------------------------------
# CSV interchange: header `id,time,status,arm[,event_type][,w1,...,wp]`
# ---------------------------------------------------------------------------

_FIXED_COLUMNS = ("id", "time", "status", "arm")
# rows converted at a time: only this many rows are ever held as strings
# beyond the id column
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class _CsvColumns:
    """Parsed CSV rows as columns; ``event_type`` is 0 where the field is
    empty or absent, and ``type_given`` marks where it is not."""

    ids: list[str]
    time: np.ndarray
    status: np.ndarray
    arm: np.ndarray
    event_type: np.ndarray
    type_given: np.ndarray
    covariates: np.ndarray
    covariate_names: tuple[str, ...]


def _floats(values) -> np.ndarray:
    return np.fromiter(map(float, values), np.float64, len(values))


def _ints(values) -> np.ndarray:
    return np.fromiter(map(int, values), np.int64, len(values))


def _statuses(values) -> np.ndarray:
    out = _ints(values)
    if ((out < Status.CENSOR) | (out > Status.DEATH)).any():
        raise ValueError("unknown status")
    return out


def _event_types(values) -> np.ndarray:
    return np.array([int(v) if v else 0 for v in values], dtype=np.int64)


def _int64(v) -> int:
    x = int(v)
    if not -(2 ** 63) <= x < 2 ** 63:
        raise OverflowError(f"{v!r} does not fit in 64 bits")
    return x


def _read_csv(source, parse):
    if hasattr(source, "read"):
        return parse(source)
    with open(source, newline="") as fh:
        return parse(fh)


def _read_columns(fh) -> _CsvColumns:
    """Stream ``csv.reader`` rows into one array per column, converting a
    chunk of rows at a time with Python's own ``int`` and ``float``.

    Errors name the line: the header is line 1 and blank lines, which are
    skipped, still count.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            raise ValidationError("empty CSV input")
        missing = [c for c in _FIXED_COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"CSV missing required columns: {missing}")
        col = {name: k for k, name in enumerate(header)}  # last duplicate wins
        has_type = "event_type" in col
        cov_names = tuple(
            c for c in header if c not in _FIXED_COLUMNS and c != "event_type"
        )
        # (label, column, chunk converter, field check) in the order the
        # fields of a row are checked
        fields = [("status", col["status"], _statuses, lambda v: Status(int(v)))]
        if has_type:
            fields.append(("event_type", col["event_type"], _event_types,
                           lambda v: _int64(v) if v else 0))
        fields += [("covariate", col[c], _floats, float) for c in cov_names]
        fields += [("time", col["time"], _floats, float),
                   ("arm", col["arm"], _ints, _int64)]
        width = len(header)
        ids: list[str] = []
        type_given: list[bool] = []
        parts: list[list[np.ndarray]] = [[] for _ in fields]
        blanks: list[int] = []  # rows read before each skipped blank line
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            if set(map(len, chunk)) != {width}:
                chunk = _drop_blank_rows(chunk, width, len(ids), blanks)
                if not chunk:
                    continue
            cols = list(zip(*chunk))
            try:
                for part, (_, k, convert, _) in zip(parts, fields):
                    part.append(convert(cols[k]))
            except (ValueError, OverflowError):
                _raise_bad_field(chunk, fields, len(ids), blanks)
                raise
            ids.extend(cols[col["id"]])
            if has_type:
                type_given.extend(map(bool, cols[col["event_type"]]))
    except csv.Error as exc:
        raise ValidationError(f"line {reader.line_num}: {exc}") from exc

    n = len(ids)
    arrays = [np.concatenate(p) if p else np.empty(0) for p in parts]
    covs = arrays[1 + has_type:-2]
    return _CsvColumns(
        ids=ids,
        time=arrays[-2],
        status=arrays[0].astype(np.int64),
        arm=arrays[-1].astype(np.int64),
        event_type=arrays[1].astype(np.int64) if has_type else np.zeros(n, dtype=np.int64),
        type_given=np.array(type_given if has_type else [False] * n, dtype=bool),
        covariates=np.column_stack(covs) if covs else np.empty((n, 0)),
        covariate_names=cov_names,
    )


def _line(row: int, blanks: list[int]) -> int:
    """File line of data row ``row`` (0-based), counting skipped blank lines."""
    return row + 2 + sum(1 for b in blanks if b <= row)


def _drop_blank_rows(chunk, width, offset, blanks):
    """The chunk without its blank rows; any other row must be ``width`` wide."""
    kept = []
    for row in chunk:
        if not row:
            blanks.append(offset + len(kept))
        elif len(row) != width:
            raise ValidationError(
                f"line {_line(offset + len(kept), blanks)}: "
                f"expected {width} fields, got {len(row)}"
            )
        else:
            kept.append(row)
    return kept


def _raise_bad_field(chunk, fields, offset, blanks):
    """Raise for the chunk's first bad field, in row then field order."""
    for i, row in enumerate(chunk):
        for label, k, _, check in fields:
            try:
                check(row[k])
            except (ValueError, OverflowError):
                line = _line(offset + i, blanks)
                if label == "covariate":
                    raise ValidationError(f"line {line}: bad covariate value") from None
                raise ValidationError(f"line {line}: bad {label} {row[k]!r}") from None


def read_records_csv(source) -> tuple[list[EventRecord], tuple[str, ...]]:
    """Read long-format records from a CSV path or file object.

    Returns the records plus the covariate column names (columns after the
    fixed ones, excluding the optional ``event_type``).
    """
    c = _read_csv(source, _read_columns)
    covs = map(tuple, c.covariates.tolist()) if c.covariate_names else itertools.repeat(None)
    records = [
        EventRecord(sid, t, Status(s), a, et if given else None, cov)
        for sid, t, s, a, et, given, cov in zip(
            c.ids, c.time.tolist(), c.status.tolist(), c.arm.tolist(),
            c.event_type.tolist(), c.type_given.tolist(), covs,
        )
    ]
    return records, c.covariate_names


def read_arms_csv(source) -> tuple[dict[int, ArmDataset], tuple[str, ...]]:
    """Read per-arm datasets (one or both arms) from a CSV path or file
    object, plus the covariate column names."""
    c = _read_csv(source, _read_columns)
    arms = _arms_from_rows(c.ids, c.time, c.status, c.arm, c.event_type, c.covariates)
    return arms, c.covariate_names


def write_records_csv(study: StudyDataset, fh) -> None:
    """Write a study in the CSV interchange format."""
    cov_names = study.covariate_names or tuple(
        f"w{k + 1}" for k in range(study.arm1.covariate_dim)
    )
    has_type = bool(study.arm1.event_type_labels.size or study.arm2.event_type_labels.size)
    header = list(_FIXED_COLUMNS)
    if has_type:
        header.append("event_type")
    header.extend(cov_names)
    writer = csv.writer(fh)
    writer.writerow(header)
    for r in study_to_records(study):
        row = [r.subject_id, repr(float(r.time)), int(r.status), r.arm]
        if has_type:
            row.append("" if r.event_type is None else r.event_type)
        row.extend(repr(float(c)) for c in (r.covariates or ()))
        writer.writerow(row)


def read_study_csv(source, tau: float) -> StudyDataset:
    """Read a two-arm study from a CSV path or file object."""
    arms, cov_names = read_arms_csv(source)
    return _two_arm_study(arms, tau, cov_names)
