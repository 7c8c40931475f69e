"""Data model and ingestion for multiple event-time datasets.

A dataset consists of two treatment arms. Each subject contributes a
follow-up time X, a terminal-event indicator (True when the terminal event
was observed before censoring), zero or more event times on [0, X], and an
optional baseline covariate vector.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import pathlib
import sys
import warnings
from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

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


_COLUMNS = (
    "subject_ids", "follow_up", "terminal", "covariates",
    "event_times", "event_subjects", "event_type_labels",
)


# the arm's follow-up order and jump index, built once from the columns
_INDEX = (
    "_follow_up_order",
    "_event_first", "_e", "_te", "_at_te",
    "_death_rows", "_death_first", "_d", "_td", "_at_td", "_km",
)


def _check_subjects(subject_ids, problems) -> None:
    """Raise :class:`ValidationError` naming the first subject that any
    ``(mask, message)`` pair of ``problems`` flags, with the message of the
    first mask that flags it; each mask holds one bool per subject."""
    flagged = np.logical_or.reduce([mask for mask, _ in problems])
    if flagged.any():
        s = int(np.argmax(flagged))
        msg = next(m for mask, m in problems if mask[s])
        raise ValidationError(f"subject {subject_ids[s]!r}: {msg}")


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of the first element and length of each run of equal values
    in a sorted array."""
    edge = np.ones(values.size + 1, dtype=bool)
    edge[1:-1] = values[1:] != values[:-1]
    bounds = edge.nonzero()[0]
    return bounds[:-1], bounds[1:] - bounds[:-1]


class ArmDataset:
    """All subjects of one treatment arm, held as read-only numpy columns.

    Per subject, in subject order: ``subject_ids``, ``follow_up``,
    ``terminal`` and the ``(n, p)`` matrix ``covariates``. Per event, sorted
    by time with ties broken by subject order: ``event_times``,
    ``event_subjects`` (the owning subject's row) and ``event_type_labels``
    (0 when unlabelled). Per-subject results (e.g. influence values) align
    with subject order. ``_follow_up_order`` lists the subjects by
    follow-up time, ties in subject order.

    Beside them, the arm's jump index over all time, which a fit on
    [0, tau] reads a prefix of. Event jumps: the first event of each run of
    tied event times ``_event_first``, the run lengths ``_e``, the distinct
    event times ``_te`` and the follow-up positions ``_at_te`` where their
    risk sets start. Death jumps: the follow-up positions of the deaths
    ``_death_rows``, the first death of each run of tied ones
    ``_death_first``, the run lengths ``_d``, the distinct death times
    ``_td`` and their risk-set starts ``_at_td``. ``_km`` is the
    Kaplan-Meier survival after each death jump, with 1 prepended. Every
    column and index array is read-only.
    """

    def __init__(
        self,
        arm: int,
        subject_ids,
        follow_up,
        terminal,
        covariates,
        event_times,
        event_subjects,
        event_type_labels,
    ):
        """Check the columns against the data model: an error names the
        first subject whose follow-up X is not finite and >= 0, whose
        covariates are not finite or who has an event outside [0, X].
        ``covariates`` is ``(n, p)``. Events may come in any order: they are
        sorted by time, then by subject, then by the order given.
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
        bad_event = ~((event_times >= 0) & (event_times <= follow_up[event_subjects]))
        outside = np.zeros(n, dtype=bool)
        outside[event_subjects[bad_event]] = True
        _check_subjects(subject_ids, (
            (~(np.isfinite(follow_up) & (follow_up >= 0)), "follow-up must be finite and >= 0"),
            (~np.isfinite(covariates).all(axis=1), "missing or non-finite covariate"),
            (outside, "event time outside [0, X]"),
        ))
        order = np.lexsort((event_subjects, event_times))
        self.arm = int(arm)
        self.n = n
        self.subject_ids = subject_ids
        self.follow_up = follow_up
        self.terminal = terminal
        self.covariates = covariates
        self.event_times = event_times[order]
        self.event_subjects = event_subjects[order]
        self.event_type_labels = event_type_labels[order]
        # the subjects in follow-up order, ties in subject order: fits,
        # influence values and the bootstrap read the arm through it
        self._follow_up_order = np.argsort(follow_up, kind="stable")
        x = follow_up[self._follow_up_order]
        self._event_first, self._e = _runs(self.event_times)
        self._te = self.event_times[self._event_first]
        self._at_te = x.searchsorted(self._te, side="left")
        self._death_rows = terminal[self._follow_up_order].nonzero()[0]
        death_times = x[self._death_rows]
        self._death_first, self._d = _runs(death_times)
        self._td = death_times[self._death_first]
        self._at_td = x.searchsorted(self._td, side="left")
        self._km = np.ones(self._d.size + 1)
        np.cumprod(1.0 - self._d / (n - self._at_td), out=self._km[1:])
        for name in (*_COLUMNS, *_INDEX):
            getattr(self, name).setflags(write=False)

    @property
    def covariate_dim(self) -> int:
        return self.covariates.shape[1]

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
        # a plain comparison: np.isfinite fails on an int too large for int64
        if not 0 < self.tau <= sys.float_info.max:
            raise ValidationError("tau must be positive and finite")
        if self.arm1.covariate_dim != self.arm2.covariate_dim:
            raise ValidationError("covariate dimension differs across arms")
        if self.covariate_names and len(self.covariate_names) != self.arm1.covariate_dim:
            raise ValidationError(f"{len(self.covariate_names)} covariate names for "
                                  f"{self.arm1.covariate_dim} covariate columns")

    @property
    def n(self) -> int:
        return self.arm1.n + self.arm2.n

    def arms(self) -> tuple[ArmDataset, ArmDataset]:
        return (self.arm1, self.arm2)

    def select_covariates(self, names: tuple[str, ...]) -> StudyDataset:
        """The study with only the covariate columns ``names``, in that
        order. The arms share their other columns and their jump index with
        this study's, which are not checked and sorted again. Unknown names
        raise :class:`ValidationError`, naming each of them."""
        unknown = [n for n in names if n not in self.covariate_names]
        if unknown:
            raise ValidationError(f"unknown covariate columns {unknown}; "
                                  f"available: {list(self.covariate_names)}")
        idx = [self.covariate_names.index(n) for n in names]
        arms = []
        for arm in self.arms():
            sub = copy.copy(arm)
            sub.covariates = np.ascontiguousarray(arm.covariates[:, idx])
            sub.covariates.flags.writeable = False
            arms.append(sub)
        return StudyDataset(arms[0], arms[1], self.tau, covariate_names=tuple(names))


def _arms_from_rows(ids, time, status, arm, event_type, covariates):
    """Validate long-format rows given as columns and group them into arms.

    ``ids`` is a list of str; the other columns are arrays with one entry
    per row, ``covariates`` of shape ``(rows, p)``, and every ``status``
    is 0, 1 or 2 (the CSV reader rejects any other). Only what rows alone
    show is checked here, naming the first offending subject: each row's
    arm label in input order, then one censor or death row and one
    covariate vector per subject in (arm, id) order. :class:`ArmDataset`
    then checks the data model of arm 1, then of arm 2.
    """
    if not ids:
        raise ValidationError("no records supplied")
    bad_arm = (arm != 1) & (arm != 2)
    if bad_arm.any():
        raise ValidationError(f"subject {ids[int(np.argmax(bad_arm))]!r}: arm must be 1 or 2")

    # subjects are (arm, id) pairs, in arm order, then as sorted() orders
    # the ids (numpy's fixed-width str arrays would drop trailing NULs)
    uid = sorted(dict.fromkeys(ids))
    rank = dict(zip(uid, range(len(uid))))
    id_code = np.fromiter(map(rank.__getitem__, ids), np.int64, len(ids))
    keys, first, subj = np.unique((arm - 1) * len(uid) + id_code, return_index=True,
                                  return_inverse=True)
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

    # a subject's covariates are those of its first row; comparing row
    # indices keeps a NaN in that row from conflicting with itself
    ref_row = first[subj]
    differs = (np.arange(len(ids)) != ref_row) & (covariates != covariates[ref_row]).any(axis=1)
    conflict = np.zeros(n_subj, dtype=bool)
    conflict[subj[differs]] = True
    _check_subjects(subject_ids, (
        (n_end == 0, "missing terminal/censor record"),
        (n_end > 1, "multiple terminal/censor records"),
        (conflict, "conflicting covariate values"),
    ))

    arms = {}
    n1 = int(np.searchsorted(keys, len(uid)))
    ev_arm = arm[is_event]
    ev_type = event_type[is_event]
    for a, lo, hi in ((1, 0, n1), (2, n1, n_subj)):
        if lo == hi:
            continue
        on = ev_arm == a
        arms[a] = ArmDataset(
            a, subject_ids[lo:hi], follow_up[lo:hi], terminal[lo:hi],
            covariates[first[lo:hi]], ev_time[on], ev_subj[on] - lo, ev_type[on],
        )
    return arms


def arm_truncation_message(arm_data: ArmDataset, tau: float) -> Optional[str]:
    """Identifiability message for one arm, or None when X_max >= tau:
    without a subject followed to tau the MCF is not identifiable up to tau."""
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


def _read_columns(fh) -> tuple[tuple, tuple[str, ...]]:
    """Read the CSV into one array per column, a chunk of rows at a time.

    Leading chunks of plain lines (see ``_parse_plain``) are parsed in C by
    ``np.loadtxt``. From the first chunk that is not plain on, rows come
    from ``csv.reader`` and are converted with Python's own ``int`` and
    ``float``, which give the same numbers; only that path reports errors.

    Returns the columns ``(ids, time, status, arm, event_type, covariates)``
    that ``_arms_from_rows`` takes, ``event_type`` being 0 where the field
    is empty or absent, and the covariate column names.

    Errors name the first bad row in file order by its first line: the
    header is line 1, and skipped blank lines and the line breaks inside
    quoted fields count.
    """
    reader = csv.reader(fh)
    line0 = 0  # lines read before the current reader's first
    try:
        header = next(reader, None)
        if header is None:
            raise ValidationError("empty CSV input")
        missing = [c for c in _FIXED_COLUMNS if c not in header]
        if missing:
            raise ValidationError(f"CSV missing required columns: {missing}")
        if "" in header:
            # an unnamed column is neither dropped nor read as a covariate
            raise ValidationError(
                f"CSV header field {header.index('') + 1} is empty; R's write.csv "
                "writes its row names there unless called with row.names = FALSE"
            )
        col = {name: k for k, name in enumerate(header)}
        if len(col) < len(header):
            name = next(c for k, c in enumerate(header) if col[c] != k)
            raise ValidationError(f"CSV header repeats the column name {name!r}")
        has_type = "event_type" in col
        cov_names = tuple(
            c for c in header if c not in _FIXED_COLUMNS and c != "event_type"
        )
        # (label, column, converter) in the order the fields of a row are
        # checked; a converter takes a sequence of field texts
        fields = [("status", col["status"], _statuses)]
        if has_type:
            fields.append(("event_type", col["event_type"], _event_types))
        fields += [("covariate", col[c], _floats) for c in cov_names]
        fields += [("time", col["time"], _floats), ("arm", col["arm"], _ints)]
        width = len(header)
        ids: list[str] = []
        parts: list[list[np.ndarray]] = [[] for _ in fields]
        # nothing is left of fh when every chunk was plain
        rest = _read_plain_chunks(fh, fields, width, col["id"], ids, parts)
        if rest:
            line0 = reader.line_num + len(ids)
            reader = csv.reader(itertools.chain(rest, fh))
        while chunk := list(itertools.islice(reader, _CHUNK_ROWS)):
            widths = set(map(len, chunk))
            rows = [row for row in chunk if row] if 0 in widths else chunk  # skip blank lines
            if not rows:
                continue
            try:
                if widths - {0, width}:
                    raise ValueError("a row of another width")
                cols = list(zip(*rows))
                for part, (_, k, convert) in zip(parts, fields):
                    part.append(convert(cols[k]))
            except (ValueError, OverflowError):
                _raise_first_bad_row(chunk, fields, width, line0 + reader.line_num)
                raise
            ids.extend(cols[col["id"]])
    except csv.Error as exc:
        raise ValidationError(f"line {line0 + reader.line_num}: {exc}") from exc

    n = len(ids)
    arrays = [np.concatenate(p) if p else np.empty(0) for p in parts]
    covs = arrays[1 + has_type:-2]
    event_type = arrays[1].astype(np.int64) if has_type else np.zeros(n, dtype=np.int64)
    covariates = np.column_stack(covs) if covs else np.empty((n, 0))
    status, arm = arrays[0].astype(np.int64), arrays[-1].astype(np.int64)
    return (ids, arrays[-2], status, arm, event_type, covariates), cov_names


def _read_plain_chunks(fh, fields, width, id_column, ids, parts) -> list[str]:
    """Append the ids (column ``id_column``) and field arrays of ``fh``'s
    leading plain chunks to ``ids`` and ``parts``; return the lines of the
    first chunk that is not plain, or ``[]`` at the end of the stream."""
    # one table field per column, so that loadtxt checks every row's width;
    # the ids are read as str objects
    kinds = {k: np.float64 if convert is _floats else np.int64 for _, k, convert in fields}
    dtype = np.dtype([(f"c{k}", kinds.get(k, object)) for k in range(width)])
    names = [f"c{k}" for _, k, _ in fields]
    # an empty event_type is 0; loadtxt rejects a label outside int64
    converters = {k: _EventTypeLabels().__getitem__
                  for label, k, _ in fields if label == "event_type"}
    while lines := list(itertools.islice(fh, _CHUNK_ROWS)):
        table = _parse_plain(lines, dtype, converters, names[0])
        if table is None:
            return lines
        for part, name in zip(parts, names):
            part.append(table[name])
        ids.extend(table[f"c{id_column}"].tolist())
    return []


class _EventTypeLabels(dict):
    """The label of each event_type field text read so far, 0 for an empty
    field: each distinct text is converted once, and its ``__getitem__`` is
    a ``loadtxt`` converter with no Python frame per field."""

    def __missing__(self, text):
        label = self[text] = int(text) if text else 0
        return label


def _parse_plain(lines, dtype, converters, status) -> Optional[np.ndarray]:
    """The chunk as one ``np.loadtxt`` table with a row per line, or None
    when the chunk is not plain.

    Plain lines hold no NUL and no CR other than in a CRLF line end; none
    is blank or longer than the csv module's field limit, and the last
    does not end inside a quoted field; each has as many fields as
    ``dtype``; every field parses without a warning; and every ``status``
    field is 0, 1 or 2. ``loadtxt`` splits such lines, quoted fields
    included, as ``csv.reader`` does, and reads their numbers as Python's
    ``int`` and ``float`` do. It rejects some that those take (``1_000``,
    non-ASCII digits): such a chunk is not plain.
    """
    text = "".join(lines)
    # loadtxt closes a quoted field still open at the end of the chunk,
    # while csv.reader carries it on into the next; the rules before that
    # one keep csv.reader from raising on the chunk's last line
    if ("\0" in text or ("\r" in text and text.count("\r") != text.count("\r\n"))
            or max(map(len, lines)) > csv.field_size_limit()
            or any("\n" in f or "\r" in f for f in next(csv.reader(lines[-1:])))):
        return None
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "1.0" as an int with a DeprecationWarning
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines, delimiter=",", dtype=dtype, converters=converters,
                comments=None, quotechar='"', ndmin=1,
            )
    except (ValueError, OverflowError, Warning):
        return None
    if len(table) != len(lines):  # loadtxt skips blank lines
        return None
    code = table[status]
    if ((code < Status.CENSOR) | (code > Status.DEATH)).any():
        return None
    return table


def _raise_first_bad_row(rows, fields, width, last_line):
    """Raise for the first bad row of ``rows``, the raw ``csv.reader`` rows
    that end on file line ``last_line``: a row other than blank that is not
    ``width`` fields wide, or one with a field that its converter rejects,
    fields checked in ``fields`` order. A row is named by its first line;
    it ends one line, plus the line breaks in its fields, after the row
    before it."""
    spans = [1 + (t := ",".join(row)).count("\n") + t.count("\r") - t.count("\r\n")
             for row in rows]
    line = last_line - sum(spans)
    for row, span in zip(rows, spans):
        first, line = line + 1, line + span
        if not row:
            continue
        if len(row) != width:
            raise ValidationError(f"line {first}: expected {width} fields, got {len(row)}")
        for label, k, convert in fields:
            try:
                convert([row[k]])
            except (ValueError, OverflowError):
                if label == "covariate":
                    raise ValidationError(f"line {first}: bad covariate value") from None
                raise ValidationError(f"line {first}: bad {label} {row[k]!r}") from None


def read_arms_csv(source) -> tuple[dict[int, ArmDataset], tuple[str, ...]]:
    """Read per-arm datasets (one or both arms) from a CSV path, the input's
    bytes or a text file object, plus the covariate column names. A path or
    bytes are read as UTF-8 with any leading byte-order mark dropped; a
    byte that is not UTF-8 raises :class:`ValidationError` naming its
    offset, the mark counted."""
    if not hasattr(source, "read"):
        source = source if isinstance(source, bytes) else pathlib.Path(source).read_bytes()
        try:
            # not utf-8-sig, so that the offset counts a byte-order mark
            source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"input is not UTF-8: byte 0x{source[exc.start]:02x} "
                                  f"at offset {exc.start}") from exc
        source = io.TextIOWrapper(io.BytesIO(source), encoding="utf-8-sig", newline="")
    # the reader's chunk arrays are freed before the rows are grouped
    columns, cov_names = _read_columns(source)
    return _arms_from_rows(*columns), cov_names


def write_records_csv(study: StudyDataset, fh) -> None:
    """Write a study in the CSV interchange format: arm by arm, subject by
    subject, each subject's event rows in time order, then its censor or
    death row. An arm that repeats a subject id raises
    :class:`ValidationError` before anything is written: the reader would
    take its rows for one subject's."""
    for arm in study.arms():
        seen = set()
        for sid in map(str, arm.subject_ids.tolist()):
            if sid in seen:
                raise ValidationError(f"arm {arm.arm}: subject id {sid!r} repeats")
            seen.add(sid)
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
    no_type = [""] if has_type else []
    for arm in study.arms():
        # the event rows grouped by subject, each group in time order
        order = np.argsort(arm.event_subjects, kind="stable")
        counts = np.bincount(arm.event_subjects, minlength=arm.n)
        events = zip(arm.event_times[order].tolist(), arm.event_type_labels[order].tolist())
        for sid, x, dead, w, k in zip(
            arm.subject_ids.tolist(), arm.follow_up.tolist(), arm.terminal.tolist(),
            arm.covariates.tolist(), counts.tolist(),
        ):
            cov = list(map(repr, w))
            writer.writerows(
                [sid, repr(t), int(Status.EVENT), arm.arm, label, *cov]
                for t, label in itertools.islice(events, k)
            )
            status = Status.DEATH if dead else Status.CENSOR
            writer.writerow([sid, repr(x), int(status), arm.arm, *no_type, *cov])


def read_study_csv(source, tau: float) -> StudyDataset:
    """Read a two-arm study from a CSV path, bytes or text file object, as
    :func:`read_arms_csv` reads it."""
    arms, cov_names = read_arms_csv(source)
    for arm in (1, 2):
        if arm not in arms:
            raise ValidationError(f"arm {arm}: no subjects")
    return StudyDataset(arms[1], arms[2], float(tau), cov_names)
