import csv
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aumcf import (
    ArmDataset,
    Status,
    StudyDataset,
    ValidationError,
    arm_truncation_message,
    read_arms_csv,
    read_study_csv,
    weighted_contrast,
    write_records_csv,
)
from aumcf import core

from conftest import (
    TIE_GRID, at_risk, make_arm, random_study, subject_rows, tied_arms, unique_grouping,
)


def _csv(*rows):
    """CSV text of ``rows`` plus one censored arm-2 subject."""
    return io.StringIO("\n".join(["id,time,status,arm", *rows, "z1,1.0,0,2"]) + "\n")


def test_ingest_regroups_records():
    study = read_study_csv(_csv("s1,2.0,1,1", "s1,10.0,2,1", "s2,8.0,0,1"), tau=10.0)
    assert study.arm1 == make_arm(1, [("s1", 10.0, True, (2.0,)), ("s2", 8.0, False)])


def test_ingest_missing_terminal_record():
    with pytest.raises(ValidationError, match="subject 's3': missing terminal/censor"):
        read_study_csv(_csv("s3,5.0,1,1"), tau=10.0)


def test_ingest_duplicate_terminal_record():
    with pytest.raises(ValidationError, match="subject 's1': multiple terminal/censor"):
        read_study_csv(_csv("s1,5.0,0,1", "s1,6.0,2,1"), tau=10.0)


def test_ingest_event_after_followup():
    with pytest.raises(ValidationError, match=r"subject 's1': event time outside \[0, X\]"):
        read_study_csv(_csv("s1,7.0,1,1", "s1,5.0,0,1"), tau=10.0)


def test_ingest_single_arm():
    text = "id,time,status,arm\ns1,2.0,1,1\ns1,10.0,2,1\n"
    arms, _ = read_arms_csv(io.StringIO(text))
    assert list(arms) == [1] and arms[1].n == 1
    with pytest.raises(ValidationError, match="arm 2: no subjects"):
        read_study_csv(io.StringIO(text), tau=5.0)


def test_ingest_permutation_invariant(rng):
    study = random_study(rng, n=12, n_cov=1, n_types=2)
    buf = io.StringIO()
    write_records_csv(study, buf)
    header, *lines = buf.getvalue().splitlines()
    perm = [lines[i] for i in rng.permutation(len(lines))]
    a = read_study_csv(io.StringIO("\n".join([header, *lines])), study.tau)
    b = read_study_csv(io.StringIO("\n".join([header, *perm])), study.tau)
    assert a.arm1 == b.arm1 and a.arm2 == b.arm2


def test_at_risk_closed_inequality():
    arm = make_arm(1, [
        ("a", 2.0, False),
        ("b", 4.0, True),
    ])
    assert at_risk(arm, np.array([2.0]))[0] == 2  # X >= t counts
    assert at_risk(arm, np.array([2.0 + 1e-12]))[0] == 1


@pytest.mark.parametrize("max_x,tau,ok", [(12.0, 12.0, True), (10.0, 12.0, False)])
def test_truncation_boundary(max_x, tau, ok):
    # identifiable when some subject is followed to tau (closed inequality)
    arm = make_arm(2, [("a", 1.0, True), ("b", max_x, False)])
    msg = arm_truncation_message(arm, tau)
    if ok:
        assert msg is None
    else:
        assert msg == "arm 2: max follow-up 10 < tau=12; MCF is not identifiable up to tau"


def test_csv_round_trip(rng):
    study = random_study(rng, n=10, n_cov=2, n_types=2)
    buf = io.StringIO()
    write_records_csv(study, buf)
    buf.seek(0)
    back = read_study_csv(buf, study.tau)
    assert back.arm1 == study.arm1 and back.arm2 == study.arm2
    assert back.covariate_names == study.covariate_names


def test_csv_writer_fixed_text():
    arm1 = make_arm(1, [
        ("b", 4.0, True, (1.5, 0.25, 1.5), (2, 1, 0), (0.5, -1.0)),
        ("a", 3.0, False, (), (), (2.0, 0.125)),
    ])
    arm2 = make_arm(2, [("c", 2.5, False, (2.5,), (1,), (0.0, 3.0))])
    buf = io.StringIO()
    write_records_csv(StudyDataset(arm1, arm2, 2.0, ("age", "dose")), buf)
    assert buf.getvalue() == (
        "id,time,status,arm,event_type,age,dose\r\n"
        "b,0.25,1,1,1,0.5,-1.0\r\n"
        "b,1.5,1,1,2,0.5,-1.0\r\n"
        "b,1.5,1,1,0,0.5,-1.0\r\n"
        "b,4.0,2,1,,0.5,-1.0\r\n"
        "a,3.0,0,1,,2.0,0.125\r\n"
        "c,2.5,1,2,1,0.0,3.0\r\n"
        "c,2.5,0,2,,0.0,3.0\r\n"
    )


def test_csv_missing_columns():
    with pytest.raises(ValidationError, match="missing required columns"):
        read_study_csv(io.StringIO("id,time\n"), tau=1.0)


@pytest.mark.parametrize("text,position", [
    # R's write.csv with its default row.names = TRUE
    ('"","id","time","status","arm"\n"1","a",1,2,1\n"2","b",1.5,1,2\n"3","b",2,0,2\n', 1),
    ("id,time,status,arm,\na,1,2,1,\nb,1.5,1,2,\nb,2,0,2,\n", 5),
], ids=["r-row-names", "trailing-comma"])
def test_csv_empty_header_field_is_named(text, position):
    with pytest.raises(ValidationError) as info:
        read_study_csv(io.StringIO(text), tau=1.0)
    assert str(info.value) == (f"CSV header field {position} is empty; R's write.csv writes "
                               "its row names there unless called with row.names = FALSE")


def test_csv_bad_status():
    text = "id,time,status,arm\ns1,1.0,7,1\n"
    with pytest.raises(ValidationError, match="bad status"):
        read_study_csv(io.StringIO(text), tau=1.0)


def test_constructor_reorders_types_with_times():
    arm = make_arm(1, [("x", 5.0, False, (3.0, 1.0), (7, 8))])
    assert arm.event_times.tolist() == [1.0, 3.0]
    assert arm.event_type_labels.tolist() == [8, 7]
    # ties keep their given order (stable sort)
    arm = make_arm(1, [("y", 5.0, False, (3.0, 1.0, 3.0, 2.0), (1, 2, 3, 4))])
    assert arm.event_times.tolist() == [1.0, 2.0, 3.0, 3.0]
    assert arm.event_type_labels.tolist() == [2, 4, 1, 3]


def test_weighted_contrast_unsorted_histories(rng):
    study = random_study(rng, n=20, n_types=3)

    def shuffled(arm):
        subjects = []
        for sid, x, d, times, types, _ in subject_rows(arm):
            order = rng.permutation(len(times))
            subjects.append((
                sid, x, d, tuple(times[i] for i in order), tuple(types[i] for i in order),
            ))
        return make_arm(arm.arm, subjects)

    unsorted = StudyDataset(shuffled(study.arm1), shuffled(study.arm2), study.tau)
    weights = {0: 1.0, 1: 2.0, 2: 0.5}
    assert weighted_contrast(unsorted, weights) == weighted_contrast(study, weights)


@settings(max_examples=50, deadline=None)
@given(events=st.lists(st.tuples(st.floats(0.0, 10.0), st.integers(0, 2)), max_size=8))
def test_constructor_sorts_any_event_times(events):
    # (time, subject) pairs in any order: sorted by time, then subject,
    # then the order given, with each label kept on its event
    times = [t for t, _ in events]
    owners = [k for _, k in events]
    arm = ArmDataset(1, ["a", "b", "c"], [10.0] * 3, [False] * 3, np.empty((3, 0)),
                     times, owners, range(len(events)))
    expected = sorted(range(len(events)), key=lambda e: events[e])
    assert arm.event_type_labels.tolist() == expected
    assert arm.event_times.tolist() == [times[e] for e in expected]
    assert arm.event_subjects.tolist() == [owners[e] for e in expected]


def test_covariate_dim_mismatch_rejected():
    # covariates are one (n, p) matrix: any other shape is rejected
    cols = dict(arm=1, subject_ids=["a", "b"], follow_up=[1.0, 1.0], terminal=[False, False],
                event_times=[], event_subjects=[], event_type_labels=[])
    for covariates in ([1.0, 2.0], np.ones((1, 2)), np.ones((3, 1)), np.ones((2, 1, 1))):
        with pytest.raises(ValidationError, match="column lengths disagree"):
            ArmDataset(**cols, covariates=covariates)


def test_covariate_names_are_none_or_one_per_column(rng):
    # two covariates (w, 0.5 w) named as one
    study = random_study(rng, n=10, n_cov=1)
    arms = [make_arm(arm.arm, [(*row[:5], (row[5][0], 0.5 * row[5][0]))
                               for row in subject_rows(arm)])
            for arm in study.arms()]
    for names in (("x",), ("x", "y", "z")):
        with pytest.raises(ValidationError, match=f"{len(names)} covariate names for 2"):
            StudyDataset(*arms, tau=1.0, covariate_names=names)
    assert StudyDataset(*arms, tau=1.0).covariate_names == ()
    assert StudyDataset(*arms, tau=1.0, covariate_names=("x", "y")).covariate_names == ("x", "y")


# ---------------------------------------------------------------------------
# CSV parse errors name the line
# ---------------------------------------------------------------------------

_FIELD_ERRORS = [
    ("a,abc,0,1\n", "line 2: bad time 'abc'"),
    ("a,1.0,0,x\n", "line 2: bad arm 'x'"),
    ("a,1.0,x,1\n", "line 2: bad status 'x'"),
    ("a,1.0,0\n", "line 2: expected 4 fields, got 3"),
    ("a,1.0,0,1,9\n", "line 2: expected 4 fields, got 5"),
    ("a,1.0,0,1\n\n\nb,1.0,0,zz\n", "line 5: bad arm 'zz'"),
    ("a,1.0,0,1\n\nb,1.0\n", "line 4: expected 4 fields"),
    ("a,1.0,0,1\nb,1.0,0,99999999999999999999\n", "line 3: bad arm"),
    # a line break inside a quoted field counts, LF or CRLF
    ('"a\nb",1.0,0,1\nc,x,0,1\n', "line 4: bad time 'x'"),
    ('"a\nb",1.0,0,1\nc,1.0,0\n', "line 4: expected 4 fields, got 3"),
    ('"a\r\nb",1.0,0,1\n\nc,1.0,0,x\n', "line 5: bad arm 'x'"),
    # a row that spans lines is named by its first
    ('a,1.0,0,1\n"b\nc",1.0,0,x\n', "line 3: bad arm 'x'"),
    # the first bad row in file order, whatever is wrong with it
    ("a,x,0,1\nb,1.0,0\n", "line 2: bad time 'x'"),
    ("a,x,0,1\nb,1,0,2\n" + "c" * 131073 + ",1,0,2\n", "line 2: bad time 'x'"),
]


def _text_id(value):
    """A test id for a text over the csv field limit: its length, not the
    text; other values keep pytest's own id."""
    if isinstance(value, str) and len(value) > csv.field_size_limit():
        return f"text of {len(value)} chars"
    return None


@pytest.mark.parametrize("body,match", _FIELD_ERRORS, ids=_text_id)
def test_csv_field_errors_name_the_line(body, match):
    with pytest.raises(ValidationError, match=match):
        read_study_csv(io.StringIO("id,time,status,arm\n" + body), tau=1.0)


_BAD_FIELD_ORDER = ("id,time,status,arm,event_type,w1\n"
                    "a,1.0,1,1,2,0.5\n"
                    "a,1.0,1,1,x,0.5\n"
                    "a,nope,0,1,,0.5\n")


def test_csv_first_bad_field_in_row_order():
    text = _BAD_FIELD_ORDER
    with pytest.raises(ValidationError, match="line 3: bad event_type 'x'"):
        read_study_csv(io.StringIO(text), tau=1.0)
    with pytest.raises(ValidationError, match="line 2: bad covariate value"):
        read_study_csv(io.StringIO(text.replace("2,0.5", "2,w")), tau=1.0)


_PYTHON_NUMBERS = "id,time,status,arm\na, 1.5,1,1\na,1_0,0, 1\nb,2e0,2,2\n"


def test_csv_numbers_parse_like_python():
    text = _PYTHON_NUMBERS
    study = read_study_csv(io.StringIO(text), tau=1.0)
    assert study.arm1.event_times.tolist() == [1.5]
    assert study.arm1.follow_up.tolist() == [10.0]
    with pytest.raises(ValidationError, match="subject 'b': follow-up must be finite"):
        read_study_csv(io.StringIO(text.replace("2e0", "inf")), tau=1.0)


@pytest.mark.parametrize("rows,match", [
    (["b,1,0,1", "a,1,0,1", "a,2,0,1"], "subject 'a': multiple terminal"),
    (["b,1,1,1", "a,1,1,1"], "subject 'a': missing terminal"),
    (["a,3,1,1", "a,2,0,1"], "subject 'a': event time outside"),
    (["a,1,1,1,0.5", "a,2,0,1,0.25"], "subject 'a': conflicting covariate"),
    (["a,1,1,1,nan", "a,2,0,1,nan"], "subject 'a': conflicting covariate"),
    (["a,2,0,1,nan"], "subject 'a': missing or non-finite covariate"),
    (["a,2,0,1,inf", "b,2,0,1,1"], "subject 'a': missing or non-finite covariate"),
    # every row's arm label is checked before any subject's follow-up
    (["z,-1,0,1", "a,2,0,3"], "subject 'a': arm must be 1 or 2"),
    (["z,1,0,1", "a,2,0,3"], "subject 'a': arm must be 1 or 2"),
    # a rule that rows alone show, in either arm, before any arm's data model
    (["a,-1,0,1", "b,1,1,2"], "subject 'b': missing terminal"),
    (["a,1,1,2", "b,1,0,2", "z,-1,0,1"], "subject 'a': missing terminal"),
    # arm 1's data model before arm 2's
    (["a,nan,0,2", "z,1,0,1", "z,2,1,1"], "subject 'z': event time outside"),
])
def test_csv_validation_names_first_offending_subject(rows, match):
    cov = ",w1" if rows[0].count(",") == 4 else ""
    text = "\n".join([f"id,time,status,arm{cov}"] + rows + ["c,1,0,2" + (",0" if cov else "")])
    with pytest.raises(ValidationError, match=match):
        read_study_csv(io.StringIO(text + "\n"), tau=1.0)


def _arm_columns(rows):
    """The ``ArmDataset`` arguments of arm-1 rows ``(id, time, status, w1)``,
    subjects in id order, each with the covariate and follow-up of its
    censor or death row."""
    ids = sorted({r[0] for r in rows})
    end = {r[0]: r for r in rows if r[2] != Status.EVENT}
    events = [r for r in rows if r[2] == Status.EVENT]
    return dict(arm=1, subject_ids=ids, follow_up=[end[i][1] for i in ids],
                terminal=[end[i][2] == Status.DEATH for i in ids],
                covariates=[[end[i][3]] for i in ids],
                event_times=[r[1] for r in events],
                event_subjects=[ids.index(r[0]) for r in events],
                event_type_labels=[0] * len(events))


@pytest.mark.parametrize("bad,message", [
    ([("b", -1.0, 0, 0.5)], "follow-up must be finite and >= 0"),
    ([("b", np.nan, 2, 0.5)], "follow-up must be finite and >= 0"),
    ([("b", np.inf, 0, 0.5)], "follow-up must be finite and >= 0"),
    ([("b", -0.5, 1, 0.5), ("b", 2.0, 0, 0.5)], "event time outside [0, X]"),
    ([("b", np.nan, 1, 0.5), ("b", 2.0, 0, 0.5)], "event time outside [0, X]"),
    ([("b", 3.0, 1, 0.5), ("b", 2.0, 2, 0.5)], "event time outside [0, X]"),
    ([("b", 2.0, 0, np.nan)], "missing or non-finite covariate"),
    ([("b", 2.0, 0, -np.inf)], "missing or non-finite covariate"),
])
def test_csv_and_columns_break_a_data_model_rule_alike(bad, message):
    # ArmDataset alone checks the data model, so a CSV and the same columns
    # given to ArmDataset raise the same error
    rows = [("a", 1.0, 1, 0.25), ("a", 2.0, 2, 0.25), *bad, ("c", 3.0, 0, 1.0)]
    text = "id,time,status,arm,w1\n" + "".join(f"{i},{t!r},{s},1,{w!r}\n" for i, t, s, w in rows)
    with pytest.raises(ValidationError) as from_csv:
        read_arms_csv(io.StringIO(text))
    with pytest.raises(ValidationError) as from_columns:
        ArmDataset(**_arm_columns(rows))
    assert str(from_csv.value) == str(from_columns.value) == f"subject 'b': {message}"


def test_subject_order_is_python_sorted():
    ids = ["b", "a\0", "a", "B", "ä", "a\0\0", " a"]
    rows = [f"{sid},1.0,0,1" for sid in ids] + ["z,1.0,0,2"]
    study = read_study_csv(io.StringIO("\n".join(["id,time,status,arm"] + rows)), 1.0)
    assert study.arm1.subject_ids.tolist() == sorted(ids)


# ---------------------------------------------------------------------------
# Columnar ingest equals the v0.1 object path
# ---------------------------------------------------------------------------

def _reference_arms(rows):
    """The v0.1 grouping by plain loops: rows per (arm, id) in sorted order,
    each subject's events stably by time, one ``make_arm`` tuple per subject.

    A row is ``(id, time, status, arm, event_type or None, covariates or
    None)``.
    """
    groups = {}
    for r in rows:
        groups.setdefault((r[3], r[0]), []).append(r)
    subjects = {1: [], 2: []}
    for (arm, sid), rs in sorted(groups.items()):
        end = next(r for r in rs if r[2] != Status.EVENT)
        events = sorted((r for r in rs if r[2] == Status.EVENT), key=lambda r: r[1])
        subjects[arm].append((
            sid, end[1], end[2] == Status.DEATH,
            tuple(e[1] for e in events),
            tuple(0 if e[4] is None else e[4] for e in events),
            tuple(rs[0][5] or ()),
        ))
    return {arm: make_arm(arm, subs) for arm, subs in subjects.items() if subs}


def _assert_same_columns(a, b):
    assert a == b
    for name in ("subject_ids", "follow_up", "terminal", "covariates",
                 "event_times", "event_subjects", "event_type_labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tolist() == y.tolist(), name


@st.composite
def _long_format(draw, lineterminator="\r\n"):
    p = draw(st.integers(0, 2))
    typed = draw(st.booleans())
    rows = []
    for arm in (1, 2):
        # csv.writer quotes an id that holds '"' or ','
        ids = draw(st.lists(st.text('ab\0é ",', min_size=1, max_size=3),
                            min_size=1, max_size=6, unique=True))
        for sid in ids:
            x = draw(st.sampled_from(TIE_GRID))
            cov = tuple(draw(st.lists(st.floats(-5, 5), min_size=p, max_size=p))) or None
            events = draw(st.lists(st.sampled_from([t for t in TIE_GRID if t <= x]),
                                   max_size=4))
            for t in events:
                etype = draw(st.integers(0, 2)) if typed else None
                rows.append((sid, t, Status.EVENT, arm, etype, cov))
            status = draw(st.sampled_from([Status.CENSOR, Status.DEATH]))
            rows.append((sid, x, status, arm, None, cov))
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    writer.writerow(["id", "time", "status", "arm"] + ["event_type"] * typed
                    + [f"w{j + 1}" for j in range(p)])
    for sid, t, status, arm, etype, cov in rows:
        writer.writerow([sid, repr(t), int(status), arm]
                        + (["" if etype is None else etype] if typed else [])
                        + list(map(repr, cov or ())))
    return rows, buf.getvalue(), p


@settings(max_examples=150, deadline=None)
@given(data=_long_format())
def test_columnar_ingest_equals_object_path(data):
    rows, text, p = data
    ref = _reference_arms(rows)
    arms, names = read_arms_csv(io.StringIO(text))
    assert sorted(arms) == sorted(ref) == [1, 2]
    assert names == tuple(f"w{j + 1}" for j in range(p))
    for k in (1, 2):
        _assert_same_columns(arms[k], ref[k])
    # CSV round trip, column level
    study = StudyDataset(ref[1], ref[2], tau=1.0, covariate_names=names)
    buf = io.StringIO()
    write_records_csv(study, buf)
    buf.seek(0)
    back = read_study_csv(buf, study.tau)
    _assert_same_columns(back.arm1, study.arm1)
    _assert_same_columns(back.arm2, study.arm2)
    assert back.covariate_names == study.covariate_names


_TWO_SUBJECTS = dict(arm=1, subject_ids=["a", "b"], follow_up=[2.0, 1.0],
                     terminal=[True, False], covariates=np.empty((2, 0)),
                     event_times=[1.5, 0.5], event_subjects=[0, 1],
                     event_type_labels=[0, 0])


def test_from_columns_checks_the_data_model():
    ok = _TWO_SUBJECTS
    arm = ArmDataset(**ok)
    assert arm.event_times.tolist() == [0.5, 1.5]
    assert arm.event_subjects.tolist() == [1, 0]
    assert not arm.follow_up.flags.writeable
    with pytest.raises(ValidationError, match="subject 'b': event time outside"):
        ArmDataset(**dict(ok, event_times=[1.5, 1.5]))
    with pytest.raises(ValidationError, match="subject 'a': follow-up"):
        ArmDataset(**dict(ok, follow_up=[np.nan, 1.0]))
    with pytest.raises(ValidationError, match="subject 'b': missing or non-finite covariate"):
        ArmDataset(**dict(ok, covariates=[[0.0], [np.nan]]))
    with pytest.raises(ValidationError, match="column lengths"):
        ArmDataset(**dict(ok, terminal=[True]))
    with pytest.raises(ValidationError, match="empty arm"):
        ArmDataset(**dict(ok, subject_ids=[], follow_up=[], terminal=[],
                          covariates=np.empty((0, 0)), event_times=[],
                          event_subjects=[], event_type_labels=[]))


def test_write_records_csv_rejects_a_repeated_subject_id():
    # the reader would take the two subjects' rows for one subject's
    arms = [ArmDataset(**dict(_TWO_SUBJECTS, arm=1)),
            ArmDataset(**dict(_TWO_SUBJECTS, arm=2, subject_ids=["a", "a"]))]
    buf = io.StringIO()
    with pytest.raises(ValidationError, match="arm 2: subject id 'a' repeats"):
        write_records_csv(StudyDataset(*arms, 1.0), buf)
    assert buf.getvalue() == ""


@pytest.mark.parametrize("names", [("time",), ("event_type",), ("id",), ("",), ("w", "w")])
def test_write_records_csv_rejects_a_header_it_cannot_read_back(names):
    # the reader would reject the header, or take a covariate column for a
    # column of its own; without events no event_type column is written
    covariates = np.zeros((2, len(names)))
    no_events = dict(event_times=[], event_subjects=[], event_type_labels=[])
    for events in ({}, no_events):
        arms = [ArmDataset(**dict(_TWO_SUBJECTS, arm=a, covariates=covariates, **events))
                for a in (1, 2)]
        buf = io.StringIO()
        with pytest.raises(ValidationError, match="CSV header"):
            write_records_csv(StudyDataset(*arms, 1.0, names), buf)
        assert buf.getvalue() == ""


def test_select_covariates_shares_all_but_the_covariates(rng):
    study = random_study(rng, n=20, n_cov=3)
    sub = study.select_covariates(("w3", "w1"))
    assert sub.covariate_names == ("w3", "w1") and sub.tau == study.tau
    for arm, full in zip(sub.arms(), study.arms()):
        assert arm.covariates.tolist() == full.covariates[:, [2, 0]].tolist()
        assert arm.covariates.flags.c_contiguous and not arm.covariates.flags.writeable
        for name in (*core._COLUMNS, *core._INDEX):
            if name != "covariates":
                assert getattr(arm, name) is getattr(full, name), name
        assert full.covariate_dim == 3  # the study itself keeps every column
    assert sub.arm1._te is study.arm1._te
    with pytest.raises(ValidationError) as err:
        study.select_covariates(("nope", "w1", "zz"))
    assert str(err.value) == ("unknown covariate columns ['nope', 'zz']; "
                              "available: ['w1', 'w2', 'w3']")


@settings(max_examples=100, deadline=None)
@given(arm=tied_arms())
def test_follow_up_order_is_stable_and_read_only(arm):
    order = arm._follow_up_order
    x = arm.follow_up[order]
    assert sorted(order.tolist()) == list(range(arm.n))
    assert (np.diff(x) >= 0).all()
    tied = np.diff(x) == 0
    assert (np.diff(order)[tied] > 0).all()  # ties stay in subject order
    assert not order.flags.writeable


@settings(max_examples=100, deadline=None)
@given(arm=tied_arms(), seed=st.integers(0, 2**32 - 1))
def test_jump_index_is_read_only_and_independent_of_event_order(arm, seed):
    for name in core._INDEX:
        assert not getattr(arm, name).flags.writeable, name
    # the same events given in another order index to the same bytes
    perm = np.random.default_rng(seed).permutation(arm.event_times.size)
    shuffled = ArmDataset(arm.arm, arm.subject_ids, arm.follow_up, arm.terminal,
                          arm.covariates, arm.event_times[perm], arm.event_subjects[perm],
                          arm.event_type_labels[perm])
    # labels may trade places among events tied in time and subject; the
    # index does not read them
    for name in ("event_times", "event_subjects", *core._INDEX):
        got, want = getattr(shuffled, name), getattr(arm, name)
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), name


def test_subject_history_validation():
    ok = _TWO_SUBJECTS
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValidationError, match="subject 'a': follow-up must be finite"):
            ArmDataset(**dict(ok, follow_up=[bad, 1.0]))
    with pytest.raises(ValidationError, match="subject 'a': event time outside"):
        ArmDataset(**dict(ok, event_times=[2.5, 0.5]))
    with pytest.raises(ValidationError, match="subject 'b': event time outside"):
        ArmDataset(**dict(ok, event_times=[1.5, -0.5]))
    # one subject's events get sorted
    arm = ArmDataset(**dict(ok, event_times=[1.5, 0.5], event_subjects=[0, 0]))
    assert arm.event_times.tolist() == [0.5, 1.5]


# ---------------------------------------------------------------------------
# Orders from numpy's default sort, subjects grouped by counting
# ---------------------------------------------------------------------------

_SORT_INPUTS = st.one_of(
    st.lists(st.floats(allow_nan=False), max_size=3),
    st.lists(st.floats(allow_nan=False), max_size=40),
    st.lists(st.sampled_from(TIE_GRID), max_size=40),
    st.lists(st.sampled_from([-0.0, 0.0, 0.5]), max_size=20),
    st.builds(lambda v, n: [v] * n, st.floats(allow_nan=False), st.integers(0, 20)),
)


def _arranged(values, arrange):
    v = np.array(values, dtype=np.float64)
    if arrange == "given":
        return v
    v = np.sort(v, kind="stable")
    return v if arrange == "sorted" else v[::-1].copy()


def _assert_event_order_is_lexsort(times, subjects):
    """The arm sorts events as ``np.lexsort((subjects, times))`` does: each
    event's label is its position in the order given."""
    n = int(subjects.max()) + 1 if subjects.size else 1
    arm = ArmDataset(1, [f"s{i}" for i in range(n)], np.full(n, 1e300), np.zeros(n, bool),
                     np.empty((n, 0)), times, subjects, np.arange(times.size))
    want = np.lexsort((subjects, times))
    assert arm.event_type_labels.tolist() == want.tolist()
    assert arm.event_times.tobytes() == times[want].tobytes()  # -0.0 stays -0.0
    assert arm.event_subjects.tolist() == subjects[want].tolist()


@settings(max_examples=300, deadline=None)
@given(values=_SORT_INPUTS, arrange=st.sampled_from(["given", "sorted", "reversed"]))
def test_stable_order_is_numpys_stable_argsort(values, arrange):
    v = _arranged(values, arrange)
    got, want = core._stable_order(v), np.argsort(v, kind="stable")
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), arrange=st.sampled_from(["given", "sorted", "reversed"]))
def test_event_order_is_lexsort_by_time_then_subject(data, arrange):
    times = _arranged(data.draw(st.lists(st.sampled_from([-0.0, *TIE_GRID]) | st.floats(0, 2),
                                         max_size=30)), arrange)
    subjects = data.draw(st.lists(st.integers(0, 4), min_size=times.size, max_size=times.size))
    if data.draw(st.booleans()):
        subjects.sort()  # grouped by subject, as the reader and simulator give them
    _assert_event_order_is_lexsort(times, np.array(subjects, dtype=np.int64))


def test_orders_of_ten_thousand_four_decimal_times():
    rng = np.random.default_rng(31)
    times = np.round(rng.exponential(1.0, 10_000), 4)
    assert np.unique(times).size < times.size  # there are ties
    assert core._stable_order(times).tolist() == np.argsort(times, kind="stable").tolist()
    _assert_event_order_is_lexsort(times, np.sort(rng.integers(0, 2000, times.size)))


@st.composite
def _row_columns(draw):
    """The reader's columns of rows in any order, so that a subject's rows
    are not contiguous and the arms interleave; ids recur across arms, and
    some subjects have one row. Now and then a subject lacks its censor or
    death row, has two, or has a conflicting covariate (NaN included)."""
    p = draw(st.integers(0, 2))
    rows = []
    for arm in (1, 2):
        for sid in draw(st.lists(st.sampled_from(["a", "b", "a\0", "c", "d"]),
                                 max_size=4, unique=True)):
            cov = draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=p, max_size=p))
            x = draw(st.sampled_from(TIE_GRID))
            times = draw(st.lists(st.sampled_from([t for t in TIE_GRID if t <= x]), max_size=3))
            ends = draw(st.sampled_from([[0], [2]] * 5 + [[], [0, 2]]))
            for t, status in [(t, Status.EVENT) for t in times] + [(x, s) for s in ends]:
                w = cov
                if p and draw(st.integers(0, 19)) == 0:
                    w = [draw(st.sampled_from([0.25, np.nan]))] + cov[1:]
                rows.append((sid, t, int(status), arm, draw(st.integers(0, 2)), w))
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    columns = [np.array([r[k] for r in rows], dtype=d)
               for k, d in ((1, np.float64), (2, np.int64), (3, np.int64), (4, np.int64))]
    covariates = np.array([r[5] for r in rows], dtype=np.float64).reshape(len(rows), p)
    return ([r[0] for r in rows], *columns, covariates)


def _grouped(group, columns):
    try:
        return group(*columns)
    except ValidationError as exc:
        return str(exc)


def _assert_same_arms(got, want):
    """The same error, or arms with the same bytes in every column and
    index array."""
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert sorted(got) == sorted(want)
    for a in want:
        for name in (*core._COLUMNS, *core._INDEX):
            x, y = getattr(got[a], name), getattr(want[a], name)
            assert x.dtype == y.dtype and x.shape == y.shape, name
            same = x.tolist() == y.tolist() if x.dtype == object else x.tobytes() == y.tobytes()
            assert same, name


@settings(max_examples=200, deadline=None)
@given(columns=_row_columns())
def test_grouping_by_counting_equals_np_unique(columns):
    _assert_same_arms(_grouped(core._arms_from_rows, columns), _grouped(unique_grouping, columns))


def test_grouping_across_a_chunk_boundary():
    # most arm-1 subjects have three rows in a row, every tenth only one;
    # arm 2's rows sit among arm 1's, and arm-2 subjects of one row go first
    # until one subject's rows straddle the last row of the first loadtxt
    # call and the first of the next
    rng = np.random.default_rng(7)
    rows = []
    for i in range(1500):
        t = np.round(rng.uniform(0, 2, 2), 4)
        w = f"{rng.standard_normal():.6f}"
        events = [] if i % 10 == 9 else [f"s{i:05d},{v},1,1,{w}" for v in t.tolist()]
        rows += [*events, f"s{i:05d},2.0,{i % 3 % 2 * 2},1,{w}"]
    for i in range(50):
        rows.insert(int(rng.integers(0, 4000)), f"s{i:05d},{1 + i / 64!r},0,2,{i}")
    last = core._CHUNK_ROWS - 1
    while rows[last].split(",")[0] != rows[last + 1].split(",")[0]:
        rows.insert(0, f"z{len(rows)},1.5,2,2,0")
    text = "id,time,status,arm,w1\n" + "\n".join(rows) + "\n"
    fast, slow, in_c = _read_both_ways(text)
    assert fast == slow and in_c
    columns = core._read_columns(io.StringIO(text))[0]
    arms = read_arms_csv(io.StringIO(text))[0]
    _assert_same_arms(arms, unique_grouping(*columns))
    assert arms[1].n == 1500 and arms[2].n == len(rows) - 4200


# ---------------------------------------------------------------------------
# A plain body parsed in C reads as csv.reader reads it
# ---------------------------------------------------------------------------

class _NoSeek(io.StringIO):
    """A text stream that cannot be rewound."""

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


def _read(source):
    """``_read_columns`` of ``source``, a text read from a ``_NoSeek``
    stream or the input's bytes: the ids, each array's dtype, shape and
    bytes, and the covariate names; or the error's type and message."""
    try:
        (ids, *arrays), names = core._read_columns(
            _NoSeek(source) if isinstance(source, str) else source)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return ids, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], names


def _read_in_c(source):
    """``_read`` of ``source``, and whether its body was parsed in C."""
    real = core._parse_plain
    parsed = []

    def spy(*args):
        parsed.append(real(*args))
        return parsed[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_parse_plain", spy)
        got = _read(source)
    assert len(parsed) <= 1
    return got, any(p is not None for p in parsed)


def _read_both_ways(source):
    """``_read`` of ``source``, the same with the body given to
    ``csv.reader``, and whether the first parsed the body in C."""
    fast, in_c = _read_in_c(source)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_parse_plain", lambda *args: None)
        slow = _read(source)
    return fast, slow, in_c


@settings(max_examples=150, deadline=None)
@given(data=_long_format("\n"))
def test_plain_chunks_read_as_csv_reader(data):
    _, text, _ = data
    fast, slow, in_c = _read_both_ways(text)
    assert fast == slow
    assert in_c or "\0" in text  # only a NUL in an id keeps it from C


@settings(max_examples=100, deadline=None)
@given(data=_long_format("\r\n"))
def test_crlf_chunks_read_as_csv_reader(data):
    # the line ends that write_records_csv and Windows tools write
    _, text, _ = data
    fast, slow, in_c = _read_both_ways(text)
    assert fast == slow
    assert in_c or "\0" in text


@pytest.mark.parametrize("text", [
    *("id,time,status,arm\n" + body for body, _ in _FIELD_ERRORS),
    _BAD_FIELD_ORDER, _BAD_FIELD_ORDER.replace("2,0.5", "2,w"),
    _PYTHON_NUMBERS, _PYTHON_NUMBERS.replace("2e0", "inf"),
], ids=_text_id)
def test_csv_test_inputs_read_as_csv_reader(text):
    fast, slow, _ = _read_both_ways(text)
    assert fast == slow


_H = "id,time,status,arm,event_type,w1\n"
_ROWS = "a,1.0,1,1,2,0.5\na,2.0,0,1,,0.5\n"


# (text, whether its body is parsed in C)
@pytest.mark.parametrize("text,in_c", [
    (_H + _ROWS + "b,nan,0,2,,-nan\n", True),
    (_H + _ROWS + "b,inf,0,2,,-Infinity\n", True),
    (_H + _ROWS + "b,1e400,0,2,,1e-400\n", True),
    (_H + _ROWS + "b,-0.0,0,2,,-0\n", True),
    (_H + _ROWS + "b, 1.5,0 , 2,  1 , 1.5 \n", True),
    (_H + _ROWS + "b,\u30001.5,0,2,,0.5\n", True),
    (_H + _ROWS + "b,1_000,0,2,1_0,0.5\n", False),
    (_H + _ROWS + "b,\u0661.\u0665,\u0661,\u0662,\u0661,\u0660.\u0665\n", False),
    (_H + _ROWS + "b,+1,+0,+2,+1,+0.5\n", True),
    (_H + _ROWS + "b,01,00,02,01,00.5\n", True),
    (_H + _ROWS + "b,1,1.0,2,,0.5\n", False),
    (_H + _ROWS + "b,1,3,2,,0.5\n", False),
    (_H + _ROWS + "b,1,-1,2,,0.5\n", False),
    (_H + _ROWS + "b,1,1,2,1234567890123456789012345,0.5\n", False),
    (_H + _ROWS + "b,1,1,2,9223372036854775807,0.5\n", True),
    (_H + _ROWS + "b,1,1,2,9223372036854775808,0.5\n", False),
    (_H + _ROWS + "b,1,1,2,-9223372036854775808,0.5\n", True),
    (_H + _ROWS + "b,1,0,9223372036854775808,,0.5\n", False),
    (_H + _ROWS + "b,1,1,2, ,0.5\n", False),
    (_H + _ROWS + "b,1,,2,,0.5\n", False),
    (_H + _ROWS + "b,0x1p3,0,2,,0.5\n", False),
    (_H + _ROWS + "b\0,1,0,2,,0.5\n", False),
    (_H + _ROWS + "#b,1,0,2,,0.5\n", True),
    (_H + _ROWS + "b,1,0,2,,0.5,9\n", False),
    (_H + _ROWS + "\nb,1,0,2,,0.5\n", False),
    (_H + _ROWS + " \nb,1,0,2,,0.5\n", False),
    (_H + _ROWS + '"b",1,0,2,,0.5\n', True),
    (_H + _ROWS + '"a""b",1,0,2,,0.5\n', True),
    (_H + _ROWS + '"b,c",1,0,2,,0.5\n', True),
    (_H + _ROWS + 'b,"1.5",0,2,,"1.5"\n', True),
    (_H + _ROWS + 'b,1,"0",2,,0.5\n', True),
    (_H + _ROWS + 'b,1,"3",2,,0.5\n', False),
    (_H + _ROWS + 'b,1,1,2,"",0.5\n', True),
    (_H + _ROWS + '"b\nc",1,0,2,,0.5\n', False),
    # the last line opens a quoted field that the input's end closes
    (_H + _ROWS + 'b,1,0,2,,"0.5\n', False),
    (_H + _ROWS + 'b,1,0,2,,"0.5', True),
    # R's write.csv quotes the header and every string field
    ('"id","time","status","arm","event_type","w1"\n"a",1,1,1,2,0.5\n'
     '"a",2,0,1,,0.5\n"b",1,0,2,,0.5\n', True),
    # a header over two lines: the first loadtxt call skips both
    ('id,time,status,arm,event_type,"w\n1"\n' + _ROWS, True),
    ((_H + _ROWS).replace("\n", "\r\n"), True),
    (_H + _ROWS.replace("\n", "\r\n") + "b,1,0,2,,0.5\n", True),
    ((_H + _ROWS).replace("\n", "\r"), False),
    ((_H + _ROWS).replace("\n", "\r\r\n"), False),
    ((_H + _ROWS + "\nb,1,0,2,,0.5\n").replace("\n", "\r\n"), False),
    (_H + _ROWS + "b,1\r,0,2,,0.5\n", False),
    # csv.reader rejects a bare CR, so it must not reach the quote check
    (_H + _ROWS + "\nb,1,0,2,,0.5\rc,1,0,2,,0.5\n", False),
    pytest.param(_H + _ROWS + "b" * 131073 + ",1,0,2,,0.5\n", False,
                 id="field over the csv limit"),
    (_H + _ROWS + "b,1,0,2,,0.5", True),
    ("time,id,status,arm\n1,a,0,1\n", True),
    ("time,status,arm,id\n1,0,1,a\n1,0,2,\"b\"\n", True),
    (_H, False),
    ("", False),
])
def test_edge_cases_read_as_csv_reader(text, in_c):
    fast, slow, took_c = _read_both_ways(text)
    assert fast == slow
    assert took_c == in_c


@pytest.mark.parametrize("text,name", [
    ("id,time,status,arm,time,w1\na,x,1,1,1.0,0.5\na,,0,1,2.0,0.5\n", "time"),
    ("id,time,status,arm,w1,w1\n" + _ROWS + "b,1,0,2,3,4\n", "w1"),
    ("id,id,time,status,arm,w1\n" + _ROWS + "b,1,0,2,9,0.5\n", "id"),
])
def test_repeated_header_name_is_an_error_on_both_paths(text, name):
    # the header is parsed once, before either path reads a row
    fast, slow, in_c = _read_both_ways(text)
    assert fast == slow == (ValidationError, f"CSV header repeats the column name {name!r}")
    assert not in_c


@pytest.fixture
def field_limit():
    """``csv.field_size_limit``, restored after the test."""
    old = csv.field_size_limit()
    yield csv.field_size_limit
    csv.field_size_limit(old)


def _long_line_csv(size, line_end):
    """A CSV whose fourth line is ``size`` bytes long, its line end counted;
    a field of more than ``size - 13`` bytes is its id."""
    row = ",1.0,0,1,0.5" + line_end
    rows = [f"s{k},1.0,0,{k % 2 + 1},0.5{line_end}" for k in range(6)]
    rows.insert(2, "x" * (size - len(row)) + row)
    return "id,time,status,arm,w1" + line_end + "".join(rows)


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["LF", "CRLF"])
@pytest.mark.parametrize("limit,size,in_c", [
    (300, 300, True),
    (300, 301, False),
    (3 * core._BLOCK_BYTES, 2 * core._BLOCK_BYTES, True),
    (3 * core._BLOCK_BYTES, 3 * core._BLOCK_BYTES + 1, False),
], ids=["at the limit", "a byte over it", "over a block", "over a block and the limit"])
def test_lines_over_the_csv_field_limit_read_as_csv_reader(field_limit, line_end, limit,
                                                            size, in_c):
    # the lines parsed in C are cut into blocks at LF bytes so that no line
    # over the field limit is parsed there; csv.reader reads such a line
    # when no field of it is over the limit
    field_limit(limit)
    text = _long_line_csv(size, line_end)
    fast, slow, took_c = _read_both_ways(text)
    assert fast == slow and fast[0][2].startswith("x") and took_c == in_c


def test_field_over_the_csv_field_limit_is_an_error_on_both_paths(field_limit):
    field_limit(300)
    fast, slow, in_c = _read_both_ways(_long_line_csv(315, "\n"))
    assert fast == slow == (ValidationError, "line 4: field larger than field limit (300)")
    assert not in_c


def _plain_study_csv(rng, n=1500):
    """A plain two-arm CSV with event types and two covariates, read in
    more than one loadtxt call."""
    buf = io.StringIO()
    write_records_csv(random_study(rng, n=n, n_cov=2, n_types=2), buf)
    text = buf.getvalue().replace("\r\n", "\n")
    assert text.count("\n") > core._CHUNK_ROWS + 1
    return text


def test_plain_csv_rows_never_reach_csv_reader(rng, monkeypatch):
    text = _plain_study_csv(rng)
    with monkeypatch.context() as m:
        m.setattr(core, "_parse_plain", lambda *args: None)
        study = read_study_csv(_NoSeek(text), 1.0)
    real = csv.reader

    class first_row_only:
        """csv.reader that raises on a second row: the header's reader
        reads no data row, and the last line is only checked for an open
        quoted field."""

        def __init__(self, lines):
            self.rows, self.read = real(lines), 0

        def __iter__(self):
            return self

        def __next__(self):
            row = next(self.rows)
            self.read += 1
            if self.read > 1:
                raise AssertionError(f"csv.reader read a data row: {row}")
            return row

        @property
        def line_num(self):
            return self.rows.line_num

    monkeypatch.setattr(csv, "reader", first_row_only)
    back = read_study_csv(_NoSeek(text), 1.0)
    assert back.arm1 == study.arm1 and back.arm2 == study.arm2


def test_bare_cr_file_is_read_by_csv_reader_alone(rng):
    # no line is plain, so csv.reader reads the whole file, more than
    # _CHUNK_ROWS rows, in one pass
    text = _plain_study_csv(rng)
    cr = text.replace("\n", "\r").encode()
    fast, in_c = _read_in_c(cr)
    assert not in_c
    assert fast == _read(text.encode())
    assert read_arms_csv(cr) == read_arms_csv(text.encode())


def _variant(text, case):
    """``text``, a plain CSV read in two loadtxt calls, as the input
    ``case`` names: the input's bytes, or a text for a ``_NoSeek``
    stream."""
    lines = text.split("\n")
    assert len(lines) > 6000 and 2 * core._CHUNK_ROWS > len(lines)
    if case == "blank line mid-file":
        lines.insert(5000, "")
    if case == "status out of range in a late chunk":
        fields = lines[5000].split(",")
        lines[5000] = ",".join([*fields[:2], "3", *fields[3:]])
    if case == "bare CR in the last chunk":
        return ("\n".join(lines[:6000]) + "\n" + "\r".join(lines[6000:])).encode()
    text = "\n".join(lines)
    return {
        "CRLF": text.replace("\n", "\r\n").encode(),
        "no final newline": text.rstrip("\n").encode(),
        "UTF-8 BOM": b"\xef\xbb\xbf" + text.encode(),
        "_NoSeek stream": text,
    }.get(case, text.encode())


@pytest.mark.parametrize("case", [
    "LF", "CRLF", "no final newline", "UTF-8 BOM", "blank line mid-file",
    "bare CR in the last chunk", "status out of range in a late chunk", "_NoSeek stream",
])
def test_byte_chunks_read_as_csv_reader(rng, case):
    # every variant of a plain CSV reads as csv.reader alone reads it, to
    # the same columns or to the same error at the same line; the body is
    # parsed in C as a whole, or not at all
    text = _plain_study_csv(rng)
    source = _variant(text, case)
    fast, slow, in_c = _read_both_ways(source)
    assert fast == slow
    if case == "status out of range in a late chunk":
        assert fast == (ValidationError, "line 5001: bad status '3'")
        assert not in_c
        return
    assert fast == _read(text.encode())
    assert in_c == (case not in ("blank line mid-file", "bare CR in the last chunk"))


def test_text_stream_ends_lines_at_a_bare_cr_however_opened(rng):
    # a text stream's lines end at LF, CRLF or a bare CR, as those of the
    # input's bytes do, whatever newline the stream was opened with
    text = _plain_study_csv(rng)
    cr = text.replace("\n", "\r")
    want = read_arms_csv(text.encode())
    assert read_arms_csv(io.TextIOWrapper(io.BytesIO(cr.encode()), newline="")) == want
    assert read_arms_csv(io.StringIO(cr, newline="")) == want
    assert read_arms_csv(io.StringIO(cr)) == want


def test_text_stream_opened_with_a_cr_newline_reads_as_its_bytes(rng):
    # such a stream reports no line breaks in its newlines attribute
    cr_text = _plain_study_csv(rng).replace("\n", "\r")
    cr_bytes = cr_text.encode()
    want = read_arms_csv(cr_bytes)
    assert read_arms_csv(io.StringIO(cr_text, newline="\r")) == want
    assert read_arms_csv(io.TextIOWrapper(io.BytesIO(cr_bytes), newline="\r")) == want


def test_binary_stream_is_an_error():
    with pytest.raises(ValidationError, match="opened in text mode"):
        read_arms_csv(io.BytesIO(b"id,time,status,arm\na,1,0,1\n"))


@pytest.mark.parametrize("edit,error", [
    # a quoted id: read in C as the bare id, with no error
    (lambda row: '"' + row.replace(",", '",', 1), None),
    (lambda row: row.split(",", 1)[0] + ",abc," + row.split(",", 2)[2],
     "line 5001: bad time 'abc'"),
    # a bare CR ends a line, of a text stream too
    (lambda row: row.replace(",", ",\r", 1),
     "line 5001: expected 7 fields, got 2"),
    (lambda row: "\n" + row.split(",", 1)[0] + ",1.0",
     "line 5002: expected 7 fields, got 2"),
    (lambda row: '"' + row.replace(",", '\n",', 1) + "\n"
     + row.split(",", 1)[0] + ",abc," + row.split(",", 2)[2],
     "line 5003: bad time 'abc'"),
    (lambda row: '"' + row.replace(",", '\n",', 1) + "\n" + row.split(",", 1)[0] + ",1.0",
     "line 5003: expected 7 fields, got 2"),
], ids=["quoted id", "bad time", "CR in a field", "blank line and short row",
        "quoted line break and bad time", "quoted line break and short row"])
def test_late_switch_to_csv_reader(rng, edit, error):
    # row 5000 is read by the second loadtxt call: a row there that is not
    # plain sends the whole body to csv.reader, which reports the first
    # error at its line
    text = _plain_study_csv(rng)
    assert 5000 > core._CHUNK_ROWS
    lines = text.split("\n")
    lines[5000] = edit(lines[5000])
    fast, slow, in_c = _read_both_ways("\n".join(lines))
    assert fast == slow and in_c == (error is None)
    if error is None:
        assert fast == _read(text)
    else:
        assert fast[0] is ValidationError and fast[1].startswith(error)


def test_quoted_field_open_at_a_chunk_end(rng):
    # the last line of the first loadtxt call opens a quoted field that the
    # next line closes: loadtxt reads the field on into that line, so the
    # body has fewer rows than lines and csv.reader reads it
    text = _plain_study_csv(rng)
    lines = text.split("\n")
    head, last = lines[core._CHUNK_ROWS].rsplit(",", 1)
    lines[core._CHUNK_ROWS] = f'{head},"{last}\n"'
    fast, slow, in_c = _read_both_ways("\n".join(lines))
    # csv.reader reads the covariate with its line break, float() without
    assert fast == slow == _read(text)
    assert not in_c


def test_public_api_is_pinned():
    # a new export has to be added here on purpose
    import aumcf

    assert sorted(aumcf.__all__) == sorted([
        "ArmDataset", "ArmFit", "AugmentedResult", "ContrastResult",
        "OperatingCharacteristics", "RatioUndefinedError", "ScenarioConfig",
        "SingularCovariateError", "Status", "StepFunction", "StudyDataset",
        "TrueValues", "TruncationError", "ValidationError", "area_under_step",
        "arm_truncation_message", "arm_variance", "augmentation_weights",
        "augmented_contrast", "aumcf", "bootstrap_se", "contrast_difference",
        "contrast_ratio", "fit_arm", "fit_influence", "generate_dataset",
        "influence_values", "km_survival", "mcf", "read_arms_csv",
        "read_study_csv", "rmst", "run_operating_characteristics",
        "survival_bias_sensitivity", "time_lost_per_subject", "true_value_oracle",
        "weighted_contrast", "write_records_csv",
    ])
    for name in aumcf.__all__:
        assert getattr(aumcf, name) is not None


def test_fit_and_contrast_modules_share_only_public_names():
    # estimation owns the sums over an arm fit, inference the contrasts:
    # inference reads a fit through two public names, and nothing else
    # crosses between them
    import ast
    import importlib.util

    import aumcf

    def imported(module, source):
        tree = ast.parse(Path(getattr(aumcf, module).__file__).read_text())
        return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == source for alias in node.names}

    assert imported("inference", "estimation") == {"fit_arm", "fit_influence"}
    assert imported("estimation", "inference") == set()
    assert importlib.util.find_spec("aumcf.augmentation") is None
    # and no module of the package imports a private name from another
    for path in Path(aumcf.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "aumcf"):
                private = [a.name for a in node.names
                           if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, (path.name, node.module, private)
