import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aumcf import (
    ArmDataset,
    EventRecord,
    Status,
    StudyDataset,
    SubjectHistory,
    TruncationError,
    ValidationError,
    ingest_arm_datasets,
    ingest_records,
    read_study_csv,
    study_to_records,
    validate_truncation,
    weighted_contrast,
    write_records_csv,
)

from conftest import random_study


def _terminal(sid, t, arm, status=Status.CENSOR, **kw):
    return EventRecord(sid, t, status, arm, **kw)


def _dummy_arm2():
    return [_terminal("z1", 1.0, 2)]


def test_ingest_regroups_records():
    recs = [
        EventRecord("s1", 2.0, Status.EVENT, 1),
        EventRecord("s1", 10.0, Status.DEATH, 1),
        EventRecord("s2", 8.0, Status.CENSOR, 1),
    ] + _dummy_arm2()
    study = ingest_records(recs, tau=10.0)
    s1 = study.arm1.subjects[0]
    assert s1.follow_up == 10.0 and s1.terminal and s1.event_times == (2.0,)
    s2 = study.arm1.subjects[1]
    assert s2.follow_up == 8.0 and not s2.terminal and s2.event_times == ()


def test_ingest_missing_terminal_record():
    recs = [EventRecord("s3", 5.0, Status.EVENT, 1)] + _dummy_arm2()
    with pytest.raises(ValidationError, match="missing terminal/censor"):
        ingest_records(recs, tau=10.0)


def test_ingest_duplicate_terminal_record():
    recs = [
        EventRecord("s1", 5.0, Status.CENSOR, 1),
        EventRecord("s1", 6.0, Status.DEATH, 1),
    ] + _dummy_arm2()
    with pytest.raises(ValidationError, match="multiple terminal/censor"):
        ingest_records(recs, tau=10.0)


def test_ingest_event_after_followup():
    recs = [
        EventRecord("s1", 7.0, Status.EVENT, 1),
        EventRecord("s1", 5.0, Status.CENSOR, 1),
    ] + _dummy_arm2()
    with pytest.raises(ValidationError, match="exceeds follow-up"):
        ingest_records(recs, tau=10.0)


def test_ingest_single_arm():
    from aumcf import ingest_arm_datasets

    recs = [
        EventRecord("s1", 2.0, Status.EVENT, 1),
        EventRecord("s1", 10.0, Status.DEATH, 1),
    ]
    arms = ingest_arm_datasets(recs)
    assert list(arms) == [1] and arms[1].n == 1
    with pytest.raises(ValidationError, match="arm 2: no subjects"):
        ingest_records(recs, tau=5.0)


def test_ingest_permutation_invariant(rng):
    study = random_study(rng, n=12)
    recs = study_to_records(study)
    perm = [recs[i] for i in rng.permutation(len(recs))]
    a = ingest_records(recs, study.tau)
    b = ingest_records(perm, study.tau)
    assert a.arm1.subjects == b.arm1.subjects
    assert a.arm2.subjects == b.arm2.subjects


def test_subject_history_validation():
    with pytest.raises(ValidationError):
        SubjectHistory("x", -1.0, False)
    with pytest.raises(ValidationError):
        SubjectHistory("x", np.inf, False)
    with pytest.raises(ValidationError):
        SubjectHistory("x", 5.0, False, (6.0,))
    # events get sorted
    s = SubjectHistory("x", 5.0, True, (3.0, 1.0))
    assert s.event_times == (1.0, 3.0)


def test_at_risk_closed_inequality():
    arm = ArmDataset(1, [
        SubjectHistory("a", 2.0, False),
        SubjectHistory("b", 4.0, True),
    ])
    assert arm.at_risk(np.array([2.0]))[0] == 2  # X >= t counts
    assert arm.at_risk(np.array([2.0 + 1e-12]))[0] == 1


@pytest.mark.parametrize("max_x,tau,ok", [(12.0, 12.0, True), (10.0, 12.0, False)])
def test_truncation_boundary(max_x, tau, ok):
    arm = ArmDataset(1, [SubjectHistory("a", max_x, False)])
    study = StudyDataset(arm, ArmDataset(2, [SubjectHistory("b", max_x, False)]), tau)
    report = validate_truncation(study)
    assert report.ok is ok
    if not ok:
        with pytest.raises(TruncationError):
            validate_truncation(study, strict=True)


def test_csv_round_trip(rng):
    study = random_study(rng, n=10, n_cov=2, n_types=2)
    buf = io.StringIO()
    write_records_csv(study, buf)
    buf.seek(0)
    back = read_study_csv(buf, study.tau)
    assert back.arm1.subjects == study.arm1.subjects
    assert back.arm2.subjects == study.arm2.subjects
    assert back.covariate_names == study.covariate_names


def test_csv_missing_columns():
    with pytest.raises(ValidationError, match="missing required columns"):
        read_study_csv(io.StringIO("id,time\n"), tau=1.0)


def test_csv_bad_status():
    text = "id,time,status,arm\ns1,1.0,7,1\n"
    with pytest.raises(ValidationError, match="bad status"):
        read_study_csv(io.StringIO(text), tau=1.0)


def test_subject_history_reorders_types_with_times():
    s = SubjectHistory("x", 5.0, False, (3.0, 1.0), (7, 8))
    assert s.event_times == (1.0, 3.0) and s.event_types == (8, 7)
    # ties keep their given order (stable sort)
    s = SubjectHistory("y", 5.0, False, (3.0, 1.0, 3.0, 2.0), (1, 2, 3, 4))
    assert s.event_times == (1.0, 2.0, 3.0, 3.0) and s.event_types == (2, 4, 1, 3)


def test_weighted_contrast_unsorted_histories(rng):
    study = random_study(rng, n=20, n_types=3)

    def shuffled(arm):
        subjects = []
        for s in arm.subjects:
            order = rng.permutation(len(s.event_times))
            subjects.append(SubjectHistory(
                s.subject_id, s.follow_up, s.terminal,
                tuple(s.event_times[i] for i in order),
                tuple(s.event_types[i] for i in order),
            ))
        return ArmDataset(arm.arm, subjects)

    unsorted = StudyDataset(shuffled(study.arm1), shuffled(study.arm2), study.tau)
    weights = {0: 1.0, 1: 2.0, 2: 0.5}
    assert weighted_contrast(unsorted, weights) == weighted_contrast(study, weights)


@settings(max_examples=50, deadline=None)
@given(times=st.lists(st.floats(0.0, 10.0), min_size=0, max_size=6))
def test_subject_history_sorts_any_event_times(times):
    s = SubjectHistory("h", 10.0, False, tuple(times))
    assert list(s.event_times) == sorted(times)


def test_covariate_dim_mismatch_rejected():
    with pytest.raises(ValidationError, match="inconsistent covariate"):
        ArmDataset(1, [
            SubjectHistory("a", 1.0, False, covariates=(1.0,)),
            SubjectHistory("b", 1.0, False),
        ])


# ---------------------------------------------------------------------------
# CSV parse errors name the line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("body,match", [
    ("a,abc,0,1\n", "line 2: bad time 'abc'"),
    ("a,1.0,0,x\n", "line 2: bad arm 'x'"),
    ("a,1.0,x,1\n", "line 2: bad status 'x'"),
    ("a,1.0,0\n", "line 2: expected 4 fields, got 3"),
    ("a,1.0,0,1,9\n", "line 2: expected 4 fields, got 5"),
    ("a,1.0,0,1\n\n\nb,1.0,0,zz\n", "line 5: bad arm 'zz'"),
    ("a,1.0,0,1\n\nb,1.0\n", "line 4: expected 4 fields"),
    ("a,1.0,0,1\nb,1.0,0,99999999999999999999\n", "line 3: bad arm"),
])
def test_csv_field_errors_name_the_line(body, match):
    with pytest.raises(ValidationError, match=match):
        read_study_csv(io.StringIO("id,time,status,arm\n" + body), tau=1.0)


def test_csv_first_bad_field_in_row_order():
    text = ("id,time,status,arm,event_type,w1\n"
            "a,1.0,1,1,2,0.5\n"
            "a,1.0,1,1,x,0.5\n"
            "a,nope,0,1,,0.5\n")
    with pytest.raises(ValidationError, match="line 3: bad event_type 'x'"):
        read_study_csv(io.StringIO(text), tau=1.0)
    with pytest.raises(ValidationError, match="line 2: bad covariate value"):
        read_study_csv(io.StringIO(text.replace("2,0.5", "2,w")), tau=1.0)


def test_csv_numbers_parse_like_python():
    text = "id,time,status,arm\na, 1.5,1,1\na,1_0,0, 1\nb,2e0,2,2\n"
    study = read_study_csv(io.StringIO(text), tau=1.0)
    assert study.arm1.event_times.tolist() == [1.5]
    assert study.arm1.follow_up.tolist() == [10.0]
    with pytest.raises(ValidationError, match="negative or non-finite time"):
        read_study_csv(io.StringIO(text.replace("2e0", "inf")), tau=1.0)


@pytest.mark.parametrize("rows,match", [
    (["b,1,0,1", "a,1,0,1", "a,2,0,1"], "subject 'a': multiple terminal"),
    (["b,1,1,1", "a,1,1,1"], "subject 'a': missing terminal"),
    (["a,3,1,1", "a,2,0,1"], "subject 'a': event time exceeds follow-up"),
    (["a,1,1,1,0.5", "a,2,0,1,0.25"], "subject 'a': conflicting covariate"),
    (["a,1,1,1,nan", "a,2,0,1,nan"], "subject 'a': conflicting covariate"),
    (["a,2,0,1,nan"], "subject 'a': missing or non-finite covariate"),
    (["a,2,0,1,inf", "b,2,0,1,1"], "subject 'a': missing or non-finite covariate"),
    (["z,-1,0,1", "a,2,0,3"], "subject 'z': negative or non-finite"),
    (["z,1,0,1", "a,2,0,3"], "subject 'a': arm must be 1 or 2"),
])
def test_csv_validation_names_first_offending_subject(rows, match):
    cov = ",w1" if rows[0].count(",") == 4 else ""
    text = "\n".join([f"id,time,status,arm{cov}"] + rows + ["c,1,0,2" + (",0" if cov else "")])
    with pytest.raises(ValidationError, match=match):
        read_study_csv(io.StringIO(text + "\n"), tau=1.0)


def test_subject_order_is_python_sorted():
    ids = ["b", "a\0", "a", "B", "ä", "a\0\0", " a"]
    rows = [f"{sid},1.0,0,1" for sid in ids] + ["z,1.0,0,2"]
    study = read_study_csv(io.StringIO("\n".join(["id,time,status,arm"] + rows)), 1.0)
    assert study.arm1.subject_ids.tolist() == sorted(ids)


# ---------------------------------------------------------------------------
# Columnar ingest equals the v0.1 object path
# ---------------------------------------------------------------------------

def _reference_arms(records):
    """The v0.1 object path: group rows per (arm, id) in sorted order, order
    each subject's events stably by time, build subjects, then arms."""
    groups = {}
    for r in records:
        groups.setdefault((r.arm, r.subject_id), []).append(r)
    subjects = {1: [], 2: []}
    for (arm, sid), rows in sorted(groups.items()):
        end = next(r for r in rows if r.status != Status.EVENT)
        events = sorted((r for r in rows if r.status == Status.EVENT),
                        key=lambda r: r.time)
        subjects[arm].append(SubjectHistory(
            sid, end.time, end.status == Status.DEATH,
            tuple(e.time for e in events),
            tuple(0 if e.event_type is None else e.event_type for e in events),
            tuple(rows[0].covariates or ()),
        ))
    return {arm: ArmDataset(arm, subs) for arm, subs in subjects.items() if subs}


def _assert_same_columns(a, b):
    assert a == b
    for name in ("subject_ids", "follow_up", "terminal", "covariates",
                 "event_times", "event_subjects", "event_type_labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tolist() == y.tolist(), name


_GRID = (0.0, 0.5, 1.0, 1.5, 2.0)  # a coarse grid makes ties (and ties with deaths)


@st.composite
def _long_format(draw):
    p = draw(st.integers(0, 2))
    typed = draw(st.booleans())
    records = []
    for arm in (1, 2):
        ids = draw(st.lists(st.text("ab\0é ", min_size=1, max_size=3),
                            min_size=1, max_size=6, unique=True))
        for sid in ids:
            x = draw(st.sampled_from(_GRID))
            cov = tuple(draw(st.lists(st.floats(-5, 5), min_size=p, max_size=p))) or None
            events = draw(st.lists(st.sampled_from([t for t in _GRID if t <= x]),
                                   max_size=4))
            for t in events:
                etype = draw(st.integers(0, 2)) if typed else None
                records.append(EventRecord(sid, t, Status.EVENT, arm, etype, cov))
            status = draw(st.sampled_from([Status.CENSOR, Status.DEATH]))
            records.append(EventRecord(sid, x, status, arm, None, cov))
    order = draw(st.permutations(range(len(records))))
    return [records[i] for i in order], p


@settings(max_examples=150, deadline=None)
@given(data=_long_format())
def test_columnar_ingest_equals_object_path(data):
    records, p = data
    ref = _reference_arms(records)
    arms = ingest_arm_datasets(records)
    assert sorted(arms) == sorted(ref) == [1, 2]
    for k in (1, 2):
        _assert_same_columns(arms[k], ref[k])
        assert arms[k].subjects == ref[k].subjects
    # CSV round trip, column level
    study = StudyDataset(ref[1], ref[2], tau=1.0,
                         covariate_names=tuple(f"w{j + 1}" for j in range(p)))
    buf = io.StringIO()
    write_records_csv(study, buf)
    buf.seek(0)
    back = read_study_csv(buf, study.tau)
    _assert_same_columns(back.arm1, study.arm1)
    _assert_same_columns(back.arm2, study.arm2)
    assert back.covariate_names == study.covariate_names


def test_take_equals_resampled_subjects(rng):
    study = random_study(rng, n=15, n_cov=2, n_types=3)
    buf = io.StringIO()
    write_records_csv(study, buf)
    buf.seek(0)
    arm = read_study_csv(buf, study.tau).arm1  # subjects come from the lazy view
    for _ in range(5):
        idx = rng.integers(0, arm.n, size=arm.n)
        _assert_same_columns(arm.take(idx),
                             ArmDataset(arm.arm, [arm.subjects[i] for i in idx]))


def test_from_columns_checks_the_data_model():
    ok = dict(arm=1, subject_ids=["a", "b"], follow_up=[2.0, 1.0],
              terminal=[True, False], covariates=np.empty((2, 0)),
              event_times=[1.5, 0.5], event_subjects=[0, 1],
              event_type_labels=[0, 0])
    arm = ArmDataset.from_columns(**ok)
    assert arm.event_times.tolist() == [0.5, 1.5]
    assert arm.event_subjects.tolist() == [1, 0]
    assert not arm.follow_up.flags.writeable
    with pytest.raises(ValidationError, match="subject 'b': event time outside"):
        ArmDataset.from_columns(**dict(ok, event_times=[1.5, 1.5]))
    with pytest.raises(ValidationError, match="subject 'a': follow-up"):
        ArmDataset.from_columns(**dict(ok, follow_up=[np.nan, 1.0]))
    with pytest.raises(ValidationError, match="column lengths"):
        ArmDataset.from_columns(**dict(ok, terminal=[True]))
    with pytest.raises(ValidationError, match="empty arm"):
        ArmDataset.from_columns(**dict(ok, subject_ids=[], follow_up=[],
                                       terminal=[], covariates=np.empty((0, 0)),
                                       event_times=[], event_subjects=[],
                                       event_type_labels=[]))
