import io
import math
import os

import pytest

from legalassign import (ConsentSet, EqualityViolation, GenConfig, InvalidInstanceError,
                         MechanismTimeout, PlanCell, generate, gs_student,
                         run_bench, sample_consent, write_csv)
from legalassign.benchgen import (CSV_COLUMNS, MECHANISMS, NYC, RNG_NAME,
                                  RNG_VERSION, instance_id)
import legalassign.benchgen as benchgen


def test_default_cell_names_no_reference_form():
    cell = PlanCell(GenConfig(10, 2))
    assert not {"eadam", "eadam-simplified"} & set(cell.mechanisms)
    assert set(cell.mechanisms) == set(MECHANISMS) - {"eadam", "eadam-simplified"}


def test_generation_is_deterministic():
    cfg = GenConfig(40, 4, seed=7)
    assert generate(cfg).to_text() == generate(cfg).to_text()
    assert generate(cfg).to_text() != generate(GenConfig(40, 4, seed=8)).to_text()


def test_complete_market_shape():
    inst = generate(GenConfig(500, 5, seed=1))
    assert inst.n_students == 500 and inst.n_schools == 5
    assert inst.n_edges == 2500
    assert all(len(inst.school_prefs[b]) == 500 for b in inst.schools)


def test_degenerate_market():
    inst = generate(GenConfig(1, 1, seed=0))
    assert inst.n_edges == 1
    assert gs_student(inst).assignment.school_of("a1") == "b1"


def test_truncated_market_shape():
    inst = generate(GenConfig(200, 10, list_length=3, seed=2))
    assert inst.n_edges == 600
    assert all(len(inst.student_prefs[a]) == 3 for a in inst.students)


def test_truncation_clamps_with_warning():
    cfg = GenConfig(10, 3, list_length=5, seed=0)
    with pytest.warns(RuntimeWarning):
        inst = generate(cfg)
    assert all(len(inst.student_prefs[a]) == 3 for a in inst.students)


def test_quota_models():
    uni = generate(GenConfig(100, 4, quota_lo=2, quota_hi=6, seed=3))
    assert all(2 <= uni.quota[b] <= 6 for b in uni.schools)
    mu = 100 / 4
    nyc = generate(GenConfig(100, 4, quota_model=NYC, seed=3))
    lo, hi = math.ceil(0.5 * mu), math.ceil(1.5 * mu)
    assert all(lo <= nyc.quota[b] <= hi for b in nyc.schools)


def test_consent_rates_are_monotone_in_rate():
    inst = generate(GenConfig(10_000, 5, seed=4))
    none = sample_consent(inst, 0.0, seed=4)
    half = sample_consent(inst, 0.5, seed=4)
    everyone = sample_consent(inst, 1.0, seed=4)
    assert none.consenting == frozenset()
    assert len(everyone.consenting) == 10_000
    assert 4700 <= len(half.consenting) <= 5300
    # one uniform draw per student makes the sets nested across rates
    assert half.consenting <= sample_consent(inst, 0.8, seed=4).consenting
    with pytest.raises(ValueError):
        sample_consent(inst, 1.5, seed=4)


def test_plan_cell_compares_consent_rates_by_value():
    with pytest.raises(ValueError, match=r"repeated consent rates: \[1\]"):
        PlanCell(GenConfig(10, 2), consent_rates=(1, 1.0))


def test_instance_id_format():
    assert instance_id(GenConfig(100, 4, seed=9)) == "complete-100x4-uniform-s9"
    assert (instance_id(GenConfig(50, 10, list_length=6, quota_model=NYC, seed=3))
            == "top6-50x10-nyc-s3")


def test_single_cell_run():
    cell = PlanCell(GenConfig(30, 3, seed=5), mechanisms=("gs",))
    records = run_bench([cell])
    assert len(records) == 1
    r = records[0]
    assert r.mechanism == "gs" and r.repetition == 0
    assert r.proposals > 0 and r.wall_time_ms >= 0
    assert r.edges_removed == 0 and r.gs_reruns == 0


def test_records_come_out_in_canonical_order():
    cell = PlanCell(GenConfig(20, 2, seed=6), mechanisms=("eadam", "gs"),
                    consent_rates=(1.0, 0.5), repetitions=2)
    records = run_bench([cell])
    keys = [(r.instance_id, r.consent_rate, MECHANISMS.index(r.mechanism),
             r.repetition) for r in records]
    assert keys == sorted(keys)
    assert len(records) == 2 * 2 * 2


def test_csv_shape():
    records = run_bench([PlanCell(GenConfig(15, 2, seed=1),
                                  mechanisms=("gs", "eadam-fast"),
                                  consent_rates=(0.25,))])
    buf = io.StringIO()
    write_csv(records, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(records)
    row = lines[1].split(",")
    assert len(row) == 17
    assert row[0] == "complete-15x2-uniform-s1"
    assert row[6] == "0.25"
    assert CSV_COLUMNS[-2:] == ("rng_name", "rng_version")
    assert row[-2:] == [RNG_NAME, RNG_VERSION] == [records[0].rng_name,
                                                    records[0].rng_version]


def test_timeout_trips():
    cell = PlanCell(GenConfig(200, 4, seed=2), mechanisms=("gs",))
    with pytest.raises(MechanismTimeout):
        run_bench([cell], timeout_s=1e-9)


def test_trio_disagreement_is_fatal_and_reproducible(tmp_path, monkeypatch):
    call_state = {"n": 0}
    real = benchgen._run_one

    def sabotage(mechanism, inst, consent):
        if mechanism == "eadam-fast":
            return real("gs", inst, ConsentSet.of([]))
        return real(mechanism, inst, consent)

    monkeypatch.setattr(benchgen, "_run_one", sabotage)
    # tight quotas so consent actually moves the outcome away from plain gs
    cell = PlanCell(GenConfig(12, 3, quota_lo=1, quota_hi=2, seed=7),
                    mechanisms=("eadam", "eadam-simplified", "eadam-fast"),
                    consent_rates=(0.5,))
    with pytest.raises(EqualityViolation):
        run_bench([cell], repro_dir=str(tmp_path))
    bundles = os.listdir(tmp_path)
    assert len(bundles) == 1
    saved = os.listdir(tmp_path / bundles[0])
    assert any(name.endswith(".inst") for name in saved)
    assert any("consent" in name for name in saved)


@pytest.mark.parametrize("kwargs, message", [
    (dict(n_students=0, n_schools=1), "need at least one agent on each side"),
    (dict(n_students=1, n_schools=0), "need at least one agent on each side"),
    (dict(n_students=1, n_schools=1, quota_model="zipf"), "unknown quota model: 'zipf'"),
    (dict(n_students=1, n_schools=1, quota_lo=0), "quota bounds must be positive and ordered"),
    (dict(n_students=1, n_schools=1, quota_lo=3, quota_hi=2),
     "quota bounds must be positive and ordered"),
    (dict(n_students=1, n_schools=1, list_length=0),
     "list truncation must keep at least one school"),
])
def test_gen_config_refusals(kwargs, message):
    with pytest.raises(InvalidInstanceError) as err:
        GenConfig(**kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize("kwargs, message", [
    (dict(mechanisms=("gs", "da", "ttc")), "unknown mechanisms: ['da', 'ttc']"),
    (dict(mechanisms=()), "cell lists no mechanisms"),
    (dict(consent_rates=(0.5, 1.5)), "consent rates must lie in [0, 1]"),
    (dict(consent_rates=(-0.1,)), "consent rates must lie in [0, 1]"),
    (dict(consent_rates=()), "cell lists no consent rates"),
    (dict(repetitions=0), "repetitions must be at least 1"),
])
def test_plan_cell_refusals(kwargs, message):
    with pytest.raises(ValueError) as err:
        PlanCell(GenConfig(3, 2), **kwargs)
    assert str(err.value) == message


def test_run_bench_refuses_an_empty_plan():
    with pytest.raises(ValueError) as err:
        run_bench([])
    assert str(err.value) == "empty benchmark plan"
