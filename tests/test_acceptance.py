"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS/FAIL`` scorecard line (with its
headline numbers and wall time) straight to the terminal, bypassing pytest's
capture.  Run this module alone for the scorecard:

    pytest tests/test_acceptance.py -q
"""

import random
import statistics
import sys
import time

import numpy as np
import pytest

from legalassign import (Assignment, ConsentSet, GenConfig, Instance, PlanCell,
                         all_rotations, auxiliary_instance, dominates,
                         enumerate_stable, fixture_path, generate, gs_student,
                         is_constrained_efficient, is_stable, kesten_eadam,
                         legal_fixed_point, legal_subinstance, parse_instance,
                         reduce_one_to_one, rotate_remove,
                         rotate_remove_consent, run_bench, school_side_run,
                         sigma, simplified_eadam, student_side_run)
from legalassign.benchgen import _run_one

from _markets import random_consent, random_market
from _references import eliminate, exposed_rotations, rotate_remove_naive


def _load(name):
    return parse_instance(fixture_path(name).read_text())


def _check(n, budget_s, body):
    t0 = time.perf_counter()
    try:
        detail = body()
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        print(f"criterion {n}: FAIL ({exc}; {elapsed:.2f}s)",
              file=sys.__stdout__, flush=True)
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= budget_s
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.2f}s of {budget_s:.0f}s budget)",
          file=sys.__stdout__, flush=True)
    assert ok, f"criterion {n} exceeded its time budget ({elapsed:.2f}s)"


@pytest.fixture(scope="module")
def pool():
    out = []
    for seed in range(1000):
        rng = random.Random(seed)
        inst = random_market(rng)
        out.append((inst, random_consent(rng, inst), seed))
    return out


def test_criterion_1_golden_examples():
    def body():
        ex1 = _load("ex1.inst")
        stable1 = Assignment({"1": "B", "2": "A", "3": "C"})
        legal1 = Assignment({"1": "A", "2": "B", "3": "C"})
        legal, _ = legal_fixed_point(ex1)
        assert set(legal) == {stable1, legal1}
        assert set(enumerate_stable(legal_subinstance(ex1).instance)) == set(legal)

        ex2 = _load("ex2.inst")
        legal2, _ = legal_fixed_point(ex2)
        assert legal2 == [Assignment({"a1": "b1", "a2": "b2",
                                      "a3": "b2", "a4": "b1"})]
        reduced = reduce_one_to_one(ex2).instance
        legal2h, _ = legal_fixed_point(reduced)
        assert set(legal2h) == {
            Assignment({"a1": "b1^2", "a2": "b2^1", "a3": "b2^2", "a4": "b1^1"}),
            Assignment({"a1": "b1^2", "a2": "b2^1", "a3": "b1^1", "a4": "b2^2"}),
        }

        ex3 = _load("ex3.inst")
        down = rotate_remove(ex3, "schools")
        assert down.assignment == Assignment({"a1": "b2", "a2": "b2", "a3": "b3",
                                              "a4": "b1", "a5": "b3", "a6": "b1"})
        assert down.removed_edges == (("a2", "b1"),)
        up = rotate_remove(ex3, "students")
        assert up.assignment == Assignment({"a1": "b1", "a2": "b2", "a3": "b2",
                                            "a4": "b1", "a5": "b3", "a6": "b3"})
        assert up.removed_edges == (("a1", "b3"),)

        ex4 = _load("ex4.inst")
        diag = Assignment({f"a{i}": f"b{i}" for i in range(1, 6)})
        assert school_side_run(ex4).assignment == diag

        ex5 = _load("ex5.inst")
        consent = ConsentSet.of(["a1", "a2", "a4"])
        target = Assignment({"a1": "b1", "a2": "b2", "a3": "b4", "a4": "b3"})
        assert kesten_eadam(ex5, consent).assignment == target
        assert simplified_eadam(ex5, consent).assignment == target
        assert rotate_remove_consent(ex5, consent).assignment == target

        ex8 = _load("ex8.inst")
        refusal = ConsentSet.of(["a1", "a2", "a3", "a4"])
        assert rotate_remove_consent(ex8, refusal).assignment == Assignment(
            {"a1": "b4", "a2": "b3", "a3": "b2", "a4": "b1", "a5": "b5"})

        ex9 = _load("ex9.inst")
        assert len(enumerate_stable(ex9)) == 10
        aux = auxiliary_instance(ex9)
        assert len(enumerate_stable(aux)) == 1
        aux_legal, _ = legal_fixed_point(aux)
        assert len(aux_legal) == 10
        return "9 worked examples exact"

    _check(1, 1.0, body)


def test_criterion_2_oracle_differential(pool):
    def body():
        toggles = 0
        for inst, consent, seed in pool:
            legal, _ = legal_fixed_point(inst)
            legal_set = set(legal)
            report = legal_subinstance(inst)
            assert set(enumerate_stable(report.instance)) == legal_set
            assert report.legal_edges == frozenset(
                (a, b) for m in legal for a, b in m.matched_pairs)

            hi = rotate_remove(inst, "schools").assignment
            lo = rotate_remove(inst, "students").assignment
            assert hi in legal_set and lo in legal_set
            for m in legal:
                assert dominates(inst, hi, m) and dominates(inst, m, lo)

            a = kesten_eadam(inst, consent).assignment
            assert a == simplified_eadam(inst, consent).assignment
            assert a == rotate_remove_consent(inst, consent).assignment
            assert is_constrained_efficient(inst, consent, a)

            if inst.n_students:
                student = random.Random(seed ^ 0xA5).choice(inst.students)
                flipped = (consent.consenting - {student}
                           if student in consent.consenting
                           else consent.consenting | {student})
                b = rotate_remove_consent(inst, ConsentSet(frozenset(flipped)))
                assert b.assignment.school_of(student) == a.school_of(student)
                toggles += 1
        return f"{len(pool)} random instances, {toggles} consent toggles, all exact"

    _check(2, 120.0, body)


def test_criterion_3_rotation_laws(pool):
    def body():
        eliminations = 0
        for inst, _, _ in pool:
            counts = {}
            for side, start in (("students", gs_student(inst).assignment),
                                ("schools", None)):
                rotations = all_rotations(inst, side)
                counts[side] = len(rotations)
                seen_pairs = [p for r in rotations for p in r.pairs]
                assert len(seen_pairs) == len(set(seen_pairs))
            assert counts["students"] == counts["schools"]

            m = gs_student(inst).assignment
            while True:
                exposed = exposed_rotations(inst, m, "students")
                if not exposed:
                    break
                rho = exposed[0]
                m2 = eliminate(inst, m, rho)
                assert is_stable(inst, m2)
                assert eliminate(inst, m2, sigma(rho)) == m
                m = m2
                eliminations += 1
        return f"{len(pool)} instances, {eliminations} eliminations checked"

    _check(3, 60.0, body)


def test_criterion_4_linear_scaling():
    def body():
        sizes = (500, 1000, 2000, 4000)
        mechs = ("gs", "legal-student-opt", "legal-school-opt", "eadam-fast")
        edges = []
        means = {m: [] for m in mechs}
        for n in sizes:
            per_mech = {m: [] for m in mechs}
            n_edges = 0
            for seed in range(5):
                inst = generate(GenConfig(n, n // 100, seed=seed))
                n_edges = inst.n_edges
                consent = ConsentSet.of(inst.students)
                for mech in mechs:
                    scans = _run_one(mech, inst, consent)[1].report()["edge_scans"]
                    assert scans <= 8 * inst.n_edges, (mech, n)
                    per_mech[mech].append(scans)
            edges.append(n_edges)
            for mech in mechs:
                means[mech].append(statistics.fmean(per_mech[mech]))
        slopes = {m: float(np.polyfit(np.log(edges), np.log(means[m]), 1)[0])
                  for m in mechs}
        for mech, slope in slopes.items():
            assert 0.9 <= slope <= 1.1, f"{mech} scaling exponent {slope:.3f}"
        pretty = ", ".join(f"{m}={s:.2f}" for m, s in slopes.items())
        return f"scan exponents {pretty}, all within [0.9, 1.1], cap 8|E| held"

    _check(4, 300.0, body)


def test_criterion_5_large_market_speed():
    def body():
        plan = [PlanCell(GenConfig(10_000, 100, seed=s),
                         mechanisms=("gs", "eadam-simplified", "eadam-fast"))
                for s in range(10)]
        records = run_bench(plan)
        med = {m: statistics.median(r.wall_time_ms for r in records
                                    if r.mechanism == m)
               for m in ("gs", "eadam-simplified", "eadam-fast")}
        vs_simplified = med["eadam-fast"] / med["eadam-simplified"]
        vs_gs = med["eadam-fast"] / med["gs"]
        assert vs_simplified <= 0.25, f"fast/simplified = {vs_simplified:.3f}"
        assert vs_gs <= 5.0, f"fast/gs = {vs_gs:.2f}"
        return (f"10 markets of 10000x100: fast/simplified = "
                f"{vs_simplified:.3f} (bar 0.25), fast/gs = {vs_gs:.2f} (bar 5)")

    _check(5, 600.0, body)


def test_criterion_6_order_independence(pool):
    # the walks start their paths in roster order, so shuffling the rosters
    # reorders the walks
    def body():
        for inst, consent, seed in pool[:100]:
            rng = random.Random(seed ^ 0x5A)
            flags = [a in consent.consenting for a in inst.students]
            baselines = (
                school_side_run(inst).assignment,
                student_side_run(inst).assignment,
                school_side_run(inst, mode="consent",
                                consenting=flags).assignment,
            )
            for _ in range(50):
                schools = list(inst.schools)
                students = list(inst.students)
                rng.shuffle(schools)
                rng.shuffle(students)
                shuffled = Instance(students, schools, inst.quota,
                                    inst.student_prefs, inst.school_prefs)
                shuffled_flags = [a in consent.consenting for a in students]
                got = (
                    school_side_run(shuffled).assignment,
                    student_side_run(shuffled).assignment,
                    school_side_run(shuffled, mode="consent",
                                    consenting=shuffled_flags).assignment,
                )
                assert got == baselines
                assert (rotate_remove_naive(inst, "schools", rng=rng).assignment
                        == baselines[0])
                assert (rotate_remove_naive(inst, "students", rng=rng).assignment
                        == baselines[1])
        return "100 instances x 50 shuffled rosters, outputs identical"

    _check(6, 120.0, body)
