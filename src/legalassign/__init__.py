"""Stable, legal, and efficiency-adjusted assignments for school choice.

The package solves one-to-many bipartite markets with strict preferences.
Entry points by module:

  model          instances, assignments, blocking pairs, the seat reduction
  gs             linear-time deferred acceptance, and `Counters`, the
                 operation counts every solver result carries
  rotations      `Rotation`, and sigma between the two sides' rotations
  engine         the linear-time path-following walks, `all_rotations`
  rotate_remove  the legal optima and the legal subinstance
  eadam          priority waiving with consent: `ConsentSet` and the
                 linear-time `rotate_remove_consent`
  baselines      the reference EADAM forms (Kesten's iterated re-run and
                 the simplified form) and the round-traced deferred
                 acceptance they read; no solver module imports it
  oracle         brute-force enumeration of stable and legal sets, and the
                 constrained-efficiency check; no solver module imports it
  latin          markets whose mutual ranks form a Latin square
  benchgen       the mechanism table, random market generators and the
                 benchmark harness
  cli            the `legalassign` command
"""

from pathlib import Path

from .baselines import (EadamResult, TracedGS, gs_student_traced, interrupting_pairs,
                        kesten_eadam, simplified_eadam)
from .benchgen import (BenchError, BenchRecord, EqualityViolation, GenConfig,
                       MechanismTimeout, PlanCell, generate, run_bench,
                       sample_consent, write_csv)
from .eadam import ConsentSet, rotate_remove_consent
from .engine import EngineRun, all_rotations, school_side_run, student_side_run
from .gs import Counters, GSResult, gs_student
from .latin import (LatinSquare, auxiliary_instance, format_latin, instance_from_latin,
                    latin_check, parse_latin, xor_latin)
from .model import (Assignment, Instance, InvalidInstanceError, OneToOneReduction,
                    ParseError, blocking_pairs, dominates, is_stable, parse_instance,
                    reduce_one_to_one)
from .oracle import (OracleCapError, enumerate_assignments, enumerate_stable,
                     is_constrained_efficient, legal_fixed_point, verify_legal_property)
from .rotate_remove import LegalSubinstanceReport, legal_subinstance, rotate_remove
from .rotations import Rotation, sigma

__version__ = "0.1.0"


def fixture_path(name: str) -> Path:
    """Absolute path of a bundled example file (ex1.inst ... ex9.matrix)."""
    return Path(__file__).with_name("fixtures") / name
