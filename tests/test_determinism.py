"""Outputs must not depend on Python's string hash seed.

Each run below starts a fresh interpreter with its own PYTHONHASHSEED, so
any iteration over a set or dict of names that reaches an output shows up
as two different digests.
"""
import os
import subprocess
import sys
from pathlib import Path

import legalassign

_PROBE = """
import contextlib, hashlib, io, random
from legalassign import fixture_path, gs_student_traced
from legalassign.benchgen import MECHANISMS, CONSENT_MECHANISMS
from legalassign.cli import main
from _markets import random_market

digest = hashlib.sha256()
for i in range(1, 10):
    consent = fixture_path(f"ex{i}-consent.txt")
    for mechanism in MECHANISMS:
        for fmt in ("text", "json"):
            argv = ["solve", "--mechanism", mechanism, "--format", fmt, "--counters",
                    "--input", str(fixture_path(f"ex{i}.inst"))]
            if mechanism in CONSENT_MECHANISMS and consent.exists():
                argv += ["--consent", str(consent)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            digest.update(f"{argv} {code}\\n{out.getvalue()}\\n{err.getvalue()}".encode())
for seed in range(50):
    inst = random_market(random.Random(seed), max_students=40, max_schools=8, max_quota=4)
    digest.update(gs_student_traced(inst).trace.dump().encode())
print(digest.hexdigest())
"""


def _digest(hash_seed: int) -> str:
    path = os.pathsep.join([str(Path(legalassign.__file__).parents[1]),
                            str(Path(__file__).parent)])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_solves_and_traces_do_not_depend_on_the_hash_seed():
    assert _digest(0) == _digest(1)
