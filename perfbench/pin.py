"""Rewrite fingerprints.json with the input fingerprints of seeds 0, 1 and 2.

Run from the repository root after an intended change to the generator:

    python3 perfbench/pin.py

A run of the benchmark counts a set-up whose fingerprint differs from the
pinned one as a failed operation, so an unintended change to
``benchgen.generate`` or ``sample_consent`` cannot silently change a
workload.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402  (needs src/ on the path)

PINNED_SEEDS = (0, 1, 2)


def main() -> int:
    work = HERE / "runs" / "pin"
    pins: dict[str, dict[str, str]] = {}
    for name in wl.WORKLOADS:
        for seed in PINNED_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            markets, _ = wl.set_up(name, seed, work, wl.NULL,
                                   wl.Ledger(work, name, seed, {}), {})
            pins.setdefault(name, {})[str(seed)] = wl.fingerprint(markets)
    shutil.rmtree(work)
    (HERE / "fingerprints.json").write_text(json.dumps(pins, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
