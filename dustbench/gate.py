"""Correctness gate: compare an item's verdict with the recorded reference.

A verdict is a flat dict with the fields below; a field is None where it
does not apply to the item (no event, no certificate, no proof chain).
Output files are compared separately, by hash, and only counted.

Run ``python3 dustbench/gate.py`` to check that the gate rejects
deliberately corrupted references built from every recorded verdict.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIELDS = ("case", "t_bound", "oracle_pole", "escape", "trigger", "marker",
          "t_lo", "t_hi", "holds", "exit")
REL_TOL = 1e-6


def _close(actual, expected, scale) -> bool:
    return abs(actual - expected) <= REL_TOL * scale


def compare(actual: dict, expected: dict) -> list:
    """Names of the fields on which the verdict disagrees with the reference."""
    bad = []
    for name in FIELDS:
        a, e = actual.get(name), expected.get(name)
        if a is None or e is None:
            ok = a is None and e is None
        elif name in ("t_bound", "oracle_pole"):
            # the oracle must agree with the certified bound, as certify checks it
            ref = expected["t_bound"] if expected.get("t_bound") is not None else e
            ok = _close(a, ref, max(1.0, abs(ref)))
        elif name in ("t_lo", "t_hi"):
            ok = _close(a, e, abs(e))
        else:
            ok = a == e
        if not ok:
            bad.append(name)
    return bad


def _bend(name, value):
    other = {"case": "NoCertificate", "escape": "CONTRADICTION",
             "trigger": "ShellCrossing"}
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return value * (1 + 1e-5) + 1e-5
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        return value[:-1] + [value[-1] + 1]
    return other[name] if value != other[name] else "CaseOne"


def corruptions(verdict: dict):
    """(label, actual, expected) with one field of one side corrupted.

    The oracle is judged against the reference bound, so a wrong oracle
    pole is planted in the actual verdict; every other field is corrupted
    in the expected one.
    """
    for name in FIELDS:
        value = verdict.get(name)
        if value is None:
            continue
        bent = {name: _bend(name, value)}
        if name == "oracle_pole":
            yield f"actual {name}={bent[name]!r}", dict(verdict, **bent), verdict
        else:
            yield f"expected {name}={bent[name]!r}", verdict, dict(verdict, **bent)


def self_check(verdict: dict) -> list:
    """Corruptions of ``verdict`` that the gate fails to reject (should be [])."""
    missed = [] if not compare(verdict, verdict) else ["exact copy rejected"]
    for label, actual, expected in corruptions(verdict):
        if not compare(actual, expected):
            missed.append(label)
    return missed


def reference_verdicts(reference: dict):
    for workload, entries in reference["verdicts"].items():
        for key, entry in entries.items():
            yield f"{workload}/{key}", entry["verdict"]


def main() -> int:
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    checked = 0
    missed = []
    for name, verdict in reference_verdicts(reference):
        checked += 1
        missed.extend(f"{name}: {label}" for label in self_check(verdict))
    for line in missed:
        print(f"NOT REJECTED {line}")
    print(f"gate self-check: {checked} verdicts, {len(missed)} corruptions not rejected")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
