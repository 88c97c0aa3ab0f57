"""Checks one CLI op's exit code and printed output against its references.

An op fails when its exit code differs from the expected one, a required
reference value is missed, a returned value matches no reference, a pinned
label differs, or it returns duplicate points (same label and the same value
within tolerance).  Each failure carries its reasons.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

_POINT = re.compile(r"^stationary point \d+ of \d+")
_LABEL = re.compile(r"^\s+classification: (\S+)")
_VALUE = re.compile(r"^\s+value: (\S+)")
_BASINS = re.compile(r"^\s+basins: (\d+)/\d+ restarts")
_VERIFY_VALUE = re.compile(r"^functional value: (\S+)")
_ROOT = re.compile(r"^root (\S+) in bracket")


@dataclass
class Expect:
    """What one op must produce.

    ``refs`` lists every acceptable (value, label) pair; ``required`` is the
    subset that must be found.  For ``verify`` the single ref is the
    functional value of the stored solution; for ``scan`` the refs are the
    roots, all required.
    """

    kind: str
    rc: int
    refs: list = field(default_factory=list)
    required: list = field(default_factory=list)
    rtol: float = 0.0
    atol: float = 0.0


@dataclass
class Outcome:
    reasons: list
    points: int = 0
    duplicates: int = 0
    basins: int = 0


def _close(a: float, b: float, expect: Expect) -> bool:
    return abs(a - b) <= expect.atol + expect.rtol * max(1.0, abs(b))


def parse_solve(text: str):
    """[(value, label, basins)] for every printed stationary point."""
    points = []
    current: Optional[dict] = None
    for line in text.splitlines():
        if _POINT.match(line):
            current = {}
            points.append(current)
        elif current is not None:
            for key, pattern in (("label", _LABEL), ("value", _VALUE)):
                m = pattern.match(line)
                if m:
                    current[key] = m.group(1)
            m = _BASINS.match(line)
            if m:
                current["basins"] = int(m.group(1))
    return [(float(p["value"]), p["label"], p["basins"]) for p in points]


def _match(value: float, label: str, expect: Expect) -> list:
    reasons = []
    near = [ref for ref in expect.refs if _close(value, ref[0], expect)]
    if not near:
        reasons.append("unexpected value")
    elif all(ref[1] is not None and ref[1] != label for ref in near):
        reasons.append("label differs")
    return reasons


def check(expect: Expect, rc: int, text: str) -> Outcome:
    if rc != expect.rc:
        return Outcome([f"exit code differs ({rc} != {expect.rc})"])
    if expect.kind == "solve":
        return _check_solve(expect, text)
    if expect.kind == "verify":
        m = [_VERIFY_VALUE.match(line) for line in text.splitlines()]
        values = [float(x.group(1)) for x in m if x]
        verdict = "PASS" if expect.rc == 0 else "FAIL"
        reasons = []
        if len(values) != 1 or not _close(values[0], expect.refs[0][0], expect):
            reasons.append("unexpected value")
        if f"verification: {verdict}" not in text:
            reasons.append("verdict differs")
        return Outcome(reasons)
    roots = [float(m.group(1)) for m in map(_ROOT.match, text.splitlines()) if m]
    reasons = []
    if any(not any(_close(r, ref[0], expect) for ref in expect.refs) for r in roots):
        reasons.append("unexpected value")
    if any(not any(_close(r, ref[0], expect) for r in roots) for ref in expect.required):
        reasons.append("missed reference")
    return Outcome(reasons, points=len(roots))


def _check_solve(expect: Expect, text: str) -> Outcome:
    points = parse_solve(text)
    reasons: list = []
    for value, label, _ in points:
        for r in _match(value, label, expect):
            if r not in reasons:
                reasons.append(r)
    for ref in expect.required:
        if not any(_close(v, ref[0], expect) for v, _, _ in points):
            reasons.append("missed reference")
            break
    duplicates = 0
    for i, (v, label, _) in enumerate(points):
        if any(
            label == points[j][1] and _close(v, points[j][0], expect) for j in range(i)
        ):
            duplicates += 1
    if duplicates:
        reasons.append("duplicate points")
    return Outcome(reasons, len(points), duplicates, sum(p[2] for p in points))
