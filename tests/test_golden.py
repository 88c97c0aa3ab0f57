"""Pinned solver results for every bundled fixture, on its own grid and on one other.

``golden/fixtures.json`` holds, per fixture, the restarts and seed of one
solve and what it returned: either the exception it ended in or its
stationary points (value, F, lambda0, lambda, classification and basin
count).  Under ``h_override`` it holds a second solve of the fixture on an
interval grid of step ``h``, of 99 or 249 unknowns.  Those grids, and the
fixtures' own grids of 999 unknowns, lie above
``solver.DENSE_NEWTON_LIMIT``, where the structured Newton step solves
them; only the three-point fixtures' own grids (one unknown) pin the dense
step.  Points are matched by value, so the order of the returned list does
not matter, and the tolerances admit the last-bit changes that a new
linear solver or a reordered sum brings.

Run as a script, this module writes the pins that are missing from the file
and leaves every existing entry byte-identical:

    PYTHONPATH=src python tests/test_golden.py

A solve moves in the last bits whenever the linear algebra changes, so pins
are never regenerated in bulk.  To re-pin a fixture after checking that the
change is intended, delete its entry (or its ``h_override`` entry) first.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from deltavar import (
    ConstraintInfeasible,
    DenominatorVanished,
    NoStationaryPointFound,
    SolveOptions,
    solve_isoperimetric,
    solve_unconstrained,
)
from deltavar.cli import FIXTURE_DESCRIPTIONS, resolve_problem

GOLDEN = Path(__file__).parent / "golden" / "fixtures.json"

# Restarts per fixture: enough to reach every branch cheaply found at seed
# 0; iso_R stays at 3, since its fourth and fifth restarts add seconds.
RESTARTS = {
    "iso_3pt": 8,
    "iso_R": 3,
    "product_3pt": 8,
    "product_R": 4,
    "quotient1": 8,
    "quotient2_3pt": 8,
    "quotient2_R": 8,
    "sturm_liouville": 8,
}
SEED = 0

# (h, restarts) of the h_override solve.  The d = 999 fixtures go to d = 99;
# the small ones go to d = 249, with restarts kept low enough that each
# solve takes well under a second.
H_OVERRIDES = {
    "iso_3pt": (0.004, 4),
    "iso_R": (0.01, 3),
    "product_3pt": (0.004, 3),
    "product_R": (0.01, 4),
    "quotient1": (0.008, 8),
    "quotient2_3pt": (0.004, 8),
    "quotient2_R": (0.01, 8),
    "sturm_liouville": (0.01, 8),
}

# Values, inner integrals and multipliers agree to this relative (and, near
# zero, absolute) tolerance; labels and basin counts must match exactly.
RTOL = 1e-8
ATOL = 1e-10


def solve_fixture(name: str, restarts: int, seed: int, h: float | None = None) -> dict:
    spec = resolve_problem(name).build(h_override=h)
    solve = solve_isoperimetric if spec.constraint is not None else solve_unconstrained
    try:
        points = solve(spec, SolveOptions(restarts=restarts, seed=seed))
    except (NoStationaryPointFound, ConstraintInfeasible, DenominatorVanished) as exc:
        return {"outcome": type(exc).__name__}
    return {
        "outcome": "points",
        "points": [
            {
                "value": p.value,
                "F": [float(v) for v in p.inner],
                "lam0": p.lam0,
                "lam": p.lam,
                "classification": p.classification,
                "basin_count": p.basin_count,
            }
            for p in points
        ],
    }


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


def _pins() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_pins_cover_every_fixture():
    assert sorted(_pins()) == sorted(FIXTURE_DESCRIPTIONS) == sorted(RESTARTS)
    assert sorted(H_OVERRIDES) == sorted(RESTARTS)


def _assert_matches(got: dict, pin: dict) -> None:
    assert got["outcome"] == pin["outcome"]
    if pin["outcome"] != "points":
        return
    assert len(got["points"]) == len(pin["points"])
    unmatched = list(got["points"])
    for want in pin["points"]:
        near = [p for p in unmatched if _close(p["value"], want["value"])]
        assert len(near) == 1, f"value {want['value']!r}: {len(near)} matching points"
        p = near[0]
        unmatched.remove(p)
        assert len(p["F"]) == len(want["F"])
        assert all(_close(a, b) for a, b in zip(p["F"], want["F"])), (p["F"], want["F"])
        assert _close(p["lam0"], want["lam0"])
        assert _close(p["lam"], want["lam"]), (p["lam"], want["lam"])
        assert p["classification"] == want["classification"]
        assert p["basin_count"] == want["basin_count"]


@pytest.mark.parametrize("name", sorted(RESTARTS))
def test_fixture_matches_golden(name):
    pin = _pins()[name]
    _assert_matches(solve_fixture(name, pin["restarts"], pin["seed"]), pin)


@pytest.mark.parametrize("name", sorted(H_OVERRIDES))
def test_h_override_matches_golden(name):
    pin = _pins()[name]["h_override"]
    _assert_matches(solve_fixture(name, pin["restarts"], pin["seed"], pin["h"]), pin)


if __name__ == "__main__":
    pins = _pins() if GOLDEN.exists() else {}
    added = []
    for name, r in sorted(RESTARTS.items()):
        if name not in pins:
            pins[name] = {"restarts": r, "seed": SEED, **solve_fixture(name, r, SEED)}
            added.append(name)
        if "h_override" not in pins[name]:
            h, r_h = H_OVERRIDES[name]
            pins[name]["h_override"] = {
                "h": h, "restarts": r_h, "seed": SEED, **solve_fixture(name, r_h, SEED, h)
            }
            added.append(f"{name} h_override")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}: added {', '.join(added) or 'nothing'}")
