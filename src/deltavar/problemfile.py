"""Line-oriented problem files (.dvp): parsing and validation.

The format is deliberately tiny so fixtures diff cleanly:

    # comment
    [timescale]
    kind = interval          # uniform | points | qscale | interval | union
    a = 0
    b = 1
    h = 0.001

    [functional]
    H = "u1 / u2"            # expressions are quoted
    f1 = "v^2"
    f2 = "t*v"

    [boundary]
    left = fixed 0           # or: free
    right = fixed 1

    [constraint]             # optional section
    P = "u1"
    g1 = "t*v"
    k = 1

The number of inner integrands must equal the highest u-index referenced by
the outer map, for the objective and the constraint alike.  All diagnostics
carry 1-based line numbers.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .expr import ExprError, Expr, NestingTooDeep, expr_variables, parse
from .functional import INNER_VARS, BoundarySpec, CompositeFunctional
from .euler_lagrange import IsoConstraint, ProblemSpec
from .timescale import TimeScale, make_timescale

__all__ = ["ProblemFile", "ProblemFileError", "load_problem", "parse_problem_text"]


class ProblemFileError(ValueError):
    """Problem-file syntax or validation error with a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class _RawSection:
    name: str
    line: int
    entries: dict = field(default_factory=dict)  # key -> (value, line)


def _split_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        if ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


def _parse_sections(text: str) -> dict[str, _RawSection]:
    sections: dict[str, _RawSection] = {}
    current: Optional[_RawSection] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_comment(raw).strip()
        if not line:
            continue
        header = re.fullmatch(r"\[([a-z_]+)\]", line)
        if header:
            name = header.group(1)
            if name in sections:
                raise ProblemFileError(f"duplicate section [{name}]", lineno)
            current = _RawSection(name=name, line=lineno)
            sections[name] = current
            continue
        if "=" not in line:
            raise ProblemFileError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ProblemFileError("key outside of any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in current.entries:
            raise ProblemFileError(
                f"duplicate key {key!r} in [{current.name}]", lineno
            )
        current.entries[key] = (value, lineno)
    return sections


def _take(section: _RawSection, key: str) -> tuple[str, int]:
    if key not in section.entries:
        raise ProblemFileError(
            f"section [{section.name}] is missing key {key!r}", section.line
        )
    return section.entries[key]


def _as_float(text: str, line: int, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ProblemFileError(f"{key} must be a number, got {text!r}", line) from None


def _as_finite(text: str, line: int, key: str) -> float:
    value = _as_float(text, line, key)
    if not math.isfinite(value):
        raise ProblemFileError(f"{key} value must be finite, got {value!r}", line)
    return value


def _as_quoted(text: str, line: int, key: str) -> str:
    m = re.fullmatch(r'"([^"]*)"', text)
    if not m:
        raise ProblemFileError(f"{key} must be a quoted expression", line)
    return m.group(1)


def _parse_expr(text: str, vars, line: int, key: str) -> Expr:
    try:
        return parse(text, vars)
    except ExprError as exc:
        raise ProblemFileError(f"in {key}: {exc}", line) from None


def _numbered_exprs(section: _RawSection, prefix: str):
    """Collect f1, f2, ... (or g1, g2, ...) in index order."""
    found = {}
    for key, (val, line) in section.entries.items():
        m = re.fullmatch(rf"{prefix}(\d+)", key)
        if m:
            found[int(m.group(1))] = (val, line, key)
    if not found:
        raise ProblemFileError(
            f"section [{section.name}] defines no {prefix}1, {prefix}2, ...",
            section.line,
        )
    count = max(found)
    texts = []
    for i in range(1, count + 1):
        if i not in found:
            raise ProblemFileError(
                f"missing {prefix}{i} (indices must be contiguous)", section.line
            )
        val, line, key = found[i]
        texts.append((_as_quoted(val, line, key), line, key))
    return texts


def _max_u_index(e: Expr) -> int:
    out = 0
    for name in expr_variables(e):
        m = re.fullmatch(r"u(\d+)", name)
        if m:
            out = max(out, int(m.group(1)))
    return out


def _parse_composite(
    section: _RawSection, outer_key: str, inner_prefix: str
) -> CompositeFunctional:
    outer_raw, outer_line = _take(section, outer_key)
    inner = _numbered_exprs(section, inner_prefix)
    n = len(inner)
    outer_vars = tuple(f"u{i + 1}" for i in range(n))
    outer_text = _as_quoted(outer_raw, outer_line, outer_key)
    outer = _parse_expr(outer_text, outer_vars, outer_line, outer_key)
    if _max_u_index(outer) != n:
        raise ProblemFileError(
            f"{outer_key} references u1..u{_max_u_index(outer)} but "
            f"{n} {inner_prefix}-integrands are defined",
            outer_line,
        )
    inner_exprs = [
        _parse_expr(text, INNER_VARS, line, key) for text, line, key in inner
    ]
    try:
        return CompositeFunctional(inner_exprs, outer)
    except NestingTooDeep as exc:
        line, key = next(
            ((line, key) for e, (_, line, key) in zip(inner_exprs, inner) if e is exc.node),
            (outer_line, outer_key),
        )
        raise ProblemFileError(f"in {key}: {exc}", line) from None


def _parse_timescale(section: _RawSection) -> TimeScale:
    kind_raw, kind_line = _take(section, "kind")
    kind = kind_raw.strip()
    if kind != "union":
        return _build_timescale(kind, section.entries, kind_line, section.line)
    parts_raw, line = _take(section, "parts")
    parts = [
        _build_timescale(*_union_part(chunk, line), line, line)
        for chunk in parts_raw.split("|")
    ]
    try:
        return make_timescale("union", parts=parts)
    except ValueError as exc:
        raise ProblemFileError(str(exc), kind_line) from None


def _union_part(text: str, line: int) -> tuple[str, dict]:
    """(kind, entries) of a union part: 'interval a=0 b=1 h=0.1' or 'points 0 1 2'.

    The entries map key -> (text, line), as those of a [timescale] section.
    """
    tokens = text.split()
    if not tokens:
        raise ProblemFileError("empty union part", line)
    kind, tokens = tokens[0], tokens[1:]
    if kind == "points":
        return kind, {"values": (" ".join(tokens), line)}
    entries = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ProblemFileError(f"expected key=value in union part, got {tok!r}", line)
        entries[key] = (val, line)
    return kind, entries


def _build_timescale(kind: str, entries: dict, kind_line: int, missing_line: int) -> TimeScale:
    """A points, uniform, interval or qscale scale from key -> (text, line) entries.

    A missing key is reported at ``missing_line``, an error of
    ``make_timescale`` at ``kind_line``.
    """

    def entry(key: str) -> tuple[str, int]:
        if key not in entries:
            raise ProblemFileError(f"time scale kind {kind!r} needs key {key!r}", missing_line)
        return entries[key]

    def number(key: str) -> float:
        return _as_float(*entry(key), key=key)

    try:
        if kind == "points":
            text, line = entry("values")
            values = [_as_finite(v, line, "values") for v in text.replace(",", " ").split()]
            return make_timescale("points", values=values)
        if kind in ("uniform", "interval"):
            return make_timescale(kind, a=number("a"), b=number("b"), h=number("h"))
        if kind == "qscale":
            kmin = int(number("kmin")) if "kmin" in entries else 0
            return make_timescale("qscale", q=number("q"), kmin=kmin, kmax=int(number("kmax")))
    except ProblemFileError:
        raise
    except (ValueError, OverflowError) as exc:  # int() of an infinite value overflows
        raise ProblemFileError(str(exc), kind_line) from None
    raise ProblemFileError(f"unknown time scale kind {kind!r}", kind_line)


def _parse_boundary(section: _RawSection) -> BoundarySpec:
    def one(key: str) -> Optional[float]:
        raw, line = _take(section, key)
        if raw == "free":
            return None
        m = re.fullmatch(r"fixed\s+(\S+)", raw)
        if not m:
            raise ProblemFileError(
                f"{key} must be 'free' or 'fixed <value>', got {raw!r}", line
            )
        return _as_finite(m.group(1), line, key)

    return BoundarySpec(left=one("left"), right=one("right"))


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem file, ready to build a ProblemSpec."""

    name: str
    timescale: TimeScale
    lagrangian: CompositeFunctional
    bc: BoundarySpec
    constraint: Optional[IsoConstraint] = None

    def build(self, h_override: Optional[float] = None) -> ProblemSpec:
        ts = self.timescale
        if h_override is not None:
            ts = make_timescale("interval", a=ts.a, b=ts.b, h=float(h_override))
        return ProblemSpec(
            ts=ts, lagrangian=self.lagrangian, bc=self.bc, constraint=self.constraint
        )


def parse_problem_text(text: str, name: str = "<problem>") -> ProblemFile:
    sections = _parse_sections(text)
    for required in ("timescale", "functional", "boundary"):
        if required not in sections:
            raise ProblemFileError(f"missing required section [{required}]", 1)
    known = {"timescale", "functional", "boundary", "constraint"}
    for sec in sections.values():
        if sec.name not in known:
            raise ProblemFileError(f"unknown section [{sec.name}]", sec.line)

    ts = _parse_timescale(sections["timescale"])
    lagrangian = _parse_composite(sections["functional"], "H", "f")
    bc = _parse_boundary(sections["boundary"])

    constraint = None
    if "constraint" in sections:
        sec = sections["constraint"]
        functional = _parse_composite(sec, "P", "g")
        k_raw, k_line = _take(sec, "k")
        constraint = IsoConstraint(
            functional=functional, target=_as_finite(k_raw, k_line, "k")
        )
        if not (bc.left_fixed and bc.right_fixed):
            raise ProblemFileError(
                "constrained problems require both endpoints fixed", sec.line
            )
    return ProblemFile(
        name=name, timescale=ts, lagrangian=lagrangian, bc=bc, constraint=constraint
    )


def load_problem(source) -> ProblemFile:
    """Load a UTF-8 problem file from a path or an importlib.resources traversable."""
    if not hasattr(source, "read_text"):
        source = Path(source)
    text = source.read_text(encoding="utf-8")
    return parse_problem_text(text, name=re.sub(r"\.dvp$", "", source.name))
