import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deltavar import ProblemFileError, load_problem, parse_problem_text

GOOD = """
# a quotient problem
[timescale]
kind = points
values = 0, 0.5, 1

[functional]
H = "u1 / u2"
f1 = "t*v"
f2 = "v^2"

[boundary]
left = fixed 0
right = fixed 1
"""

CONSTRAINED = GOOD + """
[constraint]
P = "u1"
g1 = "t*v"
k = 1
"""


class TestParsing:
    def test_good_file(self):
        pf = parse_problem_text(GOOD, name="quotient")
        assert pf.name == "quotient"
        assert len(pf.timescale) == 3
        assert pf.lagrangian.n == 2
        assert pf.bc.left == 0.0 and pf.bc.right == 1.0
        assert pf.constraint is None

    def test_constraint_section(self):
        pf = parse_problem_text(CONSTRAINED)
        assert pf.constraint is not None
        assert pf.constraint.target == 1.0
        assert pf.constraint.functional.n == 1

    def test_build_produces_spec(self):
        spec = parse_problem_text(GOOD).build()
        assert spec.constraint is None
        assert len(spec.ts) == 3

    def test_h_override_rediscretizes(self):
        spec = parse_problem_text(GOOD).build(h_override=0.1)
        assert len(spec.ts) == 11
        assert spec.ts.kind == "interval"

    def test_comments_and_blank_lines_ignored(self):
        text = GOOD.replace('H = "u1 / u2"', 'H = "u1 / u2"  # outer map')
        assert parse_problem_text(text).lagrangian.n == 2

    def test_interval_scale(self):
        text = GOOD.replace(
            "kind = points\nvalues = 0, 0.5, 1",
            "kind = interval\na = 0\nb = 1\nh = 0.25",
        )
        assert len(parse_problem_text(text).timescale) == 5

    def test_union_scale(self):
        text = GOOD.replace(
            "kind = points\nvalues = 0, 0.5, 1",
            "kind = union\nparts = points 0 0.5 1 | interval a=2 b=3 h=0.5",
        )
        ts = parse_problem_text(text).timescale
        assert list(ts.points) == [0, 0.5, 1, 2, 2.5, 3]

    @pytest.mark.parametrize("keys, part", [
        ("kind = points\nvalues = 0, 0.5, 1", "points 0 0.5 1"),
        ("kind = interval\na = 0\nb = 1\nh = 0.3", "interval a=0 b=1 h=0.3"),
        ("kind = uniform\na = 0\nb = 1\nh = 0.25", "uniform a=0 b=1 h=0.25"),
        ("kind = qscale\nq = 2\nkmax = 3", "qscale q=2 kmax=3"),
        ("kind = qscale\nq = 1.5\nkmin = -2\nkmax = 2", "qscale q=1.5 kmin=-2 kmax=2"),
    ])
    def test_section_and_one_part_union_agree(self, keys, part):
        old = "kind = points\nvalues = 0, 0.5, 1"
        section = parse_problem_text(GOOD.replace(old, keys)).timescale
        union = parse_problem_text(GOOD.replace(old, f"kind = union\nparts = {part}")).timescale
        assert section.points.size >= 3
        np.testing.assert_array_equal(union.points, section.points)

    def test_free_boundary(self):
        text = GOOD.replace("left = fixed 0", "left = free")
        assert parse_problem_text(text).bc.left is None

    def test_every_source_is_read_as_utf8(self, tmp_path):
        # A path as str or Path and a traversable (how bundled fixtures
        # come) are all read as UTF-8, whatever the locale's encoding.
        path = tmp_path / "café.dvp"
        path.write_text("# façon\n" + GOOD, encoding="utf-8")
        encodings = []

        class Traversable:
            name = path.name

            def read_text(self, encoding=None):
                encodings.append(encoding)
                return path.read_text(encoding=encoding)

        loaded = [load_problem(source) for source in (str(path), path, Traversable())]
        assert [pf.name for pf in loaded] == ["café"] * 3
        assert encodings == ["utf-8"]


class TestDiagnostics:
    def expect_error(self, text, fragment):
        with pytest.raises(ProblemFileError) as err:
            parse_problem_text(text)
        assert fragment in str(err.value)
        return err.value

    def test_missing_section(self):
        self.expect_error("[timescale]\nkind = points\nvalues = 0, 0.5, 1\n",
                          "missing required section")

    def test_unknown_section(self):
        self.expect_error(GOOD + "\n[extras]\nfoo = 1\n", "unknown section")

    def test_unquoted_expression(self):
        self.expect_error(GOOD.replace('"v^2"', "v^2"), "quoted")

    def test_expression_error_carries_line(self):
        err = self.expect_error(GOOD.replace('"t*v"', '"t*"'), "in f1")
        assert err.line == 9

    @pytest.mark.parametrize("k", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_constraint_target(self, k):
        err = self.expect_error(CONSTRAINED.replace("k = 1", f"k = {k}"), "finite")
        assert err.line == CONSTRAINED.splitlines().index("k = 1") + 1

    @pytest.mark.parametrize("key, old", [("f1", '"t*v"'), ("H", '"u1 / u2"')])
    def test_sum_too_deep_to_differentiate_carries_line(self, key, old, recursion_limit):
        # One call per tree level: a sum deeper than the limit exhausts it.
        term = "t*v" if key == "f1" else "u1 / u2"
        long_sum = '"' + " + ".join([term] * (recursion_limit + 200)) + '"'
        err = self.expect_error(GOOD.replace(old, long_sum), f"in {key}: expression nested")
        assert err.line == GOOD.splitlines().index(f"{key} = {old}") + 1

    def test_u_index_mismatch(self):
        self.expect_error(GOOD.replace('"u1 / u2"', '"u1"'), "u1")

    def test_missing_inner_integrand(self):
        self.expect_error(GOOD.replace('f1 = "t*v"\n', ""), "contiguous")

    def test_bad_boundary(self):
        self.expect_error(GOOD.replace("fixed 0", "pinned 0"), "left")

    def test_constraint_requires_fixed_ends(self):
        text = CONSTRAINED.replace("left = fixed 0", "left = free")
        self.expect_error(text, "fixed")

    def test_duplicate_key(self):
        self.expect_error(GOOD + "\n[constraint]\nk = 1\nk = 2\n", "duplicate key")

    def test_bad_number(self):
        self.expect_error(GOOD.replace("values = 0, 0.5, 1", "values = 0, x, 1"),
                          "number")

    # GOOD's [timescale] header is line 3, its kind line 4.
    @pytest.mark.parametrize("keys, line", [
        ("kind = interval\na = 0\nb = 1", 3),
        ("kind = union\nparts = points 0 1 2 | interval a=0 b=1", 5),
        ("kind = qscale\nq = 2\nkmax = x", 6),
        ("kind = qscale\nq = 2\nkmax = inf", 4),
        ("kind = union\nparts = qscale q=2 kmax=x", 5),
        ("kind = union\nparts = qscale q=2 kmax=inf", 5),
        ("kind = union\nparts = union parts=1", 5),
        ("kind = union\nparts = points 0 1 | interval a 0", 5),
    ])
    def test_timescale_errors_carry_line(self, keys, line):
        with pytest.raises(ProblemFileError) as err:
            parse_problem_text(GOOD.replace("kind = points\nvalues = 0, 0.5, 1", keys))
        assert err.value.line == line

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_point_names_value_and_line(self, value):
        text = GOOD.replace("values = 0, 0.5, 1", f"values = 0, {value}, 1, 2")
        err = self.expect_error(text, f"must be finite, got {value}")
        assert err.line == 5

    def test_key_outside_section(self):
        self.expect_error("kind = points\n" + GOOD, "outside")


def _mostly(valid, *bad):
    """A key's value: valid three times in four, otherwise one of ``bad``."""
    return st.sampled_from([valid] * (3 * len(bad)) + list(bad))


# Each key takes a valid value or a non-finite number, junk or a broken
# expression.  Numbers stay small, so no fuzzed scale is large.
_BAD_NUMBERS = ("nan", "inf", "-inf", "1e999", "-1", "x", "")
_BAD_EXPRS = ('"u3"', '"(y"', '"2^9999"', '"z"', "v^2", '""')
_SLOTS = {
    "timescale": {
        "kind": st.sampled_from(["points", "interval", "uniform", "qscale", "union", "other"]),
        "a": _mostly("0", *_BAD_NUMBERS),
        "b": _mostly("1", *_BAD_NUMBERS),
        "h": _mostly("0.5", "0", *_BAD_NUMBERS),
        "q": _mostly("2", "1", *_BAD_NUMBERS),
        "kmin": _mostly("0", *_BAD_NUMBERS),
        "kmax": _mostly("3", *_BAD_NUMBERS),
        "values": _mostly("0, 0.5, 1", "0 1", "0, nan, 1, 2", "0, inf, 1", "a b c"),
        "parts": _mostly(
            "points 0 0.5 1 | interval a=2 b=3 h=0.5", "qscale q=2 kmax=inf",
            "qscale q=2 kmax=3 kmin=nan", "interval a=0 b=inf h=0.5", "points 0 1",
            "interval a=0 b=1", "other", "|",
        ),
    },
    "functional": {
        "H": _mostly('"u1 / u2"', '"u1"', *_BAD_EXPRS),
        "f1": _mostly('"v^2"', *_BAD_EXPRS),
        "f2": _mostly('"t*v + y"', "", *_BAD_EXPRS),
    },
    "boundary": {
        "left": _mostly("fixed 0", "free", "fixed nan", "fixed inf", "fixed", "pinned 0"),
        "right": _mostly("fixed 1", "free", "fixed -1e999"),
    },
    "constraint": {
        "P": _mostly('"u1"', *_BAD_EXPRS),
        "g1": _mostly('"t*v"', '"1/0"', *_BAD_EXPRS),
        "k": _mostly("1", *_BAD_NUMBERS),
    },
}


@st.composite
def _problem_texts(draw):
    """A problem file with every section and key, then a few lines edited."""
    names = list(_SLOTS)[:3] + draw(st.sampled_from([[], [], ["constraint"], ["other"]]))
    lines = []
    for name in names:
        lines.append(f"[{name}]")
        lines += [f"{key} = {draw(value)}" for key, value in _SLOTS.get(name, {}).items()]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "replace"]))
        if edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(max_size=12))
    return "\n".join(lines)


def _long_sum_file(terms):
    return ('[timescale]\nkind = points\nvalues = 0, 0.5, 1\n[functional]\nH = "u1"\n'
            f'f1 = "{" + ".join(["t*y"] * terms)}"\n[boundary]\nleft = fixed 0\nright = fixed 1')


class TestFuzz:
    @settings(max_examples=500, deadline=None)
    @given(text=_problem_texts() | st.text(max_size=60))
    @example(text='[timescale]\nkind = qscale\nq = 2\nkmax = inf\n'
             '[functional]\nH = "u1"\nf1 = "v^2"\n[boundary]\nleft = fixed 0\nright = fixed 1')
    # Long sums: hypothesis raises the recursion limit by 2,000 frames, so
    # 1,200 terms differentiate here and 4,000 run out of recursion.
    @example(text=_long_sum_file(1200))
    @example(text=_long_sum_file(4000))
    def test_random_text_raises_only_problem_file_errors(self, text):
        try:
            parse_problem_text(text)
        except ProblemFileError as exc:
            assert isinstance(exc.line, int) and exc.line >= 0

