from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import family_text
from nordenlight.cli import main
from nordenlight.errors import ParseError
from nordenlight.manifold_file import (
    MAX_COEFFICIENT_BITS,
    MAX_DIM,
    hypersurface_specs,
    lie_algebra_spec,
    norden_from_file,
    parse_manifold_file,
)

MINIMAL = """DIM 4
METRIC 1 1 = 1
METRIC 2 2 = 1
METRIC 3 3 = -1
METRIC 4 4 = -1
J 1 = 3:1
J 2 = 4:1
J 3 = 1:-1
J 4 = 2:-1
"""


def edited(text: str, old: str, new: str) -> tuple[str, int]:
    """The text with the first `old` replaced by `new`, and the 1-based
    number of the line it was on."""
    line = next(n for n, row in enumerate(text.splitlines(), start=1) if old in row)
    return text.replace(old, new, 1), line


BOREL = (Path(__file__).resolve().parent.parent / "fixtures" / "sl2c_borel.mf").read_text(encoding="utf-8")
# integers that int() reads but that are not ASCII decimal digits; every
# edit leaves an input that runs the full path when written with digits
NON_DECIMAL_INTEGERS = {
    "dim_plus_sign": edited(BOREL, "DIM 4", "DIM +4"),
    "dim_arabic_indic_digit": edited(BOREL, "DIM 4", "DIM \u0664"),
    "span_arabic_indic_digit": edited(BOREL, "span=2,3,4", "span=2,3,\u0664"),
    "j_index_plus_sign": edited(BOREL, "J 4 = 2:-1", "J +4 = 2:-1"),
    "term_index_plus_sign": edited(BOREL, "J 1 = 3:1", "J 1 = +3:1"),
    "span_underscore": edited(family_text(5), "span=2,3,4,5,6,7,8,9,10", "span=2,3,4,5,6,7,8,9,1_0"),
}
# one malformed line of the Borel fixture per parse error, as the edit of the
# line and the message the CLI prints after its line number
MALFORMED_LINES = {
    "dim_two_arguments": (("DIM 4", "DIM 4 5"), "DIM takes exactly one argument"),
    "bracket_without_equals": (("BRACKET 1 2 = 4:-2", "BRACKET 1 2 3:1"), "expected BRACKET i j = k:q ..."),
    "metric_without_equals": (("METRIC 1 1 = 1", "METRIC 1 2 1"), "expected METRIC i j = q"),
    "j_without_equals": (("J 1 = 3:1", "J 1 2:1"), "expected J i = k:q ..."),
    "bare_span_token": (("span=2,3,4", "span"), "expected key=value, got 'span'"),
    "unknown_hypersurface_key": (("xi=3:-1", "xi=3:-1 foo=1"), "unknown hypersurface key 'foo'"),
    "no_metric_key": (("metric=assoc ", ""), "hypersurface needs metric=principal|assoc"),
}


class TestParsing:
    def test_golden_values(self, golden_mf):
        mf = golden_mf
        assert mf.dim == 4
        assert mf.basis_labels == ("X1", "X2", "X3", "X4")
        spec = lie_algebra_spec(mf)
        # [X1, X2] = -2 X4 with antisymmetric closure
        assert spec.brackets[0, 1, 3] == F(-2)
        assert spec.brackets[1, 0, 3] == F(2)
        assert spec.brackets[0, 1, 0] == F(0)
        ns = norden_from_file(mf)
        assert ns.g[0, 0] == F(1) and ns.g[2, 2] == F(-1)
        assert ns.j[2, 0] == F(1)  # J X1 = X3
        assert ns.j[1, 3] == F(-1)  # J X4 = -X2
        hs = hypersurface_specs(mf)[0]
        assert hs.inducing_metric == "associated"
        assert hs.xi_hint.entries == (F(0), F(0), F(-1), F(0))

    def test_default_labels_and_zero_entries(self):
        mf = parse_manifold_file(MINIMAL)
        assert mf.basis_labels == ("X1", "X2", "X3", "X4")
        spec = lie_algebra_spec(mf)
        assert spec.brackets.is_zero()

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\nDIM 4  # trailing comment\n" + MINIMAL.split("\n", 1)[1]
        assert parse_manifold_file(text).dim == 4

    def test_round_trip(self, golden_mf, golden_text):
        assert parse_manifold_file(golden_mf.to_text()) == golden_mf

    def test_round_trip_minimal(self):
        mf = parse_manifold_file(MINIMAL)
        assert parse_manifold_file(mf.to_text()) == mf

    def test_multi_term_hint(self):
        text = MINIMAL + "HYPERSURFACE metric=assoc span=2,3,4 xi=1:1/2,3:-2\n"
        hs = hypersurface_specs(parse_manifold_file(text))[0]
        assert hs.xi_hint.entries == (F(1, 2), F(0), F(-2), F(0))


class TestParseErrors:
    def expect_error(self, text, match, line=None):
        with pytest.raises(ParseError, match=match) as err:
            parse_manifold_file(text)
        if line is not None:
            assert err.value.line == line

    def test_zero_denominator(self):
        self.expect_error("DIM 4\nMETRIC 1 1 = 1/0\n", "zero denominator", line=2)

    def test_duplicate_bracket(self):
        self.expect_error(
            "DIM 4\nBRACKET 1 2 = 4:-2\nBRACKET 1 2 = 4:-2\n", "duplicate BRACKET", line=3
        )

    def test_mirrored_bracket_is_duplicate(self):
        self.expect_error(
            "DIM 4\nBRACKET 1 2 = 4:-2\nBRACKET 2 1 = 4:2\n", "duplicate BRACKET", line=3
        )

    def test_duplicate_metric(self):
        self.expect_error("DIM 4\nMETRIC 1 2 = 1\nMETRIC 2 1 = 1\n", "duplicate METRIC", line=3)

    def test_duplicate_j(self):
        self.expect_error("DIM 4\nJ 1 = 3:1\nJ 1 = 3:1\n", "duplicate J", line=3)

    def test_unknown_keyword(self):
        self.expect_error("DIM 4\nCURVATURE 1\n", "unknown keyword", line=2)

    def test_index_out_of_range(self):
        self.expect_error("DIM 4\nMETRIC 1 5 = 1\n", "out of range", line=2)

    def test_dim_must_come_first(self):
        self.expect_error("METRIC 1 1 = 1\n", "DIM must precede", line=1)

    def test_missing_dim(self):
        self.expect_error("# nothing\n", "missing DIM")

    def test_duplicate_dim(self):
        self.expect_error("DIM 4\nDIM 4\n", "duplicate DIM", line=2)

    def test_basis_count(self):
        self.expect_error("DIM 4\nBASIS a b\n", "BASIS needs 4 names", line=2)

    def test_basis_repeated_name(self, tmp_path, capsys):
        # a repeated name would make the report's basis_labels ambiguous
        text = MINIMAL.replace("DIM 4\n", "DIM 4\nBASIS X1 X1 X3 X4\n")
        self.expect_error(text, "BASIS repeats the name 'X1'", line=2)
        path = tmp_path / "m.mf"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "line 2: BASIS repeats the name 'X1'" in capsys.readouterr().err

    def test_span_arity(self):
        self.expect_error(
            MINIMAL + "HYPERSURFACE metric=assoc span=2,3\n", "span must list 3", line=10
        )

    def test_span_duplicate_index(self):
        self.expect_error(
            MINIMAL + "HYPERSURFACE metric=assoc span=2,2,4\n", "duplicate index", line=10
        )

    def test_bad_metric_selector(self):
        self.expect_error(
            MINIMAL + "HYPERSURFACE metric=dual span=2,3,4\n", "principal or assoc", line=10
        )

    @pytest.mark.parametrize(
        "keys",
        [
            "metric=principal metric=assoc span=2,3,4",
            "metric=assoc span=2,3,4 span=1,3,4",
            "metric=assoc span=2,3,4 xi=3:-1 xi=3:1",
        ],
    )
    def test_repeated_hypersurface_key(self, keys):
        self.expect_error(MINIMAL + f"HYPERSURFACE {keys}\n", "duplicate hypersurface key", line=10)

    def test_missing_span(self):
        self.expect_error(MINIMAL + "HYPERSURFACE metric=assoc\n", "needs span", line=10)

    def test_malformed_term(self):
        self.expect_error("DIM 4\nJ 1 = 3\n", "expected k:q", line=2)
        self.expect_error("DIM 4\nJ 1 = x:1\n", "bad index 'x'", line=2)

    def test_duplicate_term_index(self):
        self.expect_error("DIM 4\nJ 1 = 3:1,\n", "expected k:q|malformed", line=2)
        self.expect_error("DIM 4\nBRACKET 1 2 = 3:1 3:2\n", "duplicate index", line=2)

    @pytest.mark.parametrize("case", list(MALFORMED_LINES))
    def test_malformed_line_exits_2_with_its_line(self, case, tmp_path, capsys):
        (old, new), message = MALFORMED_LINES[case]
        text, line = edited(BOREL, old, new)
        path = tmp_path / "m.mf"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: line {line}: {message}\n"

    def test_zero_xi_hint_is_a_hypothesis_failure(self, tmp_path, capsys):
        path = tmp_path / "m.mf"
        path.write_text(BOREL.replace("xi=3:-1", "xi=1:0"), encoding="utf-8")
        assert main(["check", str(path)]) == 4
        assert "status: hypothesis_failure (xi hint is the zero vector)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("case", list(NON_DECIMAL_INTEGERS))
    def test_integers_are_ascii_decimal_digits(self, case, tmp_path, capsys):
        text, line = NON_DECIMAL_INTEGERS[case]
        self.expect_error(text, "bad", line=line)
        path = tmp_path / "m.mf"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert f"line {line}: bad" in capsys.readouterr().err


class TestResourceLimits:
    def expect_error(self, text, match, line):
        with pytest.raises(ParseError, match=match) as err:
            parse_manifold_file(text)
        assert err.value.line == line

    def test_dim_cap(self):
        assert parse_manifold_file(f"DIM {MAX_DIM}\n").dim == MAX_DIM
        self.expect_error(f"DIM {MAX_DIM + 2}\n", f"limit of {MAX_DIM}", line=1)

    def test_coefficient_at_the_cap_is_accepted(self):
        top = 2**MAX_COEFFICIENT_BITS - 1
        mf = parse_manifold_file(f"DIM 4\nMETRIC 1 1 = -{top}/{top - 1}\nJ 1 = 3:{top}\n")
        assert mf.metric_entries[0][2] == F(-top, top - 1)
        assert mf.j_entries[0][1] == ((3, F(top)),)

    def test_coefficient_over_the_cap(self):
        big = 2**MAX_COEFFICIENT_BITS
        limit = f"limit of {MAX_COEFFICIENT_BITS} bits"
        self.expect_error(f"DIM 4\nMETRIC 1 1 = {big}\n", limit, line=2)
        self.expect_error(f"DIM 4\nMETRIC 1 1 = 1/{big}\n", limit, line=2)
        self.expect_error(f"DIM 4\n\nJ 1 = 3:-{big}\n", limit, line=3)
        self.expect_error("DIM 4\nBRACKET 1 2 = 4:" + "9" * 3000 + "\n", limit, line=2)

    def test_limit_applies_in_lowest_terms(self):
        big = 2**MAX_COEFFICIENT_BITS
        mf = parse_manifold_file(f"DIM 4\nMETRIC 1 1 = {2 * big}/{big}\n")
        assert mf.metric_entries[0][2] == 2
