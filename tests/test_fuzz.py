"""Mutation fuzzing of the front half of a verdict.

Both fixtures and family members are mutated line by line (dropped,
duplicated or swapped lines; a changed coefficient, index or sign; J or g
scaled by a constant; the inducing metric of the blocks switched) and run
through parse, pipeline and both report formats. Every input must end in a
clean exit code, 0, 2, 3 or 4: never a traceback and never exit 5, which
marks an engine bug. Every input that parses must round-trip through
`to_text`. On every input that passes validation, the constant-curvature
fits of the curvature and of -R~ (`ambient.pi_fit`) must give the outcome of
`fit_tables` on the full columns (`helpers.reference_pi_fit`), and the refit
of -R~ must give the primed pair that the report derives from the first fit
(`helpers.derived_primed`). Skipped when hypothesis is not installed.
"""

import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import (
    FIXTURE_STEMS,
    derived_primed,
    family_text,
    fraction_solution,
    reference_associated_table,
    reference_pi_fit,
    reference_pi_tensors,
    reported_primed,
    tensor_neg,
)
from nordenlight.ambient import curvature, levi_civita, pi_fit, validate_lie_algebra, validate_norden
from nordenlight.errors import ParseError
from nordenlight.exact import format_rational
from nordenlight.manifold_file import lie_algebra_spec, norden_from_file, parse_manifold_file
from nordenlight.pipeline import emit_report, run_pipeline

pytest.importorskip("hypothesis")  # the imports below need it installed
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BASES = [(FIXTURES / f"{stem}.mf").read_text(encoding="utf-8") for stem in FIXTURE_STEMS]
BASES += [family_text(2), family_text(3)]
NUMBER = re.compile(r"-?\d+(?:/\d+)?")
VALUES = ("0", "1", "-1", "2", "-2", "3", "5", "7", "1/2", "-1/3", "17")
FACTORS = (F(2), F(-1), F(1, 2), F(3))


def scale_entries(lines, keyword, factor):
    """Every coefficient of the METRIC or J lines times a constant."""
    coefficient = re.compile(r"(?<=:)-?\d+(?:/\d+)?" if keyword == "J" else r"-?\d+(?:/\d+)?$")
    out = []
    for line in lines:
        if line.startswith(keyword + " "):
            head, _, rest = line.partition("=")
            line = head + "=" + coefficient.sub(lambda m: format_rational(F(m.group(0)) * factor), rest)
        out.append(line)
    return out


@st.composite
def mutated_text(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "number", "scale_j", "scale_g", "metric")))
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        elif op == "number":
            spots = list(NUMBER.finditer(lines[i]))
            if spots:
                m = draw(st.sampled_from(spots))
                lines[i] = lines[i][: m.start()] + draw(st.sampled_from(VALUES)) + lines[i][m.end() :]
        elif op == "metric":
            swap = {"metric=assoc": "metric=principal", "metric=principal": "metric=assoc"}
            lines = [re.sub("metric=(assoc|principal)", lambda m: swap[m.group(0)], line) for line in lines]
        else:
            keyword = "J" if op == "scale_j" else "METRIC"
            lines = scale_entries(lines, keyword, draw(st.sampled_from(FACTORS)))
    return "\n".join(lines) + "\n"


def exit_code(text: str) -> int:
    try:
        mf = parse_manifold_file(text)
    except ParseError as exc:
        return exc.exit_code
    assert parse_manifold_file(mf.to_text()) == mf
    report = run_pipeline(mf)
    assert emit_report(report, "structured") and emit_report(report, "text")
    return report.exit_code


def test_scaling_helper_touches_only_coefficients():
    lines = ["J 1 = 3:1 4:-1/2", "METRIC 2 2 = -1", "BRACKET 1 2 = 4:-2"]
    assert scale_entries(lines, "J", F(2)) == ["J 1 = 3:2 4:-1", *lines[1:]]
    assert scale_entries(lines, "METRIC", F(-1, 2))[1] == "METRIC 2 2 = 1/2"


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_text())
def test_mutated_inputs_end_in_a_clean_exit_code(text):
    assert exit_code(text) in {0, 2, 3, 4}


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_text())
def test_pi_fit_matches_fit_tables_on_mutated_inputs(text):
    try:
        mf = parse_manifold_file(text)
    except ParseError:
        return
    spec, ns = lie_algebra_spec(mf), norden_from_file(mf)
    if not (validate_lie_algebra(spec).ok and validate_norden(spec, ns).ok):
        return
    # J need not be parallel: the fits run on the curvature either way
    _, r04 = curvature(spec, levi_civita(spec, ns), ns)
    tensors = reference_pi_tensors(ns.g, ns.j)
    fits = []
    for rhs in (r04, tensor_neg(reference_associated_table(r04, ns))):
        fits.append(reference_pi_fit(ns, rhs, tensors))
        assert fraction_solution(pi_fit(ns, rhs)) == fits[-1]
    own, primed = fits
    assert primed.particular == derived_primed(own)
    data = run_pipeline(mf).data
    if "associated_constants" in data.get("ambient", {}):  # J is parallel
        assert reported_primed(data) == primed.particular
