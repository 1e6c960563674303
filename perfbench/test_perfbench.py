"""Self-tests of the benchmark: the generator reproduces the fixture, every
generated input kind gets the verdict it states, and the failure accounting
counts a corrupted verdict."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import family  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from nordenlight import manifold_file, pipeline  # noqa: E402
from nordenlight.manifold_file import lie_algebra_spec, norden_from_file, parse_manifold_file  # noqa: E402


def _tables(text):
    mf = parse_manifold_file(text)
    ns = norden_from_file(mf)
    return lie_algebra_spec(mf).brackets, ns.g, ns.j


def test_family_at_h2_is_the_fixture():
    generated = family.family_case(2).text
    fixture = (ROOT / "fixtures" / "sl2c_borel.mf").read_text()
    assert _tables(generated) == _tables(fixture)


def test_dense_basis_change_is_gaussian_unimodular_and_keeps_j():
    rng = random.Random(3)
    p = family.gaussian_unimodular(rng, 3)
    a, b, c = p
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    assert det in family.UNITS
    assert _tables(family.dense_case(rng, 4).text)[2] == _tables(family.family_case(4).text)[2]


def _verdict(case):
    report = pipeline.run_pipeline(parse_manifold_file(case.text))
    return report.data, report.exit_code


def test_every_generated_kind_gets_its_stated_verdict():
    rng = random.Random(11)
    cases = family.fixture_cases(ROOT)
    cases += [maker(rng, 2) for maker in (family.dense_case, family.four_block_case)]
    cases += [family.invalid_case(random.Random(seed), 2) for seed in range(12)]
    assert {c.failed_check for c in cases if c.exit_code == 3} == {
        "complex_structure_squares_to_minus_identity",
        "metric_anti_isometry",
        "jacobi_identity",
        "kaehler",
    }
    for case in cases:
        data, code = _verdict(case)
        assert oracle.check(case, data, code) == [], case.kind


def test_batch_stream_is_half_early_exits():
    cases = family.batch_cases(random.Random(0), ROOT, 2)
    assert len(cases) == 20
    assert sum(c.exit_code != 0 for c in cases) == 10


def test_corrupted_verdict_counts_as_failed():
    case = family.fixture_cases(ROOT)[0]

    def corrupted(mf):
        report = pipeline.run_pipeline(mf)
        report.data["ambient"]["constant_curvatures"]["nu"] = "5"
        return report

    honest = run.Runner((manifold_file, pipeline))
    honest.run(0, case)
    assert (honest.attempted, honest.failed) == (1, 0)

    fake = SimpleNamespace(run_pipeline=corrupted, emit_report=pipeline.emit_report)
    runner = run.Runner((manifold_file, fake))
    runner.run(0, case)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "ambient constants" in runner.problems[0]


def test_closed_forms_reject_a_wrong_einstein_constant():
    case = family.family_case(2, Fraction(5, 7))
    data, code = _verdict(case)
    data["hypersurfaces"][0]["flags"]["almost_einstein"]["k"] = "1"
    assert any("einstein" in p for p in oracle.check(case, data, code))


def test_report_missing_fields_counts_as_failed():
    case = family.fixture_cases(ROOT)[0]

    def truncated(mf):
        report = pipeline.run_pipeline(mf)
        del report.data["hypersurfaces"][0]["flags"]
        return report

    fake = SimpleNamespace(run_pipeline=truncated, emit_report=pipeline.emit_report)
    runner = run.Runner((manifold_file, fake))
    runner.run(0, case)
    assert (runner.attempted, runner.failed) == (1, 1)
