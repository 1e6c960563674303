import json
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import family_text, invalid_family_text, nested, report_digests, tensor_from_rows, tensor_scale
from nordenlight.cli import main
from nordenlight.errors import InternalInconsistency, ValidationFailure
from nordenlight.exact import DenseTensor
from nordenlight.manifold_file import parse_manifold_file
from nordenlight.pipeline import emit_report, run_pipeline
from nordenlight.symmetry import EinsteinFit, FlagResult


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def golden_report(golden_mf):
    return run_pipeline(golden_mf)


@pytest.mark.parametrize("h", [3, 4])
def test_family_fixtures_meet_the_closed_forms(h):
    # the committed family members, read back from the structured report:
    # nu = 4 lambda^2 (lambda = 1), rho^2 / b = nu and k = 2 (h - 1) nu
    text = (FIXTURES / f"family_h{h}.mf").read_text(encoding="utf-8")
    assert parse_manifold_file(text) == parse_manifold_file(family_text(h))
    report = run_pipeline(parse_manifold_file(text))
    data = json.loads(emit_report(report, "structured"))
    assert report.exit_code == 0
    nu = F(data["ambient"]["constant_curvatures"]["nu"])
    (block,) = data["hypersurfaces"]
    rho, b = F(block["umbilical"]["rho"]), F(block["radical_transversal"]["b"])
    einstein = block["flags"]["almost_einstein"]
    assert nu == 4
    assert rho * rho / b == nu
    assert (F(einstein["k"]), F(einstein["c"])) == (2 * (h - 1) * nu, 0)
    assert block["audit"]["condition_iii"] == {"lhs": str(nu), "rhs": str(nu)}
    assert block["audit"]["consistent"] is True


class TestGoldenPipeline:
    def test_exit_code(self, golden_report):
        assert golden_report.exit_code == 0
        assert golden_report.data["status"] == "ok"

    def test_ambient_section(self, golden_report):
        amb = golden_report.data["ambient"]
        assert amb["kaehler_norden"] is True
        assert amb["constant_curvatures"] == {
            "kind": "constant",
            "nu": "4",
            "nu_assoc": "0",
            "degenerate_fit": False,
        }
        assert amb["associated_constants"] == {"nu_prime": "0", "nu_assoc_prime": "4"}
        assert len(amb["connection_nonzero"].nums) == 8

    def test_hypersurface_section(self, golden_report):
        h = golden_report.data["hypersurfaces"][0]
        assert h["status"] == "ok"
        assert h["classification"] == {"principal": "nondegenerate", "associated": "lightlike"}
        assert h["radical_transversal"]["holds"] and h["radical_transversal"]["b"] == "1"
        assert h["frame"]["xi_combo"] == "-X3"
        assert h["frame"]["transversal_combo"] == "X1"
        assert h["frame"]["screen"] == ["X2", "X4"]
        assert h["umbilical"] == {"holds": True, "rho": "-2"}
        assert all(c["ok"] for c in h["identities"])
        assert h["residuals"]["radial"] == "0"
        assert h["induced"]["curvature_routes_match"] is True
        assert h["induced"]["ricci_routes_match"] is True
        flags = h["flags"]
        for name in ("semi_symmetric", "ricci_semi_symmetric", "locally_symmetric"):
            assert flags[name]["holds"] is True
        assert flags["almost_einstein"] == {"kind": "unique", "k": "8", "c": "0"}

    def test_audit_structured_fields(self, golden_report):
        audit = golden_report.data["hypersurfaces"][0]["audit"]
        assert audit["applicable"] is True
        assert audit["condition_iii"] == {"lhs": "4", "rhs": "4"}
        assert audit["condition_iii_holds"] is True
        assert audit["consistent"] is True

    def test_text_report_lines(self, golden_report):
        text = emit_report(golden_report, "text")
        assert "totally umbilical: rho = -2" in text
        assert "radical transversal: yes, b = 1" in text
        assert "nu = 4, nu_assoc = 0" in text
        assert "condition (iii) 4 = 4: yes; consistent: yes" in text

    def test_structured_is_json_with_string_rationals(self, golden_report):
        doc = json.loads(emit_report(golden_report, "structured"))
        assert doc["hypersurfaces"][0]["audit"]["condition_iii"] == {"lhs": "4", "rhs": "4"}
        assert doc["engine"]["name"] == "nordenlight"

    def test_determinism(self, golden_mf):
        a = emit_report(run_pipeline(golden_mf), "structured")
        b = emit_report(run_pipeline(golden_mf), "structured")
        assert a == b
        assert a.encode("utf-8") == b.encode("utf-8")


class TestFailurePaths:
    def test_identity_j_is_validation_failure(self, golden_text):
        text = golden_text.replace("J 1 = 3:1", "J 1 = 1:1").replace(
            "J 3 = 1:-1", "J 3 = 3:1"
        )
        report = run_pipeline(parse_manifold_file(text))
        assert report.exit_code == 3
        assert report.data["status"] == "validation_failure"
        emitted = emit_report(report, "text")
        assert "FAIL" in emitted

    def test_non_umbilical_span_is_hypothesis_failure(self, golden_text):
        text = golden_text.replace("span=2,3,4 xi=3:-1", "span=1,2,4")
        report = run_pipeline(parse_manifold_file(text))
        assert report.exit_code == 4
        h = report.data["hypersurfaces"][0]
        assert h["status"] == "hypothesis_failure"
        assert h["radical_transversal"]["b"] == "-1"
        assert h["umbilical"]["holds"] is False
        assert h["umbilical"]["witness"]["field"] == "X2"
        assert h["umbilical"]["witness"]["shape_image_combo"] == "-2*X4"
        assert "audit" not in h
        assert "flags" not in h

    def test_failing_block_does_not_stop_others(self, golden_text):
        text = golden_text.replace(
            "HYPERSURFACE metric=assoc span=2,3,4 xi=3:-1",
            "HYPERSURFACE metric=assoc span=1,2,4\n"
            "HYPERSURFACE metric=assoc span=2,3,4 xi=3:-1",
        )
        report = run_pipeline(parse_manifold_file(text))
        assert report.exit_code == 4
        blocks = report.data["hypersurfaces"]
        assert blocks[0]["status"] == "hypothesis_failure"
        assert blocks[1]["status"] == "ok"
        assert blocks[1]["audit"]["consistent"] is True

    def test_non_radical_transversal_is_hypothesis_failure(self):
        # block-form J with a hyperbolic-plane metric: the radical of the
        # chosen span is mapped by J into the tangent space, so the
        # radical-transversal condition fails and the screen is not
        # J-invariant either
        text = (
            "DIM 4\n"
            "METRIC 1 3 = 1\n"
            "METRIC 2 4 = -1\n"
            "J 1 = 2:1\n"
            "J 2 = 1:-1\n"
            "J 3 = 4:1\n"
            "J 4 = 3:-1\n"
            "HYPERSURFACE metric=principal span=1,2,3\n"
        )
        report = run_pipeline(parse_manifold_file(text))
        assert report.exit_code == 4
        h = report.data["hypersurfaces"][0]
        assert h["radical_transversal"] == {
            "holds": False,
            "b": None,
            "screen_holomorphic": False,
        }
        assert h["status"] == "hypothesis_failure"
        assert "radical" in h["detail"]

    def test_non_subalgebra_span_is_hypothesis_failure(self, golden_text):
        text = golden_text.replace("span=2,3,4 xi=3:-1", "span=1,3,4")
        report = run_pipeline(parse_manifold_file(text))
        assert report.exit_code == 4
        h = report.data["hypersurfaces"][0]
        assert h["status"] == "hypothesis_failure"
        assert "subalgebra" in h["detail"]

    def test_nondegenerate_block_reports_raw_normal(self, golden_text):
        text = golden_text.replace("metric=assoc span=2,3,4 xi=3:-1", "metric=principal span=2,3,4")
        report = run_pipeline(parse_manifold_file(text))
        assert report.exit_code == 4
        h = report.data["hypersurfaces"][0]
        assert h["normal_direction"] == ["1", "0", "0", "0"]
        assert "no unit normalization" in h["normal_note"]

    def test_ambient_only_report(self, golden_text):
        text = "\n".join(
            line for line in golden_text.splitlines() if not line.startswith("HYPERSURFACE")
        )
        report = run_pipeline(parse_manifold_file(text))
        assert report.exit_code == 0
        assert report.data["hypersurfaces"] == []


class TestCli:
    def test_check_text(self, tmp_path, golden_text, capsys):
        path = tmp_path / "m.mf"
        path.write_text(golden_text)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "totally umbilical: rho = -2" in out

    def test_check_structured_to_file(self, tmp_path, golden_text):
        path = tmp_path / "m.mf"
        out_path = tmp_path / "report.json"
        path.write_text(golden_text)
        code = main(["check", str(path), "--report", "structured", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["status"] == "ok"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.mf"
        path.write_text("DIM 4\nMETRIC 1 1 = 1/0\n")
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_ambient_internal_inconsistency_text_report(
        self, tmp_path, golden_text, monkeypatch, capsys
    ):
        from nordenlight import pipeline
        from nordenlight.errors import InternalInconsistency

        def fail(spec, ns):
            raise InternalInconsistency("the curvature-type tensors pi1 - pi2 and pi3 are dependent")

        monkeypatch.setattr(pipeline, "build_ambient_geometry", fail)
        path = tmp_path / "m.mf"
        path.write_text(golden_text)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 5
        assert "the curvature-type tensors pi1 - pi2 and pi3 are dependent" in out
        assert out.endswith("overall status: internal_inconsistency\n")

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/path.mf"]) == 2

    def test_input_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.mf"
        path.write_bytes(b"DIM 4\n\xff\xfe\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1

    def test_unwritable_output_exits_2(self, tmp_path, golden_text, capsys):
        path, out_path = tmp_path / "m.mf", tmp_path / "missing" / "report.txt"
        path.write_text(golden_text)
        assert main(["check", str(path), "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out_path}: ") and err.count("\n") == 1
        assert not out_path.exists()

    def test_validation_failure_exit_code(self, tmp_path, golden_text, capsys):
        path = tmp_path / "m.mf"
        path.write_text(golden_text.replace("METRIC 1 1 = 1", "METRIC 1 1 = 2"))
        assert main(["check", str(path)]) == 3

    def test_installed_entry_point(self, tmp_path, golden_text):
        path = tmp_path / "m.mf"
        path.write_text(golden_text)
        proc = subprocess.run(
            [sys.executable, "-m", "nordenlight.cli", "check", str(path), "--report", "structured"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["status"] == "ok"


class TestInputLimits:
    def test_oversized_coefficients_exit_2(self, tmp_path, golden_text, capsys):
        # the four bracket coefficients as 3000-digit integers: the curvature
        # entries would outgrow what a report can print
        huge = "7" * 3000
        text = golden_text.replace("4:-2", f"4:-{huge}").replace("4:2", f"4:{huge}")
        text = text.replace("2:2", f"2:{huge}").replace("2:-2", f"2:-{huge}")
        path = tmp_path / "m.mf"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line 6" in err and "limit of 64 bits" in err

    def test_dim_40_exits_2_at_once(self, tmp_path, capsys):
        path = tmp_path / "m.mf"
        path.write_text("DIM 40\n" + "".join(f"METRIC {i} {i} = 1\n" for i in range(1, 41)))
        start = time.perf_counter()
        assert main(["check", str(path)]) == 2
        assert time.perf_counter() - start < 0.5
        assert "line 1: dimension 40 exceeds the limit of 16" in capsys.readouterr().err

    def test_fixture_scaled_to_the_cap_emits_both_reports(self, tmp_path, golden_text, capsys):
        # bracket scaled by lam = (2^63 - 1)/(2^64 - 1): every coefficient
        # 2 lam has a 64-bit numerator and denominator
        two_lam = F(2**64 - 2, 2**64 - 1)
        text = golden_text
        for old, sign in (("4:-2", "-"), ("4:2", ""), ("2:2", ""), ("2:-2", "-")):
            text = text.replace(old, f"{old[:2]}{sign}{two_lam}")
        path = tmp_path / "m.mf"
        path.write_text(text)
        assert main(["check", str(path)]) == 0
        assert "audit: condition (iii)" in capsys.readouterr().out
        out_path = tmp_path / "report.json"
        assert main(["check", str(path), "--report", "structured", "--out", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["status"] == "ok"
        assert doc["ambient"]["constant_curvatures"]["nu"] == str(two_lam**2)
        assert doc["hypersurfaces"][0]["audit"]["consistent"] is True


class TestRouteDisagreement:
    """Each route cross-check names the first differing 1-based index, in
    product order, and both values."""

    def test_curvature_routes(self, golden_mf, monkeypatch):
        from nordenlight import pipeline

        closed_form = pipeline.induced_curvature_closed_form

        def perturbed(frame, sf, amb):
            table = closed_form(frame, sf, amb)
            entries = list(table.entries)
            entries[((0 * 3 + 2) * 3 + 2) * 3 + 0] += 1  # R(E1, E3)E3, first component
            return DenseTensor.from_entries(table.dims, entries)

        monkeypatch.setattr(pipeline, "induced_curvature_closed_form", perturbed)
        report = run_pipeline(golden_mf)
        assert report.exit_code == 5
        detail = report.data["hypersurfaces"][0]["detail"]
        assert detail == (
            "gauss and closed-form curvature routes disagree at (1,3,3,1): gauss -4, closed form -3"
        )
        assert detail in emit_report(report, "text")

    # the associated-metric pi relations follow from two n x n identities,
    # g~ = gJ and g~J = -g; each test changes the Norden structure after
    # validation so that one of them fails

    def test_pi_relation_associated_metric_is_gj(self, golden_mf, monkeypatch):
        # g~ with one entry moved: asymmetric, so the Kaehler check skips its
        # connection-difference cross-check and the identity g~ = gJ fails
        from nordenlight import pipeline

        build = pipeline.build_ambient_geometry

        def perturbed(spec, ns):
            rows = [list(row) for row in nested(ns.g_assoc)]
            rows[0][1] += F(1, 3)
            return build(spec, replace(ns, g_assoc=tensor_from_rows(rows)))

        monkeypatch.setattr(pipeline, "build_ambient_geometry", perturbed)
        report = run_pipeline(golden_mf)
        assert report.exit_code == 5
        detail = report.data["ambient"]["detail"]
        assert detail == "associated metric does not equal gJ at (1,2): g(JX,Y) 1/3, g(X,JY) 0"
        assert detail in emit_report(report, "text")

    def test_pi_relation_associated_metric_times_j_is_minus_g(self, golden_mf, monkeypatch):
        # J doubled, and g~ = gJ with it: J stays parallel and g~ = gJ
        # holds, but g~J = -4 g
        from nordenlight import pipeline
        from nordenlight.ambient import norden_structure

        build = pipeline.build_ambient_geometry

        def perturbed(spec, ns):
            return build(spec, norden_structure(ns.g, tensor_scale(ns.j, 2)))

        monkeypatch.setattr(pipeline, "build_ambient_geometry", perturbed)
        report = run_pipeline(golden_mf)
        assert report.exit_code == 5
        detail = report.data["ambient"]["detail"]
        assert detail == (
            "associated metric composed with J does not equal -g at (1,1): g(JX,JY) -4, -g(X,Y) -1"
        )
        assert detail in emit_report(report, "text")

    def test_ricci_routes(self, golden_mf, monkeypatch):
        from nordenlight import symmetry

        split = symmetry.ricci_from_ambient_decomposition

        def perturbed(*args):
            rows = [list(row) for row in nested(split(*args))]
            rows[1][2] += F(1, 2)
            return tensor_from_rows(rows)

        monkeypatch.setattr(symmetry, "ricci_from_ambient_decomposition", perturbed)
        report = run_pipeline(golden_mf)
        assert report.exit_code == 5
        assert report.data["hypersurfaces"][0]["detail"] == (
            "Ricci routes disagree beyond the documented sign note at (2,3): "
            "canonical 0, ambient split 1/2"
        )

    def test_ricci_closed_form_route(self, golden_mf, monkeypatch):
        from nordenlight import symmetry

        closed_form = symmetry.closed_form_ricci

        def perturbed(*args):
            rows = [list(row) for row in nested(closed_form(*args))]
            rows[0][0] -= 1
            return tensor_from_rows(rows)

        monkeypatch.setattr(symmetry, "closed_form_ricci", perturbed)
        report = run_pipeline(golden_mf)
        assert report.exit_code == 5
        detail = report.data["hypersurfaces"][0]["detail"]
        assert detail == (
            "Ricci routes disagree beyond the documented sign note at (1,1): canonical 8, closed form 7"
        )
        assert detail in emit_report(report, "text")


def test_kaehler_disagreement_is_an_ambient_internal_inconsistency(monkeypatch):
    # the Koszul connection of g~ moved by one entry: J stays parallel, so the
    # parallel-J test passes while the connection difference is nonzero
    from nordenlight import ambient
    from nordenlight.manifold_file import norden_from_file

    mf = parse_manifold_file((FIXTURES / "family_h3.mf").read_text(encoding="utf-8"))
    g_assoc, koszul = norden_from_file(mf).g_assoc, ambient.koszul_connection

    def perturbed(spec, metric):
        table = koszul(spec, metric)
        if metric != g_assoc:
            return table
        entries = list(table.entries)
        entries[0] += 1
        return DenseTensor.from_entries(table.dims, entries)

    monkeypatch.setattr(ambient, "koszul_connection", perturbed)
    report = run_pipeline(mf)
    message = "parallel-J test and connection-difference test disagree on validated input"
    assert report.exit_code == 5
    assert json.loads(emit_report(report, "structured"))["ambient"] == {"detail": message}
    assert f"\n[ambient]\n{message}\n" in emit_report(report, "text")
    assert report_digests(report) == {
        "exit_code": 5,
        "structured": "49936db2b8eafc6933b16976431fb9f2d547f95ec7b062bc3f5e3203241b6f14",
        "text": "3eba523f0f3119528f5f3ac72d8da38b876198ad3e3f18334aece73b745b81cf",
    }


def test_ambient_ricci_entry_fails_the_closed_form(monkeypatch):
    # family_h3 fits nu = 4 and nu_assoc = 0, and no block reads the ambient
    # Ricci entry (1,2); the closed form 2(h-1)(nu g - nu_assoc gJ) of every
    # constant fit names the moved entry
    from nordenlight import ambient

    trace = ambient.ricci_trace

    def perturbed(r13):
        rows = [list(row) for row in nested(trace(r13))]
        rows[0][1] += 1
        return tensor_from_rows(rows)

    monkeypatch.setattr(ambient, "ricci_trace", perturbed)
    report = run_pipeline(parse_manifold_file((FIXTURES / "family_h3.mf").read_text(encoding="utf-8")))
    message = "ambient Ricci closed form fails at (1,2): Ricci 1, closed form 0"
    assert report.exit_code == 5
    assert report.data["ambient"] == {"detail": message}
    assert f"\n[ambient]\n{message}\n" in emit_report(report, "text")


def _failing_semi_symmetric(real):
    return FlagResult(False, (1, 2, 1, 3, 4), DenseTensor.from_entries((5,), [F(-4, 3), 0, 0, 0, 0]))


def _infeasible_einstein(real):
    return EinsteinFit("infeasible", None, None, (), (1, 2))


def _parametric_einstein(real):
    return replace(real, kind="parametric", nullspace=(DenseTensor.from_entries((2,), [1, -1]),))


@pytest.mark.parametrize(
    "checker,force,lines,digests",
    [
        (
            "semi_symmetric_check",
            _failing_semi_symmetric,
            ("semi-symmetric: no;", "consistent: no"),
            {
                "exit_code": 0,
                "structured": "9657b9903dc1c14b12f463b41ec1d138fb7d32f925e2952633e676ab166ce644",
                "text": "b78536e8f7e0b52322902edfebf7d8dcfb034d60219a23c88060ab94f0c99719",
            },
        ),
        (
            "almost_einstein_fit",
            _infeasible_einstein,
            ("almost einstein: infeasible", "consistent: no"),
            {
                "exit_code": 0,
                "structured": "0bdcf791e310fe5c59824ea8ffa66b9b8ee5771493b447683b7e04ce97c32faa",
                "text": "050fc7c3d3a162bfbabfbe6b99572970cbb9f02e2baa465dd30b62951c251142",
            },
        ),
        (
            "almost_einstein_fit",
            _parametric_einstein,
            ("almost einstein: k = 16, c = 0 (family)", "consistent: yes"),
            {
                "exit_code": 0,
                "structured": "070a9eeb32d1d298df0feca109b8635803c3398854a0ac38532d0e855cdcc9fc",
                "text": "fa2e9da1bf63207d161fcd0cee739962231e5c52dab7070c100da822cdee828b",
            },
        ),
    ],
    ids=["failing_flag", "infeasible_einstein", "parametric_einstein"],
)
def test_forced_block_branches(checker, force, lines, digests, monkeypatch):
    # a failing flag and an infeasible or parametric Einstein fit cannot come
    # from geometric input (tau = 0 forces K = rho^2 / b); each is forced on
    # the family at h = 3 by replacing one checker's result
    from nordenlight import pipeline

    real = getattr(pipeline, checker)
    monkeypatch.setattr(pipeline, checker, lambda *args: force(real(*args)))
    report = run_pipeline(parse_manifold_file((FIXTURES / "family_h3.mf").read_text(encoding="utf-8")))
    text = emit_report(report, "text")
    assert all(line in text for line in lines)
    assert report_digests(report) == digests


@pytest.mark.parametrize(
    "text,forced,reports,geometry,stop",
    [
        (family_text(3) + "BRACKET 2 5 = 1:1\n", False, [False], False, (ValidationFailure, 3)),
        (invalid_family_text("metric_scaled"), False, [True, False], False, (ValidationFailure, 3)),
        (invalid_family_text("kaehler"), False, [True, True], False, (ValidationFailure, 3)),
        (family_text(3), True, [True, True], False, (InternalInconsistency, 5)),
        (family_text(3), False, [True, True], True, None),
    ],
    ids=["jacobi_broken_h3", "invalid_metric_scaled_h3", "invalid_kaehler_h3", "forced_inconsistency", "family_h3"],
)
def test_ambient_run_record(text, forced, reports, geometry, stop, monkeypatch):
    # the validation reports run in order, the norden one only after the
    # bracket passed; the geometry is kept unless a failure stopped the run
    from nordenlight import pipeline
    from nordenlight.manifold_file import lie_algebra_spec, norden_from_file

    def fail(spec, ns):
        raise InternalInconsistency("the curvature-type tensors pi1 - pi2 and pi3 are dependent")

    if forced:
        monkeypatch.setattr(pipeline, "build_ambient_geometry", fail)
    mf = parse_manifold_file(text)
    run = pipeline.run_ambient(lie_algebra_spec(mf), norden_from_file(mf))
    assert list(run.validation) == ["lie_algebra", "norden"][: len(reports)]
    assert [report.ok for report in run.validation.values()] == reports
    assert (run.amb is not None) == geometry
    assert run.stop is None if stop is None else (type(run.stop), run.stop.exit_code) == stop


def test_asymmetric_second_fundamental_form_fails_a_frame_identity(golden_mf, monkeypatch):
    # gauss_weingarten leaves B unchecked: the frame identities the report
    # lists catch an asymmetric B, and umbilical_test finds no witness for it
    from nordenlight import pipeline

    gauss_weingarten = pipeline.gauss_weingarten

    def perturbed(frame, amb):
        sf = gauss_weingarten(frame, amb)
        rows = [list(row) for row in nested(sf.b_form)]
        rows[0][2] += 1
        return replace(sf, b_form=tensor_from_rows(rows))

    monkeypatch.setattr(pipeline, "gauss_weingarten", perturbed)
    report = run_pipeline(golden_mf)
    assert report.exit_code == 5
    (block,) = report.data["hypersurfaces"]
    assert block["detail"] == "frame identity failed: second_fundamental_symmetric"
    assert block["identities"][0] == {"name": "second_fundamental_symmetric", "ok": False, "witness": [1, 3]}
    assert "frame identities: FAILED" in emit_report(report, "text")


def test_full_path_block_applies_j_five_times(golden, golden_mf, monkeypatch):
    # construct_transversal decides b from J xi and the frame keeps its memos:
    # J xi, J E_a (the holomorphy check), J(P E_a), J(A_N E_a) and J of the
    # screen connection are each built once
    from nordenlight.ambient import NordenStructure
    from nordenlight.manifold_file import hypersurface_specs
    from nordenlight.pipeline import run_block

    apply_j_rows, calls = NordenStructure.apply_j_rows, []

    def counted(self, vectors):
        calls.append(len(vectors[0]))
        return apply_j_rows(self, vectors)

    monkeypatch.setattr(NordenStructure, "apply_j_rows", counted)
    run = run_block(hypersurface_specs(golden_mf)[0], golden[2])
    assert run.stop is None and run.audit.consistent
    assert len(calls) == 5
