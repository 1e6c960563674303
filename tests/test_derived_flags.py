"""The connection route and the derived semi-symmetry flags.

`run_block` checks that the Gauss-route curvature is the curvature of the
induced connection on the subalgebra's own bracket, after the torsion
identity, and then decides the two semi-symmetry flags from the
local-symmetry flag (see `symmetry`). These tests reach each new check with
a one-entry perturbation, compare the derived flags with the full scans on
every full-path block of the golden corpus and the benchmark inputs, and
check that each checker falls back to its full scan when its implying flag
fails.
"""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import family_text, golden_corpus, rebase
from nordenlight import pipeline
from nordenlight.ambient import ricci_trace
from nordenlight.exact import DenseTensor
from nordenlight.manifold_file import hypersurface_specs, lie_algebra_spec, norden_from_file, parse_manifold_file
from nordenlight.pipeline import emit_report, run_ambient, run_block, run_pipeline
from nordenlight.symmetry import (
    FlagResult,
    locally_symmetric_check,
    ricci_semi_symmetric_check,
    semi_symmetric_check,
)

ROOT = Path(__file__).resolve().parent.parent
DERIVATION_WITNESSES = ROOT / "tests" / "golden" / "derivation_witnesses.json"


def _moved(table: DenseTensor, index, delta) -> DenseTensor:
    """The table with delta added to the entry at a 0-based index."""
    offset = 0
    for d, i in zip(table.dims, index):
        offset = offset * d + i
    entries = list(table.entries)
    entries[offset] += delta
    return DenseTensor.from_entries(table.dims, entries)


def _block_detail(mf) -> str:
    report = run_pipeline(mf)
    assert report.exit_code == 5
    (block,) = report.data["hypersurfaces"]
    assert block["status"] == "internal_inconsistency"
    assert block["detail"] in emit_report(report, "text")
    return block["detail"]


def test_a_moved_bracket_entry_fails_the_torsion_check(golden_mf, monkeypatch):
    # c[1][3][3] moved from 0 to 1: the induced connection's torsion no
    # longer matches the subalgebra bracket there
    span_brackets = pipeline.span_brackets
    monkeypatch.setattr(pipeline, "span_brackets", lambda *args: _moved(span_brackets(*args), (0, 2, 2), 1))
    assert _block_detail(golden_mf) == "induced connection has torsion at (1,3,3): connection 0, bracket 1"


def test_a_bracket_leaving_the_span_fails_the_split(golden_mf, monkeypatch):
    # [X3, X4] given an X1 component after the span check passed: the split
    # of the span brackets along span + transversal meets a transversal
    # coordinate
    span_brackets = pipeline.span_brackets
    monkeypatch.setattr(
        pipeline, "span_brackets", lambda frame, brackets: span_brackets(frame, _moved(brackets, (2, 3, 0), 1))
    )
    assert _block_detail(golden_mf) == "bracket of span vectors has a transversal component"


def test_a_moved_connection_route_entry_fails_the_route_comparison(golden_mf, monkeypatch):
    connection_curvature = pipeline.connection_curvature
    monkeypatch.setattr(
        pipeline, "connection_curvature", lambda *args: _moved(connection_curvature(*args), (0, 2, 2, 0), F(1, 2))
    )
    assert _block_detail(golden_mf) == (
        "gauss and connection curvature routes disagree at (1,3,3,1): gauss -4, connection -7/2"
    )


def test_a_scaled_ambient_constant_fails_the_umbilical_residuals(monkeypatch):
    # nu and nu_assoc doubled: the constant attached to the inducing metric
    # stays 0, and b K moves off rho^2
    pde_residuals = pipeline.pde_residuals

    def scaled(sf, frame, amb):
        trsc = replace(amb.trsc, nu=2 * amb.trsc.nu, nu_assoc=2 * amb.trsc.nu_assoc)
        return pde_residuals(sf, frame, replace(amb, trsc=trsc))

    monkeypatch.setattr(pipeline, "pde_residuals", scaled)
    mf = parse_manifold_file((ROOT / "fixtures" / "family_h3.mf").read_text(encoding="utf-8"))
    assert _block_detail(mf).startswith("umbilical residuals do not vanish: radial ")


def _benchmark_texts():
    """The dense_d10 and sparse_d12 inputs of benchmark seeds 0-3."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import family
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    texts = {}
    for seed in range(4):
        rng = random.Random(f"dense_d10:{seed}")
        texts.update((f"dense_d10:{seed}:{i}", family.dense_case(rng, 5).text) for i in range(2))
        texts[f"sparse_d12:{seed}"] = family.family_case(6).text
    return texts


def test_derived_flags_equal_the_full_scans():
    # every full-path block of the golden corpus and of the benchmark inputs:
    # the pipeline's three flags (holds, witness, value) are those of the
    # checkers run with no implying flag
    texts = dict(golden_corpus())
    texts.update(_benchmark_texts())
    full_path = 0
    for name, text in texts.items():
        mf = parse_manifold_file(text)
        front = run_ambient(lie_algebra_spec(mf), norden_from_file(mf))
        if front.amb is None:
            continue
        for hs in hypersurface_specs(mf):
            run = run_block(hs, front.amb)
            if run.flags is None:
                continue
            full_path += 1
            assert run.flags.semi_symmetric == semi_symmetric_check(run.r13), name
            assert run.flags.ricci_semi_symmetric == ricci_semi_symmetric_check(run.r13, run.ricci), name
            assert run.flags.locally_symmetric == locally_symmetric_check(run.r13, run.sf.induced_gamma), name
    assert full_path >= 29, full_path


def test_each_checker_is_given_the_flag_that_implies_it(golden_mf, monkeypatch):
    given = {}

    def recorded(name):
        real = getattr(pipeline, name)

        def checker(*args):
            given[name] = args[-1]
            return real(*args)

        return checker

    for name in ("semi_symmetric_check", "ricci_semi_symmetric_check"):
        monkeypatch.setattr(pipeline, name, recorded(name))
    (hs,) = hypersurface_specs(golden_mf)
    run = run_block(hs, run_ambient(lie_algebra_spec(golden_mf), norden_from_file(golden_mf)).amb)
    assert given["semi_symmetric_check"] is run.flags.locally_symmetric
    assert given["ricci_semi_symmetric_check"] is run.flags.semi_symmetric


@pytest.mark.parametrize("case", ["family_h6", "dense_h5"])
def test_a_failing_given_flag_falls_back_to_the_full_scan(case):
    # the raw-table witnesses of test_properties' pinned perturbations: with
    # the failing local-symmetry flag given, each checker scans as with no
    # flag; with a holding flag given, it holds unscanned
    mf = parse_manifold_file(family_text(6 if case == "family_h6" else 5))
    run = run_block(hypersurface_specs(mf)[0], run_ambient(lie_algebra_spec(mf), norden_from_file(mf)).amb)
    table, gamma = run.r13, run.sf.induced_gamma
    if case == "dense_h5":
        p = [[F(9 - max(a, i), 2 if a == 1 else 1) for i in range(9)] for a in range(9)]
        table, gamma = rebase(table, p), rebase(gamma, p)
    failing = FlagResult(False, (1,), DenseTensor.from_entries((1,), [F(1)]))
    for pinned in json.loads(DERIVATION_WITNESSES.read_text())[case]:
        perturbed = table
        if pinned["entry"] is not None:
            i, j, k, l = pinned["entry"]
            delta = F(pinned["delta"])
            perturbed = _moved(_moved(table, (i, j, k, l), delta), (j, i, k, l), -delta)
        ricci = ricci_trace(perturbed)
        semi = semi_symmetric_check(perturbed)
        holds, witness, _ = pinned["semi"]
        assert (semi.holds, semi.witness) == (holds, None if witness is None else tuple(witness))
        assert semi_symmetric_check(perturbed, failing) == semi
        assert ricci_semi_symmetric_check(perturbed, ricci, failing) == ricci_semi_symmetric_check(perturbed, ricci)
        local = locally_symmetric_check(perturbed, gamma)
        assert local.holds == pinned["local"][0]
        assert semi_symmetric_check(perturbed, local) == semi
        assert ricci_semi_symmetric_check(perturbed, ricci, semi) == ricci_semi_symmetric_check(perturbed, ricci)
    holding = FlagResult(True)
    assert semi_symmetric_check(perturbed, holding) == holding
    assert ricci_semi_symmetric_check(perturbed, ricci, holding) == holding
