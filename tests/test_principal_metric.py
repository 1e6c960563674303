"""The principal-metric path. Every fixture induces the associated metric, so
these tests run the Norden dual of an input (`helpers.principal_dual_text`),
whose block induces the principal metric on the same hypersurface, and pin
how its report relates to the original's and both closed-form hypothesis
messages."""

from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import conjugated_family_text, family_text, nested, principal_dual_text, run_hypersurface
from nordenlight.ambient import TrscStatus, build_ambient_geometry
from nordenlight.errors import HypothesisFailure
from nordenlight.manifold_file import hypersurface_specs, lie_algebra_spec, norden_from_file, parse_manifold_file
from nordenlight.pipeline import run_pipeline
from nordenlight.symmetry import induced_curvature_closed_form

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

INPUTS = (
    [(f"family_h{h}", family_text(h)) for h in range(2, 6)]
    + [(f"family_h{h}_conjugated", conjugated_family_text(h)) for h in range(2, 5)]
    + [(stem, (FIXTURES / f"{stem}.mf").read_text(encoding="utf-8")) for stem in ("abelian_flat", "sl2c_borel")]
)


def report(text: str):
    out = run_pipeline(parse_manifold_file(text))
    assert out.exit_code == 0
    return out.data


@pytest.mark.parametrize("text", [text for _, text in INPUTS], ids=[name for name, _ in INPUTS])
def test_dual_swaps_the_constants_and_the_einstein_coefficients(text):
    original, dual = report(text), report(principal_dual_text(text))
    primed = original["ambient"]["associated_constants"]
    constants = dual["ambient"]["constant_curvatures"]
    assert (constants["nu"], constants["nu_assoc"]) == (primed["nu_prime"], primed["nu_assoc_prime"])
    (block,), (dual_block,) = original["hypersurfaces"], dual["hypersurfaces"]
    assert dual_block["inducing_metric"] == "principal"
    assert dual_block["classification"]["principal"] == "lightlike"
    for key in ("radical", "frame", "radical_transversal", "second_fundamental", "umbilical", "residuals", "audit"):
        assert dual_block[key] == block[key], key
    assert dual_block["induced"] == block["induced"]  # the connection, so the curvature, is the same
    flags, dual_flags = block["flags"], dual_block["flags"]
    for name in ("semi_symmetric", "ricci_semi_symmetric", "locally_symmetric"):
        assert dual_flags[name] == flags[name], name
    fit, dual_fit = flags["almost_einstein"], dual_flags["almost_einstein"]
    assert dual_fit["kind"] == fit["kind"] == "unique"
    # Ric = k g + c g~ = c g~ - k (-g): the dual's metrics are g~ and -g
    assert (F(dual_fit["k"]), F(dual_fit["c"])) == (F(fit["c"]), -F(fit["k"]))


def test_dual_of_the_h3_family_reads_the_stated_values():
    dual = report(principal_dual_text(family_text(3)))
    constants = dual["ambient"]["constant_curvatures"]
    assert (constants["nu"], constants["nu_assoc"]) == ("0", "4")
    (block,) = dual["hypersurfaces"]
    assert (block["radical_transversal"]["b"], block["umbilical"]["rho"]) == ("1", "2")
    assert block["audit"]["condition_iii"] == {"lhs": "4", "rhs": "4"}
    assert all(block["flags"][name]["holds"] for name in ("semi_symmetric", "ricci_semi_symmetric", "locally_symmetric"))
    fit = block["flags"]["almost_einstein"]
    assert (fit["kind"], fit["k"], fit["c"]) == ("unique", "0", "-16")


def test_closed_form_names_the_constant_of_the_principal_metric():
    # the associated-metric message is pinned in test_symmetry
    mf = parse_manifold_file(principal_dual_text(family_text(3)))
    amb = build_ambient_geometry(lie_algebra_spec(mf), norden_from_file(mf))
    (hs,) = hypersurface_specs(mf)
    run = run_hypersurface(amb, nested(hs.span), "principal")
    with pytest.raises(HypothesisFailure) as exc:
        induced_curvature_closed_form(run.frame, run.sf, replace(amb, trsc=TrscStatus("constant", F(3), F(4))))
    assert str(exc.value) == "inducing the principal metric requires nu = 0, got 3"
