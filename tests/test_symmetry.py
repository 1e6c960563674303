import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from helpers import (
    all_hold,
    basis_span,
    bilinear,
    derivation_action_direct,
    derivation_action_expansion,
    matrix,
    nested,
    non_invariant_screen_run,
    reference_fit_witness,
    run_hypersurface,
    solve,
    tensor_from_function,
    gram,
    trace_ricci,
    unit_vector,
    vec_scale,
)
from nordenlight.ambient import TrscStatus, ricci_trace
from nordenlight.errors import HypothesisFailure, InternalInconsistency
from nordenlight.hypersurface import verify_frame_identities
from nordenlight.symmetry import (
    AuditVerdict,
    SymmetryFlags,
    almost_einstein_fit,
    closed_form_curvature,
    closed_form_ricci,
    induced_curvature_closed_form,
    induced_curvature_gauss,
    induced_ricci,
    locally_symmetric_check,
    pde_residuals,
    ricci_semi_symmetric_check,
    semi_symmetric_check,
    symmetry_equivalence_audit,
)

X1 = unit_vector(4, 0)
X3 = unit_vector(4, 2)
NEG_X3 = vec_scale(X3, F(-1))


@pytest.fixture(scope="module")
def fixture_run(golden):
    _, _, amb = golden
    return run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)


@pytest.fixture(scope="module")
def fixture_r13(golden, fixture_run):
    _, _, amb = golden
    return induced_curvature_gauss(fixture_run.sf, fixture_run.frame, amb)


def expected_fixture_curvature(golden):
    """Oracle: on the fixture the induced curvature must be
    4 [g(Y,Z) X - g(X,Z) Y] with g the induced principal metric, built here
    directly from that formula."""
    _, ns, _ = golden
    span = basis_span(4, (2, 3, 4))
    g = [[bilinear(nested(ns.g), span[a], span[b]) for b in range(3)] for a in range(3)]

    def entry(a, b, c, l):
        val = F(0)
        if l == a:
            val += 4 * g[b][c]
        if l == b:
            val -= 4 * g[a][c]
        return val

    return tensor_from_function((3, 3, 3, 3), entry)


class TestInducedCurvature:
    def test_gauss_route_single_component(self, fixture_r13):
        # R(X2, X4)X4 = -4 X2 in span order (X2, X3, X4)
        assert tuple(fixture_r13[0, 2, 2, l] for l in range(3)) == (F(-4), F(0), F(0))

    def test_gauss_route_full_table(self, golden, fixture_r13):
        assert fixture_r13 == expected_fixture_curvature(golden)

    def test_closed_form_matches_gauss(self, golden, fixture_run, fixture_r13):
        _, _, amb = golden
        closed = induced_curvature_closed_form(fixture_run.frame, fixture_run.sf, amb)
        assert closed == fixture_r13

    def test_flat_fixture_curvature_vanishes(self, abelian):
        _, _, amb, _ = abelian
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated")
        r13 = induced_curvature_gauss(run.sf, run.frame, amb)
        assert r13.is_zero()
        assert induced_curvature_closed_form(run.frame, run.sf, amb).is_zero()

    def test_zero_coefficients_give_zero_table(self, fixture_run):
        assert closed_form_curvature(fixture_run.frame, F(0), F(0)).is_zero()

    def test_doctored_umbilical_factor_breaks_route_match(self, fixture_run, fixture_r13):
        # Setting rho = -3 in the closed form only: a = 4 - 9 = -5.
        doctored = closed_form_curvature(fixture_run.frame, F(-5), F(4))
        assert doctored != fixture_r13

    def test_vanishing_precondition_enforced(self, golden, fixture_run):
        _, _, amb = golden
        bad_amb = replace(amb, trsc=TrscStatus("constant", F(4), F(-1, 2)))
        with pytest.raises(HypothesisFailure) as exc:
            induced_curvature_closed_form(fixture_run.frame, fixture_run.sf, bad_amb)
        assert str(exc.value) == "inducing the associated metric requires nu_assoc = 0, got -1/2"

    def test_screen_that_j_does_not_preserve(self):
        # J X5 = -X2 has a radical component, so J(P E_a) leaves the tangent
        # space: the closed form refuses the frame, and the frame identities
        # that read J(P E_a) or J of the screen name their first witnesses
        _, _, _, frame, sf = non_invariant_screen_run()
        with pytest.raises(InternalInconsistency) as exc:
            closed_form_curvature(frame, F(1), F(4))
        assert str(exc.value) == "J of a screen projection left the tangent space"
        failed = {c.name: c.witness for c in verify_frame_identities(sf, frame, sf.rho) if not c.ok}
        assert failed == {
            "tangential_j_decomposition": (3,),
            "shape_operator_duality": (1,),
            "fundamental_form_duality": (1,),
            "screen_connection_preserves_j": (0, 1),
            "tau_vanishes_for_constant_gauge": (4,),
            "umbilical_shape_alignment": (1,),
        }


class TestInducedRicci:
    def test_fixture_values_and_routes(self, golden, fixture_run, fixture_r13):
        _, ns, amb = golden
        ric = induced_ricci(fixture_r13, fixture_run.sf, fixture_run.frame, amb)  # raises unless the routes agree
        assert ric == closed_form_ricci(fixture_run.frame, fixture_run.sf, amb)
        ric = nested(ric)
        assert ric[0][0] == F(8)
        assert ric[0][2] == F(0)
        span = basis_span(4, (2, 3, 4))
        for a in range(3):
            for b in range(3):
                assert ric[a][b] == 8 * bilinear(nested(ns.g), span[a], span[b])
                assert ric[a][b] == ric[b][a]

    def test_flat_fixture_ricci_vanishes(self, abelian):
        _, _, amb, _ = abelian
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated")
        r13 = induced_curvature_gauss(run.sf, run.frame, amb)
        assert induced_ricci(r13, run.sf, run.frame, amb).is_zero()

    def test_trace_oracle(self, fixture_r13):
        assert nested(ricci_trace(fixture_r13)) == trace_ricci(fixture_r13)


def synthetic_table(fixture_run, a_coeff):
    return closed_form_curvature(fixture_run.frame, F(a_coeff), F(4))


class TestSymmetryCheckers:
    def test_fixture_flags_true(self, fixture_r13, fixture_run):
        assert semi_symmetric_check(fixture_r13).holds
        ric = ricci_trace(fixture_r13)
        assert ricci_semi_symmetric_check(fixture_r13, ric).holds
        assert locally_symmetric_check(fixture_r13, fixture_run.sf.induced_gamma).holds

    def test_flat_flags_true(self, abelian):
        _, _, amb, _ = abelian
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated")
        r13 = induced_curvature_gauss(run.sf, run.frame, amb)
        assert semi_symmetric_check(r13).holds
        assert ricci_semi_symmetric_check(r13, ricci_trace(r13)).holds
        assert locally_symmetric_check(r13, run.sf.induced_gamma).holds

    def test_synthetic_semi_symmetry_fails_with_sound_witness(self, fixture_run):
        table = synthetic_table(fixture_run, 1)
        flag = semi_symmetric_check(table)
        assert not flag.holds
        x, y, u, v, w = (i - 1 for i in flag.witness)
        direct = derivation_action_direct(table, x, y, u, v, w)
        assert direct == flag.value.entries
        assert any(t != 0 for t in direct)

    def test_synthetic_ricci_semi_symmetry_fails_with_sound_witness(self, fixture_run):
        table = synthetic_table(fixture_run, 1)
        ric = ricci_trace(table)
        flag = ricci_semi_symmetric_check(table, ric)
        assert not flag.holds
        x, y, u, v = (i - 1 for i in flag.witness)
        t, ric = nested(table), nested(ric)
        val = -sum(t[x][y][u][k] * ric[k][v] for k in range(3)) - sum(
            ric[u][k] * t[x][y][v][k] for k in range(3)
        )
        assert (val,) == flag.value.entries and val != 0

    def test_synthetic_local_symmetry_fails_with_sound_witness(self, fixture_run):
        table = synthetic_table(fixture_run, 1)
        flag = locally_symmetric_check(table, fixture_run.sf.induced_gamma)
        assert not flag.holds
        u, x, y, z = (i - 1 for i in flag.witness)
        gm = nested(fixture_run.sf.induced_gamma)
        t = nested(table)
        val = [F(0)] * 3
        for k in range(3):
            val_k = t[x][y][z][k]
            for q in range(3):
                val[q] += val_k * gm[u][k][q]
                val[q] -= gm[u][x][k] * t[k][y][z][q]
                val[q] -= gm[u][y][k] * t[x][k][z][q]
                val[q] -= gm[u][z][k] * t[x][y][k][q]
        assert tuple(val) == flag.value.entries
        assert any(v != 0 for v in val)

    def test_synthetic_with_zero_coefficient_passes(self, fixture_run):
        table = synthetic_table(fixture_run, 0)
        assert semi_symmetric_check(table).holds
        assert ricci_semi_symmetric_check(table, ricci_trace(table)).holds
        assert locally_symmetric_check(table, fixture_run.sf.induced_gamma).holds


class TestDerivationExpansionOracle:
    @pytest.mark.parametrize("a_coeff", [F(0), F(1), F(-3, 2)])
    def test_expansion_matches_direct_evaluation(self, golden, fixture_run, a_coeff):
        _, _, amb = golden
        table = closed_form_curvature(fixture_run.frame, a_coeff, F(4))
        expansion = derivation_action_expansion(fixture_run.frame, amb, a_coeff, F(4))
        for x, y, u, v, w in product(range(3), repeat=5):
            assert derivation_action_direct(table, x, y, u, v, w) == expansion(
                x, y, u, v, w
            )


def induced_metrics(ns, span):
    return gram(nested(ns.g), span), gram(nested(ns.g_assoc), span)


def einstein_fit(ricci, g, ga):
    """`almost_einstein_fit` of rational matrices or tables."""
    return almost_einstein_fit(matrix(ricci), matrix(g), matrix(ga))


def einstein_witness(ricci, g, ga):
    """`reference_fit_witness` of Ric = k g + c g~ as a 1-based index pair."""
    offset = reference_fit_witness([matrix(g).entries, matrix(ga).entries], matrix(ricci).entries)
    return None if offset is None else tuple(i + 1 for i in divmod(offset, len(ricci)))


class TestAlmostEinstein:
    def test_fixture_fit(self, golden, fixture_r13):
        _, ns, _ = golden
        g, ga = induced_metrics(ns, basis_span(4, (2, 3, 4)))
        fit = einstein_fit(ricci_trace(fixture_r13), g, ga)
        assert fit.kind == "unique"
        assert (fit.k, fit.c) == (F(8), F(0))

    def test_flat_fit_contains_zero(self, abelian):
        _, ns, amb, _ = abelian
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated")
        r13 = induced_curvature_gauss(run.sf, run.frame, amb)
        g, ga = induced_metrics(ns, basis_span(4, (2, 3, 4)))
        fit = einstein_fit(ricci_trace(r13), g, ga)
        assert fit.feasible
        assert (fit.k, fit.c) == (F(0), F(0))

    def test_entry_outside_span_infeasible(self, golden):
        _, ns, _ = golden
        g, ga = induced_metrics(ns, basis_span(4, (2, 3, 4)))
        ric = [[F(0)] * 3 for _ in range(3)]
        ric[1][1] = F(1)  # no combination of g and g~ touches this slot alone
        ric = tuple(tuple(r) for r in ric)
        fit = einstein_fit(ric, g, ga)
        assert fit.kind == "infeasible"
        assert fit.witness == einstein_witness(ric, g, ga) == (2, 2)

    def test_infeasible_witness_matches_the_prefix_scan(self):
        # seeded systems Ric = k g + c g~ with some entries moved: the one
        # elimination must name the pair that one solve per prefix names;
        # every seventh system stays as built, and its fit (unique, or a
        # family when g~ = 2 g) must be the solve of all m^2 component rows
        rng = random.Random(9105)
        witnesses = set()
        kinds = set()
        for trial in range(150):
            m = 2 + trial % 5

            def q(density):
                return F(rng.randint(-4, 4), rng.choice((1, 2, 3))) if rng.random() < density else F(0)

            density = (0.3, 0.7, 1.0)[trial % 3]
            g = [[q(density) for _ in range(m)] for _ in range(m)]
            ga = [[q(density) for _ in range(m)] for _ in range(m)]
            if trial % 4 == 0:  # dependent metrics
                ga = [[2 * x for x in row] for row in g]
            k, c = q(1), q(1)
            ric = [[k * x + c * y for x, y in zip(rg, ra)] for rg, ra in zip(g, ga)]
            if trial % 7 == 3:
                fit = einstein_fit(ric, g, ga)
                pairs = list(product(range(m), repeat=2))
                sol = solve([(g[a][b], ga[a][b]) for a, b in pairs], [ric[a][b] for a, b in pairs])
                assert fit.kind == sol.kind != "infeasible", trial
                assert (fit.k, fit.c) == sol.particular, trial
                assert tuple(v.entries for v in fit.nullspace) == sol.nullspace, trial
                kinds.add(fit.kind)
                continue
            for _ in range(1 + trial % 3):
                ric[rng.randrange(m)][rng.randrange(m)] += F(rng.choice((-1, 1)), rng.choice((1, 2)))
            fit = einstein_fit(ric, g, ga)
            if fit.kind == "infeasible":
                witnesses.add(fit.witness)
                assert fit.witness == einstein_witness(ric, g, ga), trial
        assert len(witnesses) > 12
        assert kinds == {"unique", "parametric"}

    def test_synthetic_nonzero_coefficient_infeasible(self, golden, fixture_run):
        _, ns, _ = golden
        table = synthetic_table(fixture_run, 1)
        g, ga = induced_metrics(ns, basis_span(4, (2, 3, 4)))
        assert einstein_fit(ricci_trace(table), g, ga).kind == "infeasible"

    def test_dependent_metrics_give_a_family(self):
        # raw tables with g~ = 2 g: the fit is a one-parameter family and is
        # reported as such, never collapsed
        g = ((F(1), F(0)), (F(0), F(-1)))
        ga = ((F(2), F(0)), (F(0), F(-2)))
        ric = ((F(4), F(0)), (F(0), F(-4)))
        fit = einstein_fit(ric, g, ga)
        assert fit.kind == "parametric"
        assert fit.k + 2 * fit.c == F(4)
        assert len(fit.nullspace) == 1
        null_k, null_c = fit.nullspace[0].entries
        assert null_k + 2 * null_c == 0


class TestResiduals:
    def test_fixture_residuals_vanish(self, golden, fixture_run):
        _, _, amb = golden
        res = pde_residuals(fixture_run.sf, fixture_run.frame, amb)
        assert res.radial == 0
        assert res.screen_directions.is_zero()

    def test_flat_residuals_vanish(self, abelian):
        _, _, amb, _ = abelian
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated")
        res = pde_residuals(run.sf, run.frame, amb)
        assert res.radial == 0

    def test_gauge_rescaled_residuals_vanish(self, golden, fixture_run):
        from helpers import gauge_rescale

        _, _, amb = golden
        frame2, sf2 = gauge_rescale(fixture_run.frame, fixture_run.sf, F(2))
        assert (frame2.b, sf2.rho) == (F(4), F(-4))
        res = pde_residuals(sf2, frame2, amb)
        assert res.radial == 0 and res.screen_directions.is_zero()


def flags_from_table(table, gamma, g, ga):
    ric = ricci_trace(table)
    return SymmetryFlags(
        semi_symmetric_check(table),
        ricci_semi_symmetric_check(table, ric),
        locally_symmetric_check(table, gamma),
        einstein_fit(ric, g, ga),
    )


class TestEquivalenceAudit:
    def test_fixture_consistent(self, golden, fixture_run, fixture_r13):
        _, ns, amb = golden
        g, ga = induced_metrics(ns, basis_span(4, (2, 3, 4)))
        flags = flags_from_table(fixture_r13, fixture_run.sf.induced_gamma, g, ga)
        verdict = symmetry_equivalence_audit(
            flags, "associated", amb.trsc, fixture_run.sf.rho, fixture_run.frame.b
        )
        assert verdict.applicable
        assert (verdict.lhs, verdict.rhs) == (F(4), F(4))
        assert verdict.condition_holds and verdict.consistent

    def test_flat_not_applicable(self, abelian):
        _, ns, amb, _ = abelian
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated")
        r13 = induced_curvature_gauss(run.sf, run.frame, amb)
        g, ga = induced_metrics(ns, basis_span(4, (2, 3, 4)))
        flags = flags_from_table(r13, run.sf.induced_gamma, g, ga)
        assert all_hold(flags)
        verdict = symmetry_equivalence_audit(
            flags, "associated", amb.trsc, run.sf.rho, run.frame.b
        )
        assert not verdict.applicable
        assert verdict.consistent is None

    def test_synthetic_negative_instance_consistent(self, golden, fixture_run):
        # rho = -3 against b = 1: the scalar condition fails (4 != 9) and the
        # synthetic table with a = -5 fails every flag; the equivalence is
        # preserved in the negative.
        _, ns, amb = golden
        table = synthetic_table(fixture_run, -5)
        g, ga = induced_metrics(ns, basis_span(4, (2, 3, 4)))
        flags = flags_from_table(table, fixture_run.sf.induced_gamma, g, ga)
        assert not all_hold(flags)
        assert not flags.semi_symmetric.holds
        assert not flags.ricci_semi_symmetric.holds
        assert not flags.locally_symmetric.holds
        assert not flags.almost_einstein.feasible
        verdict = symmetry_equivalence_audit(flags, "associated", amb.trsc, F(-3), F(1))
        assert verdict.applicable
        assert (verdict.lhs, verdict.rhs) == (F(4), F(9))
        assert verdict.condition_holds is False
        assert verdict.consistent is True


GAUGE_NOTE = (
    "gauge scalars are frame constants, so the locally-symmetric and "
    "almost-Einstein equivalences are always in force"
)


@pytest.mark.parametrize(
    "stage,missing,expected",
    [
        ("closed_form", "trsc", "closed-form curvature needs constant ambient curvatures"),
        ("closed_form", "rho", "closed-form curvature needs a totally umbilical frame"),
        ("residuals", "trsc", "residual check needs constant ambient curvatures"),
        ("residuals", "rho", "residual check needs a totally umbilical frame"),
        ("audit", "trsc", AuditVerdict(False, None, None, None, None, (GAUGE_NOTE, "ambient curvatures not constant"))),
    ],
)
def test_stages_without_a_constant_fit_or_rho(golden, fixture_run, fixture_r13, stage, missing, expected):
    # the fixture's block with the constant fit or rho taken away: the closed
    # form and the residual check refuse it, and the audit does not apply
    _, ns, amb = golden
    frame, sf = fixture_run.frame, fixture_run.sf
    if missing == "trsc":
        amb = replace(amb, trsc=TrscStatus("not_constant", None, None))
    else:
        sf = replace(sf, rho=None)

    def audit():
        flags = flags_from_table(fixture_r13, sf.induced_gamma, *induced_metrics(ns, basis_span(4, (2, 3, 4))))
        return symmetry_equivalence_audit(flags, "associated", amb.trsc, sf.rho, frame.b)

    stages = {
        "closed_form": lambda: induced_curvature_closed_form(frame, sf, amb),
        "residuals": lambda: pde_residuals(sf, frame, amb),
        "audit": audit,
    }
    try:
        outcome = stages[stage]()
    except HypothesisFailure as exc:
        outcome = str(exc)
    assert outcome == expected
