from dataclasses import replace
from fractions import Fraction as F

import pytest

from helpers import (
    basis_span,
    bilinear,
    frame_tables,
    gauge_rescale,
    hyper_spec,
    matrix,
    nested,
    run_hypersurface,
    unit_vector,
    vec_scale,
    vector,
)
from nordenlight.errors import HypothesisFailure, InternalInconsistency
from nordenlight.hypersurface import (
    construct_screen,
    construct_transversal,
    induce_and_classify,
    radical_transversal_check,
    umbilical_test,
    validate_span,
    verify_frame_identities,
)

X1 = unit_vector(4, 0)
X2 = unit_vector(4, 1)
X3 = unit_vector(4, 2)
X4 = unit_vector(4, 3)
NEG_X3 = vec_scale(X3, F(-1))


class TestClassify:
    def test_associated_span_234_is_lightlike(self, golden):
        _, _, amb = golden
        cls = induce_and_classify(hyper_spec(basis_span(4, (2, 3, 4)), "associated"), amb)
        assert cls.kind == "lightlike"
        assert nested(cls.radical_ambient) == X3

    def test_principal_span_234_is_nondegenerate(self, golden):
        _, _, amb = golden
        cls = induce_and_classify(hyper_spec(basis_span(4, (2, 3, 4)), "principal"), amb)
        assert cls.kind == "nondegenerate"
        assert nested(cls.gram) == ((F(1), F(0), F(0)), (F(0), F(-1), F(0)), (F(0), F(0), F(-1)))
        assert nested(cls.normal_direction) == X1

    def test_associated_span_124_is_lightlike(self, golden):
        _, _, amb = golden
        cls = induce_and_classify(hyper_spec(basis_span(4, (1, 2, 4)), "associated"), amb)
        assert cls.kind == "lightlike"
        assert nested(cls.radical_ambient) == X1

    def test_span_must_be_subalgebra(self, golden):
        _, _, amb = golden
        # {X1, X3, X4} brackets produce X2 components; not closed.
        hs = hyper_spec(basis_span(4, (1, 3, 4)), "associated")
        with pytest.raises(HypothesisFailure, match="subalgebra"):
            validate_span(hs, amb)

    def test_dependent_span_rejected(self, golden):
        _, _, amb = golden
        hs = hyper_spec((X2, X2, X4), "associated")
        with pytest.raises(HypothesisFailure, match="dependent"):
            validate_span(hs, amb)


class TestScreen:
    def test_fixture_screen(self, golden):
        _, _, amb = golden
        hs = hyper_spec(basis_span(4, (2, 3, 4)), "associated")
        cls = induce_and_classify(hs, amb)
        indices = construct_screen(hs, cls)
        assert indices == (0, 2)  # X2 and X4 inside the span

    def test_deterministic_pick_on_flat_fixture(self, abelian):
        _, _, amb, _ = abelian
        hs = hyper_spec(basis_span(4, (2, 3, 4)), "associated")
        cls = induce_and_classify(hs, amb)
        assert construct_screen(hs, cls) == (0, 2)

    def test_alternative_order_gives_valid_screen(self, golden):
        _, _, amb = golden
        hs = hyper_spec(basis_span(4, (4, 3, 2)), "associated")
        cls = induce_and_classify(hs, amb)
        indices = construct_screen(hs, cls)
        assert indices == (0, 2)  # now X4 first, X2 second
        run = run_hypersurface(amb, hs.span, "associated")
        assert run.frame.b is not None and run.umb.umbilical
        # the canonical section is +X3 here, so rho flips sign; the gauge
        # invariant rho^2 / b is what must be preserved
        assert run.sf.rho ** 2 / run.frame.b == F(4)


class TestTransversal:
    def test_fixture_transversal(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        assert nested(run.frame.xi) == NEG_X3
        assert nested(run.frame.transversal) == X1

    def test_rescaled_section_halves_transversal(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", vec_scale(X3, F(-2)))
        assert nested(run.frame.transversal) == vec_scale(X1, F(1, 2))

    def test_defining_conditions_replayed(self, golden):
        _, ns, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        g, transversal = nested(ns.g_assoc), nested(run.frame.transversal)
        assert bilinear(g, transversal, nested(run.frame.xi)) == 1
        assert bilinear(g, transversal, transversal) == 0
        span = nested(run.frame.span)
        assert all(bilinear(g, transversal, span[i]) == 0 for i in run.frame.screen_indices)

    def test_bad_hint_rejected(self, golden):
        _, _, amb = golden
        hs = hyper_spec(basis_span(4, (2, 3, 4)), "associated", X2)
        cls = induce_and_classify(hs, amb)
        screen = construct_screen(hs, cls)
        with pytest.raises(HypothesisFailure, match="radical"):
            construct_transversal(hs, amb, cls, screen)


class TestRadicalTransversal:
    def test_fixture_gauge_factor(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        assert run.frame.b == F(1)
        assert radical_transversal_check(run.frame)  # the screen is J-invariant

    def test_rescaled_section_squares_factor(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", vec_scale(X3, F(-2)))
        assert run.frame.b == F(4)

    def test_negative_span_factor(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (1, 2, 4)), "associated", X1)
        assert run.frame.b == F(-1)
        assert nested(run.frame.transversal) == NEG_X3


class TestGaussWeingarten:
    def test_fixture_shape_operator_and_tau(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        a_star_xi = nested(run.sf.a_star_xi)
        # span order (X2, X3, X4): shape images -2 X2 and -2 X4
        assert a_star_xi[0] == (F(-2), F(0), F(0))
        assert a_star_xi[2] == (F(0), F(0), F(-2))
        assert a_star_xi[1] == (F(0), F(0), F(0))
        assert nested(run.sf.tau) == (F(0), F(0), F(0))

    def test_fixture_b_table(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        expected = (
            (F(0), F(0), F(2)),
            (F(0), F(0), F(0)),
            (F(2), F(0), F(0)),
        )
        assert nested(run.sf.b_form) == expected

    def test_flat_fixture_is_totally_geodesic(self, abelian):
        _, _, amb, _ = abelian
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated")
        assert all(x == 0 for row in nested(run.sf.b_form) for x in row)
        assert all(x == 0 for v in nested(run.sf.a_star_xi) for x in v)
        assert run.umb.umbilical and run.umb.rho == F(0)


class TestUmbilical:
    def test_fixture_factor(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        assert run.umb.umbilical
        assert run.umb.rho == F(-2)

    def test_negative_span_witness(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (1, 2, 4)), "associated", X1)
        assert not run.umb.umbilical
        # witness: the shape image of X2 is -2 X4, not proportional to X2
        assert nested(run.frame.span)[run.umb.witness_index] == X2
        assert nested(run.umb.witness_image) == vec_scale(X4, F(-2))

    def test_principal_lightlike_span_is_not_umbilical(self, golden):
        # A principal-metric lightlike subalgebra: {X2, X4, X1 + X3}.
        _, _, amb = golden
        diag = tuple(F(x) for x in (1, 0, 1, 0))
        run = run_hypersurface(amb, (X2, X4, diag), "principal")
        assert run.classes["principal"].kind == "lightlike"
        assert run.frame.b == F(-2)
        assert not run.umb.umbilical


    def test_aligned_images_with_different_factors(self, golden):
        # synthetic data: every xi-shape image is a multiple t_a of the screen
        # projection P E_a, with different t_a, and B is not proportional to
        # the induced metric; the witness is the first field whose factor
        # differs from the first one
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        tables = frame_tables(run.frame, amb)
        proj, g = tables["proj"], tables["g"]
        t = (F(2), F(5), F(3))
        sf = replace(
            run.sf,
            b_form=matrix(tuple(x + (a == b == 0) for b, x in enumerate(row)) for a, row in enumerate(g)),
            a_star_xi=matrix(tuple(c * x for x in row) for c, row in zip(t, proj)),
        )
        umb = umbilical_test(sf, run.frame)
        nonzero = [a for a in range(3) if any(proj[a])]
        bad = next(a for a in nonzero if t[a] != t[nonzero[0]])
        assert (umb.umbilical, umb.witness_index) == (False, bad)
        span = nested(run.frame.span)
        assert nested(umb.witness_image) == tuple(
            sum(t[bad] * proj[bad][q] * span[q][r] for q in range(3)) for r in range(4)
        )


class TestFrameIdentities:
    def test_fixture_all_pass(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        checks = verify_frame_identities(run.sf, run.frame, run.sf.rho)
        assert all(c.ok for c in checks)
        assert len(checks) == 13
        # transversal shape operator aligns with J: image of X2 is -2 X4
        assert nested(run.sf.a_n)[0] == (F(0), F(0), F(-2))

    def test_flat_fixture_all_pass(self, abelian):
        _, _, amb, _ = abelian
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated")
        checks = verify_frame_identities(run.sf, run.frame, run.sf.rho)
        assert all(c.ok for c in checks)

    def test_identities_pass_under_gauge(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        for c in (F(2), F(-1), F(3, 5)):
            frame2, sf2 = gauge_rescale(run.frame, run.sf, c)
            checks = verify_frame_identities(sf2, frame2, sf2.rho)
            assert all(ch.ok for ch in checks)
            assert (frame2.b, sf2.rho) == (c * c * run.frame.b, c * run.sf.rho)
            assert sf2.tau == run.sf.tau


class TestGaugeRescale:
    def test_double(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        frame2, sf2 = gauge_rescale(run.frame, run.sf, F(2))
        assert (frame2.b, sf2.rho) == (F(4), F(-4))
        assert sf2.rho ** 2 / frame2.b == F(4)
        # matches a fresh run with the rescaled hint
        fresh = run_hypersurface(
            amb, basis_span(4, (2, 3, 4)), "associated", vec_scale(X3, F(-2))
        )
        assert fresh.frame == frame2
        assert fresh.sf == sf2

    @pytest.mark.parametrize("c", [F(3, 5), F(-7, 2)])
    def test_fractional_gauge_matches_fresh_run(self, golden, c):
        # a hint with a denominator gives the radical section fractional span
        # coordinates; the decomposition must match the rescaled tables
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        frame2, sf2 = gauge_rescale(run.frame, run.sf, c)
        fresh = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", vec_scale(NEG_X3, c))
        assert fresh.frame == frame2
        assert fresh.sf == sf2

    def test_identity(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        frame2, sf2 = gauge_rescale(run.frame, run.sf, F(1))
        assert frame2 == run.frame and sf2 == run.sf

    def test_flip(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        frame2, sf2 = gauge_rescale(run.frame, run.sf, F(-1))
        assert (frame2.b, sf2.rho) == (F(1), F(2))
        assert sf2.rho ** 2 / frame2.b == F(4)

    def test_frame_lattice_is_fresh_after_replace_and_checked_on_first_use(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        assert nested(run.frame.xi_span) == (F(0), F(-1), F(0))
        frame2, _ = gauge_rescale(run.frame, run.sf, F(2))
        assert nested(frame2.xi_span) == (F(0), F(-2), F(0))
        unframed = replace(run.frame, transversal=vector(X2))  # inside the span
        with pytest.raises(InternalInconsistency, match="do not frame the algebra"):
            unframed.xi_span

    def test_zero_rejected(self, golden_run):
        frame, sf, _ = golden_run
        with pytest.raises(ValueError):
            gauge_rescale(frame, sf, F(0))
