from fractions import Fraction as F

import pytest

from helpers import (
    first_failure,
    koszul_residuals,
    nested,
    norden,
    reference_associated_table,
    reference_pi_tensors,
    reported_primed,
    symmetry_closure_table,
    tensor_add,
    tensor_from_function,
    tensor_scale,
    tensor_sub,
    tensor_zeros,
    trace_ricci,
)
from nordenlight.ambient import (
    LieAlgebraSpec,
    TrscStatus,
    ambient_ricci,
    constant_trsc,
    curvature,
    kaehler_check,
    koszul_connection,
    levi_civita,
    pi_combination,
    validate_lie_algebra,
    validate_norden,
)
from nordenlight.errors import InternalInconsistency, ValidationFailure
from nordenlight.exact import DenseTensor, mat_inverse
from nordenlight.pipeline import run_pipeline

# Nonzero connection components of the curved fixture, 1-based
# (derivative, argument) -> combination.
EXPECTED_CONNECTION = {
    (2, 1): {4: F(2)},
    (4, 3): {4: F(-2)},
    (2, 2): {3: F(-2)},
    (4, 4): {3: F(2)},
    (2, 3): {2: F(-2)},
    (4, 1): {2: F(-2)},
    (2, 4): {1: F(2)},
    (4, 2): {1: F(2)},
}

# Generating curvature components of the curved fixture, 1-based.
CURVATURE_GENERATORS = [
    (1, 4, 4, 1, -4),
    (2, 3, 3, 2, -4),
    (1, 4, 2, 3, -4),
    (1, 2, 2, 1, 4),
    (3, 4, 4, 3, 4),
    (1, 2, 3, 4, 4),
]


def abelian_like(golden_ns, dim=4):
    zero = tensor_zeros((dim, dim, dim))
    return LieAlgebraSpec(dim, tuple(f"X{i}" for i in range(1, dim + 1)), zero)


class TestValidateLieAlgebra:
    def test_fixture_passes(self, golden):
        spec, _, _ = golden
        assert validate_lie_algebra(spec).ok

    def test_abelian_passes(self, golden):
        _, ns, _ = golden
        assert validate_lie_algebra(abelian_like(ns)).ok

    def test_antisymmetry_witness(self):
        t = tensor_from_function(
            (4, 4, 4), lambda i, j, k: 1 if (i, j, k) in ((0, 1, 2), (1, 0, 2)) else 0
        )
        spec = LieAlgebraSpec(4, ("X1", "X2", "X3", "X4"), t)
        report = validate_lie_algebra(spec)
        assert not report.ok
        bad = first_failure(report)
        assert bad.name == "bracket_antisymmetry"
        assert bad.witness == (1, 2, 3)

    def test_jacobi_failure(self):
        # [X1,X2]=X3, [X1,X3]=X1: the cyclic sum over (1,2,3) does not vanish.
        entries = {(0, 1, 2): 1, (1, 0, 2): -1, (0, 2, 0): 1, (2, 0, 0): -1}
        t = tensor_from_function((4, 4, 4), lambda i, j, k: entries.get((i, j, k), 0))
        report = validate_lie_algebra(LieAlgebraSpec(4, ("a", "b", "c", "d"), t))
        assert not report.ok
        assert first_failure(report).name == "jacobi_identity"

    def test_odd_or_small_dimension_rejected(self):
        t = tensor_zeros((2, 2, 2))
        report = validate_lie_algebra(LieAlgebraSpec(2, ("a", "b"), t))
        assert not report.ok
        assert first_failure(report).name == "dimension_even_and_at_least_four"


class TestValidateNorden:
    def test_fixture_passes_with_expected_associated_metric(self, golden):
        spec, ns, _ = golden
        assert validate_norden(spec, ns).ok
        assert ns.g_assoc[1, 3] == F(-1)  # pairs X2 with X4
        assert ns.g_assoc[0, 2] == F(-1)  # pairs X1 with X3
        assert sum(1 for row in nested(ns.g_assoc) for x in row if x != 0) == 4

    def test_identity_j_fails(self, golden):
        spec, ns, _ = golden
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        bad = norden(ns.g, eye)
        report = validate_norden(spec, bad)
        assert not report.ok
        assert first_failure(report).name == "complex_structure_squares_to_minus_identity"

    def test_euclidean_metric_breaks_anti_isometry(self, golden):
        # Oracle: with the Euclidean metric, g(J X1, J X1) + g(X1, X1)
        # evaluates to g(X3, X3) + g(X1, X1) = 2 on the fixture's J.
        spec, ns, _ = golden
        eye = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        bad = norden(eye, ns.j)
        report = validate_norden(spec, bad)
        assert not report.ok
        failing = first_failure(report)
        assert failing.name == "metric_anti_isometry"
        assert failing.witness == (1, 1)


class TestLeviCivita:
    def test_fixture_matches_expected_nonzeros(self, golden):
        spec, ns, amb = golden
        expected = tensor_from_function(
            (4, 4, 4),
            lambda i, j, k: EXPECTED_CONNECTION.get((i + 1, j + 1), {}).get(k + 1, 0),
        )
        assert amb.gamma == expected
        assert sum(1 for _ in amb.gamma.nonzero()) == 8

    def test_flat_on_abelian(self, golden):
        _, ns, _ = golden
        spec = abelian_like(ns)
        assert levi_civita(spec, ns).is_zero()

    def test_first_basis_derivative_vanishes(self, golden):
        _, _, amb = golden
        assert all(amb.gamma[0, j, k] == 0 for j in range(4) for k in range(4))

    def test_koszul_defining_equation(self, golden):
        spec, ns, amb = golden
        assert all(r == 0 for r in koszul_residuals(spec, ns.g, amb.gamma))


class TestKaehlerCheck:
    def test_fixture_is_kaehler(self, golden):
        spec, ns, amb = golden
        check = kaehler_check(spec, ns, amb.gamma)
        assert check.is_kaehler_norden
        assert check.f_table.is_zero()
        # the connection-difference cross-check: both metrics give one connection
        assert koszul_connection(spec, ns.g_assoc) == amb.gamma

    def test_abelian_is_kaehler(self, golden):
        _, ns, _ = golden
        spec = abelian_like(ns)
        gamma = levi_civita(spec, ns)
        assert kaehler_check(spec, ns, gamma).is_kaehler_norden

    def test_rescaled_metric_entry_breaks_parallelism(self, golden):
        # Only the top metric entry changes; the structure is no longer a
        # Norden pair, but the parallelism table is still computed and
        # reported componentwise. Direct evaluation gives
        # g((D_{X2} J)X2, X1) = -2.
        spec, ns, _ = golden
        g2 = [list(row) for row in nested(ns.g)]
        g2[0][0] = F(2)
        broken = norden(g2, ns.j)
        gamma = koszul_connection(spec, broken.g)
        check = kaehler_check(spec, broken, gamma)
        assert not check.is_kaehler_norden
        assert check.f_table[1, 1, 0] == F(-2)
        # oracle: recompute F from the connection and J tables directly
        gm = nested(gamma)
        j, g = nested(broken.j), nested(broken.g)
        n = 4
        for i in range(n):
            for a in range(n):
                d_j = [F(0)] * n
                for m in range(n):
                    for q in range(n):
                        d_j[q] += j[m][a] * gm[i][m][q]
                jd = [
                    sum(j[q][m] * gm[i][a][m] for m in range(n)) for q in range(n)
                ]
                for k in range(n):
                    val = sum((d_j[q] - jd[q]) * g[q][k] for q in range(n))
                    assert check.f_table[i, a, k] == val
        # the associated table of the broken pair is asymmetric, so the
        # connection-difference cross-check is skipped rather than asserted
        ga = nested(broken.g_assoc)
        assert any(ga[i][k] != ga[k][i] for i in range(n) for k in range(n))

    def test_build_rejects_non_kaehler(self, golden):
        spec, ns, _ = golden
        g2 = [list(row) for row in nested(ns.g)]
        g2[0][0] = F(2)
        broken = norden(g2, ns.j)
        from nordenlight.ambient import build_ambient_geometry

        with pytest.raises(ValidationFailure):
            build_ambient_geometry(spec, broken)


class TestCurvature:
    def test_fixture_matches_symmetry_closure(self, golden):
        _, _, amb = golden
        expected = symmetry_closure_table(4, CURVATURE_GENERATORS)
        assert amb.riemann04 == expected

    def test_flat_abelian(self, golden):
        _, ns, _ = golden
        spec = abelian_like(ns)
        gamma = levi_civita(spec, ns)
        r13, r04 = curvature(spec, gamma, ns)
        assert r13.is_zero() and r04.is_zero()

    def test_mixed_component_vanishes(self, golden):
        # R(X2, X4)X4 expands to zero under the fixed sign convention.
        _, _, amb = golden
        assert all(amb.riemann13[1, 3, 3, l] == 0 for l in range(4))


class TestPiTensors:
    def test_component_values(self, golden):
        _, ns, _ = golden
        pi1, pi2, _ = reference_pi_tensors(ns.g, ns.j)
        # pi1(X1, X4, X4, X1) = g(X4,X4) g(X1,X1) = -1
        assert pi1[0, 3, 3, 0] == F(-1)
        # pi2(X1, X4, X4, X1) = 0: J X4 = -X2 and J X1 = X3 are orthogonal
        # to the arguments.
        assert pi2[0, 3, 3, 0] == F(0)
        assert pi_combination(ns, 1, 0)[0, 3, 3, 0] == F(-1)

    def test_antisymmetry_in_first_slots(self, golden):
        _, ns, _ = golden
        pi1, pi2, pi3 = reference_pi_tensors(ns.g, ns.j)
        for x in range(4):
            assert all(
                pi1[x, x, k, l] == 0 and pi2[x, x, k, l] == 0 and pi3[x, x, k, l] == 0
                for k in range(4)
                for l in range(4)
            )


class TestConstantTrsc:
    def test_fixture_constants(self, golden):
        _, _, amb = golden
        assert amb.trsc.kind == "constant"
        assert (amb.trsc.nu, amb.trsc.nu_assoc) == (F(4), F(0))

    def test_flat_constants(self, golden):
        _, ns, _ = golden
        spec = abelian_like(ns)
        gamma = levi_civita(spec, ns)
        _, r04 = curvature(spec, gamma, ns)
        status = constant_trsc(r04, ns)
        assert status.kind == "constant"
        assert (status.nu, status.nu_assoc) == (F(0), F(0))

    def test_tampered_component_detected(self, golden):
        _, ns, amb = golden
        entries = list(amb.riemann04.entries)
        offset = ((0 * 4 + 3) * 4 + 3) * 4 + 0  # overwrite the (1,4,4,1) slot
        entries[offset] = F(-5)
        tampered = DenseTensor.from_entries((4, 4, 4, 4), entries)
        status = constant_trsc(tampered, ns)
        assert status.kind == "not_constant"

    def test_degenerate_fit_is_flagged(self):
        # a zero metric, which no Norden structure has, makes both fit columns
        # zero; dependent columns are an engine inconsistency
        zero = tensor_zeros((2, 2, 2, 2))
        with pytest.raises(InternalInconsistency, match="pi1 - pi2 and pi3 are dependent"):
            constant_trsc(zero, norden([[0, 0], [0, 0]], [[0, -1], [1, 0]]))

    def test_raw_tables_with_different_denominators(self):
        # g over 2 and J over 3, neither symmetric nor a complex structure:
        # pi1 - pi2 and pi3 come onto one denominator in the fit
        ns = norden(
            [[F(1, 2), F(3, 2), 0], [F(-1, 2), 0, 1], [2, F(1, 2), F(-3, 2)]],
            [[F(1, 3), 0, F(2, 3)], [F(-1, 3), 1, 0], [0, F(4, 3), F(1, 3)]],
        )
        pi1, pi2, pi3 = reference_pi_tensors(ns.g, ns.j)
        r04 = tensor_add(tensor_scale(tensor_sub(pi1, pi2), F(7, 4)), tensor_scale(pi3, -3))
        status = constant_trsc(r04, ns)
        assert (status.kind, status.nu, status.nu_assoc) == ("constant", F(7, 4), F(-3))


class TestAssociatedCurvature:
    # the report derives the primed pair (-nu_assoc, nu) from the fit of R;
    # the refit of R~ that must agree with it runs in test_pi_fit.py
    def test_primed_constants(self, golden_mf):
        assert reported_primed(run_pipeline(golden_mf).data) == (F(0), F(4))

    def test_flat_primed(self, abelian):
        assert reported_primed(run_pipeline(abelian[3]).data) == (F(0), F(0))

    def test_kaehler_identity_componentwise(self, golden):
        _, ns, amb = golden
        t = nested(amb.riemann04)
        ta = nested(reference_associated_table(amb.riemann04, ns))
        j = nested(ns.j)
        for i in range(4):
            for a in range(4):
                for k in range(4):
                    for l in range(4):
                        for table in (t, ta):
                            val = sum(
                                j[m][k] * j[p][l] * table[i][a][m][p]
                                for m in range(4)
                                for p in range(4)
                            )
                            assert val == -table[i][a][k][l]


class TestAmbientRicci:
    def test_fixture_trace_value(self, golden):
        _, ns, amb = golden
        assert amb.ricci[1, 1] == F(8)
        # full table equals 8 g on the fixture
        for a in range(4):
            for b in range(4):
                assert amb.ricci[a, b] == 8 * ns.g[a, b]

    def test_flat_ricci(self, golden):
        _, ns, _ = golden
        spec = abelian_like(ns)
        gamma = levi_civita(spec, ns)
        r13, r04 = curvature(spec, gamma, ns)
        # the flat fit is constant with nu = nu_assoc = 0, so the closed form runs
        assert ambient_ricci(r13, ns, constant_trsc(r04, ns)).is_zero()

    def test_pure_mixed_tensor_closed_form(self, golden):
        # Synthetic curvature equal to the mixed curvature-type tensor with
        # unit coefficient: brute-force trace against the closed form
        # -2(n-1) g(X, JY), and the built-in cross-check for nu = 0.
        _, ns, amb = golden
        ginv = nested(mat_inverse(ns.g))
        t = nested(reference_pi_tensors(ns.g, ns.j)[2])
        r13 = tensor_from_function(
            (4, 4, 4, 4),
            lambda i, j, k, l: sum(ginv[l][m] * t[i][j][k][m] for m in range(4)),
        )
        ric = ambient_ricci(r13, ns, TrscStatus("constant", F(0), F(1)))
        oracle = trace_ricci(r13)
        for a in range(4):
            for b in range(4):
                gjy = sum(ns.g[a, q] * ns.j[q, b] for q in range(4))
                assert ric[a, b] == -2 * (2 - 1) * gjy
                assert ric[a, b] == oracle[a][b]
