"""Cross-cutting invariants: screen-choice independence, witness soundness,
and the engine-level consistency guards."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import chain, permutations, product
from pathlib import Path

import pytest

from helpers import (
    basis_span,
    bilinear,
    brute_locally_symmetric,
    brute_ricci_semi_symmetric,
    brute_semi_symmetric,
    derivation_action_direct,
    family_member,
    family_text,
    matrix,
    nested,
    non_invariant_screen_run,
    rebase,
    reference_frame_identities,
    run_hypersurface,
    tensor_add,
    tensor_from_function,
    unit_vector,
    vec_scale,
    verify_curvature_symmetries,
    verify_kaehler_curvature_identity,
    verify_metric_compatibility,
    verify_torsion_free,
)
from nordenlight.ambient import TrscStatus, ambient_ricci, build_ambient_geometry, ricci_trace
from nordenlight.errors import InternalInconsistency
from nordenlight.exact import DenseTensor
from nordenlight.hypersurface import verify_frame_identities
from nordenlight.manifold_file import hypersurface_specs, lie_algebra_spec, norden_from_file, parse_manifold_file
from nordenlight.pipeline import emit_report, run_block, run_pipeline
from nordenlight.symmetry import (
    closed_form_curvature,
    induced_curvature_gauss,
    locally_symmetric_check,
    ricci_semi_symmetric_check,
    semi_symmetric_check,
)

NEG_X3 = vec_scale(unit_vector(4, 2), F(-1))
DERIVATION_WITNESSES = Path(__file__).resolve().parent / "golden" / "derivation_witnesses.json"


class TestScreenChoiceIndependence:
    @pytest.mark.parametrize("indices", list(permutations((2, 3, 4))))
    def test_fixture_span_permutations(self, golden, indices):
        from nordenlight.symmetry import (
            almost_einstein_fit as einstein,
            induced_curvature_gauss,
        )

        _, ns, amb = golden
        span = basis_span(4, indices)
        run = run_hypersurface(amb, span, "associated")
        assert run.frame.b is not None
        assert run.umb.umbilical
        assert run.sf.rho ** 2 / run.frame.b == F(4)
        # every downstream symmetry flag is independent of the input order
        r13 = induced_curvature_gauss(run.sf, run.frame, amb)
        ric = ricci_trace(r13)
        assert semi_symmetric_check(r13).holds
        assert ricci_semi_symmetric_check(r13, ric).holds
        assert locally_symmetric_check(r13, run.sf.induced_gamma).holds
        g = matrix(tuple(bilinear(nested(ns.g), span[a], span[b]) for b in range(3)) for a in range(3))
        ga = matrix(
            tuple(bilinear(nested(ns.g_assoc), span[a], span[b]) for b in range(3)) for a in range(3)
        )
        assert einstein(ric, g, ga).feasible

    @pytest.mark.parametrize("indices", list(permutations((1, 2, 4))))
    def test_negative_span_permutations(self, golden, indices):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, indices), "associated")
        assert run.frame.b is not None
        assert not run.umb.umbilical


class TestWitnessSoundness:
    def test_random_nonzero_coefficients(self, golden):
        _, _, amb = golden
        run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
        rng = random.Random(31)
        for _ in range(20):
            a = F(0)
            while a == 0:
                a = F(rng.randint(-5, 5), rng.choice([1, 2, 3]))
            table = closed_form_curvature(run.frame, a, F(4))
            semi = semi_symmetric_check(table)
            assert not semi.holds
            x, y, u, v, w = (i - 1 for i in semi.witness)
            assert derivation_action_direct(table, x, y, u, v, w) == semi.value.entries
            assert not semi.value.is_zero()
            ric = ricci_trace(table)
            rflag = ricci_semi_symmetric_check(table, ric)
            assert not rflag.holds and rflag.value[0] != 0
            lflag = locally_symmetric_check(table, run.sf.induced_gamma)
            assert not lflag.holds and not lflag.value.is_zero()


class TestEngineGuards:
    def test_golden_tables_pass_the_table_verifiers(self, golden):
        spec, ns, amb = golden
        verify_torsion_free(spec, amb.gamma)
        verify_metric_compatibility(amb.gamma, ns.g)
        verify_curvature_symmetries(amb.riemann04)
        verify_kaehler_curvature_identity(amb.riemann04, ns)

    def test_table_verifiers_catch_corruption(self, golden):
        spec, ns, amb = golden
        entries = list(amb.riemann04.entries)
        entries[0] = F(1)  # breaks the antisymmetry in the first slot pair
        bad = DenseTensor.from_entries((4, 4, 4, 4), entries)
        with pytest.raises(InternalInconsistency):
            verify_curvature_symmetries(bad)
        gamma_entries = list(amb.gamma.entries)
        offset = (0 * 4 + 1) * 4 + 0  # derivative of the second field, first component
        gamma_entries[offset] += F(1)
        bad_gamma = DenseTensor.from_entries((4, 4, 4), gamma_entries)
        with pytest.raises(InternalInconsistency):
            verify_torsion_free(spec, bad_gamma)

    def test_ambient_ricci_closed_form_guard(self, golden):
        # Claiming nu = 0 with nu_assoc = 0 against the curved fixture's
        # tables must trip the closed-form cross-check.
        _, ns, amb = golden
        with pytest.raises(
            InternalInconsistency,
            match=r"^ambient Ricci closed form fails at \(1,1\): Ricci 8, closed form 0$",
        ):
            ambient_ricci(amb.riemann13, ns, TrscStatus("constant", F(0), F(0)))

    def test_ambient_ricci_closed_form_guard_names_the_first_difference(self, golden):
        # a raw table whose Ricci trace is the closed form -2(h-1) nu_assoc
        # g(X, JY) with nu_assoc = 3/2 but for one entry: the table passes
        # the guard, and the moved entry is named with both values
        _, ns, _ = golden
        closed = [
            [F(-3) * sum(ns.g[a, q] * ns.j[q, b] for q in range(4)) for b in range(4)]
            for a in range(4)
        ]

        def table(ric):  # R(X_1, X_a)X_b = Ric(X_a, X_b) X_1, the trace of Z -> R(Z, X)Y
            return tensor_from_function(
                (4, 4, 4, 4), lambda k, a, b, q: ric[a][b] if k == q == 0 else F(0)
            )

        status = TrscStatus("constant", F(0), F(3, 2))
        assert ambient_ricci(table(closed), ns, status).entries == tuple(sum(closed, []))
        closed[1][3] += F(1, 2)
        with pytest.raises(
            InternalInconsistency,
            match=r"^ambient Ricci closed form fails at \(2,4\): Ricci 7/2, closed form 3$",
        ):
            ambient_ricci(table(closed), ns, status)

    def test_emit_report_rejects_unknown_format(self, golden_mf):
        report = run_pipeline(golden_mf)
        with pytest.raises(ValueError):
            emit_report(report, "yaml")


class TestCheckersNeedAntisymmetricTables:
    def test_each_checker_rejects_a_table_without_antisymmetry(self):
        # R(X, Y) = -R(Y, X) holds for the curvature of every connection, and
        # the checkers scan only the pairs x < y: a table with the one nonzero
        # entry R(X1, X1)X1 = X1 is no curvature table, and each checker
        # raises before it scans
        table = tensor_from_function((2, 2, 2, 2), lambda *ix: F(ix == (0, 0, 0, 0)))
        ric = matrix(((F(1), F(0)), (F(0), F(0))))
        gamma = tensor_from_function((2, 2, 2), lambda u, a, b: F((u, a, b) == (1, 0, 1)))
        message = r"^curvature table is not antisymmetric in its first two slots$"
        with pytest.raises(InternalInconsistency, match=message):
            semi_symmetric_check(table)
        with pytest.raises(InternalInconsistency, match=message):
            ricci_semi_symmetric_check(table, ric)
        with pytest.raises(InternalInconsistency, match=message):
            locally_symmetric_check(table, gamma)


def _brute_flag(hit, den):
    """(holds, witness, value) of a brute-force scan on int numerators whose
    components are over den."""
    if hit is None:
        return True, None, None
    witness, value = hit
    return False, witness, tuple(F(x, den) for x in value)


def _assert_checkers_match_brute_force(table, gamma, ric=None):
    """The checkers return the first nonzero tuple of the full product-order
    scan and its exact value. The scans run on the int numerators of the
    tables, so their values are over the product of the denominators."""
    m = table.dims[0]
    t, dt = table.lattice()
    gm, dg = gamma.lattice()
    semi = brute_semi_symmetric(t, m)
    local = brute_locally_symmetric(t, gm, m)
    flags = [
        (semi_symmetric_check(table), _brute_flag(semi, dt * dt)),
        (locally_symmetric_check(table, gamma), _brute_flag(local, dt * dg)),
    ]
    if ric is not None:
        # the Ricci scan runs on the Fraction entries, its value is exact
        ricci = brute_ricci_semi_symmetric(nested(table), ric, m)
        expected = (True, None, None) if ricci is None else (False, *ricci)
        flags.append((ricci_semi_symmetric_check(table, matrix(ric)), expected))
    for flag, expected in flags:
        value = None if flag.value is None else flag.value.entries
        assert (flag.holds, flag.witness, value) == expected
    return tuple(flag.holds for flag, _ in flags)


def _family_block_tables(h):
    """The induced curvature table and connection of the family's block at
    complex dimension h."""
    mf = parse_manifold_file(family_text(h))
    run = run_block(hypersurface_specs(mf)[0], build_ambient_geometry(lie_algebra_spec(mf), norden_from_file(mf)))
    return run.r13, run.sf.induced_gamma


class TestCheckersAgainstBruteForce:
    def test_random_raw_tables(self):
        # raw tables with denominators from about 5% to 100% nonzero at m =
        # 4-6, and sparse ones at m = 7, antisymmetrized in the first slot
        # pair as every curvature table is, with a connection of the same
        # density and a Ricci table that is symmetric in half the cases
        rng = random.Random(41)
        cases = chain(
            product((4, 5, 6), (0.05, 0.2, 0.5, 1.0), (False, True), range(2)),
            product((7,), (0.05, 0.2), (False, True), range(2)),
        )
        for m, density, symmetric_ricci, _ in cases:
            idx = range(m)

            def entry(values, dens):
                if rng.random() >= density:
                    return F(0)
                return F(rng.choice(values), rng.choice(dens))

            raw = {ix: entry((1, -2, 3, -1), (1, 2, 5)) for ix in product(idx, repeat=4)}
            table = tensor_from_function((m,) * 4, lambda i, j, k, l: raw[i, j, k, l] - raw[j, i, k, l])
            gamma = tensor_from_function((m,) * 3, lambda *ix: entry((1, -1, 2), (1, 3)))
            ric = tuple(tuple(F(rng.randint(-2, 2), rng.choice([1, 7])) for _ in idx) for _ in idx)
            if symmetric_ricci:
                ric = tuple(tuple(ric[max(a, b)][min(a, b)] for b in idx) for a in idx)
            _assert_checkers_match_brute_force(table, gamma, ric)

    def test_dense_passing_table(self):
        # the conjugated family member's induced tables in a dense rational
        # basis of the hypersurface: both flags are tensorial and hold. In any
        # basis the table has the shape R(X,Y)Z in span(X, Y), so at most 200
        # of its 625 entries can be nonzero; 184 are
        _, _, amb, run = family_member(True)
        p = [
            [F(1), F(2), F(-1), F(1, 2), F(3)],
            [F(0), F(1), F(1), F(-2), F(1)],
            [F(2), F(-1), F(1), F(1), F(1, 3)],
            [F(1), F(1), F(1), F(1), F(-1)],
            [F(-1), F(3), F(2), F(1), F(1)],
        ]
        table = rebase(induced_curvature_gauss(run.sf, run.frame, amb), p)
        gamma = rebase(run.sf.induced_gamma, p)
        assert sum(1 for x in table.entries if x) == 184
        assert sum(1 for x in gamma.entries if x) == 117
        assert _assert_checkers_match_brute_force(table, gamma) == (True, True)

    def test_one_entry_perturbations_of_the_family_table(self):
        # every entry (i, j, k, l) with i != j of the h = 3 family's induced
        # table, moved by delta one at a time, with (j, i, k, l) moved by
        # -delta so that the table stays antisymmetric in its first two slots
        _, _, amb, run = family_member(False)
        table = induced_curvature_gauss(run.sf, run.frame, amb)
        gamma = run.sf.induced_gamma
        assert _assert_checkers_match_brute_force(table, gamma) == (True, True)
        m = table.dims[0]
        for offset, (i, j, k, l) in enumerate(product(range(m), repeat=4)):
            if i != j:
                delta = F(1, 3) if offset % 2 else F(-2)
                entries = list(table.entries)
                entries[offset] += delta
                entries[((j * m + i) * m + k) * m + l] -= delta
                perturbed = DenseTensor.from_entries(table.dims, entries)
                assert _assert_checkers_match_brute_force(perturbed, gamma) == (False, False)

    @pytest.mark.parametrize("case", ["family_h6", "dense_h5"])
    def test_pinned_one_entry_perturbations(self, case):
        # one-entry perturbations of tables too wide for the brute-force
        # scans, with antisymmetry kept (the entry and its swap): the
        # checkers return the pinned (holds, witness, value) of the
        # product-order scan. The h = 6 family's block is the sparse_d12
        # table; the h = 5 block is rebased to a dense basis (the product of
        # the unit upper and lower triangular matrices of ones, second row
        # halved)
        if case == "family_h6":
            table, gamma = _family_block_tables(6)
        else:
            p = [[F(9 - max(a, i), 2 if a == 1 else 1) for i in range(9)] for a in range(9)]
            table, gamma = (rebase(t, p) for t in _family_block_tables(5))
        m = table.dims[0]
        for pinned in json.loads(DERIVATION_WITNESSES.read_text())[case]:
            perturbed = table
            if pinned["entry"] is not None:
                i, j, k, l = pinned["entry"]
                delta = F(pinned["delta"])
                entries = list(table.entries)
                entries[((i * m + j) * m + k) * m + l] += delta
                entries[((j * m + i) * m + k) * m + l] -= delta
                perturbed = DenseTensor.from_entries(table.dims, entries)
            assert perturbed.antisymmetric == pinned["antisymmetric"]
            flags = {"semi": semi_symmetric_check(perturbed), "local": locally_symmetric_check(perturbed, gamma)}
            for key, flag in flags.items():
                holds, witness, value = pinned[key]
                assert flag.holds == holds
                assert flag.witness == (None if witness is None else tuple(witness))
                assert (None if flag.value is None else list(flag.value.entries)) == (
                    None if value is None else [F(x) for x in value]
                )


def _perturbed(sf, field: str, offset: int, delta):
    """sf with delta added to the entry at one row-major offset of a table
    field."""
    table = getattr(sf, field)
    entries = list(table.entries)
    entries[offset] += delta
    return replace(sf, **{field: DenseTensor.from_entries(table.dims, entries)})


class TestFrameIdentitiesAgainstReference:
    @pytest.mark.parametrize("case", ["fixture", "conjugated_dim6", "non_invariant_screen"])
    def test_one_entry_perturbations(self, golden, case):
        # every identity, witness and scan order of the int-lattice version
        # equals the Fraction reference, on the true tables and with any one
        # entry of the second fundamental data perturbed
        if case == "fixture":
            _, _, amb = golden
            run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
            frame, sf = run.frame, run.sf
        elif case == "conjugated_dim6":
            _, _, amb, run = family_member(True)
            frame, sf = run.frame, run.sf
        else:
            _, _, amb, frame, sf = non_invariant_screen_run()
        # every entry on the fixture, every third one on the dim-6 frames
        stride = 1 if case == "fixture" else 3
        # adding a multiple of the identity to every screen connection matrix
        # commutes with J, so the screen identity still holds, now with
        # nonzero values on both sides
        shift = tensor_from_function(sf.nabla_star.dims, lambda a, v, q: F(2, 3) * (v == q))
        commuting = replace(sf, nabla_star=tensor_add(sf.nabla_star, shift))
        unperturbed = [(sf, sf.rho), (sf, None), (commuting, sf.rho)]
        perturbed = []
        for field in ("b_form", "c_form", "a_n", "a_star_xi", "nabla_star", "tau"):
            for k, offset in enumerate(range(len(getattr(sf, field).entries))[::stride]):
                perturbed.append((_perturbed(sf, field, offset, F((-1) ** k * (k % 3 + 1), 3)), sf.rho))
        outcomes = []
        for table, rho in unperturbed + perturbed:
            checks = verify_frame_identities(table, frame, rho)
            expected = reference_frame_identities(table, frame, amb, rho)
            assert tuple((c.name, c.ok, c.witness) for c in checks) == expected
            outcomes.append(all(c.ok for c in checks))
        if case != "non_invariant_screen":
            assert outcomes == [True] * len(unperturbed) + [False] * len(perturbed)
