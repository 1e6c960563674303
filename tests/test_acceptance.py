"""Acceptance suite: one test per criterion, every check exact (tolerance 0).

Each test prints a `[acceptance] criterion N: PASS` line on success; a failed
assertion fails the test (and pytest reports the criterion by name).
"""

import json
import random
from fractions import Fraction as F
from itertools import product

import pytest

from helpers import (
    all_hold,
    basis_span,
    bilinear,
    conjugate_instance,
    gauge_rescale,
    derivation_action_direct,
    koszul_residuals,
    matrix,
    nested,
    nonzero_rational,
    norden,
    random_norden_pair,
    random_unimodular,
    reference_pi_tensors,
    reported_primed,
    run_hypersurface,
    scale_brackets,
    symmetry_closure_table,
    tensor_add,
    tensor_from_function,
    tensor_neg,
    tensor_scale,
    tensor_sub,
    unit_vector,
    vec_scale,
    verify_curvature_symmetries,
    verify_kaehler_curvature_identity,
)
from nordenlight.ambient import (
    build_ambient_geometry,
    constant_trsc,
    kaehler_check,
    koszul_connection,
    ricci_trace,
    validate_lie_algebra,
    validate_norden,
)
from nordenlight.hypersurface import verify_frame_identities
from nordenlight.manifold_file import parse_manifold_file
from nordenlight.pipeline import emit_report, run_pipeline
from nordenlight.symmetry import (
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

NEG_X3 = vec_scale(unit_vector(4, 2), F(-1))


def _ok(n, label):
    print(f"[acceptance] criterion {n} ({label}): PASS")


# ---------------------------------------------------------------------------
# randomized instance pools (shared by the criterion-8 suites)


@pytest.fixture(scope="session")
def instance_pool(golden):
    """100 valid curved instances sharing one construction: the fixture
    algebra with the bracket scaled by a random nonzero rational, rewritten
    in a random integer unimodular basis (signed permutations for the
    majority, shear products for the rest), together with the derived
    ambient geometry, a full hypersurface run, and a random gauge factor.
    All criterion-8 suites draw from this pool."""
    spec, ns, _ = golden
    rng = random.Random(4096)
    out = []
    for i in range(100):
        lam = nonzero_rational(rng, dens=(1, 2))
        if i % 3:  # signed permutation: sparse tables, cheap arithmetic
            n = 4
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(n)]
            s = tuple(
                tuple(F(signs[r]) if c == perm[r] else F(0) for c in range(n))
                for r in range(n)
            )
        else:
            s = random_unimodular(rng, 4)
        vectors = basis_span(4, (2, 3, 4)) + (NEG_X3,)
        spec2, ns2, vecs2 = conjugate_instance(scale_brackets(spec, lam), ns, s, vectors)
        amb2 = build_ambient_geometry(spec2, ns2)
        run = run_hypersurface(amb2, vecs2[:3], "associated", vecs2[3])
        gauge = nonzero_rational(rng, dens=(1, 2, 3))
        out.append((amb2, run, lam, gauge))
    return out


# ---------------------------------------------------------------------------
# criteria 1-7: the worked example, exactly


def test_c01_connection_reproduction(golden):
    _, _, amb = golden
    expected = {
        (2, 1): {4: F(2)},
        (4, 3): {4: F(-2)},
        (2, 2): {3: F(-2)},
        (4, 4): {3: F(2)},
        (2, 3): {2: F(-2)},
        (4, 1): {2: F(-2)},
        (2, 4): {1: F(2)},
        (4, 2): {1: F(2)},
    }
    table = tensor_from_function(
        (4, 4, 4), lambda i, j, k: expected.get((i + 1, j + 1), {}).get(k + 1, 0)
    )
    assert amb.gamma == table
    assert sum(1 for _ in amb.gamma.nonzero()) == 8
    _ok(1, "connection reproduction")


def test_c02_curvature_reproduction(golden):
    _, _, amb = golden
    generators = [
        (1, 4, 4, 1, -4),
        (2, 3, 3, 2, -4),
        (1, 4, 2, 3, -4),
        (1, 2, 2, 1, 4),
        (3, 4, 4, 3, 4),
        (1, 2, 3, 4, 4),
    ]
    assert amb.riemann04 == symmetry_closure_table(4, generators)
    _ok(2, "curvature reproduction")


def test_c03_constant_curvature_detection(golden, golden_mf):
    _, _, amb = golden
    assert amb.trsc.kind == "constant"
    assert (amb.trsc.nu, amb.trsc.nu_assoc) == (F(4), F(0))
    # the primed pair of the associated metric, (-nu_assoc, nu)
    assert reported_primed(run_pipeline(golden_mf).data) == (F(0), F(4))
    _ok(3, "constant totally real sectional curvature detection")


def test_c04_frame_reproduction(golden):
    _, _, amb = golden
    run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
    assert nested(run.frame.transversal) == unit_vector(4, 0)  # N = X1
    assert run.frame.screen_indices == (0, 2)  # X2, X4 of the span (X2, X3, X4)
    assert run.frame.b == F(1)
    assert run.sf.rho == F(-2)
    assert nested(run.sf.tau) == (F(0), F(0), F(0))
    _ok(4, "frame reproduction")


def test_c05_equivalence_instance(golden_mf):
    report = run_pipeline(golden_mf)
    h = report.data["hypersurfaces"][0]
    flags = h["flags"]
    assert flags["locally_symmetric"]["holds"]
    assert flags["semi_symmetric"]["holds"]
    assert flags["ricci_semi_symmetric"]["holds"]
    assert flags["almost_einstein"]["kind"] == "unique"
    assert h["audit"]["condition_iii"] == {"lhs": "4", "rhs": "4"}
    assert h["audit"]["condition_iii_holds"] is True
    assert h["audit"]["consistent"] is True
    _ok(5, "equivalence audit on the worked instance")


def test_c06_oracle_equivalence(golden):
    _, ns, amb = golden
    run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
    r13 = induced_curvature_gauss(run.sf, run.frame, amb)
    assert r13 == induced_curvature_closed_form(run.frame, run.sf, amb)
    ric = induced_ricci(r13, run.sf, run.frame, amb)  # raises unless the three routes agree
    assert ric == closed_form_ricci(run.frame, run.sf, amb) == ricci_trace(r13)
    span = basis_span(4, (2, 3, 4))
    g = tuple(tuple(bilinear(nested(ns.g), span[a], span[b]) for b in range(3)) for a in range(3))
    ga = tuple(tuple(bilinear(nested(ns.g_assoc), span[a], span[b]) for b in range(3)) for a in range(3))
    assert nested(ric) == tuple(tuple(8 * x for x in row) for row in g)
    fit = almost_einstein_fit(ric, matrix(g), matrix(ga))
    assert fit.kind == "unique" and (fit.k, fit.c) == (F(8), F(0))
    _ok(6, "gauss/closed-form and ricci route equivalence")


def test_c07_negative_fixture(golden_text):
    text = golden_text.replace("span=2,3,4 xi=3:-1", "span=1,2,4")
    report = run_pipeline(parse_manifold_file(text))
    assert report.exit_code == 4
    h = report.data["hypersurfaces"][0]
    assert h["classification"]["associated"] == "lightlike"
    assert h["radical_transversal"] == {
        "holds": True,
        "b": "-1",
        "screen_holomorphic": True,
    }
    assert h["umbilical"]["holds"] is False
    assert h["umbilical"]["witness"]["field"] == "X2"
    assert h["umbilical"]["witness"]["shape_image_combo"] == "-2*X4"
    assert h["status"] == "hypothesis_failure"
    _ok(7, "negative fixture: radical transversal but not umbilical, exit 4")


# ---------------------------------------------------------------------------
# criterion 8: randomized property suites (>= 100 instances each)


def test_c08a_koszul_properties(instance_pool):
    for amb, _, _, _ in instance_pool:
        spec, ns, gamma = amb.spec, amb.norden, amb.gamma
        assert validate_lie_algebra(spec).ok
        assert validate_norden(spec, ns).ok
        assert all(r == 0 for r in koszul_residuals(spec, ns.g, gamma))
        n = spec.dim
        gm = nested(gamma)
        c = nested(spec.brackets)
        g = nested(ns.g)
        for i, j, k in product(range(n), repeat=3):
            # torsion-free against the bracket table
            assert gm[i][j][k] - gm[j][i][k] == c[i][j][k]
        for i, j, k in product(range(n), repeat=3):
            # metric compatibility of the derivative
            val = sum(gm[i][j][m] * g[m][k] for m in range(n)) + sum(
                gm[i][k][m] * g[m][j] for m in range(n)
            )
            assert val == 0
    _ok("8a", "torsion-free + metric-compatible Koszul output, 100 instances")


def test_c08b_curvature_symmetries(instance_pool):
    for amb, _, _, _ in instance_pool:
        ns, r04 = amb.norden, amb.riemann04
        assert kaehler_check(amb.spec, ns, amb.gamma).is_kaehler_norden
        assert koszul_connection(amb.spec, ns.g_assoc) == amb.gamma  # the connection-difference check
        n = r04.dims[0]
        t = nested(r04)
        j = nested(ns.j)
        for i, a, k, l in product(range(n), repeat=4):
            # independent spot assertions of the same facts
            v = t[i][a][k][l]
            assert v == -t[a][i][k][l]
            assert v == -t[i][a][l][k]
            assert v == t[k][l][i][a]
            assert t[i][a][k][l] + t[a][k][i][l] + t[k][i][a][l] == 0
        for i, a, k, l in product(range(n), repeat=4):
            jz_jw = sum(
                j[m][kk] * j[p][l] * t[i][a][m][p]
                for m, kk, p in ((m, k, p) for m in range(n) for p in range(n))
                if j[m][kk] != 0 and j[p][l] != 0
            )
            assert jz_jw == -t[i][a][k][l]
    for amb, _, _, _ in instance_pool[::10]:
        verify_curvature_symmetries(amb.riemann04)
        verify_kaehler_curvature_identity(amb.riemann04, amb.norden)
    _ok("8b", "curvature slot symmetries, Bianchi, parallel-J identities, 100 instances")


@pytest.fixture(scope="session")
def norden_pool():
    """100 random valid Norden structures (mostly complex dimension 2, every
    tenth dimension 3) with their curvature-type tensor triples."""
    rng = random.Random(77)
    out = []
    for i in range(100):
        half = 3 if i % 10 == 9 else 2
        g, j = random_norden_pair(rng, half)
        ns = norden(g, j)
        out.append((ns, reference_pi_tensors(ns.g, ns.j)))
    return out


def test_c08c_pi_relations_random_norden(norden_pool):
    for ns, (p1, p2, p3) in norden_pool:
        a1, a2, a3 = reference_pi_tensors(ns.g_assoc, ns.j)
        assert a1 == p2 and a2 == p1 and a3 == tensor_neg(p3)
    assert len(norden_pool) == 100
    _ok("8c", "associated curvature-type tensor relations, 100 random structures")


def test_c08d_constant_fit_round_trip(norden_pool):
    rng = random.Random(99)
    for ns, (p1, p2, p3) in norden_pool:
        nu = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        nu_assoc = F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
        synthetic = tensor_add(tensor_scale(tensor_sub(p1, p2), nu), tensor_scale(p3, nu_assoc))
        status = constant_trsc(synthetic, ns)
        assert (status.kind, status.nu, status.nu_assoc) == ("constant", nu, nu_assoc)
    _ok("8d", "constant-curvature fit round trip, 100 instances")


def test_c08e_full_audit_and_gauge_invariance(instance_pool):
    for count, (amb, run, lam, gauge) in enumerate(instance_pool):
        assert run.frame.b is not None
        assert run.umb.umbilical
        frame, sf = run.frame, run.sf
        invariant = sf.rho ** 2 / frame.b
        assert invariant == amb.trsc.nu == 4 * lam * lam

        checks = verify_frame_identities(sf, frame, sf.rho)
        assert all(c.ok for c in checks)

        res = pde_residuals(sf, frame, amb)
        assert res.radial == 0 and res.screen_directions.is_zero()

        r13 = induced_curvature_gauss(sf, frame, amb)
        assert r13 == induced_curvature_closed_form(frame, sf, amb)
        ric = induced_ricci(r13, sf, frame, amb)

        span = nested(frame.span)
        m = len(span)
        g = matrix(
            tuple(bilinear(nested(amb.norden.g), span[a], span[b]) for b in range(m))
            for a in range(m)
        )
        ga = matrix(
            tuple(bilinear(nested(amb.norden.g_assoc), span[a], span[b]) for b in range(m))
            for a in range(m)
        )
        flags = SymmetryFlags(
            semi_symmetric_check(r13),
            ricci_semi_symmetric_check(r13, ric),
            locally_symmetric_check(r13, sf.induced_gamma),
            almost_einstein_fit(ric, g, ga),
        )
        assert all_hold(flags)
        verdict = symmetry_equivalence_audit(flags, "associated", amb.trsc, sf.rho, frame.b)
        assert verdict.applicable and verdict.condition_holds and verdict.consistent

        # gauge rescale: the invariant and the rescaled frame identities are
        # checked on every instance; the induced curvature recomputed from
        # the rescaled data must be identical, which pins every flag (they
        # are functions of those tables); the checkers re-run on a sample
        frame2, sf2 = gauge_rescale(frame, sf, gauge)
        assert sf2.rho ** 2 / frame2.b == invariant
        checks2 = verify_frame_identities(sf2, frame2, sf2.rho)
        assert all(c.ok for c in checks2)
        r13_rescaled = induced_curvature_gauss(sf2, frame2, amb)
        assert r13_rescaled == r13
        assert sf2.induced_gamma == sf.induced_gamma
        if count % 10 == 0:
            ric2 = induced_ricci(r13_rescaled, sf2, frame2, amb)
            assert ric2 == ric
            flags2 = SymmetryFlags(
                semi_symmetric_check(r13_rescaled),
                ricci_semi_symmetric_check(r13_rescaled, ric2),
                locally_symmetric_check(r13_rescaled, sf2.induced_gamma),
                almost_einstein_fit(ric2, g, ga),
            )
            verdict2 = symmetry_equivalence_audit(
                flags2, "associated", amb.trsc, sf2.rho, frame2.b
            )
            assert all_hold(flags2) == all_hold(flags)
            assert (
                verdict2.applicable,
                verdict2.condition_holds,
                verdict2.consistent,
            ) == (verdict.applicable, verdict.condition_holds, verdict.consistent)
    _ok("8e", "frame identities, residuals, audit, gauge invariance, 100 full runs")


# ---------------------------------------------------------------------------
# criteria 9-10


def test_c09_synthetic_table_checkers(golden):
    _, ns, amb = golden
    run = run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", NEG_X3)
    span = basis_span(4, (2, 3, 4))
    g = matrix(tuple(bilinear(nested(ns.g), span[a], span[b]) for b in range(3)) for a in range(3))
    ga = matrix(tuple(bilinear(nested(ns.g_assoc), span[a], span[b]) for b in range(3)) for a in range(3))

    bad = closed_form_curvature(run.frame, F(1), F(4))
    semi = semi_symmetric_check(bad)
    ric_bad = ricci_trace(bad)
    ricci_semi = ricci_semi_symmetric_check(bad, ric_bad)
    locally = locally_symmetric_check(bad, run.sf.induced_gamma)
    assert not semi.holds and not ricci_semi.holds and not locally.holds
    # witness soundness: re-evaluating the defining expressions is nonzero
    x, y, u, v, w = (i - 1 for i in semi.witness)
    assert any(t != 0 for t in derivation_action_direct(bad, x, y, u, v, w))
    t, ric = nested(bad), nested(ric_bad)
    x, y, u, v = (i - 1 for i in ricci_semi.witness)
    val = -sum(t[x][y][u][k] * ric[k][v] for k in range(3)) - sum(
        ric[u][k] * t[x][y][v][k] for k in range(3)
    )
    assert val != 0
    assert not locally.value.is_zero()
    assert almost_einstein_fit(ric_bad, g, ga).kind == "infeasible"

    good = closed_form_curvature(run.frame, F(0), F(4))
    assert semi_symmetric_check(good).holds
    assert ricci_semi_symmetric_check(good, ricci_trace(good)).holds
    assert locally_symmetric_check(good, run.sf.induced_gamma).holds
    _ok(9, "synthetic-table checkers with sound witnesses")


def test_c10_determinism(golden_mf, golden_text, tmp_path):
    first = emit_report(run_pipeline(golden_mf), "structured")
    second = emit_report(run_pipeline(golden_mf), "structured")
    assert first.encode("utf-8") == second.encode("utf-8")
    # and through the CLI writer
    from nordenlight.cli import main

    src = tmp_path / "m.mf"
    src.write_text(golden_text)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["check", str(src), "--report", "structured", "--out", str(out_a)]) == 0
    assert main(["check", str(src), "--report", "structured", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert json.loads(first)["input_digest"] == json.loads(out_a.read_text())["input_digest"]
    _ok(10, "byte-identical structured reports")
