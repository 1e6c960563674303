"""The Gauss/Weingarten decomposition and the three Ricci routes against their
Fraction references, bit for bit.

`hypersurface.gauss_weingarten`, `ambient.ricci_trace`,
`ricci_from_ambient_decomposition` and `closed_form_ricci` take and return
`DenseTensor` tables; `tests/helpers.py` keeps Fraction versions that
decompose one vector at a time. Every table, read back in Fractions, and
every error message must be the same.
"""

import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from helpers import (
    all_hold,
    basis_span,
    family_member,
    gauge_rescale,
    gram,
    matrix,
    nested,
    non_invariant_screen_run,
    random_unimodular,
    reference_gauss_weingarten,
    reference_induced_curvature_gauss,
    reference_ricci_routes,
    run_hypersurface,
    tensor_from_function,
    unit_vector,
    vec_scale,
    vector,
)
from nordenlight.ambient import ricci_trace
from nordenlight.errors import EngineError
from nordenlight.hypersurface import gauss_weingarten
from nordenlight.symmetry import (
    SymmetryFlags,
    almost_einstein_fit,
    closed_form_ricci,
    induced_curvature_closed_form,
    induced_curvature_gauss,
    induced_ricci,
    locally_symmetric_check,
    ricci_from_ambient_decomposition,
    ricci_semi_symmetric_check,
    semi_symmetric_check,
)

NEG_X3 = vec_scale(unit_vector(4, 2), F(-1))


def outcome(fn, *args):
    """fn(*args), or the type and message of the engine error it raised."""
    try:
        return fn(*args)
    except EngineError as exc:
        return type(exc).__name__, str(exc)


def engine_gauss_weingarten(frame, amb):
    sf = gauss_weingarten(frame, amb)
    fields = (sf.b_form, sf.c_form, sf.a_star_xi, sf.a_n, sf.tau, sf.induced_gamma, sf.nabla_star)
    return tuple(map(nested, fields))


def engine_ricci_routes(r13, sf, frame, amb):
    split = ricci_from_ambient_decomposition(r13, sf, frame, amb)
    closed = None
    if amb.trsc.kind == "constant" and sf.rho is not None:
        closed = nested(closed_form_ricci(frame, sf, amb))
    return nested(ricci_trace(r13)), nested(split), closed


def recombined_family_run(seed: int):
    """(ambient, run) of the h = 3 family's block (span X2, ..., X6 under the
    associated metric) in another span basis: the four screen rows X2, X3,
    X5, X6 recombined by a seeded unimodular matrix whose rows are divided by
    1, 2, 3 and 1, and the radical row X4 sheared by half of the first new
    screen row. The hyperplane, the screen and the radical line are those of
    the family as written, so the run keeps the screen positions and the
    full path, but its induced tables are dense (conjugating the ambient
    basis, as `family_member` does, carries the span along and leaves them
    sparse)."""
    _, _, amb, _ = family_member(False)
    span = basis_span(6, range(2, 7))
    screen = [span[i] for i in (0, 1, 3, 4)]
    u = random_unimodular(random.Random(seed), 4)
    rows = [tuple(sum(a * b for a, b in zip(u[r], col)) / (r % 3 + 1) for col in zip(*screen)) for r in range(4)]
    radical = tuple(x + y / 2 for x, y in zip(span[2], rows[0]))
    return amb, run_hypersurface(amb, (rows[0], rows[1], radical, rows[2], rows[3]), "associated")


@pytest.fixture(scope="module")
def runs(golden, abelian):
    """(ambient, run) pairs with radical-transversal frames: the fixture with
    integer and fractional gauges, the flat fixture, and the h = 3 family
    as written, rescaled in a conjugated basis and in five recombined span
    bases."""
    _, _, amb = golden
    out = [
        (amb, run_hypersurface(amb, basis_span(4, (2, 3, 4)), "associated", vec_scale(NEG_X3, c)))
        for c in (F(1), F(-7, 2), F(3, 5))
    ]
    out.append((amb, run_hypersurface(amb, basis_span(4, (4, 3, 2)), "associated")))
    out.append((abelian[2], run_hypersurface(abelian[2], basis_span(4, (2, 3, 4)), "associated")))
    for conjugated in (False, True):
        _, _, amb, run = family_member(conjugated)
        out.append((amb, run))
    return out + [recombined_family_run(seed) for seed in range(5)]


def test_gauss_weingarten_matches_the_reference(runs):
    _, _, amb, frame, _ = non_invariant_screen_run()
    frames = [(amb, replace(frame, b=None))] + [(amb, run.frame) for amb, run in runs]
    failures = set()
    for amb, frame in frames:
        assert engine_gauss_weingarten(frame, amb) == reference_gauss_weingarten(frame, amb)
        # N moved along a screen vector still frames the algebra and leaves
        # B as it is, but breaks the tau cross-check wherever B(X, W) != 0
        w = nested(frame.span)[frame.screen_indices[0]]
        moved = replace(frame, transversal=vector(tuple(x + y for x, y in zip(nested(frame.transversal), w))))
        got = outcome(engine_gauss_weingarten, moved, amb)
        assert got == outcome(reference_gauss_weingarten, moved, amb)
        failures.add(got[1] if isinstance(got[0], str) else None)
    assert "tau from the transversal and radical decompositions disagree" in failures


def test_ricci_routes_match_the_reference(runs):
    # the geometric tables, another rho, shifted shape operators and a
    # random curvature table: every term of every route counts
    rng = random.Random(9201)
    for amb, run in runs:
        frame, sf = run.frame, run.sf
        r13 = induced_curvature_gauss(sf, frame, amb)
        assert engine_ricci_routes(r13, sf, frame, amb) == reference_ricci_routes(r13, sf, frame, amb)
        assert induced_ricci(r13, sf, frame, amb) == ricci_trace(r13)
        m = frame.span.dims[0]
        a_n, a_star = nested(sf.a_n), nested(sf.a_star_xi)
        shifted = replace(
            sf,
            rho=sf.rho + F(1, 2),
            a_n=matrix(tuple(x + F(a - q, 3) for q, x in enumerate(row)) for a, row in enumerate(a_n)),
            a_star_xi=matrix(tuple(x - F(a * q, 5) for q, x in enumerate(row)) for a, row in enumerate(a_star)),
        )
        table = tensor_from_function((m,) * 4, lambda *ix: F(rng.randint(-3, 3), rng.randint(1, 4)))
        for case in ((r13, shifted), (table, sf), (table, shifted)):
            assert engine_ricci_routes(*case, frame, amb) == reference_ricci_routes(*case, frame, amb)


def test_gauge_rescaled_frames_keep_the_reference_tables(runs):
    amb, run = runs[0]
    for c in (F(2), F(-3, 4)):
        frame, sf = gauge_rescale(run.frame, run.sf, c)
        assert engine_gauss_weingarten(frame, amb) == reference_gauss_weingarten(frame, amb)
        r13 = induced_curvature_gauss(sf, frame, amb)
        assert engine_ricci_routes(r13, sf, frame, amb) == reference_ricci_routes(r13, sf, frame, amb)


@pytest.mark.parametrize("seed", range(5))
def test_recombined_span_runs_the_full_path_on_dense_tables(seed):
    amb, run = recombined_family_run(seed)
    frame, sf = run.frame, run.sf
    assert frame.screen_indices == (0, 1, 3, 4)
    assert run.frame.b is not None and run.umb.umbilical
    r13 = induced_curvature_gauss(sf, frame, amb)
    assert len(r13.nums) >= 120  # the family as written has 40 of 625 entries nonzero
    assert r13 == reference_induced_curvature_gauss(sf, frame, amb) == induced_curvature_closed_form(frame, sf, amb)
    ric = induced_ricci(r13, sf, frame, amb)  # raises unless the three routes agree
    span = nested(frame.span)
    g, ga = (matrix(gram(nested(amb.norden.metric(which)), span)) for which in ("principal", "associated"))
    flags = SymmetryFlags(
        semi_symmetric_check(r13),
        ricci_semi_symmetric_check(r13, ric),
        locally_symmetric_check(r13, sf.induced_gamma),
        almost_einstein_fit(ric, g, ga),
    )
    assert all_hold(flags)
