"""The Gauss/Weingarten decomposition and the three Ricci routes against their
Fraction references, bit for bit.

`hypersurface.gauss_weingarten`, `symmetry.canonical_ricci`,
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
    basis_span,
    family_member,
    gauge_rescale,
    matrix,
    nested,
    non_invariant_screen_run,
    reference_gauss_weingarten,
    reference_ricci_routes,
    run_hypersurface,
    tensor_from_function,
    unit_vector,
    vec_scale,
    vector,
)
from nordenlight.errors import EngineError
from nordenlight.hypersurface import gauss_weingarten
from nordenlight.symmetry import (
    canonical_ricci,
    closed_form_ricci,
    induced_curvature_gauss,
    induced_ricci,
    ricci_from_ambient_decomposition,
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
    return nested(canonical_ricci(r13)), nested(split), closed


@pytest.fixture(scope="module")
def runs(golden, abelian):
    """(ambient, run) pairs with radical-transversal frames: the fixture with
    integer and fractional gauges, the flat fixture, and the h = 3 family
    as written and rescaled in a conjugated basis."""
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
    return out


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
        routes = induced_ricci(r13, sf, frame, amb)
        assert engine_ricci_routes(r13, sf, frame, amb) == reference_ricci_routes(r13, sf, frame, amb)
        assert routes.agree and routes.canonical == canonical_ricci(r13)
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
