"""The nonzero-driven table builders against their dense references, bit for
bit.

`ambient.curvature`, `ambient.pi_combination` and
`symmetry.induced_curvature_gauss` accumulate their tables from the nonzero
entries of their factors; `tests/helpers.py` keeps the dense builders they
replaced (for `pi_combination`, the three pi-tensors built one by one).
Tables are compared as `DenseTensor`s, which are canonical, so equality is
equality of every entry; an error must carry the same message.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from functools import cache
from itertools import product

import pytest

from helpers import (
    INVALID_CAUSES,
    family_member,
    golden_corpus,
    matrix,
    nested,
    norden,
    reference_curvature,
    reference_induced_curvature_gauss,
    reference_pi_combination,
    reference_pi_tensors,
    run_hypersurface,
)
from nordenlight.ambient import (
    LieAlgebraSpec,
    build_ambient_geometry,
    curvature,
    norden_structure,
    pi_combination,
)
from nordenlight.errors import EngineError
from nordenlight.exact import DenseTensor
from nordenlight.manifold_file import (
    hypersurface_specs,
    lie_algebra_spec,
    norden_from_file,
    parse_manifold_file,
)
from nordenlight.symmetry import induced_curvature_gauss

INVALID = {"jacobi_broken_h3"} | {f"invalid_{cause}_h3" for cause in INVALID_CAUSES}
INPUTS = [name for name, _ in golden_corpus() if name not in INVALID]
INPUTS += ["family_member_conjugated"]
# the one block of this input has no radical transversal, so no second fundamental data
GAUSS_INPUTS = [name for name in INPUTS if name != "heisenberg_c_h3_antidiagonal"]


@cache
def texts():
    return dict(golden_corpus())


@cache
def prepared(name):
    """(spec, norden, ambient, runs of every block that gets second
    fundamental data) of a named input."""
    if name == "family_member_conjugated":
        spec, ns, amb, run = family_member(conjugated=True)
        return spec, ns, amb, (run,)
    mf = parse_manifold_file(texts()[name])
    spec, ns = lie_algebra_spec(mf), norden_from_file(mf)
    amb = build_ambient_geometry(spec, ns)
    runs = (run_hypersurface(amb, hs.span, hs.inducing_metric, hs.xi_hint) for hs in hypersurface_specs(mf))
    return spec, ns, amb, tuple(run for run in runs if run.sf is not None)


def outcome(fn, *args):
    """fn(*args), or the type and message of the engine error it raised."""
    try:
        return fn(*args)
    except EngineError as exc:
        return type(exc).__name__, str(exc)


WEIGHTS = ((1, 0), (0, 1), (F(-2, 3), 5))


# ---------------------------------------------------------------------------
# pipeline inputs: fixtures, the family as written and conjugated, dim 16


@pytest.mark.parametrize("name", INPUTS)
def test_ambient_tables_match_the_dense_references(name):
    spec, ns, amb, _ = prepared(name)
    assert curvature(spec, amb.gamma, ns) == reference_curvature(spec, amb.gamma, ns)
    assert (amb.riemann13, amb.riemann04) == reference_curvature(spec, amb.gamma, ns)
    for m in (ns, norden_structure(ns.g_assoc, ns.j)):
        tensors = reference_pi_tensors(m.g, m.j)
        for a, b in WEIGHTS:
            assert pi_combination(m, a, b) == reference_pi_combination(tensors, a, b)


@pytest.mark.parametrize("name", GAUSS_INPUTS)
def test_induced_gauss_matches_the_dense_reference(name):
    _, _, amb, runs = prepared(name)
    assert runs
    for run in runs:
        table = induced_curvature_gauss(run.sf, run.frame, amb)
        assert table == reference_induced_curvature_gauss(run.sf, run.frame, amb)


def test_conjugated_member_has_dense_span_columns():
    # the case the span contraction must get right: several ambient fields
    # enter each span vector, and the tables carry denominators
    _, _, amb, (run,) = prepared("family_member_conjugated")
    span, den_s = run.frame.span.lattice()
    assert max(sum(1 for x in col if x) for col in zip(*span)) > 1
    assert den_s > 1 or amb.riemann13.den > 1


# ---------------------------------------------------------------------------
# raw tables


def random_entries(rng, count, density, dens):
    return [
        F(rng.randint(-5, 5), rng.choice(dens)) if rng.random() < density else F(0)
        for _ in range(count)
    ]


def random_matrix(rng, n, density, dens=(1, 2, 3, 5)):
    entries = random_entries(rng, n * n, density, dens)
    return tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))


def test_curvature_matches_on_random_raw_tables():
    # gamma and the bracket table need no symmetry and carry their own
    # denominators, so a missing denominator factor or a transposed slot shows
    rng = random.Random(9101)
    for trial in range(40):
        n = 2 + trial % 4
        density = (0.15, 0.5, 1.0)[trial % 3]
        gamma = DenseTensor.from_entries((n,) * 3, random_entries(rng, n**3, density, (1, 2, 3)))
        brackets = DenseTensor.from_entries(
            (n,) * 3, random_entries(rng, n**3, density, (1, 5, 7))
        )
        spec = LieAlgebraSpec(n, tuple(f"X{i + 1}" for i in range(n)), brackets)
        ns = norden(random_matrix(rng, n, density), random_matrix(rng, n, 0.5))
        assert curvature(spec, gamma, ns) == reference_curvature(spec, gamma, ns), trial


def test_curvature_of_zero_tables_is_zero():
    n = 3
    zero = DenseTensor.from_entries((n,) * 3, [F(0)] * n**3)
    spec = LieAlgebraSpec(n, ("X1", "X2", "X3"), zero)
    ns = norden(random_matrix(random.Random(1), n, 1.0), random_matrix(random.Random(2), n, 1.0))
    r13, r04 = curvature(spec, zero, ns)
    assert r13.is_zero() and r04.is_zero()
    assert (r13, r04) == reference_curvature(spec, zero, ns)


def test_pi_tensors_match_on_random_non_symmetric_metrics():
    # a symmetric g would hide a transposed index; the weights of the
    # combination are random, zero on every fourth trial and in either slot
    rng = random.Random(9102)
    asymmetric = 0
    for trial in range(60):
        n = 2 + trial % 4
        density = (0.2, 0.6, 1.0)[trial % 3]
        g = random_matrix(rng, n, density)
        j = random_matrix(rng, n, density)
        asymmetric += any(g[a][b] != g[b][a] for a, b in product(range(n), repeat=2))
        ns = norden_structure(matrix(g), matrix(j))
        a, b = (F(rng.randint(-4, 4), rng.choice((1, 2, 7))) for _ in range(2))
        if trial % 4 == 1:
            a, b = (0, b) if trial % 8 == 1 else (a, 0)
        expected = reference_pi_combination(reference_pi_tensors(ns.g, ns.j), a, b)
        assert pi_combination(ns, a, b) == expected, trial
    assert asymmetric > 50


# ---------------------------------------------------------------------------
# the Codazzi comparison


def ambient_vector_vanishes(amb, frame, a, b, c):
    """Whether R(E_a, E_b)E_c = 0 in the ambient algebra."""
    n = amb.spec.dim
    span = nested(frame.span)
    r13 = amb.riemann13
    return all(
        sum(
            span[a][i] * span[b][j] * span[c][k] * r13[i, j, k, q]
            for i, j, k in product(range(n), repeat=3)
            if span[a][i] and span[b][j] and span[c][k]
        )
        == 0
        for q in range(n)
    )


def perturbed(rng, sf, which):
    """The second fundamental data with one entry of tau, B or the induced
    connection moved by a nonzero rational."""
    m = sf.tau.dims[0]
    delta = F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
    if which == "tau":
        tau = list(sf.tau.entries)
        tau[rng.randrange(m)] += delta
        return replace(sf, tau=DenseTensor.from_entries(sf.tau.dims, tau))
    if which == "b_form":
        rows = [list(row) for row in nested(sf.b_form)]
        rows[rng.randrange(m)][rng.randrange(m)] += delta
        return replace(sf, b_form=matrix(rows))
    entries = list(sf.induced_gamma.entries)
    entries[rng.randrange(m**3)] += delta
    return replace(sf, induced_gamma=DenseTensor.from_entries(sf.induced_gamma.dims, entries))


def test_codazzi_comparison_matches_on_perturbed_data():
    # every residual names the first failing triple in product order; some
    # of those triples have a zero ambient vector, where only the shape and
    # connection terms can differ
    rng = random.Random(9104)
    raised = zero_vector = 0
    for name in ("sl2c_borel", "family_h3", "family_h3_conjugated", "family_member_conjugated"):
        _, _, amb, runs = prepared(name)
        for trial in range(24):
            run = runs[trial % len(runs)]
            sf = perturbed(rng, run.sf, ("tau", "b_form", "induced_gamma")[trial % 3])
            got = outcome(induced_curvature_gauss, sf, run.frame, amb)
            assert got == outcome(reference_induced_curvature_gauss, sf, run.frame, amb), (name, trial)
            if isinstance(got, tuple):
                assert got[0] == "InternalInconsistency"
                assert got[1].startswith("Codazzi residual at basis triple (")
                raised += 1
                a, b, c = (int(x) - 1 for x in got[1].split("(")[1].rstrip(")").split(","))
                zero_vector += ambient_vector_vanishes(amb, run.frame, a, b, c)
    assert raised > 40
    assert 0 < zero_vector < raised


def test_codazzi_comparison_covers_every_triple():
    # the family as written has unit span vectors, so moving the ambient
    # component R(X_i, X_j)X_k along a field outside the span moves the
    # transversal coordinate at the one triple (a, b, c) of (i, j, k) alone;
    # each triple, i = j and the last one included, must be named
    _, _, amb, (run,) = prepared("family_h3")
    frame, sf = run.frame, run.sf
    m, n = frame.span.dims[0], amb.spec.dim
    at = [next(i for i, x in enumerate(v) if x) for v in nested(frame.span)]
    q = next(q for q in range(n) if frame.inverse[m, q])
    for a, b, c in product(range(m), repeat=3):
        entries = list(amb.riemann13.entries)
        entries[((at[a] * n + at[b]) * n + at[c]) * n + q] += F(1, 3)
        moved = replace(amb, riemann13=DenseTensor.from_entries(amb.riemann13.dims, entries))
        got = outcome(induced_curvature_gauss, sf, frame, moved)
        assert got == outcome(reference_induced_curvature_gauss, sf, frame, moved)
        assert got == (
            "InternalInconsistency",
            f"Codazzi residual at basis triple ({a + 1},{b + 1},{c + 1})",
        )
