"""The constant-curvature fit `ambient.pi_fit` against `fit_tables` on the
full columns.

`pi_fit` solves the first two components with independent coefficient rows
for the two constants and compares the one table they give with the
right-hand side; below rank 2, which no valid Norden structure reaches, it
raises. Each outcome is compared with `helpers.reference_pi_fit`, which runs
`reference_fit_tables` on the columns pi1 - pi2 and pi3 of
`reference_pi_tensors`: the kind, the solution and the null space. On whole
verdicts the constants of `constant_trsc` are compared too, and so is the
primed pair the report derives from them, (-nu_assoc, nu) or null, with the
n^4 refit of R~ against the associated tensors that the engine does not run.
`test_fuzz.py` runs the same comparisons on mutated inputs.
"""

import random
from fractions import Fraction as F
from functools import cache
from unittest import mock

import pytest

from helpers import (
    derived_primed,
    fraction_solution,
    golden_corpus,
    norden,
    random_norden_pair,
    reference_associated_table,
    reference_pi_combination,
    reference_pi_fit,
    reference_pi_tensors,
    reported_primed,
    tensor_neg,
    tensor_zeros,
)
from nordenlight import ambient
from nordenlight.ambient import (
    TrscStatus,
    build_ambient_geometry,
    constant_trsc,
    curvature,
    levi_civita,
    pi_fit,
    validate_lie_algebra,
    validate_norden,
)
from nordenlight.errors import InternalInconsistency, ValidationFailure
from nordenlight.exact import DenseTensor
from nordenlight.manifold_file import lie_algebra_spec, norden_from_file, parse_manifold_file
from nordenlight.pipeline import run_pipeline


TEXTS = dict(golden_corpus())


@cache
def validated():
    """{name: (spec, norden)} of the golden inputs that pass validation."""
    out = {}
    for name, text in TEXTS.items():
        mf = parse_manifold_file(text)
        spec, ns = lie_algebra_spec(mf), norden_from_file(mf)
        if validate_lie_algebra(spec).ok and validate_norden(spec, ns).ok:
            out[name] = spec, ns
    return out


NAMES = list(validated())
# the validated inputs whose curvature is not of constant type (the second
# has a J that is not parallel, so its fits run on the curvature alone)
NOT_CONSTANT = {"heisenberg_c_h3", "invalid_kaehler_h3"}


def fits_like_the_reference(ns, rhs, tensors=None):
    """Whether `pi_fit` gives the reference outcome; returns the reference."""
    expected = reference_pi_fit(ns, rhs, tensors)
    assert fraction_solution(pi_fit(ns, rhs)) == expected
    return expected


def status_of(sol):
    """The `TrscStatus` the reference solution stands for."""
    if sol.kind == "infeasible":
        return TrscStatus("not_constant", None, None)
    return TrscStatus("constant", *sol.particular)


def test_validated_corpus():
    # every input but those failing validation, so the dim-16 inputs and the
    # valid input whose J is not parallel are among them
    failing = {"jacobi_broken_h3", "invalid_j_scaled_h3", "invalid_metric_scaled_h3", "invalid_jacobi_h3"}
    assert set(NAMES) == set(TEXTS) - failing


@pytest.mark.parametrize("name", NAMES)
def test_golden_fits_match_fit_tables(name):
    spec, ns = validated()[name]
    tensors = reference_pi_tensors(ns.g, ns.j)
    try:
        amb = build_ambient_geometry(spec, ns)
    except ValidationFailure:  # J not parallel: the fits still run on its curvature
        amb = None
        _, r04 = curvature(spec, levi_civita(spec, ns), ns)
    else:
        r04 = amb.riemann04
    own = fits_like_the_reference(ns, r04, tensors)
    # the refit of -R~ against the associated tensors; the engine derives its outcome from the first fit
    primed = fits_like_the_reference(ns, tensor_neg(reference_associated_table(r04, ns)), tensors)
    assert status_of(own) == constant_trsc(r04, ns)
    assert (own.kind == primed.kind == "infeasible") == (name in NOT_CONSTANT)
    assert primed.particular == derived_primed(own)
    if amb is not None:
        assert amb.trsc == status_of(own)
        assert reported_primed(run_pipeline(parse_manifold_file(TEXTS[name])).data) == primed.particular


@pytest.mark.parametrize("name", NAMES)
def test_golden_associated_pi_relations(name):
    # the n^4 form of the relations `verify_pi_assoc_relations` checks as two
    # n x n identities: pi1~ = pi2, pi2~ = pi1, pi3~ = -pi3
    _, ns = validated()[name]
    p1, p2, p3 = reference_pi_tensors(ns.g, ns.j)
    a1, a2, a3 = reference_pi_tensors(ns.g_assoc, ns.j)
    assert (a1, a2, a3) == (p2, p1, tensor_neg(p3))


@pytest.mark.parametrize("name", ["sl2c_borel", "family_h3_conjugated", "family_h6"])
def test_tampered_curvature_is_infeasible(name):
    spec, ns = validated()[name]
    r04 = build_ambient_geometry(spec, ns).riemann04
    for offset in (r04.offsets[0], r04.offsets[-1] - 1):
        entries = list(r04.entries)
        entries[offset] += F(1, 3)
        tampered = DenseTensor.from_entries(r04.dims, entries)
        assert fits_like_the_reference(ns, tampered).kind == "infeasible"
        assert constant_trsc(tampered, ns) == TrscStatus("not_constant", None, None)


def test_rank_two_fit_does_not_build_the_columns():
    spec, ns = validated()["sl2c_borel"]
    builder = mock.patch.object(ambient, "pi_combination", wraps=ambient.pi_combination)
    with builder as build:
        amb = build_ambient_geometry(spec, ns)
    # one expected table, for the one fit of R
    assert [c.args[1:] for c in build.call_args_list] == [(F(4), F(0))]
    assert (amb.trsc.nu, amb.trsc.nu_assoc) == (4, 0)


def test_random_structures_and_weights():
    # valid Norden pairs (complex dimension 2 and 3) against combinations
    # with random weights: unique, with the weights back; one entry off: infeasible
    rng = random.Random(1601)
    for trial in range(40):
        g, j = random_norden_pair(rng, 2 + trial % 2)
        ns = norden(g, j)
        tensors = reference_pi_tensors(ns.g, ns.j)
        a, b = (F(rng.randint(-6, 6), rng.choice((1, 2, 3, 7))) for _ in range(2))
        rhs = reference_pi_combination(tensors, a, b)
        assert fits_like_the_reference(ns, rhs, tensors).particular == (a, b), trial
        entries = list(rhs.entries)
        entries[rng.randrange(len(entries))] += 1
        tampered = DenseTensor.from_entries(rhs.dims, entries)
        assert fits_like_the_reference(ns, tampered, tensors).kind == "infeasible", trial


# raw structures whose coefficient columns have rank below 2, none of them a
# valid Norden structure: every fit against them raises
LOW_RANK = {
    "zero_metric": ([[0] * 4] * 4, [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]),
    "zero_j": ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]], [[0] * 4] * 4),
    # J = c I: pi2 = c^2 pi1 and pi3 = -2c pi1, both columns multiples of pi1
    "scalar_j": ([[1, 2, 0], [2, -1, 1], [0, 1, 3]], [[F(2, 3), 0, 0], [0, F(2, 3), 0], [0, 0, F(2, 3)]]),
    "identity_j": ([[1, 0, 0], [0, -1, 0], [0, 0, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
}


@pytest.mark.parametrize("name", list(LOW_RANK))
def test_low_rank_columns_raise(name):
    ns = norden(*LOW_RANK[name])
    tensors = reference_pi_tensors(ns.g, ns.j)
    n = ns.g.dims[0]
    zero = tensor_zeros((n,) * 4)
    assert reference_pi_fit(ns, zero, tensors).kind == "parametric"  # the columns are dependent
    right_hand_sides = [zero, reference_pi_combination(tensors, F(5, 2), -3), tensors[0]]
    for rhs in right_hand_sides:
        with pytest.raises(InternalInconsistency, match="pi1 - pi2 and pi3 are dependent"):
            constant_trsc(rhs, ns)
