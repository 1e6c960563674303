"""The front half of a verdict against its Fraction references, bit for bit.

The elimination (`mat_rank`, `mat_inverse`, `Echelon.kernel`, `fit_tables`
on vector tables, `signature`), the validators, the span check, the
classification and the frame construction run on int rows; `tests/helpers.py`
keeps the Fraction versions they replaced. Every result, witness, detail and
error message must be the same.
"""

import random
from fractions import Fraction as F

import pytest

from helpers import (
    family_text,
    hyper_spec,
    kernel,
    mat_rank,
    nested,
    norden,
    random_unimodular,
    reference_construct_screen,
    reference_construct_transversal,
    reference_induce_and_classify,
    reference_kernel_basis,
    reference_mat_inverse,
    reference_mat_rank,
    reference_radical_transversal_check,
    reference_signature,
    reference_solve_affine,
    reference_validate_lie_algebra,
    reference_validate_norden,
    reference_validate_span,
    solve,
    symmetric_diagonal,
    tensor_from_rows,
)
from nordenlight.ambient import (
    LieAlgebraSpec,
    build_ambient_geometry,
    validate_lie_algebra,
    validate_norden,
)
from nordenlight.errors import EngineError
from nordenlight.exact import (
    DenseTensor,
    ShapeError,
    mat_inverse,
    signature,
)
from nordenlight.hypersurface import (
    HypersurfaceSpec,
    construct_screen,
    construct_transversal,
    induce_and_classify,
    radical_transversal_check,
    validate_span,
)
from nordenlight.manifold_file import lie_algebra_spec, norden_from_file, parse_manifold_file


def outcome(fn, *args):
    """fn(*args), or the type and message of the engine or shape error it raised."""
    try:
        return fn(*args)
    except (EngineError, ShapeError) as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# the elimination


def random_system(rng: random.Random, trial: int):
    """A seeded rational system whose shape cycles through tall, wide,
    square, rank-deficient, zero-row, zero-column and 1 x 1 cases, with a
    consistent or a perturbed (mostly infeasible) right-hand side."""
    shape = trial % 7
    rows, cols = {
        0: (rng.randint(4, 9), rng.randint(1, 4)),  # tall
        1: (rng.randint(1, 4), rng.randint(4, 9)),  # wide
        2: (rng.randint(2, 6),) * 2,  # square
        6: (1, 1),
    }.get(shape, (rng.randint(2, 7), rng.randint(2, 7)))

    def q(density=0.7):
        return F(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < density else F(0)

    if shape == 3:  # rank-deficient: a product through a narrower middle
        k = rng.randint(0, min(rows, cols) - 1)
        left = [[q() for _ in range(k)] for _ in range(rows)]
        right = [[q() for _ in range(cols)] for _ in range(k)]
        a = [[sum((left[r][t] * right[t][c] for t in range(k)), F(0)) for c in range(cols)] for r in range(rows)]
    else:
        a = [[q(rng.choice((0.3, 0.7, 1))) for _ in range(cols)] for _ in range(rows)]
    if shape == 4:
        a[rng.randrange(rows)] = [F(0)] * cols
    if shape == 5:
        c = rng.randrange(cols)
        for row in a:
            row[c] = F(0)
    x = [q() for _ in range(cols)]
    b = [sum((u * v for u, v in zip(row, x)), F(0)) for row in a]
    if trial % 3 == 0:
        b[rng.randrange(rows)] += F(rng.choice((-1, 1)), rng.randint(1, 3))
    return a, b


def test_elimination_matches_the_fraction_reference_on_random_systems():
    rng = random.Random(7001)
    kinds, singular = set(), 0
    for trial in range(360):
        a, b = random_system(rng, trial)
        sol = solve(a, b)
        assert sol == reference_solve_affine(a, b), trial
        assert kernel(a) == reference_kernel_basis(a), trial
        assert mat_rank(a) == reference_mat_rank(a), trial
        kinds.add(sol.kind)
        if len(a) == len(a[0]):
            inverse = outcome(lambda m: nested(mat_inverse(tensor_from_rows(m))), a)
            assert inverse == outcome(reference_mat_inverse, a), trial
            singular += inverse == ("ShapeError", "matrix is singular")
        sym = [[x + y for x, y in zip(row, col)] for row, col in zip(a, zip(*a))] if len(a) == len(a[0]) else None
        if sym is not None:
            assert signature(tensor_from_rows(sym)) == reference_signature(sym), trial
    assert kinds == {"unique", "parametric", "infeasible"}
    assert singular > 0


def test_signature_on_symmetric_matrices_with_zero_diagonals():
    rng = random.Random(7002)
    seen = set()
    for trial in range(200):
        n = rng.randint(1, 7)
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for k in range(i, n):
                if (i == k and rng.random() < 0.25) or (i != k and rng.random() < 0.5):
                    m[i][k] = m[k][i] = F(rng.randint(-4, 4), rng.randint(1, 3))
        expected = reference_signature(m)
        assert signature(tensor_from_rows(m)) == expected, trial
        assert sum(expected) == n
        seen.add(any(m[i][i] == 0 for i in range(n)) and expected[2] < n)
    assert seen == {True, False}
    # hyperbolic planes: every diagonal entry zero, repaired by row additions
    assert signature(tensor_from_rows([[0, 1], [1, 0]])) == (1, 1, 0)
    assert signature(tensor_from_rows([[0, 0, 2], [0, 0, 0], [2, 0, 0]])) == (1, 1, 1)
    assert symmetric_diagonal([[0, 1], [1, 0]]) == (F(2), F(-1, 2))


# ---------------------------------------------------------------------------
# the validators


def family_tables(h: int):
    mf = parse_manifold_file(family_text(h))
    spec, ns = lie_algebra_spec(mf), norden_from_file(mf)
    return spec, ns


def perturbed_brackets(spec: LieAlgebraSpec):
    """Every one-entry perturbation of the bracket table, alone and with its
    antisymmetric partner (the closure a BRACKET line has)."""
    n = spec.dim
    entries = spec.brackets.entries
    for off, (i, j, k) in enumerate((i, j, k) for i in range(n) for j in range(n) for k in range(n)):
        for closed in (False, True):
            new = list(entries)
            new[off] += F(1, 2)
            if closed and i != j:
                new[(j * n + i) * n + k] -= F(1, 2)
            elif closed:
                continue
            yield LieAlgebraSpec(n, spec.basis_labels, DenseTensor.from_entries((n, n, n), new))


def perturbed_structures(ns):
    """Every one-entry perturbation of the metric (alone and with its
    symmetric partner; shifted, zeroed and negated) and of J."""
    n = ns.g.dims[0]
    for i in range(n):
        for k in range(n):
            old = ns.g[i, k]
            for value in {old + F(1, 3), F(0), -old} - {old}:
                for closed in (False, True) if i != k else (False,):
                    g = [list(row) for row in nested(ns.g)]
                    g[i][k] = value
                    if closed:
                        g[k][i] = value
                    yield norden(g, ns.j)
            j = [list(row) for row in nested(ns.j)]
            j[i][k] -= 2
            yield norden(ns.g, j)


@pytest.mark.parametrize("h", [2, 3])
def test_validators_match_the_reference_on_every_one_entry_perturbation(h):
    spec, ns = family_tables(h)
    failed = set()
    for bad in perturbed_brackets(spec):
        report = validate_lie_algebra(bad)
        assert report == reference_validate_lie_algebra(bad)
        failed.update(c.name for c in report.checks if not c.ok)
    for bad in perturbed_structures(ns):
        report = validate_norden(spec, bad)
        assert report == reference_validate_norden(spec, bad)
        failed.update(c.name for c in report.checks if not c.ok)
    assert failed == {
        "bracket_antisymmetry",
        "jacobi_identity",
        "metric_symmetric",
        "complex_structure_squares_to_minus_identity",
        "metric_anti_isometry",
        "metric_nondegenerate",
        "metric_signature_neutral",
        "associated_metric_symmetric",
    }


# ---------------------------------------------------------------------------
# spans, classification and frame


def rebased(rng, vectors):
    """The same span written in a random basis: rows of a rational
    invertible recombination of the given vectors."""
    m = len(vectors)
    t = [[x * F(1, rng.randint(1, 3)) for x in row] for row in random_unimodular(rng, m)] if m > 1 else [[F(-2, 3)]]
    return tuple(
        tuple(sum((t[a][b] * vectors[b][q] for b in range(m)), F(0)) for q in range(len(vectors[0])))
        for a in range(m)
    )


def front_half(hs, amb):
    """Every rewritten front-half step on one block: the span check, both
    classifications, and, when lightlike, the screen, the frame and the
    radical-transversal test."""
    out = [outcome(validate_span, hs, amb)]
    if out[0] is not None:
        return out
    for which in ("principal", "associated"):
        cls = outcome(induce_and_classify, HypersurfaceSpec(hs.span, which, hs.xi_hint), amb)
        if isinstance(cls, tuple):
            out.append(cls)
            continue
        fields = (cls.gram, cls.radical_ambient, cls.normal_direction)
        out.append((cls.kind, *(None if t is None else nested(t) for t in fields)))
        if which != hs.inducing_metric or cls.kind != "lightlike":
            continue
        screen = construct_screen(hs, cls)
        frame = outcome(construct_transversal, hs, amb, cls, screen)
        out.append(screen)
        if isinstance(frame, tuple):
            out.append(frame)
            continue
        out.append((nested(frame.xi), nested(frame.transversal), nested(frame.eta)))
        rt = outcome(radical_transversal_check, frame)  # the screen holomorphy
        out.append(rt if isinstance(rt, tuple) else (frame.b is not None, frame.b, rt))
    return out


def reference_front_half(hs, amb):
    out = [outcome(reference_validate_span, hs, amb)]
    if out[0] is not None:
        return out
    for which in ("principal", "associated"):
        sub = HypersurfaceSpec(hs.span, which, hs.xi_hint)
        cls = outcome(reference_induce_and_classify, sub, amb)
        out.append(cls)
        if which != hs.inducing_metric or cls[0] != "lightlike":
            continue
        engine_cls = induce_and_classify(sub, amb)
        screen = reference_construct_screen(hs, engine_cls)
        frame = outcome(reference_construct_transversal, hs, amb, engine_cls, screen)
        out.append(screen)
        out.append(frame)
        if frame[0] in ("HypothesisFailure", "InternalInconsistency"):
            continue
        engine_frame = construct_transversal(hs, amb, engine_cls, screen)
        out.append(outcome(reference_radical_transversal_check, engine_frame, amb))
    return out


@pytest.mark.parametrize("h", [2, 3])
def test_spans_that_are_not_unit_vectors_match_the_reference(h):
    spec, ns = family_tables(h)
    amb = build_ambient_geometry(spec, ns)
    n = 2 * h
    rng = random.Random(7100 + h)
    unit = [tuple(F(int(q == i)) for q in range(n)) for i in range(n)]
    outcomes = set()
    for trial in range(24):
        dropped = (0, h)[trial % 2]  # without X1 or without X_{h+1}: both subalgebras
        base = [unit[i] for i in range(n) if i != dropped]
        if trial % 6 == 5:  # a random span, rarely closed under the bracket
            base = [tuple(F(rng.randint(-2, 2)) for _ in range(n)) for _ in range(n - 1)]
        span = rebased(rng, base)
        if trial % 8 == 7:  # dependent
            span = span[:-1] + (span[0],)
        hint = None
        if trial % 4 == 3:
            hint = tuple(F(rng.choice((-2, -1, 1, 3))) * x for x in unit[h])
        hs = hyper_spec(span, ("principal", "associated")[trial % 3 != 0], hint)
        engine = front_half(hs, amb)
        assert engine == reference_front_half(hs, amb), trial
        outcomes.add(engine[0] is None)
        outcomes.update(x[0] for x in engine[1:3] if isinstance(x, tuple))
    assert outcomes >= {True, False, "lightlike", "nondegenerate"}
