"""Independent oracle for the int-lattice kernels: the connection, the
curvature, the ambient Ricci and the three symmetry checkers recomputed with
`sympy.Rational` matrices and brute-force scans, compared with the engine
entry by entry.

Inputs: the family at h = 3 as written, and a dim-6 member with the bracket
and the metric rescaled and the basis changed by an integer matrix of
determinant +-6, so the tables carry different nontrivial denominators.
"""

import random
from fractions import Fraction as F
from itertools import product

import pytest

from helpers import (
    brute_locally_symmetric,
    brute_ricci_semi_symmetric,
    brute_semi_symmetric,
    conjugate_instance,
    family_text,
    random_unimodular,
    run_hypersurface,
    scale_brackets,
)
from nordenlight.ambient import build_ambient_geometry, norden_structure
from nordenlight.manifold_file import (
    hypersurface_specs,
    lie_algebra_spec,
    norden_from_file,
    parse_manifold_file,
)
from nordenlight.symmetry import (
    canonical_ricci,
    closed_form_curvature,
    locally_symmetric_check,
    ricci_semi_symmetric_check,
    semi_symmetric_check,
)

sympy = pytest.importorskip("sympy")


def q(x):
    return sympy.Rational(x.numerator, x.denominator)


def _member(conjugated: bool):
    mf = parse_manifold_file(family_text(3))
    spec, ns = lie_algebra_spec(mf), norden_from_file(mf)
    span = hypersurface_specs(mf)[0].span
    if conjugated:
        # a basis change of determinant +-6, the bracket scaled by 5/7 and the
        # metric by 1/3: the bracket, metric, J, connection, curvature and
        # induced tables all get denominators, and they differ
        s = [list(row) for row in random_unimodular(random.Random(1), 6)]
        for row in s:
            row[1] *= 2
            row[4] *= 3
        spec, ns, span = conjugate_instance(scale_brackets(spec, F(5, 7)), ns, s, span)
        ns = norden_structure(tuple(tuple(x / 3 for x in row) for row in ns.g), ns.j)
    amb = build_ambient_geometry(spec, ns)
    return spec, ns, amb, run_hypersurface(amb, span, "associated")


@pytest.fixture(scope="module", params=[False, True], ids=["family_h3", "conjugated_dim6"])
def member(request):
    return _member(request.param)


def sympy_connection(spec, metric):
    """gamma[i][j] = coordinates of D_{X_i} X_j from the Koszul formula,
    solved with the inverse metric matrix."""
    n = spec.dim
    c = spec.brackets.nested()
    g = sympy.Matrix(n, n, lambda i, k: q(metric[i][k]))
    g_inv = g.inv()

    def pair_bracket(a, b, k):
        return sum((q(c[a][b][m]) * g[m, k] for m in range(n)), sympy.Integer(0))

    gamma = []
    for i in range(n):
        row = []
        for j in range(n):
            rhs = sympy.Matrix(
                n, 1, lambda k, _: (pair_bracket(i, j, k) + pair_bracket(k, i, j) + pair_bracket(k, j, i)) / 2
            )
            row.append(list(g_inv * rhs))
        gamma.append(row)
    return gamma


def sympy_curvature(spec, gamma):
    """r13[i][j][k][l]: with D_i the matrix whose row m holds D_{X_i} X_m,
    R(X_i, X_j) acts on row vectors as D_j D_i - D_i D_j - sum_m c_ij^m D_m."""
    n = spec.dim
    c = spec.brackets.nested()
    d = [sympy.Matrix(n, n, lambda m, l: gamma[i][m][l]) for i in range(n)]
    r13 = []
    for i in range(n):
        row = []
        for j in range(n):
            op = d[j] * d[i] - d[i] * d[j]
            for m in range(n):
                op -= q(c[i][j][m]) * d[m]
            row.append([[op[k, l] for l in range(n)] for k in range(n)])
        r13.append(row)
    return r13


def test_connection_curvature_and_ricci_match_sympy(member):
    spec, ns, amb, _ = member
    n = spec.dim
    gamma = sympy_connection(spec, ns.g)
    for (i, j, k), value in zip(product(range(n), repeat=3), amb.gamma.entries):
        assert q(value) == gamma[i][j][k], (i, j, k)
    r13 = sympy_curvature(spec, gamma)
    for (i, j, k, l), value in zip(product(range(n), repeat=4), amb.riemann13.entries):
        assert q(value) == r13[i][j][k][l], (i, j, k, l)
    for (i, j), value in zip(product(range(n), repeat=2), amb.ricci.entries):
        assert q(value) == sum((r13[k][i][j][k] for k in range(n)), sympy.Integer(0)), (i, j)


def sympy_nested(table):
    n = table.dims[0]
    flat = [q(x) for x in table.entries]
    return [
        [[flat[((i * n + j) * n + k) * n : ((i * n + j) * n + k + 1) * n] for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def assert_flag(flag, expected):
    assert not flag.holds and expected is not None
    witness, value = expected
    assert flag.witness == witness
    assert tuple(q(x) for x in flag.value) == value


@pytest.mark.parametrize("offset", [F(1), F(-3, 2)])
def test_checkers_match_brute_force_on_failing_tables(member, offset):
    # the closed form with screen coefficient K - rho^2/b is the geometric
    # table; any other screen coefficient breaks every flag
    _, _, amb, run = member
    k_coeff = amb.trsc.nu
    screen_coeff = k_coeff - run.sf.rho * run.sf.rho / run.frame.b + offset
    table = closed_form_curvature(run.frame, amb, screen_coeff, k_coeff)
    m = table.dims[0]
    t = sympy_nested(table)
    ric = [[sum(t[c][a][b][c] for c in range(m)) for b in range(m)] for a in range(m)]
    gm_flat = [q(x) for x in run.sf.induced_gamma.entries]
    gm = [[gm_flat[(u * m + a) * m : (u * m + a + 1) * m] for a in range(m)] for u in range(m)]

    assert_flag(semi_symmetric_check(table), brute_semi_symmetric(t, m))
    assert_flag(ricci_semi_symmetric_check(table, canonical_ricci(table)), brute_ricci_semi_symmetric(t, ric, m))
    assert_flag(locally_symmetric_check(table, run.sf.induced_gamma), brute_locally_symmetric(t, gm, m))
