"""Independent oracle for the int-lattice kernels: the connection, the
curvature, the ambient Ricci, the induced curvature by both routes, the
induced Ricci by all three routes and the three symmetry checkers recomputed
with `sympy.Rational` matrices and brute-force scans, compared with the
engine entry by entry. The frame (xi, N, screen) is the engine's choice; every
table built on it is recomputed here.

Inputs: the family at h = 3 as written, and a dim-6 member with the bracket
and the metric rescaled and the basis changed by an integer matrix of
determinant +-6, so the tables carry different nontrivial denominators.
"""

import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest

from helpers import (
    brute_locally_symmetric,
    brute_ricci_semi_symmetric,
    brute_semi_symmetric,
    family_member,
    matrix,
    nested,
    tensor_from_function,
)
from nordenlight.ambient import ricci_trace
from nordenlight.symmetry import (
    closed_form_curvature,
    closed_form_ricci,
    induced_curvature_closed_form,
    induced_curvature_gauss,
    locally_symmetric_check,
    ricci_from_ambient_decomposition,
    ricci_semi_symmetric_check,
    semi_symmetric_check,
)

sympy = pytest.importorskip("sympy")


def q(x):
    return sympy.Rational(x.numerator, x.denominator)


@pytest.fixture(scope="module", params=[False, True], ids=["family_h3", "conjugated_dim6"])
def member(request):
    return family_member(request.param)


def sympy_connection(spec, metric):
    """gamma[i][j] = coordinates of D_{X_i} X_j from the Koszul formula,
    solved with the inverse metric matrix."""
    n = spec.dim
    c = nested(spec.brackets)
    g = sympy.Matrix(n, n, lambda i, k: q(metric[int(i), int(k)]))
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
    c = nested(spec.brackets)
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
    assert tuple(q(x) for x in flag.value.entries) == value


@pytest.mark.parametrize("offset", [F(1), F(-3, 2)])
def test_checkers_match_brute_force_on_failing_tables(member, offset):
    # the closed form with screen coefficient K - rho^2/b is the geometric
    # table; any other screen coefficient breaks every flag
    _, _, amb, run = member
    k_coeff = amb.trsc.nu
    screen_coeff = k_coeff - run.sf.rho * run.sf.rho / run.frame.b + offset
    table = closed_form_curvature(run.frame, screen_coeff, k_coeff)
    m = table.dims[0]
    t = sympy_nested(table)
    ric = [[sum(t[c][a][b][c] for c in range(m)) for b in range(m)] for a in range(m)]
    gm_flat = [q(x) for x in run.sf.induced_gamma.entries]
    gm = [[gm_flat[(u * m + a) * m : (u * m + a + 1) * m] for a in range(m)] for u in range(m)]

    assert_flag(semi_symmetric_check(table), brute_semi_symmetric(t, m))
    assert_flag(ricci_semi_symmetric_check(table, ricci_trace(table)), brute_ricci_semi_symmetric(t, ric, m))
    assert_flag(locally_symmetric_check(table, run.sf.induced_gamma), brute_locally_symmetric(t, gm, m))


def sympy_induced(spec, ns, amb, frame, rho=None):
    """The induced curvature by the Gauss route and by the closed form, and
    the induced Ricci by the canonical trace, the ambient split and the closed
    form, all from sympy matrices over the given frame; the closed forms take
    rho when given, else the umbilical factor of B. Curvature tables are
    nested [a][b][c][q] (span coordinates of R(E_a, E_b)E_c), Ricci tables are
    sympy matrices; "split_of" is the ambient split for any curvature table
    and second fundamental data."""
    n, m = spec.dim, frame.span.dims[0]
    rows = range(m)

    def matrix(table):
        return sympy.Matrix(*table.dims, lambda i, k: q(table[int(i), int(k)]))

    def column(v):
        return sympy.Matrix(v.dims[0], 1, lambda i, _: q(v[int(i)]))

    span = matrix(frame.span)  # row a: E_a
    transversal, xi = column(frame.transversal), column(frame.xi)
    metric = matrix(ns.metric(frame.inducing_metric))
    j = matrix(ns.j)
    frame_inv = sympy.Matrix.hstack(span.T, transversal).inv()

    def split(v):  # ambient column -> (span coordinates, transversal coefficient)
        coords = frame_inv * v
        return list(coords[:m]), coords[m]

    def ambient(coords):
        return span.T * sympy.Matrix(coords)

    gamma = sympy_connection(spec, ns.g)
    d = [sympy.Matrix(n, n, lambda k, l: gamma[i][k][l]) for i in range(n)]

    def along(u):  # row k: D_u X_k
        return sum((u[i] * d[i] for i in range(n) if u[i] != 0), sympy.zeros(n, n))

    r13 = sympy_curvature(spec, gamma)
    r = [[sympy.Matrix(r13[i][k]) for k in range(n)] for i in range(n)]

    b_form = sympy.zeros(m, m)
    induced = [[None] * m for _ in rows]
    a_n = []
    for a in rows:
        d_a = along(span.row(a))
        for c in rows:
            induced[a][c], b_form[a, c] = split((span.row(c) * d_a).T)
        tangent, _ = split((transversal.T * d_a).T)
        a_n.append([-x for x in tangent])

    gauss = [[[None] * m for _ in rows] for _ in rows]
    for a, b in product(rows, repeat=2):
        r_ab = sum(
            (span[a, i] * span[b, k] * r[i][k] for i, k in product(range(n), repeat=2)),
            sympy.zeros(n, n),
        )
        for c in rows:
            tangent, _ = split((span.row(c) * r_ab).T)
            gauss[a][b][c] = [
                x - b_form[a, c] * y + b_form[b, c] * z for x, y, z in zip(tangent, a_n[b], a_n[a])
            ]

    # closed form: a [g(X,Z) J(PY) - g(Y,Z) J(PX)] + K [m(X,Z) Y - m(Y,Z) X]
    g_ind = span * metric * span.T
    mj = span * metric * (j * span.T)
    eta = [(span.row(a) * metric * transversal)[0] for a in rows]
    b = q(frame.b)
    if rho is None:
        ga, gc = next((a, c) for a, c in product(rows, repeat=2) if g_ind[a, c] != 0)
        rho = b_form[ga, gc] / g_ind[ga, gc]
    else:
        rho = q(rho)
    p_amb = [span.row(a).T - eta[a] * xi for a in rows]
    phi = [split(j * p)[0] for p in p_amb]
    if frame.inducing_metric == "principal":
        k_coeff, other, lead, sign = q(amb.trsc.nu_assoc), matrix(ns.g_assoc), -1, 1
    else:
        k_coeff, other, lead, sign = q(amb.trsc.nu), matrix(ns.g), 1, -1
    a_coeff = k_coeff - rho**2 / b
    closed = [
        [
            [
                [
                    a_coeff * (g_ind[x, z] * phi[y][w] - g_ind[y, z] * phi[x][w])
                    + k_coeff * (mj[x, z] * int(w == y) - mj[y, z] * int(w == x))
                    for w in rows
                ]
                for z in rows
            ]
            for y in rows
        ]
        for x in rows
    ]

    canonical = sympy.Matrix(m, m, lambda x, y: sum(gauss[c][x][y][c] for c in rows))

    # ambient split: Ric_amb + B tr A_N - <A_N X, A*_xi Y> - <R(xi, Y)X, N>
    xi_span, _ = split(xi)
    screen = list(frame.screen_indices)
    inner_inv = sympy.Matrix.hstack(
        *[sympy.eye(m).col(i) for i in screen], sympy.Matrix(xi_span)
    ).inv()
    a_star = []
    for a in rows:
        d_xi = sympy.Matrix([sum(xi_span[c] * induced[a][c][w] for c in rows) for w in rows])
        coords = inner_inv * d_xi
        image = [sympy.Integer(0)] * m
        for pos, idx in enumerate(screen):
            image[idx] = -coords[pos]
        a_star.append(image)
    ric_amb = sympy.Matrix(n, n, lambda i, k: sum(r13[l][i][k][l] for l in range(n)))

    def pair(u, v):
        return (u.T * metric * v)[0]

    def split_of(table, b_form, a_n, a_star):
        tr_an = sum(a_n[a][a] for a in rows)

        def radial(x, y):
            coords = [sum(xi_span[i] * table[i][y][x][w] for i in rows) for w in rows]
            return pair(ambient(coords), transversal)

        return sympy.Matrix(
            m,
            m,
            lambda x, y: (span.row(x) * ric_amb * span.row(y).T)[0]
            + b_form[x][y] * tr_an
            - pair(ambient(a_n[x]), ambient(a_star[y]))
            - radial(x, y),
        )

    h = n // 2
    closed_ricci = sympy.Matrix(
        m,
        m,
        lambda x, y: lead * 2 * (h - 1) * k_coeff * (span.row(x) * other * span.row(y).T)[0]
        + sign * a_coeff * (p_amb[x].T * other * p_amb[y])[0],
    )
    return {
        "gauss": gauss,
        "closed": closed,
        "canonical": canonical,
        "split": split_of(gauss, b_form.tolist(), a_n, a_star),
        "closed_ricci": closed_ricci,
        "split_of": split_of,
    }


def test_induced_curvature_and_ricci_routes_match_sympy(member):
    spec, ns, amb, run = member
    routes = sympy_induced(spec, ns, amb, run.frame)
    gauss, closed, canonical = routes["gauss"], routes["closed"], routes["canonical"]
    split_ricci, closed_ricci = routes["split"], routes["closed_ricci"]
    m = run.frame.span.dims[0]
    assert gauss == closed
    assert canonical == split_ricci == closed_ricci
    r13 = induced_curvature_gauss(run.sf, run.frame, amb)
    closed_r13 = induced_curvature_closed_form(run.frame, run.sf, amb)
    for table, expected in ((r13, gauss), (closed_r13, closed)):
        for (a, b, c, w), value in zip(product(range(m), repeat=4), table.entries):
            assert q(value) == expected[a][b][c][w], (a, b, c, w)
    for ricci, expected in (
        (ricci_trace(r13), canonical),
        (ricci_from_ambient_decomposition(r13, run.sf, run.frame, amb), split_ricci),
        (closed_form_ricci(run.frame, run.sf, amb), closed_ricci),
    ):
        for a, b in product(range(m), repeat=2):
            assert q(ricci[a, b]) == expected[a, b], (a, b)


def test_closed_forms_and_ambient_split_off_the_geometry(member):
    # on geometric input K = rho^2/b, so the screen terms of both closed forms
    # vanish, and the ambient split sees a symmetric table; another rho, a
    # random table and perturbed shape operators make every term count
    spec, ns, amb, run = member
    frame, sf = run.frame, run.sf
    m = frame.span.dims[0]
    rho = sf.rho + F(1, 2)
    routes = sympy_induced(spec, ns, amb, frame, rho)
    sf = replace(sf, rho=rho)
    table = induced_curvature_closed_form(frame, sf, amb)
    for (a, b, c, w), value in zip(product(range(m), repeat=4), table.entries):
        assert q(value) == routes["closed"][a][b][c][w], (a, b, c, w)
    ricci = closed_form_ricci(frame, sf, amb)
    for a, b in product(range(m), repeat=2):
        assert q(ricci[a, b]) == routes["closed_ricci"][a, b], (a, b)

    a_n = [list(row) for row in nested(sf.a_n)]
    a_star = [list(row) for row in nested(sf.a_star_xi)]
    a_n[0][1] += F(1, 3)
    a_star[1][0] -= F(2, 5)
    sf = replace(sf, a_n=matrix(a_n), a_star_xi=matrix(a_star))
    rng = random.Random(7)
    table = tensor_from_function((m,) * 4, lambda *ix: F(rng.randint(-3, 3), rng.randint(1, 4)))
    ricci = ricci_from_ambient_decomposition(table, sf, frame, amb)
    expected = routes["split_of"](
        sympy_nested(table),
        [[q(x) for x in row] for row in nested(sf.b_form)],
        [[q(x) for x in row] for row in nested(sf.a_n)],
        [[q(x) for x in row] for row in nested(sf.a_star_xi)],
    )
    assert expected != expected.T
    for a, b in product(range(m), repeat=2):
        assert q(ricci[a, b]) == expected[a, b], (a, b)
