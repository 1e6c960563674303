"""Ambient geometry of a Lie algebra carrying a Norden structure.

A Norden structure on an even-dimensional algebra is a neutral metric g
together with a complex structure J acting as an anti-isometry,
g(JX, JY) = -g(X, Y). The associated metric g~(X, Y) = g(JX, Y) is a second
Norden metric. This module validates such input, derives the Levi-Civita
connection of the left-invariant metric from the Koszul formula, computes the
curvature tensor, tests the parallel-J (Kaehler) condition, and detects
whether the curvature has the constant-coefficient form

    R = nu * (pi1 - pi2) + nu_assoc * pi3

in the two curvature-type tensors pi1, pi2 built from g and g-compose-J and
the mixed tensor pi3. The coefficients nu and nu_assoc are the totally real
sectional curvatures with respect to g. The fit solves two components with
independent coefficient rows for the two constants and compares the one
expected table they give with the curvature; the pi-tensors are never built
one by one.

The primed pair, taken with respect to the associated metric, is
(-nu_assoc, nu) and is not fitted again: the associated tensors are those of
g with pi1 and pi2 swapped and pi3 negated (`verify_pi_assoc_relations`),
and W -> JW sends pi1 - pi2 to -pi3 and pi3 to pi1 - pi2, so the curvature
R~(X, Y, Z, W) = R(X, Y, Z, JW) of g~ is of constant type exactly when R is.

Conventions, fixed once for the whole engine:

* curvature: R(X, Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z, lowered as
  R(X, Y, Z, W) = g(R(X, Y)Z, W);
* Ricci: Ric(X, Y) = trace of Z -> R(Z, X)Y. The opposite trace order
  (Z -> R(X, Z)Y) negates every entry; reports carry both readings.

All scalar coefficients are constants of the left-invariant frame, so frame
derivatives of scalars vanish identically and every formula is algebraic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul

from .errors import InternalInconsistency, ValidationFailure
from .exact import (
    DenseTensor,
    LinearSolution,
    RowIndex,
    add_row,
    format_rational,
    int_bilinear,
    int_matmul,
    mat_inverse,
    nonzero_rows,
    row_index,
    signature,
)


@dataclass(frozen=True)
class Check:
    """One named validation or identity check with an optional witness."""

    name: str
    ok: bool
    witness: tuple | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants of a bracket: [X_i, X_j] = sum_k c[i][j][k] X_k."""

    dim: int
    basis_labels: tuple[str, ...]
    brackets: DenseTensor


@dataclass(frozen=True)
class NordenStructure:
    """Metric table g, complex structure J (column k holds the coordinates of
    J X_k), and the derived associated metric g_assoc(X, Y) = g(JX, Y), as
    n x n tables."""

    g: DenseTensor
    j: DenseTensor
    g_assoc: DenseTensor

    def metric(self, which: str) -> DenseTensor:
        if which == "principal":
            return self.g
        if which == "associated":
            return self.g_assoc
        raise ValueError(f"unknown metric selector {which!r}")

    @cached_property
    def gj(self) -> DenseTensor:
        """The table g(X_a, J X_b), read by the curvature fit, the pi relations and the Ricci closed form."""
        (g, dg), (j, dj) = self.g.lattice(), self.j.lattice()
        return DenseTensor.from_rows(self.g.dims, int_matmul(g, j), dg * dj)

    @cached_property
    def operands(self) -> dict[str, RowIndex]:
        """The right operands of `int_matmul` that the products below reuse:
        the rows J X_a ("jt") and the rows of each metric."""
        n = self.g.dims[0]
        return {
            "jt": row_index(tuple(zip(*self.j.lattice()[0]))),
            "principal": RowIndex(self.g.rows, n),
            "associated": RowIndex(self.g_assoc.rows, n),
        }

    def apply_j_rows(self, vectors):
        """J applied to every row of an int table of ambient vectors, both
        given as (rows, den)."""
        rows, den = vectors
        return int_matmul(rows, self.operands["jt"]), den * self.j.den

    def pairings(self, which: str, u, v):
        """(rows, den) of the pairings <u_a, v_b> in `metric(which)` for int
        tables of ambient vectors u and v given as (rows, den)."""
        den = u[1] * self.metric(which).den * v[1]
        return int_bilinear(u[0], self.operands[which], v[0]), den


def norden_structure(g: DenseTensor, j: DenseTensor) -> NordenStructure:
    (gi, dg), (ji, dj) = g.lattice(), j.lattice()
    # row i of J^T G: g_assoc[i][k] = sum_q j[q][i] g[q][k]
    g_assoc = DenseTensor.from_rows(g.dims, int_matmul(tuple(zip(*ji)), gi), dj * dg)
    return NordenStructure(g=g, j=j, g_assoc=g_assoc)


def require_equal(own: DenseTensor, other: DenseTensor, what: str, own_name: str, other_name: str) -> None:
    """Raise InternalInconsistency unless two tables are equal, naming the
    first differing 1-based index in row-major order and both values there:
    "<what> at (i,j,...): <own_name> x, <other_name> y". Both tables are in
    lowest terms, so equal fields are equal entries."""
    if own != other:
        index, x, y = own.difference(other)
        raise InternalInconsistency(
            f"{what} at ({','.join(map(str, index))}): "
            f"{own_name} {format_rational(x)}, {other_name} {format_rational(y)}"
        )


# ---------------------------------------------------------------------------
# validation


def validate_lie_algebra(spec: LieAlgebraSpec) -> ValidationReport:
    """Well-formedness of the bracket table: antisymmetry and the Jacobi
    identity, plus the dimensional scope (even, at least 4). Witnesses are
    1-based index triples."""
    n = spec.dim
    checks = []

    in_scope = n >= 4 and n % 2 == 0
    checks.append(Check("dimension_even_and_at_least_four", in_scope, None if in_scope else (n,)))

    c, _ = spec.brackets.lattice()
    witness = next(
        (
            (i + 1, j + 1, k + 1)
            for i in range(n)
            for j in range(i, n)
            for k in range(n)
            if c[i][j][k] + c[j][i][k]
        ),
        None,
    )
    checks.append(Check("bracket_antisymmetry", witness is None, witness))

    jac_witness = None
    if witness is None:
        # row k of ad[a][b] is [X_a, [X_b, X_k]]: the nonzero rows of the
        # slice c[b] mapped through the slice c[a]
        blocks, zero = spec.brackets.blocks, (0,) * n
        right = [RowIndex(blocks.get(a, {}), n) for a in range(n)]
        ad = [[int_matmul(blocks.get(b, {}), right[a]) for b in range(n)] for a in range(n)]
        jac_witness = next(
            (
                (i + 1, j + 1, k + 1)
                for i, j, k in combinations(range(n), 3)
                if any(map(sum, zip(ad[i][j].get(k, zero), ad[j][k].get(i, zero), ad[k][i].get(j, zero))))
            ),
            None,
        )
    checks.append(Check("jacobi_identity", jac_witness is None, jac_witness))
    return ValidationReport(tuple(checks))


def validate_norden(spec: LieAlgebraSpec, ns: NordenStructure) -> ValidationReport:
    """Checks J^2 = -I, the anti-isometry g(JX, JY) = -g(X, Y), metric
    symmetry, nondegeneracy, neutral signature (n, n), and symmetry of the
    derived associated metric."""
    n = spec.dim
    g, _ = ns.g.lattice()
    j, dj = ns.j.lattice()
    checks = []

    w = next(((i + 1, k + 1) for i in range(n) for k in range(i + 1, n) if g[i][k] != g[k][i]), None)
    checks.append(Check("metric_symmetric", w is None, w))

    one = dj * dj
    jj = int_matmul(j, j)  # J^2 over dj^2
    w = next(
        ((q + 1, k + 1) for q in range(n) for k in range(n) if jj[q][k] != (-one if q == k else 0)),
        None,
    )
    checks.append(Check("complex_structure_squares_to_minus_identity", w is None, w))

    jt = tuple(zip(*j))  # row a holds J X_a
    jgj = int_bilinear(jt, g, jt)  # g(J X_i, J X_k) over dj^2 and the den of g
    w = next(((i + 1, k + 1) for i in range(n) for k in range(i, n) if jgj[i][k] + one * g[i][k]), None)
    checks.append(Check("metric_anti_isometry", w is None, w))

    pos, neg, zero = signature(ns.g)
    checks.append(Check("metric_nondegenerate", zero == 0, None if zero == 0 else (zero,)))
    neutral = zero == 0 and pos == neg == n // 2
    checks.append(Check("metric_signature_neutral", neutral, None if neutral else (pos, neg)))

    ga, _ = ns.g_assoc.lattice()
    w = next(
        ((i + 1, k + 1) for i in range(n) for k in range(i + 1, n) if ga[i][k] != ga[k][i]), None
    )
    checks.append(Check("associated_metric_symmetric", w is None, w))
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# connection and curvature


def koszul_connection(spec: LieAlgebraSpec, metric: DenseTensor) -> DenseTensor:
    """Connection table of the Levi-Civita connection of a left-invariant
    metric, solved exactly from the Koszul formula

        2 <D_X Y, Z> = <[X,Y], Z> + <[Z,X], Y> + <[Z,Y], X>

    over basis fields. Scalar products of left-invariant fields are constant,
    so no derivative terms appear. Table layout: D_{X_i} X_j = sum_k t[i,j,k] X_k.
    """
    n = spec.dim
    g, dg = metric.lattice()
    ginv, di = mat_inverse(metric).lattice()
    # row a * n + b of bg is <[X_a, X_b], X_k> over dc * dg, from the
    # nonzero brackets; each entry enters the right-hand side
    # <[X_i,X_j],X_k> + <[X_k,X_i],X_j> + <[X_k,X_j],X_i> of row i * n + j
    # at three places
    rhs: dict[int, list[int]] = {}
    for r, row in int_matmul(spec.brackets.rows, row_index(g)).items():
        a, b = divmod(r, n)
        for k, x in enumerate(row):
            if x:
                for at, q in ((r, k), (b * n + k, a), (k * n + b, a)):
                    (rhs.get(at) or rhs.setdefault(at, [0] * n))[q] += x
    t = int_matmul(nonzero_rows(rhs), row_index(tuple(zip(*ginv))))
    return DenseTensor.from_rows((n, n, n), t, 2 * spec.brackets.den * dg * di)


def levi_civita(spec: LieAlgebraSpec, ns: NordenStructure) -> DenseTensor:
    return koszul_connection(spec, ns.g)


@dataclass(frozen=True)
class KaehlerCheck:
    """Result of the parallel-J test: f_table holds g((D_X J)Y, Z)."""

    is_kaehler_norden: bool
    f_table: DenseTensor
    f_witness: tuple | None


def kaehler_check(spec: LieAlgebraSpec, ns: NordenStructure, gamma: DenseTensor) -> KaehlerCheck:
    n = spec.dim
    j, dj = ns.j.lattice()
    dg = ns.g.den
    jt = tuple(zip(*j))  # row a holds J X_a
    diff = {}
    for i in range(n):
        # row a of J^T G_i - G_i J^T is D_{X_i}(J X_a) - J(D_{X_i} X_a), with
        # G_i the slice of gamma whose row m is D_{X_i} X_m; the rows are
        # then paired with every X_k
        g_i = gamma.blocks.get(i, {})
        for a, row in enumerate(int_matmul(jt, RowIndex(g_i, n))):
            diff[i * n + a] = row
        for a, row in int_matmul(g_i, ns.operands["jt"]).items():
            add_row(diff, i * n + a, -1, row)
    f_rows = int_matmul(nonzero_rows(diff), ns.operands["principal"])
    f_table = DenseTensor.from_rows((n, n, n), f_rows, dj * gamma.den * dg)
    f_witness = next((ix for ix, _ in f_table.nonzero()), None)
    is_kaehler = f_witness is None

    # the Levi-Civita connections of the two metrics are equal exactly when
    # J is parallel, on every valid Norden structure; both tables are
    # canonical, so equal fields are equal connections
    ga, _ = ns.g_assoc.lattice()
    symmetric = all(ga[i][k] == ga[k][i] for i in range(n) for k in range(n))
    if symmetric and signature(ns.g_assoc)[2] == 0:
        if (koszul_connection(spec, ns.g_assoc) == gamma) != is_kaehler:
            raise InternalInconsistency(
                "parallel-J test and connection-difference test disagree on validated input"
            )
    return KaehlerCheck(is_kaehler, f_table, f_witness)


def connection_curvature(brackets: DenseTensor, gamma: DenseTensor) -> DenseTensor:
    """R(X_i, X_j)X_k = [G_i, G_j]X_k - G_{[X_i, X_j]}X_k, with G_i the
    matrix of D_{X_i} (gamma[i][k] the row D_{X_i} X_k) and brackets[i][j]
    the row [X_i, X_j], scattered from nonzero entries alone:
    D_{X_i} D_{X_j} X_k from each nonzero connection entry against the
    nonzero rows it meets, the bracket term from each nonzero structure
    constant against the nonzero rows of one slice of the connection."""
    n = gamma.dims[0]
    dgm, dc = gamma.den, brackets.den
    den = lcm(dgm * dgm, dc * dgm)
    f_prod, f_bracket = den // (dgm * dgm), den // (dc * dgm)
    rows = defaultdict(partial(mul, [0], n))  # row (i * n + j) * n + k: R(X_i, X_j)X_k
    # D_{X_i} D_{X_j} X_k = sum_m G[j][k][m] D_{X_i} X_m, with G[i][m] the
    # row D_{X_i} X_m: each nonzero G[j][k][m] meets the nonzero rows
    # G[i][m] and enters row (i, j, k) and, negated, row (j, i, k); i = j
    # cancels
    meets: dict[int, list] = {}  # m -> (i, G[i][m]) over the nonzero rows
    for r, items in gamma.rows.items():
        i, m = divmod(r, n)
        meets.setdefault(m, []).append((i, items))
    for r, items in gamma.rows.items():
        j, k = divmod(r, n)
        for m, x in items:
            x *= f_prod
            for i, g_im in meets.get(m, ()):
                if i != j:
                    out, opp = rows[(i * n + j) * n + k], rows[(j * n + i) * n + k]
                    for q, y in g_im:
                        out[q] += x * y
                        opp[q] -= x * y
    # - D_{[X_i, X_j]} X_k: each nonzero structure constant c of X_m in
    # [X_i, X_j] meets the nonzero rows of the slice G_m
    none: dict = {}
    for r, items in brackets.rows.items():
        for m, c in items:
            c *= f_bracket
            for k, g_mk in gamma.blocks.get(m, none).items():
                out = rows[r * n + k]
                for q, y in g_mk:
                    out[q] -= c * y
    return DenseTensor.from_rows((n, n, n, n), rows, den)


def curvature(
    spec: LieAlgebraSpec, gamma: DenseTensor, ns: NordenStructure
) -> tuple[DenseTensor, DenseTensor]:
    """Curvature tables: riemann13[i,j,k,l] holds the X_l coefficient of
    R(X_i, X_j)X_k (`connection_curvature`), riemann04 lowers the last slot
    with the metric."""
    r13 = connection_curvature(spec.brackets, gamma)
    r04 = int_matmul(r13.rows, ns.operands["principal"])
    return r13, DenseTensor.from_rows(r13.dims, r04, r13.den * ns.g.den)


# ---------------------------------------------------------------------------
# curvature-type tensors and the constant-curvature fit


def pi_combination(ns: NordenStructure, a: Fraction, b: Fraction) -> DenseTensor:
    """The table a (pi1 - pi2) + b pi3 of the curvature-type tensors of g and J:

        pi1(X,Y,Z,W) = g(Y,Z)g(X,W) - g(X,Z)g(Y,W)
        pi2(X,Y,Z,W) = g(Y,JZ)g(X,JW) - g(X,JZ)g(Y,JW)
        pi3(X,Y,Z,W) = -g(Y,Z)g(X,JW) + g(X,Z)g(Y,JW)
                       - g(X,W)g(Y,JZ) + g(Y,W)g(X,JZ)

    Each is a sum of products p(Y,Z) q(X,W) minus the same product with X
    and Y swapped. Summed with their weights, the products with q = g have
    p = a g - b gJ, and those with q = gJ have p = -b g - a gJ, so the rows
    over W are accumulated in one pass from the nonzero entries of the two p
    (over one denominator) and the nonzero rows of g and gJ, each product
    written at both slot orders."""
    n, (g, dg), (h, dh) = ns.g.dims[0], ns.g.lattice(), ns.gj.lattice()
    weights = [Fraction(a) / dg**2, -Fraction(a) / dh**2, -Fraction(b) / (dg * dh)]
    den = lcm(*(w.denominator for w in weights))
    f1, f2, f3 = (w.numerator * (den // w.denominator) for w in weights)
    # row (a * n + b) * n + k holds the entries at (X, Y, Z) = (a, b, k)
    n2, out = n * n, {}
    for (fg, fh), q in (((f1, f3), ns.g), ((f3, f2), ns.gj)):
        p = nonzero_rows([[fg * x + fh * y for x, y in zip(gr, hr)] for gr, hr in zip(g, h)])
        xw = [(a_ * n2, a_ * n, items) for a_, items in q.rows.items()]
        for r, items_yz in p.items():
            for k, x in items_yz:
                bk, bk_ = r * n + k, r * n2 + k
                for a_, a_n, items in xw:
                    # p(Y,Z) q(X,W) at (a, b, k, l), and its negative at (b, a, k, l)
                    here = out.get(a_ + bk) or out.setdefault(a_ + bk, [0] * n)
                    there = out.get(bk_ + a_n) or out.setdefault(bk_ + a_n, [0] * n)
                    for l, y in items:
                        v = x * y
                        here[l] += v
                        there[l] -= v
    return DenseTensor.from_rows((n, n, n, n), out, den)


def pi_fit(ns: NordenStructure, rhs: DenseTensor) -> LinearSolution:
    """The fit rhs = x (pi1 - pi2) + y pi3 over every component, unique or
    infeasible. The first two components in product order whose coefficient
    rows are independent are computed from g and gJ alone (a component
    (X, Y, Z, W) is zero unless Z and W lie in the supports of the rows X and
    Y of both tables); their solution is the only candidate, so the fit is
    unique when its table `pi_combination` equals rhs and infeasible
    otherwise. Two such rows exist on every valid Norden structure: with
    B = g - i g~, pi1 - pi2 and pi3 are the real and imaginary parts of the
    nonzero complex-multilinear tensor B(Y,Z)B(X,W) - B(X,Z)B(Y,W), and such
    parts are linearly independent. Their absence raises
    InternalInconsistency."""
    n, (g, dg), (h, dh) = ns.g.dims[0], ns.g.lattice(), ns.gj.lattice()
    support = [{c for t in (ns.g, ns.gj) for c, _ in t.rows.get(a, ())} for a in range(n)]

    def row(x, y, z, w):  # (offset, pi1 - pi2, pi3) at (X, Y, Z, W), over (dg dh)^2
        gx, gy, hx, hy = g[x], g[y], h[x], h[y]
        c1 = dh * dh * (gy[z] * gx[w] - gx[z] * gy[w]) - dg * dg * (hy[z] * hx[w] - hx[z] * hy[w])
        c3 = dg * dh * (gx[z] * hy[w] - gy[z] * hx[w] + gy[w] * hx[z] - gx[w] * hy[z])
        return ((x * n + y) * n + z) * n + w, c1, c3

    pairs = ((x, y) for x, y in product(range(n), repeat=2) if x != y)
    rows = (row(x, y, z, w) for x, y in pairs for z, w in product(sorted(support[x] | support[y]), repeat=2))
    first = next((r for r in rows if r[1] or r[2]), None)
    second = first and next((r for r in rows if first[1] * r[2] - first[2] * r[1]), None)
    if second is None:
        raise InternalInconsistency("the curvature-type tensors pi1 - pi2 and pi3 are dependent")
    (p, a1, a3), (q, b1, b3) = first, second
    scale, det = (dg * dh) ** 2, rhs.den * (a1 * b3 - b1 * a3)
    rp, rq = rhs.num(p), rhs.num(q)
    x, y = Fraction(scale * (rp * b3 - rq * a3), det), Fraction(scale * (a1 * rq - b1 * rp), det)
    if pi_combination(ns, x, y) != rhs:
        return LinearSolution("infeasible", None, ())
    return LinearSolution("unique", DenseTensor.from_entries((2,), (x, y)), ())


def verify_pi_assoc_relations(ns: NordenStructure) -> None:
    """The curvature-type tensors of the associated metric are those of g
    with pi1 and pi2 swapped and pi3 negated. They are built from (g~, g~J)
    as those of g are from (g, gJ): pi1 and pi2 quadratically in one member,
    pi3 bilinearly in both. So the relations follow from the two n x n
    identities g~ = gJ and g~J = -g, checked here (`require_equal`)."""
    require_equal(ns.g_assoc, ns.gj, "associated metric does not equal gJ", "g(JX,Y)", "g(X,JY)")
    (ga, dga), (j, dj) = ns.g_assoc.lattice(), ns.j.lattice()
    ga_j = DenseTensor.from_rows(ns.g.dims, int_matmul(ga, j), dga * dj)
    require_equal(ga_j, -ns.g, "associated metric composed with J does not equal -g", "g(JX,JY)", "-g(X,Y)")


@dataclass(frozen=True)
class TrscStatus:
    """Outcome of the constant totally-real-sectional-curvature fit."""

    kind: str  # "constant" | "not_constant"
    nu: Fraction | None
    nu_assoc: Fraction | None

    # per inducing metric: the field of its constant, then the other field
    FIELDS = {"principal": ("nu", "nu_assoc"), "associated": ("nu_assoc", "nu")}

    def attached(self, which: str) -> tuple[Fraction | None, Fraction | None]:
        """The constant attached to the inducing metric `which` (it must
        vanish), then the constant of the other metric (the condition's K)."""
        return tuple(getattr(self, name) for name in self.FIELDS[which])


def constant_trsc(r04: DenseTensor, ns: NordenStructure) -> TrscStatus:
    """Exact linear fit R = nu (pi1 - pi2) + nu_assoc pi3 over every component (`pi_fit`).

    A unique solution means both totally real sectional curvatures are
    constant; an infeasible system means they are not. The two tensors are
    independent on every valid Norden structure, so no other outcome occurs.
    """
    sol = pi_fit(ns, r04)
    if sol.kind == "infeasible":
        return TrscStatus("not_constant", None, None)
    return TrscStatus("constant", *sol.particular.entries)


def ambient_ricci(r13: DenseTensor, ns: NordenStructure, trsc: TrscStatus) -> DenseTensor:
    """Ricci table Ric(X, Y) = trace of Z -> R(Z, X)Y.

    When the curvature fit is constant the closed form
    Ric = 2(h - 1)(nu g - nu_assoc gJ), with n = 2h, must hold; cross-checked.
    """
    n = r13.dims[0]
    ric = ricci_trace(r13)
    if trsc.kind == "constant":
        (g, dg), (gj, dgj) = ns.g.lattice(), ns.gj.lattice()
        a, b = 2 * (n // 2 - 1) * trsc.nu / dg, -2 * (n // 2 - 1) * trsc.nu_assoc / dgj
        den = lcm(a.denominator, b.denominator)
        fa, fb = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
        flat = (fa * x + fb * y for rg, rj in zip(g, gj) for x, y in zip(rg, rj))
        expected = DenseTensor.from_lattice((n, n), flat, den)
        require_equal(ric, expected, "ambient Ricci closed form fails", "Ricci", "closed form")
    return ric


def ricci_trace(r13: DenseTensor) -> DenseTensor:
    """The table Ric(X_i, X_j) = sum_k R13[k, i, j, k], the trace of
    Z -> R(Z, X)Y, from the nonzero entries of R13."""
    n = r13.dims[0]
    trace: dict[int, list[int]] = {}
    for r, items in r13.rows.items():  # row (k * n + i) * n + j
        k, ij = divmod(r, n * n)
        for q, x in items:
            if q == k:
                i, j = divmod(ij, n)
                (trace.get(i) or trace.setdefault(i, [0] * n))[j] += x
                break
    return DenseTensor.from_rows((n, n), trace, r13.den)


# ---------------------------------------------------------------------------
# bundle


@dataclass(frozen=True)
class AmbientGeometry:
    spec: LieAlgebraSpec
    norden: NordenStructure
    gamma: DenseTensor
    riemann13: DenseTensor
    riemann04: DenseTensor
    trsc: TrscStatus
    ricci: DenseTensor


def build_ambient_geometry(spec: LieAlgebraSpec, ns: NordenStructure) -> AmbientGeometry:
    """Derive connection, curvature and the constant-curvature fit for
    validated input. The fit solves two independent components for the two
    constants and compares the one expected table they build with R
    (`pi_fit`); no pi-tensor is built on its own, and the fit is unique or
    infeasible, because pi1 - pi2 and pi3 are independent on a valid Norden
    structure. The primed constants of the associated metric follow from it
    (see the module docstring) and are not refitted.

    Raises ValidationFailure when J is not parallel (the manifold is then
    outside the engine's scope) and InternalInconsistency when one of the
    built-in cross-checks fails (the parallel-J/connection-difference
    agreement, the associated-tensor relations as two n x n identities, the
    independence of the two fit columns, the Ricci closed form).
    Torsion-freeness, metric compatibility, the curvature symmetries, the
    Kaehler curvature identity, the componentwise associated-tensor
    relations and the refit of R~ against the associated tensors are not
    checked here; the test suite checks them.
    """
    gamma = levi_civita(spec, ns)
    kaehler = kaehler_check(spec, ns, gamma)
    if not kaehler.is_kaehler_norden:
        i, j, k = kaehler.f_witness
        raise ValidationFailure(
            "the complex structure is not parallel: "
            f"g((D_X{i + 1} J)X{j + 1}, X{k + 1}) = "
            f"{format_rational(kaehler.f_table[kaehler.f_witness])}"
        )
    r13, r04 = curvature(spec, gamma, ns)
    verify_pi_assoc_relations(ns)
    trsc = constant_trsc(r04, ns)
    ricci = ambient_ricci(r13, ns, trsc)
    return AmbientGeometry(spec, ns, gamma, r13, r04, trsc, ricci)
