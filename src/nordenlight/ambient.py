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
sectional curvatures with respect to g; the primed pair taken with respect to
the associated metric is (-nu_assoc, nu).

Conventions, fixed once for the whole engine:

* curvature: R(X, Y)Z = D_X D_Y Z - D_Y D_X Z - D_[X,Y] Z, lowered as
  R(X, Y, Z, W) = g(R(X, Y)Z, W);
* Ricci: Ric(X, Y) = trace of Z -> R(Z, X)Y. The opposite trace order
  (Z -> R(X, Z)Y) negates every entry; reports carry both readings.

All scalar coefficients are constants of the left-invariant frame, so frame
derivatives of scalars vanish identically and every formula is algebraic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul

from .errors import InternalInconsistency, ValidationFailure
from .exact import (
    DenseTensor,
    Matrix,
    first_difference,
    fit_tables,
    flat_matmul,
    format_rational,
    int_bilinear,
    int_matmul,
    lattice_combination,
    lattice_rows,
    lattice_vector,
    mat,
    mat_inverse,
    nonzero_rows,
    rational_rows,
    rational_vector,
    signature,
)


@dataclass(frozen=True)
class Check:
    """One named validation or identity check with an optional witness."""

    name: str
    ok: bool
    witness: tuple | None = None
    detail: str = ""


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
    J X_k), and the derived associated metric g_assoc(X, Y) = g(JX, Y)."""

    g: Matrix
    j: Matrix
    g_assoc: Matrix

    def metric(self, which: str) -> Matrix:
        if which == "principal":
            return self.g
        if which == "associated":
            return self.g_assoc
        raise ValueError(f"unknown metric selector {which!r}")

    @cached_property
    def _lattices(self) -> dict[str, tuple[tuple[tuple[int, ...], ...], int]]:
        return {
            "j": lattice_rows(self.j),
            "principal": lattice_rows(self.g),
            "associated": lattice_rows(self.g_assoc),
        }

    def lattice(self, which: str) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(int rows, den) of J (which = "j") or of `metric(which)`. Built on
        first use and memoized per instance like `DenseTensor.lattice()`."""
        if which not in self._lattices:
            raise ValueError(f"unknown metric selector {which!r}")
        return self._lattices[which]

    def apply_j_rows(self, vectors):
        """J applied to every row of an int table of ambient vectors, both
        given as (rows, den)."""
        rows, den = vectors
        j, dj = self.lattice("j")
        return int_matmul(rows, j), den * dj

    def pairings(self, which: str, u, v):
        """(rows, den) of the pairings <u_a, v_b> in `metric(which)` for int
        tables of ambient vectors u and v given as (rows, den)."""
        g, dg = self.lattice(which)
        return int_bilinear(u[0], g, v[0]), u[1] * dg * v[1]


def norden_structure(g_rows, j_rows) -> NordenStructure:
    g = mat(g_rows)
    j = mat(j_rows)
    (gi, dg), (ji, dj) = lattice_rows(g), lattice_rows(j)
    # row i of J^T G: g_assoc[i][k] = sum_q j[q][i] g[q][k]
    g_assoc = rational_rows(int_matmul(tuple(zip(*ji)), tuple(zip(*gi))), dj * dg)
    return NordenStructure(g=g, j=j, g_assoc=g_assoc)


# ---------------------------------------------------------------------------
# validation


def validate_lie_algebra(spec: LieAlgebraSpec) -> ValidationReport:
    """Well-formedness of the bracket table: antisymmetry and the Jacobi
    identity, plus the dimensional scope (even, at least 4). Witnesses are
    1-based index triples."""
    n = spec.dim
    checks = []

    checks.append(
        Check(
            "dimension_even_and_at_least_four",
            n >= 4 and n % 2 == 0,
            None if (n >= 4 and n % 2 == 0) else (n,),
        )
    )

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
        # ad[a][b][k] = [X_a, [X_b, X_k]]: the inner brackets are the rows of
        # c[b], and ad_a maps them through the columns of c[a]
        cols = [tuple(zip(*c[a])) for a in range(n)]
        ad = [[int_matmul(c[b], cols[a]) for b in range(n)] for a in range(n)]
        jac_witness = next(
            (
                (i + 1, j + 1, k + 1)
                for i, j, k in combinations(range(n), 3)
                if any(x + y + z for x, y, z in zip(ad[i][j][k], ad[j][k][i], ad[k][i][j]))
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
    g, dg = ns.lattice("principal")
    j, dj = ns.lattice("j")
    checks = []

    w = next(((i + 1, k + 1) for i in range(n) for k in range(i + 1, n) if g[i][k] != g[k][i]), None)
    checks.append(Check("metric_symmetric", w is None, w))

    one = dj * dj
    jj = int_matmul(j, tuple(zip(*j)))  # J^2 over dj^2
    w = next(
        ((q + 1, k + 1) for q in range(n) for k in range(n) if jj[q][k] != (-one if q == k else 0)),
        None,
    )
    checks.append(Check("complex_structure_squares_to_minus_identity", w is None, w))

    jt = tuple(zip(*j))  # row a holds J X_a
    jgj = int_bilinear(jt, g, jt)  # g(J X_i, J X_k) over dg * dj^2
    w = next(((i, k) for i in range(n) for k in range(i, n) if jgj[i][k] + one * g[i][k]), None)
    detail = ""
    if w is not None:
        i, k = w
        detail = format_rational(Fraction(jgj[i][k] + one * g[i][k], dg * one))
        w = (i + 1, k + 1)
    checks.append(Check("metric_anti_isometry", w is None, w, detail))

    pos, neg, zero = signature(g)
    checks.append(Check("metric_nondegenerate", zero == 0, None if zero == 0 else (zero,)))
    neutral = zero == 0 and pos == neg == n // 2
    checks.append(Check("metric_signature_neutral", neutral, None if neutral else (pos, neg)))

    ga, _ = ns.lattice("associated")
    w = next(
        ((i + 1, k + 1) for i in range(n) for k in range(i + 1, n) if ga[i][k] != ga[k][i]), None
    )
    checks.append(Check("associated_metric_symmetric", w is None, w))
    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# connection and curvature


def koszul_connection(spec: LieAlgebraSpec, metric: Matrix) -> DenseTensor:
    """Connection table of the Levi-Civita connection of a left-invariant
    metric, solved exactly from the Koszul formula

        2 <D_X Y, Z> = <[X,Y], Z> + <[Z,X], Y> + <[Z,Y], X>

    over basis fields. Scalar products of left-invariant fields are constant,
    so no derivative terms appear. Table layout: D_{X_i} X_j = sum_k t[i,j,k] X_k.
    """
    n = spec.dim
    c, dc = spec.brackets.lattice()
    g, dg = lattice_rows(metric)
    ginv, di = lattice_rows(mat_inverse(metric))
    g_cols = tuple(zip(*g))
    # bg[a][b][k] = <[X_a, X_b], X_k> over dc * dg, computed once
    bg = [int_matmul(c[a], g_cols) for a in range(n)]
    nums = []
    for i in range(n):
        for jj in range(n):
            rhs = [bg[i][jj][k] + bg[k][i][jj] + bg[k][jj][i] for k in range(n)]
            nums.extend(sum(map(mul, row, rhs)) for row in ginv)
    return DenseTensor.from_lattice((n, n, n), nums, 2 * dc * dg * di)


def levi_civita(spec: LieAlgebraSpec, ns: NordenStructure) -> DenseTensor:
    return koszul_connection(spec, ns.g)


@dataclass(frozen=True)
class KaehlerCheck:
    """Result of the parallel-J test. f_table holds g((D_X J)Y, Z); phi_table
    holds the difference of the Levi-Civita connections of the two metrics.
    The two vanish together on every valid Norden structure."""

    is_kaehler_norden: bool
    f_table: DenseTensor
    f_witness: tuple | None
    phi_table: DenseTensor | None
    phi_agrees: bool | None


def kaehler_check(spec: LieAlgebraSpec, ns: NordenStructure, gamma: DenseTensor) -> KaehlerCheck:
    n = spec.dim
    gm, dgm = gamma.lattice()
    j, dj = ns.lattice("j")
    g, dg = ns.lattice("principal")
    jt = tuple(zip(*j))  # row a holds J X_a
    g_cols = tuple(zip(*g))
    nums = []
    for i in range(n):
        # row a of J^T G_i - G_i J^T is D_{X_i}(J X_a) - J(D_{X_i} X_a), with
        # G_i the matrix whose row m is D_{X_i} X_m; each row is built once
        # and then paired with every X_k
        d_j = int_matmul(jt, tuple(zip(*gm[i])))
        jd = int_matmul(gm[i], j)
        diff = tuple(tuple(map(int.__sub__, p, q)) for p, q in zip(d_j, jd))
        for row in int_matmul(diff, g_cols):
            nums.extend(row)
    f_table = DenseTensor.from_lattice((n, n, n), nums, dj * dgm * dg)
    f_witness = next((ix for ix, _ in f_table.nonzero()), None)
    is_kaehler = f_witness is None

    phi_table = None
    phi_agrees = None
    ga, _ = ns.lattice("associated")
    symmetric = all(ga[i][k] == ga[k][i] for i in range(n) for k in range(n))
    if symmetric and signature(ga)[2] == 0:
        gamma_assoc = koszul_connection(spec, ns.g_assoc)
        phi_table = DenseTensor.from_lattice(gamma.dims, *lattice_combination(gamma_assoc, gamma, -1))
        phi_agrees = phi_table.is_zero() == is_kaehler
        if not phi_agrees:
            raise InternalInconsistency(
                "parallel-J test and connection-difference test disagree on validated input"
            )
    return KaehlerCheck(is_kaehler, f_table, f_witness, phi_table, phi_agrees)


def curvature(
    spec: LieAlgebraSpec, gamma: DenseTensor, ns: NordenStructure
) -> tuple[DenseTensor, DenseTensor]:
    """Curvature tables: riemann13[i,j,k,l] holds the X_l coefficient of
    R(X_i, X_j)X_k, riemann04 lowers the last slot with the metric. Both are
    accumulated from nonzero entries alone: the products of the matrices G_i
    (row m is D_{X_i} X_m) from their nonzero rows, the bracket term from
    the nonzero structure constants."""
    n = spec.dim
    gm, dgm = gamma.lattice()
    c, dc = spec.brackets.lattice()
    g, dg = ns.lattice("principal")
    den = lcm(dgm * dgm, dc * dgm)
    f_prod, f_bracket = den // (dgm * dgm), den // (dc * dgm)
    gs = [nonzero_rows(gm[i]) for i in range(n)]
    r13 = [0] * n**4
    for i, j in product(range(n), repeat=2):
        block = (i * n + j) * n  # the row of (i, j, 0)
        # row k of G_j G_i - G_i G_j is D_i D_j X_k - D_j D_i X_k
        for left, right, f in ((gs[j], gs[i], f_prod), (gs[i], gs[j], -f_prod)):
            for k, items in left.items():
                base = (block + k) * n
                for m, x in items:
                    fx = f * x
                    for q, y in right.get(m, ()):
                        r13[base + q] += fx * y
        for p, x in enumerate(c[i][j]):  # - D_{[X_i, X_j]} X_k
            if x:
                fx = f_bracket * x
                for k, items in gs[p].items():
                    base = (block + k) * n
                    for q, y in items:
                        r13[base + q] -= fx * y
    dims = (n, n, n, n)
    return (
        DenseTensor.from_lattice(dims, r13, den),
        DenseTensor.from_lattice(dims, flat_matmul(r13, n, g), den * dg),
    )


# ---------------------------------------------------------------------------
# curvature-type tensors and the constant-curvature fit


def pi_tensors(g: Matrix, j: Matrix) -> tuple[DenseTensor, DenseTensor, DenseTensor]:
    """The three curvature-type tensors built from a metric g and J:

        pi1(X,Y,Z,W) = g(Y,Z)g(X,W) - g(X,Z)g(Y,W)
        pi2(X,Y,Z,W) = g(Y,JZ)g(X,JW) - g(X,JZ)g(Y,JW)
        pi3(X,Y,Z,W) = -g(Y,Z)g(X,JW) + g(X,Z)g(Y,JW)
                       - g(X,W)g(Y,JZ) + g(Y,W)g(X,JZ)

    Called with the associated metric it gives the associated-metric
    counterparts. Each tensor is a sum of products p(Y,Z) q(X,W) minus the
    same product with X and Y swapped, so it is accumulated from pairs of
    nonzero entries of g and gJ, each pair written at both slot orders.
    """
    n = len(g)
    g, dg = lattice_rows(g)
    j, dj = lattice_rows(j)
    gj = int_matmul(g, tuple(zip(*j)))  # g(X_a, J X_b) over dg * dj

    def entries(t):
        return [(a, b, x) for a, row in enumerate(t) for b, x in enumerate(row) if x]

    # (a, b, k, l) sits at a n^3 + b n^2 + k n + l
    n2, n3 = n * n, n**3
    g_nz, gj_nz = entries(g), entries(gj)
    pi1, pi2, pi3 = [0] * n**4, [0] * n**4, [0] * n**4
    for out, yz, xw, sign in (
        (pi1, g_nz, g_nz, 1),
        (pi2, gj_nz, gj_nz, 1),
        (pi3, g_nz, gj_nz, -1),
        (pi3, gj_nz, g_nz, -1),
    ):
        xw = [(a * n3 + l, a * n2 + l, y) for a, l, y in xw]
        for b, k, x in yz:
            here, swapped, sx = b * n2 + k * n, b * n3 + k * n, sign * x
            for at, at_swapped, y in xw:
                v = sx * y
                out[here + at] += v  # sign p(Y,Z) q(X,W) at (X, Y, Z, W) = (a, b, k, l)
                out[swapped + at_swapped] -= v  # and its negative at (b, a, k, l)
    dims = (n, n, n, n)
    return (
        DenseTensor.from_lattice(dims, pi1, dg * dg),
        DenseTensor.from_lattice(dims, pi2, dg * dg * dj * dj),
        DenseTensor.from_lattice(dims, pi3, dg * dg * dj),
    )


def verify_pi_assoc_relations(
    ns: NordenStructure, pi1: DenseTensor, pi2: DenseTensor, pi3: DenseTensor
) -> None:
    """The associated-metric counterparts swap pi1 and pi2 and negate pi3;
    verified componentwise against the definitional construction. A failure
    names the first differing 1-based index in product order and both values."""
    a1, a2, a3 = pi_tensors(ns.g_assoc, ns.j)
    p3, d3 = pi3.flat_lattice()
    for name, own, (nums, den), other in (
        ("pi1", a1, pi2.flat_lattice(), "pi2"),
        ("pi2", a2, pi1.flat_lattice(), "pi1"),
        ("pi3", a3, (tuple(-x for x in p3), d3), "-pi3"),
    ):
        # both sides are lattice views in lowest terms, so equal tables have
        # equal numerators and denominators
        if own.flat_lattice() != (nums, den):
            index, x, y = first_difference(own.dims, own.entries, rational_vector(nums, den))
            raise InternalInconsistency(
                f"associated {name} does not equal {other} at ({','.join(map(str, index))}): "
                f"associated {name} {format_rational(x)}, {other} {format_rational(y)}"
            )


@dataclass(frozen=True)
class TrscStatus:
    """Outcome of the constant totally-real-sectional-curvature fit."""

    kind: str  # "constant" | "not_constant"
    nu: Fraction | None
    nu_assoc: Fraction | None
    degenerate: bool = False


def constant_trsc(
    r04: DenseTensor, pi1: DenseTensor, pi2: DenseTensor, pi3: DenseTensor
) -> TrscStatus:
    """Exact linear fit R = nu (pi1 - pi2) + nu_assoc pi3 over every component.

    A unique solution means both totally real sectional curvatures are
    constant; an infeasible system means they are not. A parametric fit (the
    two basis tensors linearly dependent as component vectors) is reported as
    constant with the canonical representative and a degeneracy mark, never
    silently resolved.
    """
    sol = fit_tables((lattice_combination(pi1, pi2, -1), pi3.flat_lattice()), r04.flat_lattice())
    if sol.kind == "infeasible":
        return TrscStatus("not_constant", None, None)
    nu, nu_assoc = sol.particular
    return TrscStatus("constant", nu, nu_assoc, degenerate=sol.kind == "parametric")


@dataclass(frozen=True)
class AssociatedCurvature:
    """Curvature lowered with the associated metric, and the constants of the
    same fit performed against the associated-metric tensors."""

    r04_assoc: DenseTensor
    nu_prime: Fraction | None
    nu_assoc_prime: Fraction | None
    degenerate: bool


def associated_curvature(
    r04: DenseTensor,
    ns: NordenStructure,
    pi1: DenseTensor,
    pi2: DenseTensor,
    pi3: DenseTensor,
    trsc: TrscStatus,
) -> AssociatedCurvature:
    """R~(X,Y,Z,W) = R(X,Y,Z,JW), refitted against the associated-metric
    tensors. With constant curvatures the primed pair must be
    (-nu_assoc, nu); any other outcome is an engine inconsistency."""
    t, dt = r04.flat_lattice()
    j, dj = ns.lattice("j")
    nums = flat_matmul(t, r04.dims[0], j)  # the last slot times J
    assoc = DenseTensor.from_lattice(r04.dims, nums, dt * dj)
    # associated pi1 - associated pi2, and associated pi3
    p3, d3 = pi3.flat_lattice()
    sol = fit_tables(
        (lattice_combination(pi2, pi1, -1), (tuple(-x for x in p3), d3)), (nums, dt * dj)
    )
    if sol.kind == "infeasible":
        if trsc.kind == "constant":
            raise InternalInconsistency("associated curvature fit infeasible despite constant fit")
        return AssociatedCurvature(assoc, None, None, False)
    nu_prime, nu_assoc_prime = sol.particular
    if trsc.kind == "constant" and not trsc.degenerate:
        if nu_prime != -trsc.nu_assoc or nu_assoc_prime != trsc.nu:
            raise InternalInconsistency(
                "primed curvature constants do not match (-nu_assoc, nu): "
                f"got ({format_rational(nu_prime)}, {format_rational(nu_assoc_prime)})"
            )
    return AssociatedCurvature(assoc, nu_prime, nu_assoc_prime, sol.kind == "parametric")


def ambient_ricci(r13: DenseTensor, ns: NordenStructure, trsc: TrscStatus | None) -> DenseTensor:
    """Ricci table Ric(X, Y) = trace of Z -> R(Z, X)Y.

    When the curvature fit is constant with nu = 0 the closed form
    Ric(X, Y) = -2(n-1) nu_assoc g(X, JY) must hold; cross-checked.
    """
    n = r13.dims[0]
    t, den = r13.lattice()
    ric = DenseTensor.from_lattice(
        (n, n), (sum(t[k][i][j][k] for k in range(n)) for i in range(n) for j in range(n)), den
    )
    if trsc is not None and trsc.kind == "constant" and trsc.nu == 0:
        g, dg = ns.lattice("principal")
        j, dj = ns.lattice("j")
        (coeff,), dc = lattice_vector((-2 * (n // 2 - 1) * trsc.nu_assoc,))
        gj = int_matmul(g, tuple(zip(*j)))  # g(X_a, J X_b) over dg * dj
        expected = DenseTensor.from_lattice(
            (n, n), (coeff * x for row in gj for x in row), dc * dg * dj
        )
        # both tables are in lowest terms, so equal fields are equal entries
        if ric != expected:
            (a, b), x, y = first_difference((n, n), ric.entries, expected.entries)
            raise InternalInconsistency(
                f"ambient Ricci closed form fails at ({a},{b}): "
                f"Ricci {format_rational(x)}, closed form {format_rational(y)}"
            )
    return ric


# ---------------------------------------------------------------------------
# bundle


@dataclass(frozen=True)
class AmbientGeometry:
    spec: LieAlgebraSpec
    norden: NordenStructure
    gamma: DenseTensor
    kaehler: KaehlerCheck
    riemann13: DenseTensor
    riemann04: DenseTensor
    pi1: DenseTensor
    pi2: DenseTensor
    pi3: DenseTensor
    trsc: TrscStatus
    assoc: AssociatedCurvature
    ricci: DenseTensor

    @property
    def half_dim(self) -> int:
        return self.spec.dim // 2


def build_ambient_geometry(spec: LieAlgebraSpec, ns: NordenStructure) -> AmbientGeometry:
    """Derive connection and curvature for validated input.

    Raises ValidationFailure when J is not parallel (the manifold is then
    outside the engine's scope) and InternalInconsistency when one of the
    built-in cross-checks fails (the parallel-J/connection-difference
    agreement, the associated-tensor relations, the primed-constants
    relation, the Ricci closed form). Torsion-freeness, metric
    compatibility, the curvature symmetries and the Kaehler curvature
    identity are not checked here; the test suite checks them.
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
    pi1, pi2, pi3 = pi_tensors(ns.g, ns.j)
    verify_pi_assoc_relations(ns, pi1, pi2, pi3)
    trsc = constant_trsc(r04, pi1, pi2, pi3)
    assoc = associated_curvature(r04, ns, pi1, pi2, pi3, trsc)
    ricci = ambient_ricci(r13, ns, trsc)
    return AmbientGeometry(
        spec=spec,
        norden=ns,
        gamma=gamma,
        kaehler=kaehler,
        riemann13=r13,
        riemann04=r04,
        pi1=pi1,
        pi2=pi2,
        pi3=pi3,
        trsc=trsc,
        assoc=assoc,
        ricci=ricci,
    )
