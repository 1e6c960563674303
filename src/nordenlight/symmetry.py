"""Induced curvature, Ricci, and the four curvature-symmetry classes.

The induced curvature of a totally umbilical radical-transversal hypersurface
is computed by three independent routes:

* the Gauss route: tangential part of the ambient curvature corrected by the
  second fundamental form and the transversal shape operator, with the
  transversal component checked against the Codazzi expression;
* the closed-form route, valid once the ambient curvature fit is constant
  and the constant attached to the inducing metric vanishes:

      R(X, Y)Z = a [g(X,Z) J(PY) - g(Y,Z) J(PX)] + K [m(X,Z) Y - m(Y,Z) X]

  with a = K - rho^2 / b, m(X, Z) = <X, JZ> in the inducing ambient metric,
  and K the ambient constant attached to the other metric;
* the connection route, R(E_x, E_y) = [G_x, G_y] - sum_k c^k_xy G_k with G_x
  the induced connection D_{E_x} and c the subalgebra's own structure
  constants (`ambient.connection_curvature`), once the torsion identity
  G_x E_y - G_y E_x = [E_x, E_y] is checked.

On left-invariant fields D_U acts on a tensor T as the derivation D(G_U),
and D is a Lie algebra homomorphism, so the connection route gives the Ricci
identity R(X, Y).T = [D(G_x), D(G_y)]T - sum_k c^k_xy D(G_k)T (Z. I. Szabo,
J. Differential Geom. 17 (1982) 531-582): DR = 0 implies R.R = 0, which
implies R.Ric = 0 by contraction. The pipeline checks the route, then
decides the local-symmetry flag by its scan and the two semi-symmetry flags
from it, scanning only where the implying flag fails.

Ricci is the trace of Z -> R(Z, X)Y. The opposite trace order negates every
entry; the report carries both readings, and every vanishing check and the
almost-Einstein feasibility are invariant under that global sign. A second
Ricci route goes through the ambient Ricci and the shape operators, a third
through the closed form; all must agree exactly.

The symmetry checkers accept raw tables (curvature, connection, Ricci,
metrics) so synthetic counterexamples can be audited without a geometric
pipeline behind them, once the curvature table is antisymmetric in its first
two slots, as the curvature of every connection is (`_scan_pairs`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, product
from math import lcm
from operator import mul

from .ambient import AmbientGeometry, TrscStatus, require_equal, ricci_trace
from .errors import HypothesisFailure, InternalInconsistency
from .exact import (
    DenseTensor,
    add_row,
    fit_tables,
    format_ratio,
    format_rational,
    int_bilinear,
    int_matmul,
    nonzero_rows,
    row_index,
)
from .hypersurface import LightlikeFrame, SecondFundamental


@dataclass(frozen=True)
class FlagResult:
    holds: bool
    witness: tuple | None = None
    value: DenseTensor | None = None  # the components at the witness


@dataclass(frozen=True)
class EinsteinFit:
    """Fit Ric = k g + c g~ in the two induced metrics."""

    kind: str  # "unique" | "parametric" | "infeasible"
    k: Fraction | None
    c: Fraction | None
    nullspace: tuple[DenseTensor, ...]
    witness: tuple | None = None  # index pair that breaks feasibility

    @property
    def feasible(self) -> bool:
        return self.kind != "infeasible"


@dataclass(frozen=True)
class SymmetryFlags:
    semi_symmetric: FlagResult
    ricci_semi_symmetric: FlagResult
    locally_symmetric: FlagResult
    almost_einstein: EinsteinFit


@dataclass(frozen=True)
class PdeResiduals:
    radial: Fraction
    screen_directions: DenseTensor


@dataclass(frozen=True)
class AuditVerdict:
    """Equivalence audit: the scalar condition (ambient constant equals
    rho^2 / b) against the four symmetry flags."""

    applicable: bool
    lhs: Fraction | None
    rhs: Fraction | None
    condition_holds: bool | None
    consistent: bool | None
    notes: tuple[str, ...]


# ---------------------------------------------------------------------------
# induced curvature


def induced_curvature_gauss(
    sf: SecondFundamental, frame: LightlikeFrame, amb: AmbientGeometry
) -> DenseTensor:
    """Tangential part of the ambient curvature corrected by B and the
    transversal shape operator. The transversal component must equal the
    Codazzi expression built from B and tau at every basis triple; a
    residual is an engine bug. Every table is accumulated from the nonzero
    entries of its factors."""
    m = frame.span.dims[0]
    n = amb.spec.dim
    w = m + 1  # frame coordinates: span, then transversal
    amb13 = amb.riemann13
    span, den_s = frame.span.lattice()
    b_form, den_b = sf.b_form.lattice()
    a_n, den_a = sf.a_n.lattice()
    tau, den_tau = sf.tau.lattice()
    gamma = sf.induced_gamma
    den_g = gamma.den

    # vec[(a, b, c)] holds the frame coordinates of R(E_a, E_b)E_c over
    # d_amb: the last slot of the ambient table goes to frame coordinates,
    # then the span is contracted into the leading slot three times, each
    # contraction appending its span index, so (i, j, k) -> (j, k, a) ->
    # (k, a, b) -> (a, b, c); only nonzero rows and span entries take part
    vec = int_matmul(amb13.rows, frame.inverse_index)
    span_cols = nonzero_rows(zip(*span))
    rest = n * n
    for _ in range(3):
        out: dict[int, list[int]] = {}  # row tail * m + a sums span[a][i] times row (i, tail)
        for r, row in vec.items():
            i, tail = divmod(r, rest)
            for a, s in span_cols.get(i, ()):
                add_row(out, tail * m + a, s, row)
        vec, rest = out, rest // n * m
    d_amb = den_s**3 * amb13.den * frame.inverse.den
    d_shape = den_b * den_a
    den = lcm(d_amb, d_shape)
    f_amb, f_shape = den // d_amb, den // d_shape
    zero = (0,) * w
    normal = [vec.get(r, zero)[m] for r in range(m**3)]  # the transversal coordinate of (a, b, c)
    nums = {r: [f_amb * x for x in row[:m]] for r, row in vec.items()}
    # - B(E_a, E_c) A_N E_b + B(E_b, E_c) A_N E_a: the product
    # B(E_a, E_c) A_N E_b enters at (a, b, c) and negated at (b, a, c)
    b_nz = [(a, c, x) for a, row in enumerate(b_form) for c, x in enumerate(row) if x]
    for b, row in enumerate(a_n):
        if any(row):
            for a, c, x in b_nz:
                add_row(nums, (a * m + b) * m + c, -f_shape * x, row)
                add_row(nums, (b * m + a) * m + c, f_shape * x, row)

    # the Codazzi expression over d_cod at every (a, b, c):
    #   f_gamma (D[b, a, c] - D[a, b, c]) + f_tau (tau_a B_bc - tau_b B_ac)
    # with D[a, b, c] = sum_k gm[a][b][k] B[k][c] + gm[a][c][k] B[b][k]
    d_cod = den_b * lcm(den_g, den_tau)
    f_gamma, f_tau = d_cod // (den_g * den_b), d_cod // (den_tau * den_b)
    codazzi = [0] * m**3
    b_rows, b_cols = nonzero_rows(b_form), nonzero_rows(zip(*b_form))
    for r, items in gamma.rows.items():
        a, p = divmod(r, m)
        for k, x in items:
            x *= f_gamma
            for c, y in b_rows.get(k, ()):  # D[a, p, c]
                codazzi[(a * m + p) * m + c] -= x * y
                codazzi[(p * m + a) * m + c] += x * y
            for b, y in b_cols.get(k, ()):  # D[a, b, p]
                codazzi[(a * m + b) * m + p] -= x * y
                codazzi[(b * m + a) * m + p] += x * y
    for a, t in enumerate(tau):
        if t:
            for b, c, x in b_nz:
                v = f_tau * t * x
                codazzi[(a * m + b) * m + c] += v
                codazzi[(b * m + a) * m + c] -= v
    residual = [x * d_cod != y * d_amb for x, y in zip(normal, codazzi)]
    if any(residual):
        a, bc = divmod(residual.index(True), m * m)
        raise InternalInconsistency(
            f"Codazzi residual at basis triple ({a + 1},{bc // m + 1},{bc % m + 1})"
        )
    return DenseTensor.from_rows((m, m, m, m), nums, den)


def closed_form_curvature(frame: LightlikeFrame, screen_coeff: Fraction, metric_coeff: Fraction) -> DenseTensor:
    """Curvature table of the stated shape with free coefficients; used by the
    geometric route (with a = K - rho^2/b) and by synthetic audits."""
    m = frame.span.dims[0]
    # phi[a]: span coordinates of J(P E_a); J-invariance of the screen keeps it tangent
    split, d_phi = frame.j_p_split
    if any(row[m] for row in split):
        raise InternalInconsistency("J of a screen projection left the tangent space")
    phi = [row[:m] for row in split]
    g_ind, d_g = frame.gram.lattice()
    mj, d_mj = frame.m_span
    (sc, mc), d_c = DenseTensor.from_entries((2,), (screen_coeff, metric_coeff)).lattice()
    den = d_c * lcm(d_g * d_phi, d_mj)
    fs, fm = sc * (den // (d_c * d_g * d_phi)), mc * (den // (d_c * d_mj))
    # R(E_a, E_b)E_c = fs (g_ac phi_b - g_bc phi_a) + fm (mj_ac E_b - mj_bc E_a):
    # the terms of each nonzero g_pc or mj_pc enter the row (p, q, c) and,
    # negated, the row (q, p, c)
    rows: dict[int, list[int]] = {}
    for p, c, q in product(range(m), repeat=3):
        x, y = fs * g_ind[p][c], fm * mj[p][c]
        if (x and any(phi[q])) or y:
            vec = [x * z for z in phi[q]]
            vec[q] += y
            add_row(rows, (p * m + q) * m + c, 1, vec)
            add_row(rows, (q * m + p) * m + c, -1, vec)
    return DenseTensor.from_rows((m, m, m, m), rows, den)


def induced_curvature_closed_form(
    frame: LightlikeFrame, sf: SecondFundamental, amb: AmbientGeometry
) -> DenseTensor:
    """Closed-form route. Requires constant ambient curvatures, a totally
    umbilical frame, and the vanishing of the constant attached to the
    inducing metric (forced by the theory; its failure means the input
    contradicts the hypotheses, a hypothesis failure rather than a bug)."""
    if amb.trsc.kind != "constant":
        raise HypothesisFailure("closed-form curvature needs constant ambient curvatures")
    if sf.rho is None:
        raise HypothesisFailure("closed-form curvature needs a totally umbilical frame")
    which = frame.inducing_metric
    own, k_coeff = amb.trsc.attached(which)
    if own != 0:
        raise HypothesisFailure(
            f"inducing the {which} metric requires {TrscStatus.FIELDS[which][0]} = 0, got "
            + format_rational(own)
        )
    a_coeff = k_coeff - sf.rho * sf.rho / frame.b
    return closed_form_curvature(frame, a_coeff, k_coeff)


# ---------------------------------------------------------------------------
# Ricci routes


def ricci_from_ambient_decomposition(
    r13_induced: DenseTensor,
    sf: SecondFundamental,
    frame: LightlikeFrame,
    amb: AmbientGeometry,
) -> DenseTensor:
    """Ricci through the ambient trace and the shape operators:

        Ric(X, Y) = Ric_ambient(X, Y) + B(X, Y) tr A_N
                    - <A_N X, A*_xi Y> - <R(xi, Y)X, N>.
    """
    m = frame.span.dims[0]
    rows = range(m)
    span, d_s = frame.span.lattice()
    xi, d_xi = frame.xi_span.lattice()
    amb_ric, d_ric = amb.ricci.lattice()
    b_form, d_b = sf.b_form.lattice()
    a_n, d_an = sf.a_n.lattice()

    ric = int_bilinear(span, amb_ric, span)
    tr_an = sum(a_n[a][a] for a in rows)
    shape, d_shape = frame.pairings(frame.to_ambient((a_n, d_an)), frame.to_ambient(sf.a_star_xi.lattice()))
    # span coordinates of R(xi, E_b)E_a, row b * m + a: xi contracted into
    # the leading slot
    (r_xi,) = int_matmul((xi,), r13_induced.leading)
    r_xi = tuple(r_xi[r * m : (r + 1) * m] for r in range(m * m))
    tr, d_tr = frame.transversal.lattice()
    radial, d_radial = frame.pairings(frame.to_ambient((r_xi, d_xi * r13_induced.den)), ((tr,), d_tr))

    parts = (d_s * d_s * d_ric, d_b * d_an, d_shape, d_radial)
    den = lcm(*parts)
    f_ric, f_b, f_shape, f_radial = (den // d for d in parts)
    return DenseTensor.from_rows(
        (m, m),
        [
            [
                f_ric * ric[a][b]
                + f_b * b_form[a][b] * tr_an
                - f_shape * shape[a][b]
                - f_radial * radial[b * m + a][0]
                for b in rows
            ]
            for a in rows
        ],
        den,
    )


def closed_form_ricci(
    frame: LightlikeFrame, sf: SecondFundamental, amb: AmbientGeometry
) -> DenseTensor:
    """Closed-form Ricci: with K the ambient constant attached to the other
    metric, h the complex dimension and m(X, Y) = <X, JY> in the inducing
    metric (m = g~ when g induces, m = -g when g~ induces),

        Ric = -2(h-1) K m + (K - rho^2/b) m(P., P.).
    """
    _, k_coeff = amb.trsc.attached(frame.inducing_metric)
    lead = Fraction(-2 * (amb.spec.dim // 2 - 1)) * k_coeff
    a_coeff = k_coeff - sf.rho * sf.rho / frame.b
    m_span, d_g = frame.m_span
    m_proj, d_p = frame.pairings(frame.p_ambient, frame.j_p)
    (n_lead, n_corr), d_c = DenseTensor.from_entries((2,), (lead, a_coeff)).lattice()
    den = d_c * lcm(d_g, d_p)
    f_lead, f_corr = n_lead * (den // (d_c * d_g)), n_corr * (den // (d_c * d_p))
    rows = [[f_lead * x + f_corr * y for x, y in zip(gr, pr)] for gr, pr in zip(m_span, m_proj)]
    return DenseTensor.from_rows((len(rows), len(rows)), rows, den)


def induced_ricci(
    r13_induced: DenseTensor,
    sf: SecondFundamental,
    frame: LightlikeFrame,
    amb: AmbientGeometry,
) -> DenseTensor:
    """The canonical Ricci, the trace of Z -> R(Z, X)Y (no metric enters
    it), checked against the ambient split and, with constant curvatures and
    rho, the closed form."""
    canonical = ricci_trace(r13_induced)
    routes = [("ambient split", ricci_from_ambient_decomposition(r13_induced, sf, frame, amb))]
    if amb.trsc.kind == "constant" and sf.rho is not None:
        routes.append(("closed form", closed_form_ricci(frame, sf, amb)))
    for name, other in routes:
        require_equal(canonical, other, "Ricci routes disagree beyond the documented sign note", "canonical", name)
    return canonical


# ---------------------------------------------------------------------------
# symmetry checkers (raw tables)


def _scan_pairs(r13: DenseTensor) -> list[tuple[int, int]]:
    """The pairs x < y of the first two slots a checker scans, in product
    order. R(X, Y) = -R(Y, X), so every checked expression is antisymmetric
    in (X, Y): the pairs x >= y add no vanishing condition, and the first
    nonzero tuple in product order has x < y. A table without that
    antisymmetry is no curvature table, and raises before any scan."""
    if not r13.antisymmetric:
        raise InternalInconsistency("curvature table is not antisymmetric in its first two slots")
    return list(combinations(range(r13.dims[0]), 2))


def _first_nonzero_action(r13: DenseTensor, operators, den: int) -> FlagResult:
    """The flag of the derivations that operators yields, as (witness
    prefix, a) pairs in scan order, a given by its nonzero rows over den (row
    k holds a X_k): the first a that acts on the table with a nonzero
    component,

        (a.R)(U,V,W) = a R(U,V,W) - R(U,V,a W) - R(a U,V,W) - R(U,a V,W),

    and its least such (u, v, w). The table is antisymmetric in its first
    two slots (`_scan_pairs`), so is a.R, and its least nonzero (u, v, w)
    has u < v: only v > u is indexed and scanned. Each a is applied to the
    whole table as four scatters, one per slot, driven by the nonzero rows
    of a as in Gustavson's sparse product: a R(U,V,W) from the entries of
    the table by their last index, R(U,V,a W) from its rows by their third
    index, R(a U,V,W) and R(U,a V,W) from its blocks R(X_k, X_v) and
    R(X_u, X_k). The components are accumulated one leading index u at a
    time, for every scanned v and w at once, and the scan stops at the first
    u with a nonzero component."""
    m = r13.dims[0]
    blocks = r13.blocks
    # per leading index u, over its scanned v: the entries x of R(X_u,
    # X_v)X_w at X_k as (v * m + w, x) by k, and the rows R(X_u, X_v)X_k as
    # (v, row) by k
    by_last: list[dict[int, list]] = [{} for _ in range(m)]
    by_third: list[dict[int, list]] = [{} for _ in range(m)]
    for r, items in r13.rows.items():
        u, vw = divmod(r, m * m)
        v, w = divmod(vw, m)
        if v > u:
            by_third[u].setdefault(w, []).append((v, items))
            for k, x in items:
                by_last[u].setdefault(k, []).append((vw, x))
    none: dict = {}
    acc = defaultdict(partial(mul, [0], m))  # v * m + w -> components at (u, v, w)
    for prefix, a in operators:
        if not a:
            continue
        a_rows = a.items()
        for u in range(m):
            v0, last_u, third_u = u + 1, by_last[u], by_third[u]
            acc.clear()
            for k, a_k in a_rows:  # a R(U,V,W)
                for vw, x in last_u.get(k, ()):
                    out = acc[vw]
                    for q, y in a_k:
                        out[q] += x * y
            for w, a_w in a_rows:  # -R(U,V,a W)
                for k, y in a_w:
                    for v, items in third_u.get(k, ()):
                        out = acc[v * m + w]
                        for q, z in items:
                            out[q] -= y * z
            for k, y in a.get(u, ()):  # -R(a U,V,W)
                for v in range(v0, m):
                    for w, items in blocks.get(k * m + v, none).items():
                        out = acc[v * m + w]
                        for q, z in items:
                            out[q] -= y * z
            for v, a_v in a_rows:  # -R(U,a V,W)
                if v >= v0:
                    for k, y in a_v:
                        for w, items in blocks.get(u * m + k, none).items():
                            out = acc[v * m + w]
                            for q, z in items:
                                out[q] -= y * z
            if any(map(any, acc.values())):
                vw = min(vw for vw, out in acc.items() if any(out))
                value = DenseTensor.from_lattice((m,), acc[vw], r13.den * den)
                return FlagResult(False, prefix + (u + 1, vw // m + 1, vw % m + 1), value)
    return FlagResult(True)


def semi_symmetric_check(r13: DenseTensor, given: FlagResult | None = None) -> FlagResult:
    """Vanishing of the curvature acting on itself as a derivation,

        (R(X,Y).R)(U,V,W) = R(X,Y,R(U,V,W)) - R(U,V,R(X,Y,W))
                            - R(R(X,Y,U),V,W) - R(U,R(X,Y,V),W),

    over every basis 5-tuple; the witness is the first nonzero component in
    product order. The table is antisymmetric in its first two slots, so the
    expression is antisymmetric in (X, Y) and in (U, V), and scanning the
    strictly ordered pairs of `_scan_pairs` decides the vanishing of all
    tuples; any other table raises before the scan. Pairs (x, y) with
    R(X_x, X_y) = 0 are skipped, and each other R(X_x, X_y) acts on the
    whole table as in `_first_nonzero_action`.

    given, when passed, is the local-symmetry flag of r13 for a connection
    whose curvature the caller checked r13 to be (the connection route); when
    it holds, R.R = 0 follows by the Ricci identity (module docstring) and
    nothing is scanned."""
    if given is not None and given.holds:
        return FlagResult(True)
    m = r13.dims[0]
    operators = (((x + 1, y + 1), r13.blocks.get(x * m + y)) for x, y in _scan_pairs(r13))
    return _first_nonzero_action(r13, operators, r13.den)


def ricci_semi_symmetric_check(r13: DenseTensor, ricci: DenseTensor, given: FlagResult | None = None) -> FlagResult:
    """Vanishing of -Ric(R(X,Y,U), V) - Ric(U, R(X,Y,V)) on basis 4-tuples;
    stops at the first nonzero component in product order. With A the
    matrix of R(X_x, X_y) (row u holds R(X_x, X_y)X_u) the component at
    (u, v) is -(A Ric)[u][v] - (A Ric^T)[v][u], one sparse product per pair
    when Ric is symmetric; it can be nonzero only at (u, v) with row u of
    A Ric or row v of A Ric^T nonzero. Pairs x < y are scanned, and other
    tables rejected, as in `_scan_pairs`.

    given, when passed, is the semi-symmetric flag of r13, and ricci is
    `ricci_trace(r13)`; when it holds, R.Ric = 0 follows from R.R = 0 by
    contraction and nothing is scanned."""
    if given is not None and given.holds:
        return FlagResult(True)
    m = r13.dims[0]
    ric, dric = ricci.lattice()
    ric_t = tuple(zip(*ric))
    by_ric = row_index(ric)
    by_ric_t = by_ric if ric == ric_t else row_index(ric_t)
    zero = (0,) * m
    for x, y in _scan_pairs(r13):
        a = r13.blocks.get(x * m + y)
        if not a:
            continue
        p = int_matmul(a, by_ric)
        q = p if by_ric_t is by_ric else int_matmul(a, by_ric_t)
        cells = {(u, v) for u, row in p.items() for v, z in enumerate(row) if z}
        cells.update((u, v) for v, row in q.items() for u, z in enumerate(row) if z)
        for u, v in sorted(cells):
            val = -p.get(u, zero)[v] - q.get(v, zero)[u]
            if val:
                witness = (x + 1, y + 1, u + 1, v + 1)
                return FlagResult(False, witness, DenseTensor.from_lattice((1,), (val,), r13.den * dric))
    return FlagResult(True)


def locally_symmetric_check(r13: DenseTensor, induced_gamma: DenseTensor) -> FlagResult:
    """Vanishing of the covariant derivative of the curvature,

        (D_U R)(X,Y,Z) = D_U(R(X,Y,Z)) - R(D_U X, Y, Z)
                         - R(X, D_U Y, Z) - R(X, Y, D_U Z),

    expanded with constant coefficients; the witness is the first nonzero
    component in product order of (U, X, Y, Z). The expression is
    antisymmetric in (X, Y) as the table is, so only x < y is scanned, and
    other tables are rejected (`_scan_pairs`). D_U acts on R as the
    derivation with the matrix of D_U X_k, induced_gamma[u], evaluated as
    in `_first_nonzero_action`."""
    _scan_pairs(r13)  # the antisymmetry guard
    operators = (((u + 1,), induced_gamma.blocks.get(u)) for u in range(r13.dims[0]))
    return _first_nonzero_action(r13, operators, induced_gamma.den)


def almost_einstein_fit(ricci: DenseTensor, g_ind: DenseTensor, g_assoc_ind: DenseTensor) -> EinsteinFit:
    """Exact affine fit Ric = k g + c g~ over every index pair. A parametric
    outcome (the two induced metrics dependent as component vectors) is
    reported as a family, never collapsed to one representative; an
    infeasible one names the index pair that ends the first infeasible
    prefix of the component rows in product order (`fit_tables`)."""
    sol = fit_tables((g_ind, g_assoc_ind), ricci)
    if sol.kind != "infeasible":
        k, c = sol.particular.entries
        return EinsteinFit(sol.kind, k, c, sol.nullspace)
    a, b = divmod(sol.witness, ricci.dims[0])
    return EinsteinFit("infeasible", None, None, (), (a + 1, b + 1))


# ---------------------------------------------------------------------------
# residuals and the equivalence audit


def pde_residuals(
    sf: SecondFundamental, frame: LightlikeFrame, amb: AmbientGeometry
) -> PdeResiduals:
    """The scalar constraints forced on a totally umbilical frame. With all
    scalars constant along the frame they reduce to

        b K - rho^2 + rho tau(xi) = 0   and   rho tau(PX) = 0

    per basis direction, K being the ambient constant attached to the other
    metric. Nonzero residuals on validated input are engine bugs.

    tau vanishes on left-invariant frames (see
    `hypersurface.gauss_weingarten`), so the radial residual forces
    K = rho^2 / b: condition (iii) of the equivalence audit holds on every
    geometric input, and only synthetic `closed_form_curvature` tables reach
    the negative side of the audit."""
    if amb.trsc.kind != "constant":
        raise HypothesisFailure("residual check needs constant ambient curvatures")
    if sf.rho is None:
        raise HypothesisFailure("residual check needs a totally umbilical frame")
    m = frame.span.dims[0]
    (x, dx), (t, dt), (e, de) = frame.xi_span.lattice(), sf.tau.lattice(), frame.eta.lattice()
    _, k_coeff = amb.trsc.attached(frame.inducing_metric)
    tau_xi = Fraction(sum(map(mul, x, t)), dx * dt)
    radial = frame.b * k_coeff - sf.rho * sf.rho + sf.rho * tau_xi
    # rho (tau(E_a) - eta(E_a) tau(xi)) with rho = r / s and tau(xi) = p / q
    (r, s), (p, q) = (sf.rho.numerator, sf.rho.denominator), (tau_xi.numerator, tau_xi.denominator)
    screen = DenseTensor.from_lattice(
        (m,), (r * (ta * de * q - ea * p * dt) for ta, ea in zip(t, e)), s * dt * de * q
    )
    if radial != 0 or not screen.is_zero():
        raise InternalInconsistency(
            "umbilical residuals do not vanish: radial "
            + format_rational(radial)
            + ", screen ("
            + ", ".join(format_ratio(v, screen.den) for v in screen.lattice()[0])
            + ")"
        )
    return PdeResiduals(radial, screen)


def symmetry_equivalence_audit(
    flags: SymmetryFlags,
    inducing_metric: str,
    trsc: TrscStatus,
    rho: Fraction,
    b: Fraction,
) -> AuditVerdict:
    """The scalar condition against the four flags.

    For the principal induced metric the relevant ambient constant is
    nu_assoc, for the associated one it is nu; the audit applies only when
    that constant is a nonzero constant. The verdict is consistent when the
    scalar condition and every flag have the same truth value (equivalence
    preserved in the negative as well). Since every scalar here is constant
    along the frame, the locally-symmetric and almost-Einstein flags join the
    equivalence unconditionally.
    """
    notes = [
        "gauge scalars are frame constants, so the locally-symmetric and "
        "almost-Einstein equivalences are always in force",
    ]
    if trsc.kind != "constant":
        return AuditVerdict(False, None, None, None, None, tuple(notes + ["ambient curvatures not constant"]))
    _, lhs = trsc.attached(inducing_metric)
    rhs = rho * rho / b
    if lhs == 0:
        notes.append(
            "audit not applicable: the ambient constant attached to the other metric vanishes; "
            "flags reported standalone"
        )
        return AuditVerdict(False, lhs, rhs, None, None, tuple(notes))
    condition = lhs == rhs
    flag_values = (
        flags.semi_symmetric.holds,
        flags.ricci_semi_symmetric.holds,
        flags.locally_symmetric.holds,
        flags.almost_einstein.feasible,
    )
    consistent = all(f == condition for f in flag_values)
    if not consistent:
        notes.append("equivalence audit failed: flags disagree with the scalar condition")
    return AuditVerdict(True, lhs, rhs, condition, consistent, tuple(notes))
