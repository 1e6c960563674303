"""Induced curvature, Ricci, and the four curvature-symmetry classes.

The induced curvature of a totally umbilical radical-transversal hypersurface
is computed by two independent routes:

* the Gauss route: tangential part of the ambient curvature corrected by the
  second fundamental form and the transversal shape operator, with the
  transversal component checked against the Codazzi expression;
* the closed-form route, valid once the ambient curvature fit is constant
  and the constant attached to the inducing metric vanishes:

      R(X, Y)Z = a [g(X,Z) J(PY) - g(Y,Z) J(PX)] + K [m(X,Z) Y - m(Y,Z) X]

  with a = K - rho^2 / b, m(X, Z) = <X, JZ> in the inducing ambient metric,
  and K the ambient constant attached to the other metric.

Ricci is the trace of Z -> R(Z, X)Y. The opposite trace order negates every
entry; the report carries both readings, and every vanishing check and the
almost-Einstein feasibility are invariant under that global sign. A second
Ricci route goes through the ambient Ricci and the shape operators, a third
through the closed form; all must agree exactly.

The symmetry checkers accept raw tables (curvature, connection, Ricci,
metrics) so synthetic counterexamples can be audited without a geometric
pipeline behind them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .ambient import AmbientGeometry, TrscStatus
from .errors import HypothesisFailure, InternalInconsistency
from .exact import (
    DenseTensor,
    Matrix,
    Vector,
    bilinear,
    format_rational,
    gram,
    solve_affine,
)
from .hypersurface import LightlikeFrame, SecondFundamental


@dataclass(frozen=True)
class FlagResult:
    holds: bool
    witness: tuple | None = None
    value: tuple | None = None  # nonzero components at the witness


@dataclass(frozen=True)
class EinsteinFit:
    """Fit Ric = k g + c g~ in the two induced metrics."""

    kind: str  # "unique" | "parametric" | "infeasible"
    k: Fraction | None
    c: Fraction | None
    nullspace: tuple[Vector, ...]
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

    def all_hold(self) -> bool:
        return (
            self.semi_symmetric.holds
            and self.ricci_semi_symmetric.holds
            and self.locally_symmetric.holds
            and self.almost_einstein.feasible
        )


@dataclass(frozen=True)
class PdeResiduals:
    radial: Fraction
    screen_directions: tuple[Fraction, ...]


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
    Codazzi expression built from B and tau; a residual is an engine bug."""
    m = len(frame.span)
    n = amb.spec.dim
    amb13 = amb.riemann13.nested()
    gm = sf.induced_gamma.nested()
    span = frame.span

    # stage the multilinear evaluation slot by slot: far fewer products than
    # expanding all three span arguments at once
    zero_row = (Fraction(0),) * n
    stage1 = []
    for a in range(m):
        rows = []
        for j in range(n):
            for k in range(n):
                acc = None
                for i in range(n):
                    c_ai = span[a][i]
                    if c_ai == 0:
                        continue
                    row = amb13[i][j][k]
                    if acc is None:
                        acc = [c_ai * x for x in row]
                    else:
                        for q in range(n):
                            if row[q] != 0:
                                acc[q] += c_ai * row[q]
                rows.append(zero_row if acc is None else tuple(acc))
        stage1.append(rows)  # index j * n + k
    stage2 = []
    for a in range(m):
        rows = []
        for b in range(m):
            for k in range(n):
                acc = [Fraction(0)] * n
                for j in range(n):
                    c_bj = span[b][j]
                    if c_bj == 0:
                        continue
                    row = stage1[a][j * n + k]
                    for q in range(n):
                        if row[q] != 0:
                            acc[q] += c_bj * row[q]
                rows.append(acc)
        stage2.append(rows)  # index b * n + k

    entries = []
    for a in range(m):
        for b in range(m):
            for c in range(m):
                vec_amb = [Fraction(0)] * n
                for k in range(n):
                    c_ck = span[c][k]
                    if c_ck == 0:
                        continue
                    row = stage2[a][b * n + k]
                    for q in range(n):
                        if row[q] != 0:
                            vec_amb[q] += c_ck * row[q]
                tm, ncoef = frame.split_tangent(tuple(vec_amb))
                tangent = [
                    tm[q] - sf.b_form[a][c] * sf.a_n[b][q] + sf.b_form[b][c] * sf.a_n[a][q]
                    for q in range(m)
                ]
                da_b = -sum(gm[a][b][k] * sf.b_form[k][c] for k in range(m)) - sum(
                    gm[a][c][k] * sf.b_form[b][k] for k in range(m)
                )
                db_a = -sum(gm[b][a][k] * sf.b_form[k][c] for k in range(m)) - sum(
                    gm[b][c][k] * sf.b_form[a][k] for k in range(m)
                )
                codazzi = (
                    da_b
                    - db_a
                    + sf.tau[a] * sf.b_form[b][c]
                    - sf.tau[b] * sf.b_form[a][c]
                )
                if ncoef != codazzi:
                    raise InternalInconsistency(
                        f"Codazzi residual at basis triple ({a + 1},{b + 1},{c + 1})"
                    )
                entries.extend(tangent)
    return DenseTensor((m, m, m, m), tuple(entries))


def _phi_table(frame: LightlikeFrame, amb: AmbientGeometry) -> tuple[Vector, ...]:
    """Span coordinates of J(P E_a) for every basis field; J-invariance of the
    screen keeps these tangent."""
    out = []
    for a in range(len(frame.span)):
        px = frame.span_to_ambient(frame.p_project_span(a))
        jpx = amb.norden.apply_j(px)
        tm, ncoef = frame.split_tangent(jpx)
        if ncoef != 0:
            raise InternalInconsistency("J of a screen projection left the tangent space")
        out.append(tm)
    return tuple(out)


def closed_form_curvature(
    frame: LightlikeFrame,
    amb: AmbientGeometry,
    screen_coeff: Fraction,
    metric_coeff: Fraction,
) -> DenseTensor:
    """Curvature table of the stated shape with free coefficients; used by the
    geometric route (with a = K - rho^2/b) and by synthetic audits."""
    m = len(frame.span)
    phi = _phi_table(frame, amb)
    metric = amb.norden.metric(frame.inducing_metric)
    g_ind = gram(metric, frame.span)
    j_span = tuple(amb.norden.apply_j(e) for e in frame.span)
    mj = tuple(tuple(bilinear(metric, e, je) for je in j_span) for e in frame.span)
    entries = []
    for a in range(m):
        for b in range(m):
            for c in range(m):
                vec = [Fraction(0)] * m
                sa = screen_coeff * g_ind[a][c]
                sb = screen_coeff * g_ind[b][c]
                for q in range(m):
                    vec[q] += sa * phi[b][q] - sb * phi[a][q]
                vec[b] += metric_coeff * mj[a][c]
                vec[a] -= metric_coeff * mj[b][c]
                entries.extend(vec)
    return DenseTensor((m, m, m, m), tuple(entries))


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
    if frame.inducing_metric == "principal":
        if amb.trsc.nu != 0:
            raise HypothesisFailure(
                "inducing the principal metric requires nu = 0, got "
                + format_rational(amb.trsc.nu)
            )
        k_coeff = amb.trsc.nu_assoc
    else:
        if amb.trsc.nu_assoc != 0:
            raise HypothesisFailure(
                "inducing the associated metric requires nu_assoc = 0, got "
                + format_rational(amb.trsc.nu_assoc)
            )
        k_coeff = amb.trsc.nu
    a_coeff = k_coeff - sf.rho * sf.rho / frame.b
    return closed_form_curvature(frame, amb, a_coeff, k_coeff)


# ---------------------------------------------------------------------------
# Ricci routes


def canonical_ricci(r13: DenseTensor) -> Matrix:
    """Ric(X, Y) = trace of Z -> R(Z, X)Y; no metric enters the trace."""
    m = r13.dims[0]
    t = r13.nested()
    return tuple(
        tuple(sum(t[c][a][b][c] for c in range(m)) for b in range(m)) for a in range(m)
    )


def ricci_from_ambient_decomposition(
    r13_induced: DenseTensor,
    sf: SecondFundamental,
    frame: LightlikeFrame,
    amb: AmbientGeometry,
) -> Matrix:
    """Ricci through the ambient trace and the shape operators:

        Ric(X, Y) = Ric_ambient(X, Y) + B(X, Y) tr A_N
                    - <A_N X, A*_xi Y> - <R(xi, Y)X, N>.
    """
    m = len(frame.span)
    xi_span = frame.xi_span
    metric = amb.norden.metric(frame.inducing_metric)
    amb_ric = amb.ricci.rows()
    t = r13_induced.nested()
    tr_an = sum(sf.a_n[a][a] for a in range(m))

    rows = []
    for a in range(m):
        row = []
        ea = frame.span[a]
        an_a = frame.span_to_ambient(sf.a_n[a])
        for b in range(m):
            eb = frame.span[b]
            ric_ambient = bilinear(amb_ric, ea, eb)
            astar_b = frame.span_to_ambient(sf.a_star_xi[b])
            shape_term = bilinear(metric, an_a, astar_b)
            r_vec = [Fraction(0)] * m
            for i in range(m):
                if xi_span[i] == 0:
                    continue
                row_t = t[i][b][a]
                for q in range(m):
                    r_vec[q] += xi_span[i] * row_t[q]
            radial_term = bilinear(metric, frame.span_to_ambient(tuple(r_vec)), frame.transversal)
            row.append(ric_ambient + sf.b_form[a][b] * tr_an - shape_term - radial_term)
        rows.append(tuple(row))
    return tuple(rows)


def closed_form_ricci(
    frame: LightlikeFrame, sf: SecondFundamental, amb: AmbientGeometry
) -> Matrix:
    """Closed-form Ricci: with K the nonvanishing ambient constant and h the
    complex dimension,

        principal:   Ric = -2(h-1) K g~ + (K - rho^2/b) g~(P., P.)
        associated:  Ric =  2(h-1) K g  - (K - rho^2/b) g(P., P.)

    where the metric appearing on the right is the other induced metric.
    """
    m = len(frame.span)
    h = amb.half_dim
    if frame.inducing_metric == "principal":
        other = amb.norden.g_assoc
        k_coeff = amb.trsc.nu_assoc
        lead = Fraction(-2 * (h - 1)) * k_coeff
        corr_sign = Fraction(1)
    else:
        other = amb.norden.g
        k_coeff = amb.trsc.nu
        lead = Fraction(2 * (h - 1)) * k_coeff
        corr_sign = Fraction(-1)
    a_coeff = k_coeff - sf.rho * sf.rho / frame.b

    rows = []
    for a in range(m):
        pa = frame.span_to_ambient(frame.p_project_span(a))
        row = []
        for b in range(m):
            pb = frame.span_to_ambient(frame.p_project_span(b))
            val = lead * bilinear(other, frame.span[a], frame.span[b])
            val += corr_sign * a_coeff * bilinear(other, pa, pb)
            row.append(val)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class RicciRoutes:
    canonical: Matrix
    ambient_split: Matrix
    closed_form: Matrix | None

    @property
    def agree(self) -> bool:
        if self.canonical != self.ambient_split:
            return False
        return self.closed_form is None or self.canonical == self.closed_form


def induced_ricci(
    r13_induced: DenseTensor,
    sf: SecondFundamental,
    frame: LightlikeFrame,
    amb: AmbientGeometry,
) -> RicciRoutes:
    canonical = canonical_ricci(r13_induced)
    split = ricci_from_ambient_decomposition(r13_induced, sf, frame, amb)
    closed = None
    if amb.trsc.kind == "constant" and sf.rho is not None:
        closed = closed_form_ricci(frame, sf, amb)
    routes = RicciRoutes(canonical, split, closed)
    if not routes.agree:
        raise InternalInconsistency("Ricci routes disagree beyond the documented sign note")
    return routes


# ---------------------------------------------------------------------------
# symmetry checkers (raw tables)


def semi_symmetric_check(r13: DenseTensor) -> FlagResult:
    """Vanishing of the curvature acting on itself as a derivation,

        (R(X,Y).R)(U,V,W) = R(X,Y,R(U,V,W)) - R(U,V,R(X,Y,W))
                            - R(R(X,Y,U),V,W) - R(U,R(X,Y,V),W),

    over every basis 5-tuple. When the table is antisymmetric in its first two
    slots the expression is antisymmetric in (X, Y) and in (U, V), so scanning
    the strictly ordered pairs decides the vanishing of all tuples; tables
    without that symmetry get the full scan."""
    m = r13.dims[0]
    t = r13.nested()
    antisym = all(
        t[i][j][k][q] == -t[j][i][k][q]
        for i in range(m)
        for j in range(i, m)
        for k in range(m)
        for q in range(m)
    )
    if antisym:
        pairs = [(x, y) for x in range(m) for y in range(x + 1, m)]
        tuples = (
            (x, y, u, v, w)
            for x, y in pairs
            for u, v in pairs
            for w in range(m)
        )
    else:
        tuples = product(range(m), repeat=5)
    for x, y, u, v, w in tuples:
        inner_uvw = t[u][v][w]
        inner_xyw = t[x][y][w]
        coef_u = t[x][y][u]
        coef_v = t[x][y][v]
        val = [Fraction(0)] * m
        for k in range(m):
            if inner_uvw[k] != 0:
                row = t[x][y][k]
                for q in range(m):
                    val[q] += inner_uvw[k] * row[q]
            if inner_xyw[k] != 0:
                row = t[u][v][k]
                for q in range(m):
                    val[q] -= inner_xyw[k] * row[q]
            if coef_u[k] != 0:
                row = t[k][v][w]
                for q in range(m):
                    val[q] -= coef_u[k] * row[q]
            if coef_v[k] != 0:
                row = t[u][k][w]
                for q in range(m):
                    val[q] -= coef_v[k] * row[q]
        if any(x_ != 0 for x_ in val):
            return FlagResult(False, (x + 1, y + 1, u + 1, v + 1, w + 1), tuple(val))
    return FlagResult(True)


def ricci_semi_symmetric_check(r13: DenseTensor, ricci: Matrix) -> FlagResult:
    """Vanishing of -Ric(R(X,Y,U), V) - Ric(U, R(X,Y,V)) on basis 4-tuples."""
    m = r13.dims[0]
    t = r13.nested()
    for x, y, u, v in product(range(m), repeat=4):
        coef_u = t[x][y][u]
        coef_v = t[x][y][v]
        val = -sum(coef_u[k] * ricci[k][v] for k in range(m)) - sum(
            ricci[u][k] * coef_v[k] for k in range(m)
        )
        if val != 0:
            return FlagResult(False, (x + 1, y + 1, u + 1, v + 1), (val,))
    return FlagResult(True)


def locally_symmetric_check(r13: DenseTensor, induced_gamma: DenseTensor) -> FlagResult:
    """Vanishing of the covariant derivative of the curvature,

        (D_U R)(X,Y,Z) = D_U(R(X,Y,Z)) - R(D_U X, Y, Z)
                         - R(X, D_U Y, Z) - R(X, Y, D_U Z),

    expanded with constant coefficients; stops at the first nonzero
    component in product order."""
    m = r13.dims[0]
    t = r13.nested()
    gm = induced_gamma.nested()
    for u, x, y, z in product(range(m), repeat=4):
        val = [Fraction(0)] * m
        rxyz = t[x][y][z]
        for k in range(m):
            if rxyz[k] != 0:
                row = gm[u][k]
                for q in range(m):
                    val[q] += rxyz[k] * row[q]
            cx = gm[u][x][k]
            if cx != 0:
                row = t[k][y][z]
                for q in range(m):
                    val[q] -= cx * row[q]
            cy = gm[u][y][k]
            if cy != 0:
                row = t[x][k][z]
                for q in range(m):
                    val[q] -= cy * row[q]
            cz = gm[u][z][k]
            if cz != 0:
                row = t[x][y][k]
                for q in range(m):
                    val[q] -= cz * row[q]
        if any(x_ != 0 for x_ in val):
            return FlagResult(False, (u + 1, x + 1, y + 1, z + 1), tuple(val))
    return FlagResult(True)


def almost_einstein_fit(ricci: Matrix, g_ind: Matrix, g_assoc_ind: Matrix) -> EinsteinFit:
    """Exact affine fit Ric = k g + c g~ over every index pair. A parametric
    outcome (the two induced metrics dependent as component vectors) is
    reported as a family, never collapsed to one representative."""
    m = len(ricci)
    rows = []
    rhs = []
    pairs = []
    for a in range(m):
        for b in range(m):
            rows.append((g_ind[a][b], g_assoc_ind[a][b]))
            rhs.append(ricci[a][b])
            pairs.append((a + 1, b + 1))
    sol = solve_affine(rows, rhs)
    if sol.kind != "infeasible":
        k, c = sol.particular
        return EinsteinFit(sol.kind, k, c, sol.nullspace)
    witness = None
    for stop in range(1, len(rows) + 1):
        if solve_affine(rows[:stop], rhs[:stop]).kind == "infeasible":
            witness = pairs[stop - 1]
            break
    return EinsteinFit("infeasible", None, None, (), witness)


# ---------------------------------------------------------------------------
# residuals and the equivalence audit


def pde_residuals(
    sf: SecondFundamental, frame: LightlikeFrame, amb: AmbientGeometry
) -> PdeResiduals:
    """The scalar constraints forced on a totally umbilical frame. With all
    scalars constant along the frame they reduce to

        b K - rho^2 + rho tau(xi) = 0   and   rho tau(PX) = 0

    per basis direction, K being the ambient constant attached to the other
    metric. Nonzero residuals on validated input are engine bugs."""
    if amb.trsc.kind != "constant":
        raise HypothesisFailure("residual check needs constant ambient curvatures")
    if sf.rho is None:
        raise HypothesisFailure("residual check needs a totally umbilical frame")
    m = len(frame.span)
    xi_span = frame.xi_span
    k_coeff = amb.trsc.nu_assoc if frame.inducing_metric == "principal" else amb.trsc.nu
    tau_xi = sum(xi_span[a] * sf.tau[a] for a in range(m))
    radial = frame.b * k_coeff - sf.rho * sf.rho + sf.rho * tau_xi
    screen_terms = tuple(
        sf.rho * (sf.tau[a] - frame.eta[a] * tau_xi) for a in range(m)
    )
    if radial != 0 or any(s != 0 for s in screen_terms):
        raise InternalInconsistency(
            "umbilical residuals do not vanish: radial "
            + format_rational(radial)
            + ", screen ("
            + ", ".join(format_rational(s) for s in screen_terms)
            + ")"
        )
    return PdeResiduals(radial, screen_terms)


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
    lhs = trsc.nu_assoc if inducing_metric == "principal" else trsc.nu
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
