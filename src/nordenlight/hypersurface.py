"""Lightlike hypersurface frames inside a Norden Lie algebra.

Given a codimension-1 subalgebra and a choice of inducing metric (the
principal metric g or the associated metric g~), this module classifies the
hypersurface, builds the lightlike frame and extracts the second-fundamental
data:

* radical: the kernel of the induced metric on the tangent space, rank 1 for
  a lightlike hypersurface of a nondegenerate ambient metric;
* screen: a complement of the radical with nondegenerate induced metric,
  chosen as the first subset of the input basis (in input order) that works;
* transversal: the unique vector N with <N, xi> = 1, <N, N> = 0 and
  <N, screen> = 0 once the radical section xi is fixed;
* radical-transversal test: J xi must span the transversal line, J xi = b N
  with b != 0; the screen is then J-invariant;
* Gauss/Weingarten data: the two second fundamental forms B and C, the shape
  operators (one paired with xi, one with N), the 1-form tau, and the induced
  connection, all obtained by exact decomposition of ambient derivatives.

The radical section carries a gauge freedom xi -> c xi that rescales
(b, rho) to (c^2 b, c rho) and leaves rho^2 / b fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .ambient import AmbientGeometry, Check
from .errors import HypothesisFailure, InternalInconsistency
from .exact import (
    DenseTensor,
    Matrix,
    ShapeError,
    Vector,
    bilinear,
    bilinear_map,
    gram,
    kernel_basis,
    mat_inverse,
    mat_rank,
    primitive_integer_vector,
    solve_affine,
    unit_vector,
    vec_is_zero,
    vec_scale,
    vec_sub,
)


@dataclass(frozen=True)
class HypersurfaceSpec:
    """A codimension-1 span of ambient vectors plus the metric that induces
    the geometry on it. The optional xi hint fixes the gauge of the radical
    section; it must lie on the radical line."""

    span: tuple[Vector, ...]
    inducing_metric: str  # "principal" | "associated"
    xi_hint: Vector | None = None


@dataclass(frozen=True)
class Classification:
    kind: str  # "nondegenerate" | "lightlike"
    gram: Matrix
    radical_span_coords: Vector | None
    radical_ambient: Vector | None
    normal_direction: Vector | None  # raw (not normalized) for the nondegenerate case


@dataclass(frozen=True)
class LightlikeFrame:
    """A lightlike frame. It owns its exact decomposition: ambient vectors
    split along span + transversal, span coordinates along screen + radical."""

    span: tuple[Vector, ...]
    inducing_metric: str
    xi: Vector
    transversal: Vector
    screen_indices: tuple[int, ...]  # positions inside span
    screen: tuple[Vector, ...]
    eta: tuple[Fraction, ...]  # eta(E_a) = <E_a, N> over the span basis
    b: Fraction | None = None

    def _decomposition(self) -> tuple[Matrix, Vector, Matrix]:
        """(full_inv, xi_span, inner_inv), built on first use and memoized per
        instance (the memo is not a dataclass field, so equality and repr
        ignore it and dataclasses.replace starts a fresh one)."""
        cached = getattr(self, "_decomposition_memo", None)
        if cached is not None:
            return cached
        m = len(self.span)
        n = len(self.xi)
        full_cols = list(self.span) + [self.transversal]
        full = tuple(tuple(full_cols[c][r] for c in range(n)) for r in range(n))
        try:
            full_inv = mat_inverse(full)
        except ShapeError as exc:  # singular: span + transversal must frame the algebra
            raise InternalInconsistency("hypersurface basis and transversal do not frame the algebra") from exc
        coords = tuple(sum(full_inv[r][q] * self.xi[q] for q in range(n)) for r in range(m + 1))
        if coords[m] != 0:
            raise InternalInconsistency("radical section has a transversal component")
        xi_span = coords[:m]
        inner_cols = [unit_vector(m, i) for i in self.screen_indices] + [xi_span]
        inner = tuple(tuple(inner_cols[c][r] for c in range(m)) for r in range(m))
        cached = (full_inv, xi_span, mat_inverse(inner))
        object.__setattr__(self, "_decomposition_memo", cached)
        return cached

    @property
    def full_inverse(self) -> Matrix:
        """Inverse of the matrix whose columns are the span vectors and the
        transversal: row r gives the r-th coordinate of an ambient vector."""
        return self._decomposition()[0]

    @property
    def xi_span(self) -> Vector:
        """Span coordinates of the radical section."""
        return self._decomposition()[1]

    def ambient_coords(self, v: Vector) -> Vector:
        full_inv = self.full_inverse
        return tuple(
            sum(full_inv[r][q] * v[q] for q in range(len(v))) for r in range(len(self.span) + 1)
        )

    def split_tangent(self, v: Vector) -> tuple[Vector, Fraction]:
        coords = self.ambient_coords(v)
        return coords[:-1], coords[-1]

    def span_to_ambient(self, coords: Vector) -> Vector:
        m = len(self.span)
        return tuple(
            sum(coords[a] * self.span[a][q] for a in range(m)) for q in range(len(self.xi))
        )

    def screen_radical_split(self, tm_coords: Vector) -> tuple[Vector, Fraction]:
        inner_inv = self._decomposition()[2]
        m = len(self.span)
        coords = tuple(
            sum(inner_inv[r][a] * tm_coords[a] for a in range(m)) for r in range(m)
        )
        return coords[:-1], coords[-1]

    def screen_coords_to_span(self, screen_coords: Vector) -> Vector:
        out = [Fraction(0)] * len(self.span)
        for pos, idx in enumerate(self.screen_indices):
            out[idx] += screen_coords[pos]
        return tuple(out)

    def p_project_span(self, a: int) -> Vector:
        """Span coordinates of the screen projection of the a-th basis field."""
        xi_span = self.xi_span
        out = list(unit_vector(len(self.span), a))
        for q in range(len(self.span)):
            out[q] -= self.eta[a] * xi_span[q]
        return tuple(out)


@dataclass(frozen=True)
class SecondFundamental:
    """Tables over the hypersurface basis (and the screen, for C)."""

    b_form: Matrix  # B(E_a, E_b)
    c_form: Matrix  # C(E_a, W_w), second slot restricted to the screen
    a_star_xi: tuple[Vector, ...]  # span coords of the xi-shape operator image
    a_n: tuple[Vector, ...]  # span coords of the N-shape operator image
    tau: tuple[Fraction, ...]
    induced_gamma: DenseTensor  # D_{E_a} E_b inside the hypersurface
    nabla_star: tuple[tuple[Vector, ...], ...]  # screen coords of the screen connection
    rho: Fraction | None = None


@dataclass(frozen=True)
class RTCheck:
    is_radical_transversal: bool
    b: Fraction | None
    screen_holomorphic: bool
    j_xi: Vector


@dataclass(frozen=True)
class UmbilicalResult:
    umbilical: bool
    rho: Fraction | None
    witness_index: int | None  # basis position whose shape image breaks proportionality
    witness_image: Vector | None  # ambient coordinates of that image


def validate_span(hs: HypersurfaceSpec, amb: AmbientGeometry) -> None:
    """The span must consist of dim-1 independent vectors closed under the
    bracket; anything else is a hypothesis failure for the block."""
    n = amb.spec.dim
    if len(hs.span) != n - 1:
        raise HypothesisFailure(f"hypersurface span must have {n - 1} vectors, got {len(hs.span)}")
    if mat_rank(hs.span) != n - 1:
        raise HypothesisFailure("hypersurface span is linearly dependent")
    for a in range(len(hs.span)):
        for b in range(a + 1, len(hs.span)):
            w = amb.spec.bracket(hs.span[a], hs.span[b])
            if solve_affine(list(zip(*hs.span)), list(w)).kind == "infeasible":
                raise HypothesisFailure(
                    f"span is not a subalgebra: bracket of span vectors {a + 1} and {b + 1} "
                    "leaves the span"
                )


def induce_and_classify(hs: HypersurfaceSpec, amb: AmbientGeometry) -> Classification:
    """Kernel of the induced metric on the span: empty kernel means a
    nondegenerate hypersurface, a 1-dimensional kernel means lightlike with
    that radical. A larger kernel cannot occur under a nondegenerate ambient
    metric and is flagged as an engine inconsistency."""
    metric = amb.norden.metric(hs.inducing_metric)
    m = len(hs.span)
    g_ind = gram(metric, hs.span)
    kern = kernel_basis(g_ind)
    if len(kern) == 0:
        pairing = tuple(
            tuple(sum(w[q] * metric[q][k] for q in range(len(w))) for k in range(len(w)))
            for w in hs.span
        )
        normal = kernel_basis(pairing)
        if len(normal) != 1:
            raise InternalInconsistency("ambient orthogonal complement of a hypersurface is not a line")
        return Classification("nondegenerate", g_ind, None, None, primitive_integer_vector(normal[0]))
    if len(kern) > 1:
        raise InternalInconsistency(
            "induced metric kernel has rank >= 2 on a hypersurface of a nondegenerate metric"
        )
    coords = kern[0]
    ambient = tuple(
        sum(coords[a] * hs.span[a][q] for a in range(m)) for q in range(len(hs.span[0]))
    )
    return Classification("lightlike", g_ind, coords, ambient, None)


def construct_screen(hs: HypersurfaceSpec, cls: Classification) -> tuple[int, ...]:
    """First subset of the input basis, in input order, whose induced Gram
    matrix is nondegenerate. Such a subset exists because a symmetric matrix
    of rank r has a nonsingular principal r x r submatrix; nondegeneracy of
    the subset Gram also forces it to complement the radical."""
    from itertools import combinations

    m = len(hs.span)
    for indices in combinations(range(m), m - 1):
        sub = tuple(tuple(cls.gram[a][b] for b in indices) for a in indices)
        if mat_rank(sub) == m - 1:
            return indices
    raise InternalInconsistency("no nondegenerate screen complement exists")


def construct_transversal(
    hs: HypersurfaceSpec,
    amb: AmbientGeometry,
    cls: Classification,
    screen_indices: tuple[int, ...],
) -> LightlikeFrame:
    """Fix the radical section and solve the transversal conditions exactly.

    xi is the hint when given (it must lie on the radical line), otherwise
    the radical kernel vector scaled to coprime integer coordinates with a
    positive leading entry. N is built from the first vector V orthogonal to
    the screen with <V, xi> != 0 via N = (V - (<V,V>/(2<V,xi>)) xi) / <V,xi>;
    the defining conditions are re-verified on the output.
    """
    metric = amb.norden.metric(hs.inducing_metric)
    n = amb.spec.dim

    radical = cls.radical_ambient
    if hs.xi_hint is not None:
        if vec_is_zero(hs.xi_hint):
            raise HypothesisFailure("xi hint is the zero vector")
        scaled_hint = primitive_integer_vector(hs.xi_hint)
        scaled_rad = primitive_integer_vector(radical)
        if scaled_hint != scaled_rad:
            raise HypothesisFailure("xi hint does not lie in the radical")
        xi = hs.xi_hint
    else:
        xi = primitive_integer_vector(radical)

    pairing = tuple(
        tuple(sum(w[q] * metric[q][k] for q in range(n)) for k in range(n))
        for w in (hs.span[i] for i in screen_indices)
    )
    complement = kernel_basis(pairing)
    v = next((cand for cand in complement if bilinear(metric, cand, xi) != 0), None)
    if v is None:
        raise InternalInconsistency("no transversal candidate pairs with the radical section")
    vxi = bilinear(metric, v, xi)
    vv = bilinear(metric, v, v)
    transversal = vec_scale(vec_sub(v, vec_scale(xi, vv / (2 * vxi))), 1 / vxi)

    screen = tuple(hs.span[i] for i in screen_indices)
    if bilinear(metric, transversal, xi) != 1 or bilinear(metric, transversal, transversal) != 0:
        raise InternalInconsistency("transversal conditions fail on the constructed vector")
    for w in screen:
        if bilinear(metric, transversal, w) != 0:
            raise InternalInconsistency("transversal is not orthogonal to the screen")

    eta = tuple(bilinear(metric, e, transversal) for e in hs.span)
    return LightlikeFrame(
        span=hs.span,
        inducing_metric=hs.inducing_metric,
        xi=xi,
        transversal=transversal,
        screen_indices=screen_indices,
        screen=screen,
        eta=eta,
    )


def radical_transversal_check(frame: LightlikeFrame, amb: AmbientGeometry) -> RTCheck:
    """The defining condition: J maps the radical line onto the transversal
    line, J xi = b N with b != 0. The screen must then be J-invariant; the two
    outcomes are cross-checked because they are equivalent for validated
    input."""
    j_xi = amb.norden.apply_j(frame.xi)
    pivot = next((q for q, x in enumerate(frame.transversal) if x != 0), None)
    b = j_xi[pivot] / frame.transversal[pivot]
    proportional = j_xi == vec_scale(frame.transversal, b)
    is_rt = proportional and b != 0

    holomorphic = True
    screen_cols = list(zip(*frame.screen))
    for w in frame.screen:
        jw = amb.norden.apply_j(w)
        if solve_affine(screen_cols, list(jw)).kind == "infeasible":
            holomorphic = False
            break
    if is_rt != holomorphic:
        raise InternalInconsistency(
            "radical-transversal test and screen holomorphy disagree on validated input"
        )
    return RTCheck(is_rt, b if is_rt else None, holomorphic, j_xi)


def gauss_weingarten(frame: LightlikeFrame, amb: AmbientGeometry) -> SecondFundamental:
    """Decompose every ambient derivative of frame fields.

    D_X Y splits into the induced connection plus B(X, Y) N; D_X N gives the
    N-shape operator and tau; the induced derivative of a screen field splits
    into the screen connection plus C(X, W) xi; the induced derivative of xi
    recovers the xi-shape operator and tau a second time. The two tau
    extractions must agree and B must be symmetric with B(., xi) = 0; failures
    are engine inconsistencies, not input properties.
    """
    m = len(frame.span)
    xi_span = frame.xi_span
    gamma = amb.gamma.nested()

    induced = []
    b_rows = []
    for a in range(m):
        gamma_row = []
        b_row = []
        for b in range(m):
            tm, ncoef = frame.split_tangent(bilinear_map(gamma, frame.span[a], frame.span[b]))
            gamma_row.append(tm)
            b_row.append(ncoef)
        induced.append(gamma_row)
        b_rows.append(tuple(b_row))
    b_form = tuple(b_rows)

    for a in range(m):
        for b in range(a + 1, m):
            if b_form[a][b] != b_form[b][a]:
                raise InternalInconsistency("second fundamental form is not symmetric")
    for a in range(m):
        if sum(b_form[a][b] * xi_span[b] for b in range(m)) != 0:
            raise InternalInconsistency("second fundamental form does not vanish on the radical")

    a_n = []
    tau = []
    for a in range(m):
        tm, ncoef = frame.split_tangent(bilinear_map(gamma, frame.span[a], frame.transversal))
        a_n.append(tuple(-x for x in tm))
        tau.append(ncoef)
    tau = tuple(tau)

    a_star = []
    for a in range(m):
        d_xi = tuple(
            sum(xi_span[b] * induced[a][b][q] for b in range(m)) for q in range(m)
        )
        screen_part, xi_coef = frame.screen_radical_split(d_xi)
        if -xi_coef != tau[a]:
            raise InternalInconsistency("tau from the transversal and radical decompositions disagree")
        a_star.append(frame.screen_coords_to_span(tuple(-x for x in screen_part)))
    if any(
        sum(xi_span[a] * a_star[a][q] for a in range(m)) != 0 for q in range(m)
    ):
        raise InternalInconsistency("xi-shape operator does not annihilate the radical section")

    c_rows = []
    nabla_star = []
    for a in range(m):
        c_row = []
        ns_row = []
        for pos, idx in enumerate(frame.screen_indices):
            screen_part, xi_coef = frame.screen_radical_split(induced[a][idx])
            c_row.append(xi_coef)
            ns_row.append(screen_part)
        c_rows.append(tuple(c_row))
        nabla_star.append(tuple(ns_row))

    gamma_tensor = DenseTensor(
        (m, m, m), tuple(x for row in induced for tm in row for x in tm)
    )
    return SecondFundamental(
        b_form=b_form,
        c_form=tuple(c_rows),
        a_star_xi=tuple(a_star),
        a_n=tuple(a_n),
        tau=tau,
        induced_gamma=gamma_tensor,
        nabla_star=tuple(nabla_star),
    )


def umbilical_test(
    sf: SecondFundamental, frame: LightlikeFrame, amb: AmbientGeometry
) -> UmbilicalResult:
    """Exact proportionality fit of B against the induced metric. A unique
    factor rho means totally umbilical (rho = 0 is totally geodesic); an
    infeasible fit returns the first basis field whose xi-shape image is not
    aligned with its screen projection."""
    g_ind = gram(amb.norden.metric(frame.inducing_metric), frame.span)
    m = len(frame.span)
    rows = [(x,) for row in g_ind for x in row]
    sol = solve_affine(rows, [x for row in sf.b_form for x in row])
    if sol.kind == "unique":
        return UmbilicalResult(True, sol.particular[0], None, None)
    if sol.kind == "parametric":
        raise InternalInconsistency("induced metric vanished identically on a hypersurface")
    for a in range(m):
        p_span = frame.p_project_span(a)
        image = sf.a_star_xi[a]
        cols = list(zip(p_span))
        if solve_affine(cols, list(image)).kind == "infeasible":
            return UmbilicalResult(False, None, a, frame.span_to_ambient(image))
    # images are individually aligned but the factors differ
    factors = []
    for a in range(m):
        p_span = frame.p_project_span(a)
        pivot = next((q for q, x in enumerate(p_span) if x != 0), None)
        if pivot is not None:
            factors.append((a, sf.a_star_xi[a][pivot] / p_span[pivot]))
    bad = next(a for a, f in factors if f != factors[0][1])
    return UmbilicalResult(False, None, bad, frame.span_to_ambient(sf.a_star_xi[bad]))


def verify_frame_identities(
    sf: SecondFundamental,
    frame: LightlikeFrame,
    amb: AmbientGeometry,
    rho: Fraction | None,
) -> tuple[Check, ...]:
    """Evaluate the structural identities of a radical-transversal frame over
    every basis tuple: the pairings defining B and C, screen-valuedness of
    both shape operators, the metric-derivative split, the tangential J
    decomposition, the two shape-operator dualities, parallelism of J along
    the screen connection, vanishing of tau (the gauge function b is constant
    here), and, when umbilical, the alignment of the N-shape operator with
    J on the screen. These are theorems; the caller treats any failure as an
    internal inconsistency."""
    m = len(frame.span)
    xi_span = frame.xi_span
    b = frame.b
    checks: list[Check] = []

    def add(name: str, witness):
        checks.append(Check(name, witness is None, witness))

    # hoisted tables reused by several identities
    a_star_amb = tuple(frame.span_to_ambient(v) for v in sf.a_star_xi)
    a_n_amb = tuple(frame.span_to_ambient(v) for v in sf.a_n)
    # the metric is symmetric, so pairings with a basis field put the field
    # first, where bilinear skips its zero entries
    metric = amb.norden.metric(frame.inducing_metric)
    p_amb = tuple(frame.span_to_ambient(frame.p_project_span(a)) for a in range(m))
    gm_nested = sf.induced_gamma.nested()
    d_amb = tuple(
        tuple(frame.span_to_ambient(gm_nested[a][c]) for c in range(m)) for a in range(m)
    )

    def screen_coords_of(vec_ambient):
        tm, ncoef = frame.split_tangent(vec_ambient)
        if ncoef != 0:
            return None
        coords, xi_coef = frame.screen_radical_split(tm)
        if xi_coef != 0:
            return None
        return coords

    w = next(
        (
            (a + 1, c + 1)
            for a in range(m)
            for c in range(a + 1, m)
            if sf.b_form[a][c] != sf.b_form[c][a]
        ),
        None,
    )
    add("second_fundamental_symmetric", w)

    w = next(
        (
            (a + 1,)
            for a in range(m)
            if sum(sf.b_form[a][c] * xi_span[c] for c in range(m)) != 0
        ),
        None,
    )
    add("second_fundamental_kills_radical", w)

    w = None
    for a in range(m):
        for c in range(m):
            if sf.b_form[a][c] != bilinear(metric, frame.span[c], a_star_amb[a]):
                w = (a + 1, c + 1)
                break
        if w:
            break
    add("b_equals_xi_shape_pairing", w)

    w = next(
        ((a + 1,) for a in range(m) if bilinear(metric, a_star_amb[a], frame.transversal) != 0),
        None,
    )
    add("xi_shape_operator_screen_valued", w)

    w = None
    for a in range(m):
        for pos, idx in enumerate(frame.screen_indices):
            if sf.c_form[a][pos] != bilinear(metric, frame.span[idx], a_n_amb[a]):
                w = (a + 1, pos + 1)
                break
        if w:
            break
    add("c_equals_transversal_shape_pairing", w)

    w = next(
        ((a + 1,) for a in range(m) if bilinear(metric, a_n_amb[a], frame.transversal) != 0),
        None,
    )
    add("transversal_shape_operator_screen_valued", w)

    # (D_X g)(Y, Z) = B(X, Y) eta(Z) + B(X, Z) eta(Y) over all basis triples
    w = None
    for a in range(m):
        for c in range(m):
            for d in range(m):
                lhs = -bilinear(metric, frame.span[d], d_amb[a][c]) - bilinear(
                    metric, frame.span[c], d_amb[a][d]
                )
                rhs = sf.b_form[a][c] * frame.eta[d] + sf.b_form[a][d] * frame.eta[c]
                if lhs != rhs:
                    w = (a + 1, c + 1, d + 1)
                    break
            if w:
                break
        if w:
            break
    add("metric_derivative_split", w)

    # J X = J(PX) + b eta(X) N
    w = None
    for a in range(m):
        jx = amb.norden.apply_j(frame.span[a])
        jpx = amb.norden.apply_j(p_amb[a])
        expected = tuple(
            jpx[q] + b * frame.eta[a] * frame.transversal[q] for q in range(len(jx))
        )
        if jx != expected:
            w = (a + 1,)
            break
    add("tangential_j_decomposition", w)

    # A*_xi X = -b J(A_N X)
    w = None
    for a in range(m):
        if a_star_amb[a] != vec_scale(amb.norden.apply_j(a_n_amb[a]), -b):
            w = (a + 1,)
            break
    add("shape_operator_duality", w)

    # B(X, Y) = -b C(X, J(PY))
    w = None
    for c in range(m):
        coords = screen_coords_of(amb.norden.apply_j(p_amb[c]))
        if coords is None:
            w = (c + 1,)
            break
        for a in range(m):
            val = -b * sum(coords[pos] * sf.c_form[a][pos] for pos in range(m - 1))
            if sf.b_form[a][c] != val:
                w = (a + 1, c + 1)
                break
        if w:
            break
    add("fundamental_form_duality", w)

    # screen connection commutes with J on screen sections
    w = None
    j_screen_coords = []
    for idx in frame.screen_indices:
        coords = screen_coords_of(amb.norden.apply_j(frame.span[idx]))
        j_screen_coords.append(coords)
    if any(c is None for c in j_screen_coords):
        w = (0, j_screen_coords.index(None) + 1)
    else:
        for a in range(m):
            for pos in range(m - 1):
                jw_coords = j_screen_coords[pos]
                lhs = [Fraction(0)] * (m - 1)
                for v in range(m - 1):
                    cv = jw_coords[v]
                    if cv == 0:
                        continue
                    row = sf.nabla_star[a][v]
                    for q in range(m - 1):
                        lhs[q] += cv * row[q]
                lhs_ambient = frame.span_to_ambient(frame.screen_coords_to_span(lhs))
                rhs_vec = frame.span_to_ambient(frame.screen_coords_to_span(sf.nabla_star[a][pos]))
                if lhs_ambient != amb.norden.apply_j(rhs_vec):
                    w = (a + 1, pos + 1)
                    break
            if w:
                break
    add("screen_connection_preserves_j", w)

    w = next(((a + 1,) for a in range(m) if sf.tau[a] != 0), None)
    add("tau_vanishes_for_constant_gauge", w)

    if rho is not None:
        w = None
        for a in range(m):
            if a_n_amb[a] != vec_scale(amb.norden.apply_j(p_amb[a]), rho / b):
                w = (a + 1,)
                break
        add("umbilical_shape_alignment", w)

    return tuple(checks)


def gauge_rescale(
    frame: LightlikeFrame, sf: SecondFundamental, c: Fraction
) -> tuple[LightlikeFrame, SecondFundamental]:
    """Rescale the radical section xi -> c xi. The transversal becomes N / c,
    the gauge factor b becomes c^2 b, rho becomes c rho, tau is unchanged and
    the induced connection is unchanged; rho^2 / b is invariant."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("gauge factor must be nonzero")
    new_frame = replace(
        frame,
        xi=vec_scale(frame.xi, c),
        transversal=vec_scale(frame.transversal, 1 / c),
        eta=tuple(e / c for e in frame.eta),
        b=None if frame.b is None else c * c * frame.b,
    )
    new_sf = replace(
        sf,
        b_form=tuple(tuple(c * x for x in row) for row in sf.b_form),
        c_form=tuple(tuple(x / c for x in row) for row in sf.c_form),
        a_star_xi=tuple(vec_scale(v, c) for v in sf.a_star_xi),
        a_n=tuple(vec_scale(v, 1 / c) for v in sf.a_n),
        rho=None if sf.rho is None else c * sf.rho,
    )
    return new_frame, new_sf
