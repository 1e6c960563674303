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

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations

from .ambient import AmbientGeometry, Check, NordenStructure
from .errors import HypothesisFailure, InternalInconsistency
from .exact import (
    DenseTensor,
    Echelon,
    RowIndex,
    ShapeError,
    fit_tables,
    int_matmul,
    mat_inverse,
    primitive_integer_vector,
    row_index,
)


@dataclass(frozen=True)
class HypersurfaceSpec:
    """A codimension-1 span of ambient vectors (the rows of `span`) plus the
    metric that induces the geometry on it. The optional xi hint fixes the
    gauge of the radical section; it must lie on the radical line."""

    span: DenseTensor
    inducing_metric: str  # "principal" | "associated"
    xi_hint: DenseTensor | None = None


@dataclass(frozen=True)
class Classification:
    kind: str  # "nondegenerate" | "lightlike"
    gram: DenseTensor
    radical_ambient: DenseTensor | None
    normal_direction: DenseTensor | None  # raw (not normalized) for the nondegenerate case


@dataclass(frozen=True)
class LightlikeFrame:
    """A lightlike frame and the Norden structure around it. It owns its exact
    decomposition (ambient vectors split along span + transversal, span
    coordinates along screen + radical), its pairings in the inducing metric
    and the J tables the per-block stages read, all on int tables given as
    (rows, den). The derived tables are built on first use and memoized per
    instance (the memos are not dataclass fields, so equality and repr
    ignore them and dataclasses.replace starts fresh ones)."""

    span: DenseTensor  # row a: E_a
    inducing_metric: str
    xi: DenseTensor
    transversal: DenseTensor
    screen_indices: tuple[int, ...]  # positions inside span
    eta: DenseTensor  # eta(E_a) = <E_a, N> over the span basis
    gram: DenseTensor  # <E_a, E_b> in the inducing metric
    norden: NordenStructure
    b: Fraction | None  # J xi = b N, or None when J xi is not a nonzero multiple of N

    @cached_property
    def inverse(self) -> DenseTensor:
        """Row r gives the r-th frame coordinate (span, then N) of an
        ambient vector: the inverse of the matrix whose columns are the span
        vectors and N."""
        span, ds = self.span.lattice()
        tr, dn = self.transversal.lattice()
        full = [[x * dn for x in col] + [y * ds] for col, y in zip(zip(*span), tr)]
        try:
            return mat_inverse(DenseTensor.from_rows((len(tr), len(tr)), full, ds * dn))
        except ShapeError as exc:  # singular: span + transversal must frame the algebra
            raise InternalInconsistency("hypersurface basis and transversal do not frame the algebra") from exc

    @cached_property
    def xi_span(self) -> DenseTensor:
        """Span coordinates of the radical section."""
        m = self.span.dims[0]
        x, dx = self.xi.lattice()
        coords = int_matmul(self.inverse.lattice()[0], tuple((y,) for y in x))
        if coords[m][0]:
            raise InternalInconsistency("radical section has a transversal component")
        return DenseTensor.from_lattice((m,), (row[0] for row in coords[:m]), self.inverse.den * dx)

    # the right operands of the products below: the span and screen rows (over
    # the span denominator) and the transpose of `inverse`
    @cached_property
    def span_index(self) -> RowIndex:
        return RowIndex(self.span.rows, self.span.dims[1])

    @cached_property
    def screen_index(self) -> RowIndex:
        span, _ = self.span.lattice()
        return row_index(tuple(span[i] for i in self.screen_indices))

    @cached_property
    def inverse_index(self) -> RowIndex:
        return row_index(tuple(zip(*self.inverse.lattice()[0])))

    def to_ambient(self, coords):
        """Ambient vectors of rows of span coordinates."""
        rows, den = coords
        return int_matmul(rows, self.span_index), den * self.span.den

    def screen_to_ambient(self, coords):
        """Ambient vectors of rows of screen coordinates."""
        rows, den = coords
        return int_matmul(rows, self.screen_index), den * self.span.den

    def frame_coords(self, vectors):
        """Rows of ambient vectors split along span + transversal: each row
        holds the span coordinates, then the transversal coefficient."""
        rows, den = vectors
        return int_matmul(rows, self.inverse_index), den * self.inverse.den

    def screen_coords(self, coords):
        """Rows of span coordinates split along screen + radical: each row
        holds the screen coordinates, then the xi coefficient. The screen (the
        span basis but one index r) complements the radical, so xi_span = x / dx
        has x_r != 0, and v = sum_w (v_w - v_r x_w / x_r) E_w + (v_r dx / x_r) xi."""
        (rows, den), (x, dx), screen = coords, self.xi_span.lattice(), self.screen_indices
        (r,) = set(range(len(x))).difference(screen)
        s = 1 if x[r] > 0 else -1
        split = tuple(tuple(s * (v[w] * x[r] - v[r] * x[w]) for w in screen) + (s * v[r] * dx,) for v in rows)
        return split, den * s * x[r]

    def p_projection(self):
        """Span coordinates of the screen projections P E_a, one row per
        basis field: P E_a = E_a - eta(E_a) xi."""
        eta, de = self.eta.lattice()
        xi, dx = self.xi_span.lattice()
        one = de * dx
        return tuple(
            tuple((one if q == a else 0) - ea * x for q, x in enumerate(xi)) for a, ea in enumerate(eta)
        ), one

    def pairings(self, u, v):
        """<u_a, v_b> in the inducing metric for tables of ambient vectors."""
        return self.norden.pairings(self.inducing_metric, u, v)

    # the J tables, one row per basis field
    @cached_property
    def j_span(self):
        """J E_a in ambient coordinates."""
        return self.norden.apply_j_rows(self.span.lattice())

    @cached_property
    def m_span(self):
        """m(E_a, E_c) = <E_a, J E_c>."""
        return self.pairings(self.span.lattice(), self.j_span)

    @cached_property
    def p_ambient(self):
        """P E_a in ambient coordinates."""
        return self.to_ambient(self.p_projection())

    @cached_property
    def j_p(self):
        """J(P E_a) in ambient coordinates."""
        return self.norden.apply_j_rows(self.p_ambient)

    @cached_property
    def j_p_split(self):
        """J(P E_a) split along span + transversal (`frame_coords`)."""
        return self.frame_coords(self.j_p)


@dataclass(frozen=True)
class SecondFundamental:
    """Tables over the hypersurface basis (and the screen, for C)."""

    b_form: DenseTensor  # B(E_a, E_b)
    c_form: DenseTensor  # C(E_a, W_w), second slot restricted to the screen
    a_star_xi: DenseTensor  # row a: span coords of the xi-shape operator image of E_a
    a_n: DenseTensor  # row a: span coords of the N-shape operator image of E_a
    tau: DenseTensor
    induced_gamma: DenseTensor  # D_{E_a} E_b inside the hypersurface
    nabla_star: DenseTensor  # [a][w][v]: screen coords of the screen connection of W_w along E_a
    rho: Fraction | None = None


@dataclass(frozen=True)
class UmbilicalResult:
    umbilical: bool
    rho: Fraction | None
    witness_index: int | None  # basis position whose shape image breaks proportionality
    witness_image: DenseTensor | None  # ambient coordinates of that image


def validate_span(hs: HypersurfaceSpec, amb: AmbientGeometry) -> None:
    """The span's dim-1 vectors (the parser checks the count) must be
    independent and closed under the bracket; anything else is a hypothesis
    failure for the block. The span's echelon is taken once, and the brackets
    of all span pairs, formed in staged products, are reduced against it."""
    n = amb.spec.dim
    span, _ = hs.span.lattice()
    basis = Echelon(span)
    if len(basis.pivots) != n - 1:
        raise HypothesisFailure("hypersurface span is linearly dependent")
    # by_a[a][j * n + k] = sum_i u_a[i] c[i][j][k], then paired with every u_b
    by_a = int_matmul(span, amb.spec.brackets.leading)
    for a in range(n - 1):
        d_a = tuple(by_a[a][j * n : (j + 1) * n] for j in range(n))
        for b, w in enumerate(int_matmul(span[a + 1 :], d_a), start=a + 1):
            if any(basis.reduce(w)):
                raise HypothesisFailure(
                    f"span is not a subalgebra: bracket of span vectors {a + 1} and {b + 1} "
                    "leaves the span"
                )


def induce_and_classify(hs: HypersurfaceSpec, amb: AmbientGeometry) -> Classification:
    """Kernel of the induced metric on the span: empty kernel means a
    nondegenerate hypersurface, a 1-dimensional kernel means lightlike with
    that radical. A larger kernel cannot occur under a nondegenerate ambient
    metric and is flagged as an engine inconsistency."""
    ns = amb.norden
    m = hs.span.dims[0]
    span = hs.span.lattice()
    g_ind, den = ns.pairings(hs.inducing_metric, span, span)
    gram = DenseTensor.from_rows((m, m), g_ind, den)
    kern = Echelon(g_ind).kernel(m)
    if len(kern) == 0:
        g, _ = ns.metric(hs.inducing_metric).lattice()
        normal = Echelon(int_matmul(span[0], g)).kernel(len(g))  # <w, .> for span w
        if len(normal) != 1:
            raise InternalInconsistency("ambient orthogonal complement of a hypersurface is not a line")
        direction = DenseTensor.from_lattice((len(g),), *normal[0])
        return Classification("nondegenerate", gram, None, primitive_integer_vector(direction))
    if len(kern) > 1:
        raise InternalInconsistency(
            "induced metric kernel has rank >= 2 on a hypersurface of a nondegenerate metric"
        )
    coords, dk = kern[0]
    (ambient,) = int_matmul((coords,), span[0])
    return Classification(
        "lightlike",
        gram,
        DenseTensor.from_lattice(hs.span.dims[1:], ambient, dk * span[1]),
        None,
    )


def construct_screen(hs: HypersurfaceSpec, cls: Classification) -> tuple[int, ...]:
    """First subset of the input basis, in input order, whose induced Gram
    matrix is nondegenerate. Such a subset exists because a symmetric matrix
    of rank r has a nonsingular principal r x r submatrix; nondegeneracy of
    the subset Gram also forces it to complement the radical."""
    m = hs.span.dims[0]
    g, _ = cls.gram.lattice()
    for indices in combinations(range(m), m - 1):
        if len(Echelon([g[a][b] for b in indices] for a in indices).pivots) == m - 1:
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
    the defining conditions are re-verified on the output. The frame's b is
    decided here from J xi = b N, and is None unless J xi is a nonzero
    multiple of N.
    """
    ns = amb.norden
    which = hs.inducing_metric

    radical = cls.radical_ambient
    if hs.xi_hint is not None:
        if hs.xi_hint.is_zero():
            raise HypothesisFailure("xi hint is the zero vector")
        if primitive_integer_vector(hs.xi_hint) != primitive_integer_vector(radical):
            raise HypothesisFailure("xi hint does not lie in the radical")
        xi = hs.xi_hint
    else:
        xi = primitive_integer_vector(radical)

    g, _ = ns.metric(which).lattice()
    span, ds = hs.span.lattice()
    screen_rows = (tuple(span[i] for i in screen_indices), ds)
    x, dx = xi.lattice()

    def pair(u, du, v, dv):
        """<u / du, v / dv> for int vectors u and v, as (numerator, den)."""
        (row,), den = ns.pairings(which, ((u,), du), ((v,), dv))
        return row[0], den

    # N is unchanged when V is rescaled, so V is an int kernel vector; with
    # p / dp = <V, xi> and q / dq = <V, V>,
    # N = V / <V, xi> - <V, V> xi / (2 <V, xi>^2) = dp (2 dq p dx V - q dp x) / (2 dq p^2 dx)
    for v, _ in Echelon(int_matmul(screen_rows[0], g)).kernel(len(g)):
        p, dp = pair(v, 1, x, dx)
        if p:
            break
    else:
        raise InternalInconsistency("no transversal candidate pairs with the radical section")
    q, dq = pair(v, 1, v, 1)
    den = 2 * dq * p * p * dx
    nums = tuple(dp * (2 * dq * p * dx * a - q * dp * y) for a, y in zip(v, x))

    nxi, d_nxi = pair(nums, den, x, dx)
    if nxi != d_nxi or pair(nums, den, nums, den)[0] != 0:
        raise InternalInconsistency("transversal conditions fail on the constructed vector")
    n_row = ((nums,), den)
    if any(row[0] for row in ns.pairings(which, screen_rows, n_row)[0]):
        raise InternalInconsistency("transversal is not orthogonal to the screen")

    eta, d_eta = ns.pairings(which, (span, ds), n_row)
    m = hs.span.dims[0]
    # b = (j_xi[pivot] / d_jxi) / (nums[pivot] / den) at the first nonzero entry of N
    (j_xi,), d_jxi = ns.apply_j_rows(((x,), dx))
    pivot = next(q for q, y in enumerate(nums) if y)
    b = Fraction(j_xi[pivot] * den, nums[pivot] * d_jxi)
    return LightlikeFrame(
        span=hs.span,
        inducing_metric=which,
        xi=xi,
        transversal=DenseTensor.from_lattice((len(nums),), nums, den),
        screen_indices=screen_indices,
        eta=DenseTensor.from_lattice((m,), (row[0] for row in eta), d_eta),
        gram=cls.gram,
        norden=ns,
        b=b if b and _aligned(j_xi, nums) else None,
    )


def radical_transversal_check(frame: LightlikeFrame) -> bool:
    """The defining condition: J maps the radical line onto the transversal
    line, J xi = b N with b != 0, as `construct_transversal` decided it with
    b. The screen must then be J-invariant; the two outcomes are
    cross-checked because they are equivalent for validated input.
    Holomorphy reduces J W, for every screen vector W, against one echelon
    of the screen."""
    span, _ = frame.span.lattice()
    j_span, _ = frame.j_span
    basis = Echelon([span[i] for i in frame.screen_indices])
    holomorphic = not any(any(basis.reduce(j_span[i])) for i in frame.screen_indices)
    if holomorphic != (frame.b is not None):
        raise InternalInconsistency(
            "radical-transversal test and screen holomorphy disagree on validated input"
        )
    return holomorphic


def gauss_weingarten(frame: LightlikeFrame, amb: AmbientGeometry) -> SecondFundamental:
    """Decompose every ambient derivative of frame fields.

    D_X Y splits into the induced connection plus B(X, Y) N; D_X N gives the
    N-shape operator and tau; the induced derivative of a screen field splits
    into the screen connection plus C(X, W) xi; the induced derivative of xi
    recovers the xi-shape operator and tau a second time. The two tau
    extractions must agree; a failure is an engine inconsistency, not an
    input property. That B is symmetric with B(., xi) = 0 is checked once, by
    `verify_frame_identities`, which every path runs after this.

    On a radical-transversal frame of left-invariant fields tau vanishes:
    J xi = b N with b constant and J parallel give J(D_X xi) = b D_X N,
    whose N-components are -b tau(X) and b tau(X). `verify_frame_identities`
    checks it, and `symmetry.pde_residuals` relies on it.
    """
    m = frame.span.dims[0]
    n = amb.spec.dim
    rows = range(m)
    span, ds = frame.span.lattice()
    tr, dn = frame.transversal.lattice()
    transversal = (tr,)
    xi, dx = frame.xi_span.lattice()
    dg = amb.gamma.den

    # D_{E_a} X_j for every a, then paired with the span rows and with N
    by_a = int_matmul(span, amb.gamma.leading)  # a -> (j, k), over ds * dg
    derivs = []  # row a * m + b: D_{E_a} E_b
    along_n = []  # row a: D_{E_a} N
    for a in rows:
        d_a = row_index(tuple(by_a[a][j * n : (j + 1) * n] for j in range(n)))
        derivs.extend(int_matmul(span, d_a))
        along_n.extend(int_matmul(transversal, d_a))
    split, d_b = frame.frame_coords((derivs, ds * ds * dg))
    induced = [split[a * m : (a + 1) * m] for a in rows]  # induced[a][b][:m] = D_{E_a} E_b
    b_form = tuple(tuple(row[m] for row in induced[a]) for a in rows)

    n_split, d_tau = frame.frame_coords((along_n, ds * dn * dg))
    a_n = tuple(tuple(-x for x in row[:m]) for row in n_split)
    tau = tuple(row[m] for row in n_split)

    # row a: the induced derivative of xi along E_a, sum_b xi_b D_{E_a} E_b
    nabla_xi = [int_matmul((xi,), [row[:m] for row in induced[a]])[0] for a in rows]
    xi_split, d_star = frame.screen_coords((nabla_xi, dx * d_b))
    a_star = []
    for a in rows:
        if -xi_split[a][m - 1] * d_tau != tau[a] * d_star:
            raise InternalInconsistency("tau from the transversal and radical decompositions disagree")
        image = [0] * m
        for pos, idx in enumerate(frame.screen_indices):
            image[idx] = -xi_split[a][pos]
        a_star.append(image)
    if any(int_matmul((xi,), a_star)[0]):
        raise InternalInconsistency("xi-shape operator does not annihilate the radical section")

    screen_split, d_c = frame.screen_coords(
        ([induced[a][idx][:m] for a in rows for idx in frame.screen_indices], d_b)
    )
    # row a * (m - 1) + w of screen_split: the screen coordinates, then the xi
    # coordinate, of the induced derivative of W_w along E_a
    return SecondFundamental(
        b_form=DenseTensor.from_rows((m, m), b_form, d_b),
        c_form=DenseTensor.from_lattice((m, m - 1), (row[m - 1] for row in screen_split), d_c),
        a_star_xi=DenseTensor.from_rows((m, m), a_star, d_star),
        a_n=DenseTensor.from_rows((m, m), a_n, d_tau),
        tau=DenseTensor.from_lattice((m,), tau, d_tau),
        induced_gamma=DenseTensor.from_lattice(
            (m, m, m), (x for block in induced for row in block for x in row[:m]), d_b
        ),
        nabla_star=DenseTensor.from_rows((m, m - 1, m - 1), [row[: m - 1] for row in screen_split], d_c),
    )


def _aligned(image, p) -> bool:
    """Whether the int vector image is a multiple of the int vector p."""
    pivot = next((q for q, x in enumerate(p) if x), None)
    if pivot is None:
        return not any(image)
    return all(x * p[pivot] == image[pivot] * y for x, y in zip(image, p))


def umbilical_test(sf: SecondFundamental, frame: LightlikeFrame) -> UmbilicalResult:
    """Exact proportionality fit of B against the induced metric. A unique
    factor rho means totally umbilical (rho = 0 is totally geodesic); an
    infeasible fit returns the first basis field whose xi-shape image is not
    aligned with its screen projection."""
    m = frame.span.dims[0]
    sol = fit_tables((frame.gram,), sf.b_form)
    if sol.kind == "unique":
        return UmbilicalResult(True, sol.particular[0], None, None)
    if sol.kind == "parametric":
        raise InternalInconsistency("induced metric vanished identically on a hypersurface")
    p, _ = frame.p_projection()
    images, d_star = sf.a_star_xi.lattice()

    def witness(a: int) -> UmbilicalResult:
        (image,), den = frame.to_ambient(((images[a],), d_star))
        return UmbilicalResult(False, None, a, DenseTensor.from_lattice((len(image),), image, den))

    for a in range(m):
        if not _aligned(images[a], p[a]):
            return witness(a)
    # images are individually aligned but the factors differ; the factor of
    # field a is images[a][q] / p[a][q] at the first q with p[a][q] != 0
    factors = []
    for a in range(m):
        pivot = next((q for q, x in enumerate(p[a]) if x), None)
        if pivot is not None:
            factors.append((a, images[a][pivot], p[a][pivot]))
    _, num0, den0 = factors[0]
    bad = next((a for a, num, den in factors if num * den0 != num0 * den), None)
    # None only where B is not <., A*_xi .>, which a frame identity then names
    return UmbilicalResult(False, None, None, None) if bad is None else witness(bad)


def verify_frame_identities(
    sf: SecondFundamental,
    frame: LightlikeFrame,
    rho: Fraction | None,
) -> tuple[Check, ...]:
    """Evaluate the structural identities of a radical-transversal frame over
    every basis tuple: the pairings defining B and C, screen-valuedness of
    both shape operators, the metric-derivative split, the tangential J
    decomposition, the two shape-operator dualities, parallelism of J along
    the screen connection, vanishing of tau (the gauge function b is constant
    here), and, when umbilical, the alignment of the N-shape operator with
    J on the screen. These are theorems; the caller treats any failure as an
    internal inconsistency.

    Every table is int rows over one denominator; each identity is a scan
    whose first witness, in the order written, is recorded."""
    m = frame.span.dims[0]
    rows = range(m)
    span = frame.span.lattice()
    xi, _ = frame.xi_span.lattice()
    eta, de = frame.eta.lattice()
    tr, dn = frame.transversal.lattice()
    transversal = ((tr,), dn)
    b_form, db = sf.b_form.lattice()
    c_form, dc = sf.c_form.lattice()
    tau, _ = sf.tau.lattice()
    ratio = 0 if rho is None else rho / frame.b
    scalars, dk = DenseTensor.from_entries((2,), (-frame.b, ratio)).lattice()
    neg_b = scalars[0]
    checks: list[Check] = []

    def add(name: str, witnesses):
        w = next(iter(witnesses), None)
        checks.append(Check(name, w is None, w))

    # hoisted tables reused by several identities
    a_star_amb, d_star = frame.to_ambient(sf.a_star_xi.lattice())
    a_n_amb, d_an = frame.to_ambient(sf.a_n.lattice())
    j_p, d_jp = frame.j_p
    j_span, d_js = frame.j_span
    # screen coordinates of each J(P E_a), or None where it has a transversal
    # or a radical component; a screen field has eta = 0, so its row is J W
    split, d_split = frame.j_p_split
    coords, d_coords = frame.screen_coords(([row[:m] for row in split], d_split))
    j_p_screen = [None if split_row[m] or row[m - 1] else row[: m - 1] for split_row, row in zip(split, coords)]

    add(
        "second_fundamental_symmetric",
        ((a + 1, c + 1) for a in rows for c in range(a + 1, m) if b_form[a][c] != b_form[c][a]),
    )
    b_xi = int_matmul(b_form, tuple((x,) for x in xi))
    add("second_fundamental_kills_radical", ((a + 1,) for a in rows if b_xi[a][0]))

    pair, dp = frame.pairings(span, (a_star_amb, d_star))  # pair[c][a] = <E_c, A*_xi E_a>
    add(
        "b_equals_xi_shape_pairing",
        ((a + 1, c + 1) for a in rows for c in rows if b_form[a][c] * dp != pair[c][a] * db),
    )
    pair, _ = frame.pairings((a_star_amb, d_star), transversal)
    add("xi_shape_operator_screen_valued", ((a + 1,) for a in rows if pair[a][0]))

    pair, dp = frame.pairings(span, (a_n_amb, d_an))  # pair[c][a] = <E_c, A_N E_a>
    add(
        "c_equals_transversal_shape_pairing",
        (
            (a + 1, pos + 1)
            for a in rows
            for pos, idx in enumerate(frame.screen_indices)
            if c_form[a][pos] * dp != pair[idx][a] * dc
        ),
    )
    pair, _ = frame.pairings((a_n_amb, d_an), transversal)
    add("transversal_shape_operator_screen_valued", ((a + 1,) for a in rows if pair[a][0]))

    # (D_X g)(Y, Z) = B(X, Y) eta(Z) + B(X, Z) eta(Y) over all basis triples,
    # with <E_d, D_{E_a} E_c> = sum_q gamma[a][c][q] <E_d, E_q> = der[a][c][d]
    gram, d_gram = frame.gram.lattice()
    d_gm = sf.induced_gamma.den
    der = int_matmul(sf.induced_gamma.rows, tuple(zip(*gram)))  # row a * m + c, over d_gm * d_gram
    zero = (0,) * m
    d_lhs, d_rhs = d_gm * d_gram, db * de
    add(
        "metric_derivative_split",
        (
            (a + 1, c + 1, d + 1)
            for a in rows
            for c in rows
            for d in rows
            if -(der.get(a * m + c, zero)[d] + der.get(a * m + d, zero)[c]) * d_rhs
            != (b_form[a][c] * eta[d] + b_form[a][d] * eta[c]) * d_lhs
        ),
    )

    # J X = J(PX) + b eta(X) N
    f_jp, d_exp = dk * de * dn, d_jp * dk * de * dn
    expected = [[f_jp * y - neg_b * e * d_jp * x for y, x in zip(row, tr)] for row, e in zip(j_p, eta)]
    add(
        "tangential_j_decomposition",
        ((a + 1,) for a in rows if _differs(j_span[a], d_js, expected[a], d_exp)),
    )

    # A*_xi X = -b J(A_N X)
    j_an, d_jan = frame.norden.apply_j_rows((a_n_amb, d_an))
    expected = [[neg_b * y for y in row] for row in j_an]
    add(
        "shape_operator_duality",
        ((a + 1,) for a in rows if _differs(a_star_amb[a], d_star, expected[a], dk * d_jan)),
    )

    # B(X, Y) = -b C(X, J(PY))
    d_val = dk * dc * d_coords
    # c_coords[a][c] = C(E_a, J(P E_c)) over dc * d_coords, where J(P E_c) is screen-valued
    c_coords = int_matmul(c_form, tuple(zip(*(row or (0,) * (m - 1) for row in j_p_screen))))

    def form_duality():
        for c in rows:
            if j_p_screen[c] is None:
                yield (c + 1,)
            for a in rows:
                if b_form[a][c] * d_val != neg_b * c_coords[a][c] * db:
                    yield (a + 1, c + 1)

    add("fundamental_form_duality", form_duality())

    # screen connection commutes with J on screen sections
    j_screen = [j_p_screen[idx] for idx in frame.screen_indices]

    def screen_j():
        if None in j_screen:
            yield (0, j_screen.index(None) + 1)
        nabla, d_ns = sf.nabla_star.lattice()
        rhs, d_r = frame.norden.apply_j_rows(frame.screen_to_ambient((tuple(chain.from_iterable(nabla)), d_ns)))
        for a in rows:
            nabla_a = nabla[a]
            lhs, d_l = frame.screen_to_ambient((int_matmul(j_screen, nabla_a), d_coords * d_ns))
            for pos in range(m - 1):
                if _differs(lhs[pos], d_l, rhs[a * (m - 1) + pos], d_r):
                    yield (a + 1, pos + 1)

    add("screen_connection_preserves_j", screen_j())
    add("tau_vanishes_for_constant_gauge", ((a + 1,) for a in rows if tau[a]))
    if rho is not None:
        expected = [[scalars[1] * y for y in row] for row in j_p]  # rho / b over dk
        add(
            "umbilical_shape_alignment",
            ((a + 1,) for a in rows if _differs(a_n_amb[a], d_an, expected[a], dk * d_jp)),
        )
    return tuple(checks)


def _differs(u, du, v, dv) -> bool:
    """Whether the int vectors u / du and v / dv differ in some entry."""
    return any(x * dv != y * du for x, y in zip(u, v))
