"""Shared oracles and randomized-instance generators for the test suite.

Oracles here are written from the defining formulas, independent of the code
paths they check: the Koszul defining equation, the symmetry closure of a
curvature table from its generating components, the trace definition of
Ricci, and the fully expanded derivation action on closed-form-shaped
curvature tables. The Fraction references keep earlier forms of engine code
that now runs on int rows (the eliminators, the front half of a verdict, the
frame identities, the Gauss/Weingarten decomposition and the Ricci routes);
the engine passes `DenseTensor` tables between stages, and `nested`,
`matrix`, `vector`, `norden`, `hyper_spec` and `fraction_solution` convert
between them and the Fraction tuples the references use. The dense
references keep the table builders that now run from nonzero entries
(curvature, pi-tensors, the associated table, the Gauss route), the kernels that now read nonzero entries only (the dot-product
`int_matmul`, the flat-table product, the table combination and the fit) and
the prefix scan of the Einstein witness, and `reference_tensor_nonzeros`
keeps the per-entry dict builder of the report listings; the test-only table
arithmetic and the golden-corpus inputs live here too.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, prod
from operator import add, mul

from nordenlight.ambient import (
    Check,
    LieAlgebraSpec,
    NordenStructure,
    ValidationReport,
    norden_structure,
)
from nordenlight.errors import HypothesisFailure, InternalInconsistency
from nordenlight.exact import (
    DenseTensor,
    Echelon,
    LinearSolution,
    ShapeError,
    _nest,
    fit_tables,
    format_ratio,
)
from nordenlight.hypersurface import HypersurfaceSpec
from nordenlight.pipeline import emit_report, run_block

F = Fraction


# ---------------------------------------------------------------------------
# test-only table helpers


def nested(t: DenseTensor):
    """The Fraction entries of a table as nested tuples: a vector as a
    tuple, a matrix as a tuple of rows."""
    return _nest(t.dims, t.entries)


def unit_vector(n: int, i: int):
    return tuple(F(1 if k == i else 0) for k in range(n))


def int_row(v) -> tuple[int, ...]:
    """A rational row scaled to ints by its least common denominator."""
    v = tuple(map(F, v))
    den = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (den // x.denominator) for x in v)


def matrix(rows) -> DenseTensor:
    """The table of a rational matrix given by its rows; tables pass through."""
    return rows if isinstance(rows, DenseTensor) else tensor_from_rows(rows)


def vector(v) -> DenseTensor:
    """The table of a rational vector; tables pass through."""
    return v if isinstance(v, DenseTensor) else tensor_from_vector(v)


def norden(g, j) -> NordenStructure:
    """`norden_structure` of rational matrices or tables."""
    return norden_structure(matrix(g), matrix(j))


def hyper_spec(span, inducing: str, xi_hint=None) -> HypersurfaceSpec:
    """A `HypersurfaceSpec` of rational span vectors and hint, or tables."""
    return HypersurfaceSpec(matrix(span), inducing, None if xi_hint is None else vector(xi_hint))


def fraction_solution(sol: LinearSolution) -> LinearSolution:
    """A solution of `fit_tables` with its vectors read as Fraction tuples,
    the form of `reference_solve_affine`."""
    particular = None if sol.particular is None else sol.particular.entries
    return LinearSolution(sol.kind, particular, tuple(v.entries for v in sol.nullspace))


def solve(a, b) -> LinearSolution:
    """`fit_tables` on a rational system a.x = b, with the columns of a and b
    as vector tables, read back in Fractions."""
    return fraction_solution(fit_tables(list(map(tensor_from_vector, zip(*a))), tensor_from_vector(b)))


def kernel(m):
    """`Echelon.kernel` of a rational matrix as Fraction vectors, each row
    scaled to ints by its least common denominator."""
    return [tuple(F(x, den) for x in v) for v, den in Echelon(map(int_row, m)).kernel(len(m[0]))]


def mat_rank(m) -> int:
    """Rank of a rational matrix by `Echelon`, each row scaled to ints by
    its own least common denominator."""
    return len(Echelon(map(int_row, m)).pivots)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def transpose(m):
    return tuple(zip(*m))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u, c):
    return tuple(a * c for a in u)


def bilinear(g, u, v) -> Fraction:
    """u^T g v for a square coefficient table g."""
    return sum(
        (ui * sum(g[i][j] * v[j] for j in range(len(v))) for i, ui in enumerate(u) if ui != 0),
        F(0),
    )


def gram(g, vectors):
    """Gram matrix of the vectors under the bilinear form g."""
    return tuple(tuple(bilinear(g, u, v) for v in vectors) for u in vectors)


def bilinear_map(t, u, v):
    """sum_ij u_i v_j t[i][j] for a nested rank-3 table t (a bracket or a
    connection table)."""
    n = len(u)
    out = [F(0)] * n
    for i in range(n):
        for j in range(n):
            if u[i] != 0 and v[j] != 0:
                for k in range(n):
                    out[k] += u[i] * v[j] * t[i][j][k]
    return tuple(out)


def apply_j(ns: NordenStructure, v):
    """J v for the rational matrix of J (column k holds J X_k)."""
    j = nested(ns.j)
    return tuple(sum(j[q][k] * v[k] for k in range(len(v))) for q in range(len(j)))


def tensor_add(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    if a.dims != b.dims:
        raise ShapeError("shape mismatch in tensor addition or subtraction")
    return DenseTensor.from_entries(a.dims, map(add, a.entries, b.entries))


def tensor_sub(a: DenseTensor, b: DenseTensor) -> DenseTensor:
    return tensor_add(a, tensor_neg(b))


def tensor_scale(a: DenseTensor, c) -> DenseTensor:
    c = F(c)
    nums, den = flat_lattice(a)
    return DenseTensor.from_lattice(a.dims, (c.numerator * x for x in nums), den * c.denominator)


def tensor_neg(a: DenseTensor) -> DenseTensor:
    return tensor_scale(a, -1)


def gauge_rescale(frame, sf, c):
    """Rescale the radical section xi -> c xi. The transversal becomes N / c,
    the gauge factor b becomes c^2 b, rho becomes c rho, tau is unchanged and
    the induced connection is unchanged; rho^2 / b is invariant."""
    from dataclasses import replace

    c = F(c)
    if c == 0:
        raise ValueError("gauge factor must be nonzero")
    new_frame = replace(
        frame,
        xi=tensor_scale(frame.xi, c),
        transversal=tensor_scale(frame.transversal, 1 / c),
        eta=tensor_scale(frame.eta, 1 / c),
        b=None if frame.b is None else c * c * frame.b,
    )
    new_sf = replace(
        sf,
        b_form=tensor_scale(sf.b_form, c),
        c_form=tensor_scale(sf.c_form, 1 / c),
        a_star_xi=tensor_scale(sf.a_star_xi, c),
        a_n=tensor_scale(sf.a_n, 1 / c),
        rho=None if sf.rho is None else c * sf.rho,
    )
    return new_frame, new_sf


def tensor_zeros(dims) -> DenseTensor:
    dims = tuple(dims)
    return DenseTensor(tuple(dims), (), (), 1)


def tensor_from_function(dims, fn) -> DenseTensor:
    """Table whose entry at each 0-based index tuple is fn(*index)."""
    dims = tuple(dims)
    return DenseTensor.from_entries(dims, [F(fn(*ix)) for ix in product(*(range(d) for d in dims))])


def tensor_from_rows(rows) -> DenseTensor:
    rows = tuple(tuple(map(F, r)) for r in rows)
    return DenseTensor.from_entries((len(rows), len(rows[0])), [x for r in rows for x in r])


def tensor_from_vector(v) -> DenseTensor:
    return DenseTensor.from_entries((len(v),), list(map(F, v)))


def tensor_contract(t: DenseTensor, slot_t: int, u: DenseTensor, slot_u: int) -> DenseTensor:
    """Single-slot contraction; result rank is rank(t) + rank(u) - 2."""
    if not 0 <= slot_t < t.rank:
        raise ShapeError(f"shape: slot {slot_t} out of range for rank {t.rank}")
    if not 0 <= slot_u < u.rank:
        raise ShapeError(f"shape: slot {slot_u} out of range for rank {u.rank}")
    if t.dims[slot_t] != u.dims[slot_u]:
        raise ShapeError(
            f"shape: contracted dimensions differ ({t.dims[slot_t]} vs {u.dims[slot_u]})"
        )
    csize = t.dims[slot_t]
    t_dims = t.dims[:slot_t] + t.dims[slot_t + 1 :]
    u_dims = u.dims[:slot_u] + u.dims[slot_u + 1 :]
    out_dims = t_dims + u_dims

    def entry(*ix):
        tix = ix[: len(t_dims)]
        uix = ix[len(t_dims) :]
        total = F(0)
        for m in range(csize):
            full_t = tix[:slot_t] + (m,) + tix[slot_t:]
            full_u = uix[:slot_u] + (m,) + uix[slot_u:]
            total += t[full_t] * u[full_u]
        return total

    return tensor_from_function(out_dims, entry)


def rebase(t: DenseTensor, p) -> DenseTensor:
    """Components of a tensor with lower slots first and one upper slot last
    (a curvature or connection table) in the basis X'_a = sum_i p[a][i] X_i:
    p enters every lower slot and its inverse the upper one."""
    pm, inverse = tensor_from_rows(p), tensor_from_rows(reference_mat_inverse(p))
    for _ in range(t.rank - 1):
        t = tensor_contract(t, 0, pm, 1)  # the new index moves to the end
    return tensor_contract(t, 0, inverse, 0)


def first_failure(report):
    """The first failed check of a validation report, or None."""
    return next((c for c in report.checks if not c.ok), None)


def all_hold(flags) -> bool:
    """Whether all four symmetry flags hold."""
    return (
        flags.semi_symmetric.holds
        and flags.ricci_semi_symmetric.holds
        and flags.locally_symmetric.holds
        and flags.almost_einstein.feasible
    )


# ---------------------------------------------------------------------------
# oracles


def koszul_residuals(spec, metric, gamma):
    """Residuals of 2<D_i j, k> - (<[i,j],k> + <[k,i],j> + <[k,j],i>) over all
    basis triples; the connection is correct iff all vanish."""
    n = spec.dim
    c = nested(spec.brackets)
    gm = nested(gamma)
    metric = nested(metric)

    def pair_bracket(a, b, k):
        return sum(c[a][b][m] * metric[m][k] for m in range(n))

    out = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = 2 * sum(gm[i][j][m] * metric[m][k] for m in range(n))
                rhs = pair_bracket(i, j, k) + pair_bracket(k, i, j) + pair_bracket(k, j, i)
                out.append(lhs - rhs)
    return out


def verify_torsion_free(spec: LieAlgebraSpec, gamma: DenseTensor) -> None:
    n = spec.dim
    gm = nested(gamma)
    c = nested(spec.brackets)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if gm[i][j][k] - gm[j][i][k] != c[i][j][k]:
                    raise InternalInconsistency(
                        f"connection is not torsion-free at ({i + 1},{j + 1},{k + 1})"
                    )


def verify_metric_compatibility(gamma: DenseTensor, metric: DenseTensor) -> None:
    metric = nested(metric)
    n = len(metric)
    gm = nested(gamma)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = sum(gm[i][j][m] * metric[m][k] for m in range(n)) + sum(
                    gm[i][k][m] * metric[m][j] for m in range(n)
                )
                if val != 0:
                    raise InternalInconsistency(
                        f"connection does not annihilate the metric at ({i + 1},{j + 1},{k + 1})"
                    )


def verify_curvature_symmetries(r04: DenseTensor) -> None:
    """Slot antisymmetries, pair symmetry, and the first Bianchi identity."""
    n = r04.dims[0]
    t = nested(r04)
    for i, j, k, l in product(range(n), repeat=4):
        if t[i][j][k][l] != -t[j][i][k][l]:
            raise InternalInconsistency(f"curvature not antisymmetric in slots 1,2 at {(i, j, k, l)}")
        if t[i][j][k][l] != -t[i][j][l][k]:
            raise InternalInconsistency(f"curvature not antisymmetric in slots 3,4 at {(i, j, k, l)}")
        if t[i][j][k][l] != t[k][l][i][j]:
            raise InternalInconsistency(f"curvature pair symmetry fails at {(i, j, k, l)}")
        if t[i][j][k][l] + t[j][k][i][l] + t[k][i][j][l] != 0:
            raise InternalInconsistency(f"first Bianchi identity fails at {(i, j, k, l)}")


def verify_kaehler_curvature_identity(r04: DenseTensor, ns: NordenStructure) -> None:
    """R(X, Y, JZ, JW) = -R(X, Y, Z, W), which also forces every holomorphic
    sectional curvature to vanish; both are asserted."""
    n = r04.dims[0]
    t = nested(r04)
    j = nested(ns.j)
    for i, a, k, l in product(range(n), repeat=4):
        val = sum(
            j[m][k] * j[p][l] * t[i][a][m][p] for m in range(n) for p in range(n)
            if j[m][k] != 0 and j[p][l] != 0
        )
        if val != -t[i][a][k][l]:
            raise InternalInconsistency(f"Kaehler curvature identity fails at {(i, a, k, l)}")
    for k in range(n):
        x = tuple(Fraction(1 if m == k else 0) for m in range(n))
        jx = tuple(row[k] for row in j)  # J X_k
        val = sum(
            x[i] * jx[a] * jx[p] * x[q] * t[i][a][p][q]
            for i in range(n)
            for a in range(n)
            for p in range(n)
            for q in range(n)
            if x[i] != 0 and jx[a] != 0 and jx[p] != 0 and x[q] != 0
        )
        if val != 0:
            raise InternalInconsistency(f"holomorphic section through basis vector {k + 1} is not flat")


def symmetry_closure_table(dim, generators):
    """Expected rank-4 table from 1-based (i, j, k, l, value) generators,
    closed under antisymmetry in the first and last index pairs and the pair
    interchange; conflicting assignments raise."""
    table = {}

    def put(i, j, k, l, v):
        key = (i, j, k, l)
        if key in table and table[key] != v:
            raise AssertionError(f"symmetry closure conflict at {key}")
        table[key] = v

    for i, j, k, l, v in generators:
        i, j, k, l, v = i - 1, j - 1, k - 1, l - 1, F(v)
        for a, b, sign1 in ((i, j, 1), (j, i, -1)):
            for c, d, sign2 in ((k, l, 1), (l, k, -1)):
                s = sign1 * sign2
                put(a, b, c, d, s * v)
                put(c, d, a, b, s * v)
    return tensor_from_function(
        (dim, dim, dim, dim), lambda i, j, k, l: table.get((i, j, k, l), F(0))
    )


def trace_ricci(r13):
    """Trace of Z -> R(Z, X)Y straight from the table."""
    m = r13.dims[0]
    t = nested(r13)
    return tuple(
        tuple(sum(t[c][a][b][c] for c in range(m)) for b in range(m)) for a in range(m)
    )


def frame_tables(frame, amb):
    """Induced-metric, J-pairing, projector, and J-after-projector tables of a
    frame, recomputed from scratch for oracle use."""
    span, eta = nested(frame.span), frame.eta.entries
    m = len(span)
    metric = nested(amb.norden.metric(frame.inducing_metric))

    def pair(u, v):
        return sum(u[i] * sum(metric[i][j] * v[j] for j in range(len(v))) for i in range(len(u)))

    span_cols = list(zip(*span))

    def span_coords(v):
        sol = reference_solve_affine(span_cols, list(v))
        assert sol.kind != "infeasible"
        return sol.particular

    xi_span = span_coords(frame.xi.entries)
    g_ind = tuple(tuple(pair(span[a], span[b]) for b in range(m)) for a in range(m))
    mj = tuple(
        tuple(pair(span[a], apply_j(amb.norden, span[c])) for c in range(m))
        for a in range(m)
    )
    proj = []
    phi = []
    for a in range(m):
        p = list(unit_vector(m, a))
        for q in range(m):
            p[q] -= eta[a] * xi_span[q]
        proj.append(tuple(p))
        p_amb = tuple(
            sum(p[q] * span[q][r] for q in range(m)) for r in range(len(span[0]))
        )
        phi.append(span_coords(apply_j(amb.norden, p_amb)))
    return {
        "g": g_ind,
        "mj": mj,
        "proj": tuple(proj),
        "phi": tuple(phi),
        "xi_span": xi_span,
    }


def derivation_action_expansion(frame, amb, a_coeff, k_coeff):
    """Fully expanded (R(X,Y).R)(U,V,W) for a closed-form-shaped curvature
    table with screen coefficient ``a_coeff`` and metric coefficient
    ``k_coeff``; returns a function of five basis indices producing span
    coordinates."""
    tables = frame_tables(frame, amb)
    g = tables["g"]
    mj = tables["mj"]
    proj = tables["proj"]
    phi = tables["phi"]
    m = len(g)
    a = F(a_coeff)
    k = F(k_coeff)

    def gp(basis_idx, vec):
        # induced pairing of a basis field with a span-coordinate vector
        return sum(vec[q] * g[basis_idx][q] for q in range(m))

    def value(x, y, u, v, w):
        out = [F(0)] * m

        def add(scale, vec):
            if scale == 0:
                return
            for q in range(m):
                out[q] += scale * vec[q]

        bracket_yu = a * gp(y, phi[u]) - k * mj[y][u]
        bracket_yv = a * gp(y, phi[v]) - k * mj[y][v]
        bracket_xu = a * gp(x, phi[u]) - k * mj[x][u]
        bracket_xv = a * gp(x, phi[v]) - k * mj[x][v]
        add(a * (g[v][w] * bracket_yu - g[u][w] * bracket_yv), phi[x])
        add(-a * (g[v][w] * bracket_xu - g[u][w] * bracket_xv), phi[y])

        coef3 = a * (g[u][w] * g[v][y] - g[v][w] * g[u][y])
        vec3 = [k * unit_vector(m, x)[q] - a * proj[x][q] for q in range(m)]
        add(coef3, vec3)
        coef4 = a * (g[u][w] * g[v][x] - g[v][w] * g[u][x])
        vec4 = [k * unit_vector(m, y)[q] - a * proj[y][q] for q in range(m)]
        add(-coef4, vec4)

        bracket_wx = a * gp(w, phi[x]) - k * mj[w][x]
        bracket_wy = a * gp(w, phi[y]) - k * mj[w][y]
        bracket_ux = a * gp(u, phi[x]) - k * mj[u][x]
        bracket_uy = a * gp(u, phi[y]) - k * mj[u][y]
        bracket_vx = a * gp(v, phi[x]) - k * mj[v][x]
        bracket_vy = a * gp(v, phi[y]) - k * mj[v][y]
        add(
            a
            * (
                g[y][u] * bracket_wx
                - g[x][u] * bracket_wy
                + g[y][w] * bracket_ux
                - g[x][w] * bracket_uy
            ),
            phi[v],
        )
        add(
            -a
            * (
                g[y][v] * bracket_wx
                - g[x][v] * bracket_wy
                + g[y][w] * bracket_vx
                - g[x][w] * bracket_vy
            ),
            phi[u],
        )
        return tuple(out)

    return value


def derivation_action_direct(r13, x, y, u, v, w):
    """(R(X,Y).R)(U,V,W) straight from the definition on a curvature table."""
    m = r13.dims[0]
    t = nested(r13)
    out = [F(0)] * m
    inner = t[u][v][w]
    for kk in range(m):
        if inner[kk] != 0:
            for q in range(m):
                out[q] += inner[kk] * t[x][y][kk][q]
    inner = t[x][y][w]
    for kk in range(m):
        if inner[kk] != 0:
            for q in range(m):
                out[q] -= inner[kk] * t[u][v][kk][q]
    inner = t[x][y][u]
    for kk in range(m):
        if inner[kk] != 0:
            for q in range(m):
                out[q] -= inner[kk] * t[kk][v][w][q]
    inner = t[x][y][v]
    for kk in range(m):
        if inner[kk] != 0:
            for q in range(m):
                out[q] -= inner[kk] * t[u][kk][w][q]
    return tuple(out)


def brute_semi_symmetric(t, m):
    """First nonzero (R(X,Y).R)(U,V,W) over every basis 5-tuple in product
    order, from the definition on nested table entries of any exact number
    type: (1-based witness, value) or None."""
    for x, y, u, v, w in product(range(m), repeat=5):
        val = tuple(
            sum(
                t[u][v][w][k] * t[x][y][k][q]
                - t[x][y][w][k] * t[u][v][k][q]
                - t[x][y][u][k] * t[k][v][w][q]
                - t[x][y][v][k] * t[u][k][w][q]
                for k in range(m)
            )
            for q in range(m)
        )
        if any(val):
            return (x + 1, y + 1, u + 1, v + 1, w + 1), val
    return None


def brute_ricci_semi_symmetric(t, ric, m):
    """First nonzero -Ric(R(X,Y,U), V) - Ric(U, R(X,Y,V)) in product order;
    ric is indexed ric[a][b]."""
    for x, y, u, v in product(range(m), repeat=4):
        val = -sum(t[x][y][u][k] * ric[k][v] + ric[u][k] * t[x][y][v][k] for k in range(m))
        if val != 0:
            return (x + 1, y + 1, u + 1, v + 1), (val,)
    return None


def brute_locally_symmetric(t, gm, m):
    """First nonzero (D_U R)(X,Y,Z) in product order of (U, X, Y, Z)."""
    for u, x, y, z in product(range(m), repeat=4):
        val = tuple(
            sum(
                t[x][y][z][k] * gm[u][k][q]
                - gm[u][x][k] * t[k][y][z][q]
                - gm[u][y][k] * t[x][k][z][q]
                - gm[u][z][k] * t[x][y][k][q]
                for k in range(m)
            )
            for q in range(m)
        )
        if any(val):
            return (u + 1, x + 1, y + 1, z + 1), val
    return None


def reference_tensor_nonzeros(tensor: DenseTensor) -> list[dict]:
    """Reference for `pipeline._listing`: the report listing of a table, one
    {"index": [1-based indices], "value": "p/q"} dict per nonzero entry in
    row-major order, built entry by entry."""
    den = tensor.den
    return [
        {"index": [i + 1 for i in ix], "value": format_ratio(x, den)}
        for ix, x in zip(tensor.indexes(tensor.offsets), tensor.nums)
    ]


# ---------------------------------------------------------------------------
# dense references of the product kernel, the table combination and the fit


def flat_lattice(t: DenseTensor) -> tuple[tuple[int, ...], int]:
    """(row-major int numerators of every entry, den) of a table."""
    nums = [0] * prod(t.dims)
    for k, x in zip(t.offsets, t.nums):
        nums[k] = x
    return tuple(nums), t.den


def reference_int_matmul(a, b_cols) -> tuple[tuple[int, ...], ...]:
    """Reference for `exact.int_matmul`: a . b for int matrices, with b given
    by its columns (`tuple(zip(*b))`), one dot product per entry, and every
    all-zero row of a gives a zero row without any."""
    zero = (0,) * len(b_cols)
    return tuple(
        tuple(sum(map(mul, row, col)) for col in b_cols) if any(row) else zero for row in a
    )


def reference_flat_matmul(nums, width: int, b) -> list[int]:
    """Reference for the product of a flat table's last slot with b: a . b,
    flat row-major, for the int matrix a whose rows are the consecutive runs
    of `width` entries of nums and an int matrix b with `width` rows."""
    rows = zip(*[iter(nums)] * width)
    return [x for row in reference_int_matmul(rows, tuple(zip(*b))) for x in row]


def reference_fit_tables(columns, rhs) -> LinearSolution:
    """Reference for `exact.fit_tables` on (flat int numerators, den) pairs
    over every component: independent coefficient rows picked in order on
    the numerators, `reference_solve_affine` on them, and every component
    checked in cross-multiplied ints. All-zero coefficient tables pick the
    first row."""
    flat = [tuple(nums) for nums, _ in columns]
    dens = [den for _, den in columns]
    b, db = tuple(rhs[0]), rhs[1]
    if any(len(col) != len(b) for col in flat):
        raise ShapeError("fit tables differ in shape")
    picked: list[int] = []
    basis = Echelon()
    for i, row in enumerate(zip(*flat)):
        if any(row) and basis.insert(row):
            picked.append(i)
            if len(picked) == len(columns):
                break
    picked = picked or [0]
    sol = reference_solve_affine(
        [tuple(Fraction(col[i], d) for col, d in zip(flat, dens)) for i in picked],
        [Fraction(b[i], db) for i in picked],
    )
    if sol.kind == "infeasible":
        return sol
    dx = lcm(*(q.denominator for q in sol.particular))
    x = [int(q * dx) for q in sol.particular]
    den = lcm(*dens)
    lhs = [0] * len(b)
    for col, xj, dj in zip(flat, x, dens):
        f = xj * (den // dj) * db
        lhs = [s + f * c for s, c in zip(lhs, col)]
    if any(s != v * dx * den for s, v in zip(lhs, b)):
        return LinearSolution("infeasible", None, ())
    return sol


def echelon_fit(columns, rhs):
    """Reference for `exact.fit_tables`: `reference_solve_affine` on every
    component row of the system sum_j x_j columns[j] = rhs."""
    return reference_solve_affine(list(zip(*(t.entries for t in columns))), list(rhs.entries))


def reference_frame_identities(sf, frame, amb, rho):
    """Reference for `hypersurface.verify_frame_identities`: the same
    identities, scan orders and witnesses, evaluated one vector at a time in
    Fraction arithmetic from the frame's defining vectors."""
    span, xi, transversal, eta = nested(frame.span), frame.xi.entries, frame.transversal.entries, frame.eta.entries
    b_form, c_form, a_star_xi, a_n = nested(sf.b_form), nested(sf.c_form), nested(sf.a_star_xi), nested(sf.a_n)
    tau, nabla_star = sf.tau.entries, nested(sf.nabla_star)
    m = len(span)
    n = len(xi)
    b = frame.b
    metric = nested(amb.norden.metric(frame.inducing_metric))
    def j_of(v):
        return apply_j(amb.norden, v)

    full_cols = list(span) + [transversal]
    full_inv = reference_mat_inverse(tuple(tuple(full_cols[c][r] for c in range(n)) for r in range(n)))
    xi_span = tuple(sum(full_inv[r][q] * xi[q] for q in range(n)) for r in range(m))
    inner_cols = [unit_vector(m, i) for i in frame.screen_indices] + [xi_span]
    inner_inv = reference_mat_inverse(tuple(tuple(inner_cols[c][r] for c in range(m)) for r in range(m)))

    def metric_times(v):
        return tuple(sum(metric[i][j] * v[j] for j in range(n)) for i in range(n))

    def dot(u, w):
        return sum((x * y for x, y in zip(u, w)), F(0))

    def pair(u, v):
        return dot(u, metric_times(v))

    def span_to_ambient(coords):
        return tuple(sum(coords[a] * span[a][q] for a in range(m)) for q in range(n))

    def split_tangent(v):
        coords = tuple(sum(full_inv[r][q] * v[q] for q in range(n)) for r in range(m + 1))
        return coords[:-1], coords[-1]

    def screen_radical_split(tm):
        coords = tuple(sum(inner_inv[r][a] * tm[a] for a in range(m)) for r in range(m))
        return coords[:-1], coords[-1]

    def screen_coords_to_span(screen_coords):
        out = [F(0)] * m
        for pos, idx in enumerate(frame.screen_indices):
            out[idx] += screen_coords[pos]
        return tuple(out)

    def p_project_span(a):
        return tuple(F(1 if q == a else 0) - eta[a] * xi_span[q] for q in range(m))

    def screen_coords_of(vec_ambient):
        tm, ncoef = split_tangent(vec_ambient)
        if ncoef != 0:
            return None
        coords, xi_coef = screen_radical_split(tm)
        return None if xi_coef != 0 else coords

    def first(witnesses):
        return next(witnesses, None)

    a_star_amb = tuple(span_to_ambient(v) for v in a_star_xi)
    a_n_amb = tuple(span_to_ambient(v) for v in a_n)
    p_amb = tuple(span_to_ambient(p_project_span(a)) for a in range(m))
    gm = nested(sf.induced_gamma)
    rows = range(m)
    # der[a][c][d] = <E_d, D_{E_a} E_c>
    der = [
        [[dot(e, w) for e in span] for w in (metric_times(span_to_ambient(v)) for v in gm[a])]
        for a in rows
    ]
    g_star = [metric_times(v) for v in a_star_amb]
    g_n = [metric_times(v) for v in a_n_amb]
    screen = list(enumerate(frame.screen_indices))
    out = [
        ("second_fundamental_symmetric", first(
            (a + 1, c + 1) for a in rows for c in range(a + 1, m) if b_form[a][c] != b_form[c][a]
        )),
        ("second_fundamental_kills_radical", first(
            (a + 1,) for a in rows if sum(b_form[a][c] * xi_span[c] for c in rows) != 0
        )),
        ("b_equals_xi_shape_pairing", first(
            (a + 1, c + 1)
            for a in rows
            for c in rows
            if b_form[a][c] != dot(span[c], g_star[a])
        )),
        ("xi_shape_operator_screen_valued", first(
            (a + 1,) for a in rows if pair(a_star_amb[a], transversal) != 0
        )),
        ("c_equals_transversal_shape_pairing", first(
            (a + 1, pos + 1)
            for a in rows
            for pos, idx in screen
            if c_form[a][pos] != dot(span[idx], g_n[a])
        )),
        ("transversal_shape_operator_screen_valued", first(
            (a + 1,) for a in rows if pair(a_n_amb[a], transversal) != 0
        )),
        ("metric_derivative_split", first(
            (a + 1, c + 1, d + 1)
            for a in rows
            for c in rows
            for d in rows
            if -der[a][c][d] - der[a][d][c]
            != b_form[a][c] * eta[d] + b_form[a][d] * eta[c]
        )),
        ("tangential_j_decomposition", first(
            (a + 1,)
            for a in rows
            if j_of(span[a])
            != tuple(x + b * eta[a] * y for x, y in zip(j_of(p_amb[a]), transversal))
        )),
        ("shape_operator_duality", first(
            (a + 1,) for a in rows if a_star_amb[a] != tuple(-b * x for x in j_of(a_n_amb[a]))
        )),
    ]

    w = None
    for c in rows:
        coords = screen_coords_of(j_of(p_amb[c]))
        if coords is None:
            w = (c + 1,)
            break
        w = first(
            (a + 1, c + 1)
            for a in rows
            if b_form[a][c] != -b * sum(coords[pos] * c_form[a][pos] for pos in range(m - 1))
        )
        if w:
            break
    out.append(("fundamental_form_duality", w))

    w = None
    j_screen = [screen_coords_of(j_of(span[idx])) for idx in frame.screen_indices]
    if None in j_screen:
        w = (0, j_screen.index(None) + 1)
    else:
        for a in rows:
            for pos in range(m - 1):
                lhs = [
                    sum(j_screen[pos][v] * nabla_star[a][v][q] for v in range(m - 1))
                    for q in range(m - 1)
                ]
                lhs_ambient = span_to_ambient(screen_coords_to_span(lhs))
                rhs_vec = span_to_ambient(screen_coords_to_span(nabla_star[a][pos]))
                if lhs_ambient != j_of(rhs_vec):
                    w = (a + 1, pos + 1)
                    break
            if w:
                break
    out.append(("screen_connection_preserves_j", w))
    out.append(("tau_vanishes_for_constant_gauge", first((a + 1,) for a in rows if tau[a] != 0)))
    if rho is not None:
        out.append(("umbilical_shape_alignment", first(
            (a + 1,) for a in rows if a_n_amb[a] != tuple(rho / b * x for x in j_of(p_amb[a]))
        )))
    return tuple((name, w is None, w) for name, w in out)


# ---------------------------------------------------------------------------
# Fraction references of the elimination and the front half of a verdict:
# the Gauss-Jordan eliminators and the validators, span check,
# classification and frame construction as they were written over Fraction
# entries, before they moved onto int rows. Tests compare the engine with
# them bit for bit.


def _rref(rows, width):
    """In-place Gauss-Jordan; first nonzero pivot per column. Returns pivot columns."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(width):
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        if pv != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _echelon_insert(echelon, pivots, row):
    """Reduce a row against a growing reduced echelon and insert it when
    independent; pivot columns stay in ascending order."""
    width = len(row)
    for r, p in enumerate(pivots):
        f = row[p]
        if f != 0:
            row = [a - f * b for a, b in zip(row, echelon[r])]
    lead = next((c for c in range(width) if row[c] != 0), None)
    if lead is None:
        return
    pv = row[lead]
    if pv != 1:
        row = [x / pv for x in row]
    pos = next((i for i, p in enumerate(pivots) if p > lead), len(pivots))
    for i, er in enumerate(echelon):
        f = er[lead]
        if f != 0:
            echelon[i] = [a - f * b for a, b in zip(er, row)]
    echelon.insert(pos, row)
    pivots.insert(pos, lead)


def _null_basis(echelon, pivots, ncols):
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -echelon[r][f]
        basis.append(tuple(v))
    return basis


def reference_mat_rank(m) -> int:
    rows = [list(map(F, row)) for row in m]
    if not rows:
        return 0
    return len(_rref(rows, len(rows[0])))


def reference_mat_inverse(m):
    n = len(m)
    rows = [list(map(F, row)) + [F(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m)]
    pivots = _rref(rows, n)
    if pivots != list(range(n)):
        raise ShapeError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def reference_kernel_basis(m):
    rows = [list(map(F, row)) for row in m]
    if not rows:
        raise ShapeError("kernel_basis needs at least one row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ShapeError("matrix is not rectangular")
    echelon, pivots = [], []
    for row in rows:
        _echelon_insert(echelon, pivots, row)
    return _null_basis(echelon, pivots, ncols)


def reference_solve_affine(a, b) -> LinearSolution:
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if len(b) != nrows:
        raise ShapeError("right-hand side length does not match row count")
    if not nrows:
        raise ShapeError("solve_affine needs at least one row")
    echelon, pivots = [], []
    for row, rhs in zip(a, b):
        _echelon_insert(echelon, pivots, list(map(F, row)) + [F(rhs)])
    if ncols in pivots:
        return LinearSolution("infeasible", None, ())
    x = [F(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = echelon[r][ncols]
    basis = _null_basis(echelon, pivots, ncols)
    return LinearSolution("unique" if not basis else "parametric", tuple(x), tuple(basis))


def symmetric_diagonal(g):
    """Diagonal of a congruence diagonalization of a symmetric matrix, by
    symmetric elimination over Fraction entries."""
    n = len(g)
    m = [list(map(F, row)) for row in g]
    for i in range(n):
        if m[i][i] == 0:
            j = next((k for k in range(i + 1, n) if m[k][k] != 0), None)
            if j is not None:
                m[i], m[j] = m[j], m[i]
                for row in m:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((k for k in range(i + 1, n) if m[i][k] != 0), None)
                if j is None:
                    continue
                for c in range(n):
                    m[i][c] += m[j][c]
                for r in range(n):
                    m[r][i] += m[r][j]
        pv = m[i][i]
        for r in range(i + 1, n):
            if m[r][i] != 0:
                f = m[r][i] / pv
                for c in range(n):
                    m[r][c] -= f * m[i][c]
                for c in range(n):
                    m[c][r] -= f * m[c][i]
    return tuple(m[i][i] for i in range(n))


def reference_signature(g):
    diag = symmetric_diagonal(g)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


def reference_validate_lie_algebra(spec) -> ValidationReport:
    n = spec.dim
    c = nested(spec.brackets)
    checks = [
        Check(
            "dimension_even_and_at_least_four",
            n >= 4 and n % 2 == 0,
            None if (n >= 4 and n % 2 == 0) else (n,),
        )
    ]
    witness = next(
        (
            (i + 1, j + 1, k + 1)
            for i in range(n)
            for j in range(i, n)
            for k in range(n)
            if c[i][j][k] + c[j][i][k] != 0
        ),
        None,
    )
    checks.append(Check("bracket_antisymmetry", witness is None, witness))
    jac_witness = None
    if witness is None:
        basis = [unit_vector(n, t) for t in range(n)]
        for i, j, k in ((i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)):
            s = [F(0)] * n
            for a, b, cc in ((i, j, k), (j, k, i), (k, i, j)):
                outer = bilinear_map(c, basis[a], bilinear_map(c, basis[b], basis[cc]))
                s = [x + y for x, y in zip(s, outer)]
            if any(x != 0 for x in s):
                jac_witness = (i + 1, j + 1, k + 1)
                break
    checks.append(Check("jacobi_identity", jac_witness is None, jac_witness))
    return ValidationReport(tuple(checks))


def reference_validate_norden(spec, ns) -> ValidationReport:
    n = spec.dim
    g, j = nested(ns.g), nested(ns.j)
    checks = []
    w = next(((i + 1, k + 1) for i in range(n) for k in range(i + 1, n) if g[i][k] != g[k][i]), None)
    checks.append(Check("metric_symmetric", w is None, w))
    w = next(
        (
            (q + 1, k + 1)
            for q in range(n)
            for k in range(n)
            if sum(j[q][m] * j[m][k] for m in range(n)) != (-1 if q == k else 0)
        ),
        None,
    )
    checks.append(Check("complex_structure_squares_to_minus_identity", w is None, w))
    w = next(
        (
            (i + 1, k + 1)
            for i in range(n)
            for k in range(i, n)
            if bilinear(g, [j[q][i] for q in range(n)], [j[q][k] for q in range(n)]) + g[i][k] != 0
        ),
        None,
    )
    checks.append(Check("metric_anti_isometry", w is None, w))
    pos, neg, zero = reference_signature(g)
    checks.append(Check("metric_nondegenerate", zero == 0, None if zero == 0 else (zero,)))
    neutral = zero == 0 and pos == neg == n // 2
    checks.append(Check("metric_signature_neutral", neutral, None if neutral else (pos, neg)))
    ga = tuple(
        tuple(sum(j[q][i] * g[q][k] for q in range(n)) for k in range(n)) for i in range(n)
    )
    w = next(((i + 1, k + 1) for i in range(n) for k in range(i + 1, n) if ga[i][k] != ga[k][i]), None)
    checks.append(Check("associated_metric_symmetric", w is None, w))
    return ValidationReport(tuple(checks))


def reference_validate_span(hs, amb) -> None:
    n = amb.spec.dim
    c = nested(amb.spec.brackets)
    span = nested(hs.span)
    if len(span) != n - 1:
        raise HypothesisFailure(f"hypersurface span must have {n - 1} vectors, got {len(span)}")
    if reference_mat_rank(span) != n - 1:
        raise HypothesisFailure("hypersurface span is linearly dependent")
    for a in range(len(span)):
        for b in range(a + 1, len(span)):
            w = bilinear_map(c, span[a], span[b])
            if reference_solve_affine(list(zip(*span)), list(w)).kind == "infeasible":
                raise HypothesisFailure(
                    f"span is not a subalgebra: bracket of span vectors {a + 1} and {b + 1} "
                    "leaves the span"
                )


def reference_primitive_integer_vector(v):
    """Rescale to coprime integer coordinates with positive leading nonzero."""
    if all(x == 0 for x in v):
        raise ValueError("zero vector has no primitive form")
    denom = lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = gcd(*(abs(x) for x in ints))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(map(F, ints))


def reference_induce_and_classify(hs, amb):
    """(kind, gram, radical, normal direction)."""
    metric = nested(amb.norden.metric(hs.inducing_metric))
    span = nested(hs.span)
    m = len(span)
    g_ind = gram(metric, span)
    kern = reference_kernel_basis(g_ind)
    if len(kern) == 0:
        pairing = [[sum(w[q] * metric[q][k] for q in range(len(w))) for k in range(len(w))] for w in span]
        normal = reference_kernel_basis(pairing)
        if len(normal) != 1:
            raise InternalInconsistency("ambient orthogonal complement of a hypersurface is not a line")
        return "nondegenerate", g_ind, None, reference_primitive_integer_vector(normal[0])
    if len(kern) > 1:
        raise InternalInconsistency(
            "induced metric kernel has rank >= 2 on a hypersurface of a nondegenerate metric"
        )
    coords = kern[0]
    ambient = tuple(sum(coords[a] * span[a][q] for a in range(m)) for q in range(len(span[0])))
    return "lightlike", g_ind, ambient, None


def reference_construct_screen(hs, cls):
    from itertools import combinations

    m = hs.span.dims[0]
    g = nested(cls.gram)
    for indices in combinations(range(m), m - 1):
        if reference_mat_rank([[g[a][b] for b in indices] for a in indices]) == m - 1:
            return indices
    raise InternalInconsistency("no nondegenerate screen complement exists")


def reference_construct_transversal(hs, amb, cls, screen_indices):
    """(xi, transversal, eta) of the frame."""
    metric = nested(amb.norden.metric(hs.inducing_metric))
    span = nested(hs.span)
    n = amb.spec.dim
    radical = cls.radical_ambient.entries
    if hs.xi_hint is not None:
        hint = hs.xi_hint.entries
        if all(x == 0 for x in hint):
            raise HypothesisFailure("xi hint is the zero vector")
        if reference_primitive_integer_vector(hint) != reference_primitive_integer_vector(radical):
            raise HypothesisFailure("xi hint does not lie in the radical")
        xi = hint
    else:
        xi = reference_primitive_integer_vector(radical)
    pairing = [[sum(w[q] * metric[q][k] for q in range(n)) for k in range(n)] for w in (span[i] for i in screen_indices)]
    v = next((cand for cand in reference_kernel_basis(pairing) if bilinear(metric, cand, xi) != 0), None)
    if v is None:
        raise InternalInconsistency("no transversal candidate pairs with the radical section")
    vxi = bilinear(metric, v, xi)
    vv = bilinear(metric, v, v)
    transversal = vec_scale(vec_sub(v, vec_scale(xi, vv / (2 * vxi))), 1 / vxi)
    if bilinear(metric, transversal, xi) != 1 or bilinear(metric, transversal, transversal) != 0:
        raise InternalInconsistency("transversal conditions fail on the constructed vector")
    for i in screen_indices:
        if bilinear(metric, transversal, span[i]) != 0:
            raise InternalInconsistency("transversal is not orthogonal to the screen")
    return xi, transversal, tuple(bilinear(metric, e, transversal) for e in span)


def reference_radical_transversal_check(frame, amb):
    """(is radical transversal, b, screen holomorphic)."""
    transversal, span = frame.transversal.entries, nested(frame.span)
    screen = [span[i] for i in frame.screen_indices]
    j_xi = apply_j(amb.norden, frame.xi.entries)
    pivot = next(q for q, x in enumerate(transversal) if x != 0)
    b = j_xi[pivot] / transversal[pivot]
    is_rt = j_xi == vec_scale(transversal, b) and b != 0
    screen_cols = list(zip(*screen))
    holomorphic = all(
        reference_solve_affine(screen_cols, list(apply_j(amb.norden, w))).kind != "infeasible"
        for w in screen
    )
    if is_rt != holomorphic:
        raise InternalInconsistency(
            "radical-transversal test and screen holomorphy disagree on validated input"
        )
    return is_rt, b if is_rt else None, holomorphic


# ---------------------------------------------------------------------------
# Fraction references of the Gauss/Weingarten decomposition and the three
# Ricci routes: every ambient derivative and every Ricci entry from its
# defining sums, one Fraction vector at a time, as they were written before
# their tables became int forms. Tests compare the engine with them bit for
# bit.


class FractionFrame:
    """A lightlike frame's decomposition in Fraction arithmetic, from its
    defining vectors alone."""

    def __init__(self, frame):
        self.span, self.xi = nested(frame.span), frame.xi.entries
        self.transversal, self.eta = frame.transversal.entries, frame.eta.entries
        self.screen_indices = frame.screen_indices
        m, n = len(self.span), len(self.xi)
        cols = list(self.span) + [self.transversal]
        self.full_inv = reference_mat_inverse(tuple(tuple(col[r] for col in cols) for r in range(n)))
        self.xi_span = self.split_tangent(self.xi)[0]
        inner = [unit_vector(m, i) for i in self.screen_indices] + [self.xi_span]
        self.inner_inv = reference_mat_inverse(tuple(tuple(col[r] for col in inner) for r in range(m)))

    def split_tangent(self, v):
        """(span coordinates, transversal coefficient) of an ambient vector."""
        coords = tuple(sum(map(mul, row, v)) for row in self.full_inv)
        return coords[:-1], coords[-1]

    def screen_radical_split(self, tm):
        """(screen coordinates, xi coefficient) of span coordinates."""
        coords = tuple(sum(map(mul, row, tm)) for row in self.inner_inv)
        return coords[:-1], coords[-1]

    def to_ambient(self, coords):
        return tuple(sum(c * e[q] for c, e in zip(coords, self.span)) for q in range(len(self.xi)))

    def p_project(self, a):
        """Span coordinates of P E_a = E_a - eta(E_a) xi."""
        return tuple(F(1 if q == a else 0) - self.eta[a] * x for q, x in enumerate(self.xi_span))


def reference_gauss_weingarten(frame, amb):
    """Reference for `hypersurface.gauss_weingarten`: (b_form, c_form,
    a_star_xi, a_n, tau, induced_gamma, nabla_star) as nested Fraction
    tuples, with the same consistency checks in the same order (the symmetry
    of B and B(., xi) = 0 are frame identities, see `reference_frame_identities`)."""
    fr = FractionFrame(frame)
    m = len(fr.span)
    rows = range(m)
    gamma = nested(amb.gamma)
    induced, b_form = [], []
    for a in rows:
        splits = [fr.split_tangent(bilinear_map(gamma, fr.span[a], e)) for e in fr.span]
        induced.append(tuple(tm for tm, _ in splits))
        b_form.append(tuple(coef for _, coef in splits))
    splits = [fr.split_tangent(bilinear_map(gamma, e, fr.transversal)) for e in fr.span]
    a_n = tuple(tuple(-x for x in tm) for tm, _ in splits)
    tau = tuple(coef for _, coef in splits)
    a_star = []
    for a in rows:
        d_xi = tuple(sum(fr.xi_span[b] * induced[a][b][q] for b in rows) for q in rows)
        screen_part, xi_coef = fr.screen_radical_split(d_xi)
        if -xi_coef != tau[a]:
            raise InternalInconsistency("tau from the transversal and radical decompositions disagree")
        image = [F(0)] * m
        for pos, idx in enumerate(fr.screen_indices):
            image[idx] = -screen_part[pos]
        a_star.append(tuple(image))
    if any(sum(fr.xi_span[a] * a_star[a][q] for a in rows) != 0 for q in rows):
        raise InternalInconsistency("xi-shape operator does not annihilate the radical section")
    screen = [[fr.screen_radical_split(induced[a][idx]) for idx in fr.screen_indices] for a in rows]
    c_form = tuple(tuple(coef for _, coef in row) for row in screen)
    nabla_star = tuple(tuple(part for part, _ in row) for row in screen)
    return tuple(b_form), c_form, tuple(a_star), a_n, tau, tuple(induced), nabla_star


def reference_ricci_routes(r13_induced, sf, frame, amb):
    """Reference for the three routes of `symmetry.induced_ricci`: the
    canonical trace, the ambient split

        Ric(X, Y) = Ric_ambient(X, Y) + B(X, Y) tr A_N
                    - <A_N X, A*_xi Y> - <R(xi, Y)X, N>

    and the closed form (None without constant curvatures or rho), as
    nested Fraction tuples."""
    fr = FractionFrame(frame)
    m = len(fr.span)
    rows = range(m)
    t = nested(r13_induced)
    metric = nested(amb.norden.metric(frame.inducing_metric))
    amb_ric = nested(amb.ricci)
    b_form, a_n, a_star = nested(sf.b_form), nested(sf.a_n), nested(sf.a_star_xi)
    tr_an = sum(a_n[a][a] for a in rows)

    def split(a, b):
        r_vec = tuple(sum(fr.xi_span[i] * t[i][b][a][q] for i in rows) for q in rows)
        return (
            bilinear(amb_ric, fr.span[a], fr.span[b])
            + b_form[a][b] * tr_an
            - bilinear(metric, fr.to_ambient(a_n[a]), fr.to_ambient(a_star[b]))
            - bilinear(metric, fr.to_ambient(r_vec), fr.transversal)
        )

    closed = None
    if amb.trsc.kind == "constant" and sf.rho is not None:
        h = amb.spec.dim // 2
        if frame.inducing_metric == "principal":
            other, k, lead, sign = nested(amb.norden.g_assoc), amb.trsc.nu_assoc, -2 * (h - 1), 1
        else:
            other, k, lead, sign = nested(amb.norden.g), amb.trsc.nu, 2 * (h - 1), -1
        a_coeff = k - sf.rho * sf.rho / frame.b
        p = [fr.to_ambient(fr.p_project(a)) for a in rows]
        closed = tuple(
            tuple(
                lead * k * bilinear(other, fr.span[a], fr.span[b]) + sign * a_coeff * bilinear(other, p[a], p[b])
                for b in rows
            )
            for a in rows
        )
    return trace_ricci(r13_induced), tuple(tuple(split(a, b) for b in rows) for a in rows), closed


# ---------------------------------------------------------------------------
# dense references of the nonzero-driven table builders


def reference_curvature(spec, gamma: DenseTensor, ns: NordenStructure):
    """Reference for `ambient.curvature`: (riemann13, riemann04), every
    component from dense int matrix products, one (i, j) block at a time."""
    n = spec.dim
    gm, dgm = gamma.lattice()
    c, dc = spec.brackets.lattice()
    g, dg = ns.g.lattice()
    den = lcm(dgm * dgm, dc * dgm)
    f_prod, f_bracket = den // (dgm * dgm), den // (dc * dgm)
    cols = [tuple(zip(*gm[i])) for i in range(n)]
    g_cols = tuple(zip(*g))
    # stacked[k][q][m] = q-component of D_m X_k, for the bracket term
    stacked = tuple(tuple(tuple(gm[m][k][q] for m in range(n)) for q in range(n)) for k in range(n))
    r13_nums = []
    r04_nums = []
    for i in range(n):
        for j in range(n):
            # row k of G_j G_i - G_i G_j is D_i D_j X_k - D_j D_i X_k
            first = reference_int_matmul(gm[j], cols[i])
            second = reference_int_matmul(gm[i], cols[j])
            c_ij = c[i][j]
            bracket = any(c_ij)
            block = []
            for k in range(n):
                row = [f_prod * (a - b) for a, b in zip(first[k], second[k])]
                if bracket:  # - D_{[X_i, X_j]} X_k
                    row = [r - f_bracket * sum(map(mul, c_ij, s)) for r, s in zip(row, stacked[k])]
                block.append(row)
            r13_nums.extend(x for row in block for x in row)
            r04_nums.extend(x for row in reference_int_matmul(block, g_cols) for x in row)
    dims = (n, n, n, n)
    r13 = DenseTensor.from_lattice(dims, r13_nums, den)
    return r13, DenseTensor.from_lattice(dims, r04_nums, den * dg)


def reference_pi_tensors(g, j):
    """Reference for `ambient.pi_tensors`: every component of pi1, pi2 and
    pi3 from its defining expression."""
    n = g.dims[0]
    rows = range(n)
    g, dg = g.lattice()
    j, dj = j.lattice()
    gj = reference_int_matmul(g, tuple(zip(*j)))  # g(X_a, J X_b) over dg * dj
    pi1, pi2, pi3 = [], [], []
    for a, b, k in product(rows, repeat=3):
        ga, gb, gja, gjb = g[a], g[b], gj[a], gj[b]
        gbk, gak, gjbk, gjak = gb[k], ga[k], gjb[k], gja[k]
        pi1.extend(gbk * x - gak * y for x, y in zip(ga, gb))
        pi2.extend(gjbk * x - gjak * y for x, y in zip(gja, gjb))
        pi3.extend(
            -gbk * x + gak * y - u * gjbk + v * gjak for x, y, u, v in zip(gja, gjb, ga, gb)
        )
    dims = (n, n, n, n)
    return (
        DenseTensor.from_lattice(dims, pi1, dg * dg),
        DenseTensor.from_lattice(dims, pi2, dg * dg * dj * dj),
        DenseTensor.from_lattice(dims, pi3, dg * dg * dj),
    )


def reference_pi_combination(tensors, a, b) -> DenseTensor:
    """Reference for `ambient.pi_combination`: a (pi1 - pi2) + b pi3, entry
    by entry from the tables (pi1, pi2, pi3) of `reference_pi_tensors`."""
    flat = [flat_lattice(t) for t in tensors]
    weights = [F(a) / flat[0][1], -F(a) / flat[1][1], F(b) / flat[2][1]]
    den = lcm(*(w.denominator for w in weights))
    f1, f2, f3 = (w.numerator * (den // w.denominator) for w in weights)
    nums = (f1 * x + f2 * y + f3 * z for x, y, z in zip(*(nums for nums, _ in flat)))
    return DenseTensor.from_lattice(tensors[0].dims, nums, den)


def reference_pi_fit(ns: NordenStructure, rhs: DenseTensor, tensors=None) -> LinearSolution:
    """Reference for `ambient.pi_fit`: `reference_fit_tables` on the full
    columns pi1 - pi2 and pi3 of `reference_pi_tensors` (or of the given
    tables of it), every component picked and checked in order."""
    tensors = tensors or reference_pi_tensors(ns.g, ns.j)
    columns = (reference_pi_combination(tensors, 1, 0), tensors[2])
    return reference_fit_tables([flat_lattice(t) for t in columns], flat_lattice(rhs))


def derived_primed(fit: LinearSolution):
    """The primed pair (nu', nu_assoc') = (-nu_assoc, nu) of the associated
    metric that a fit (nu, nu_assoc) of R gives, or None when the fit is
    infeasible: what the report writes, and what the refit of -R~ must give."""
    if fit.particular is None:
        return None
    nu, nu_assoc = fit.particular
    return -nu_assoc, nu


def reported_primed(data: dict):
    """The `associated_constants` of the ambient section of a structured
    report as the Fraction pair (nu', nu_assoc'), or None where it is null."""
    pair = data["ambient"]["associated_constants"]
    return pair and (Fraction(pair["nu_prime"]), Fraction(pair["nu_assoc_prime"]))


def reference_associated_table(r04: DenseTensor, ns: NordenStructure) -> DenseTensor:
    """The curvature R~(X,Y,Z,W) = R(X,Y,Z,JW) of the associated metric, one
    dense product per (i, a) block. The engine never builds it; the tests
    refit -R~ with `reference_pi_fit` and compare with `derived_primed`."""
    n = r04.dims[0]
    t, dt = r04.lattice()
    j, dj = ns.j.lattice()
    j_cols = tuple(zip(*j))
    nums = []
    for i, a in product(range(n), repeat=2):
        nums.extend(x for row in reference_int_matmul(t[i][a], j_cols) for x in row)
    return DenseTensor.from_lattice((n, n, n, n), nums, dt * dj)


def reference_induced_curvature_gauss(sf, frame, amb) -> DenseTensor:
    """Reference for `symmetry.induced_curvature_gauss`: the span contracted
    slot by slot with dense products over the whole ambient table, and the
    frame coordinates and the Codazzi comparison one basis triple at a
    time, in product order."""
    m = frame.span.dims[0]
    n = amb.spec.dim
    rows = range(m)
    amb13, den_r = amb.riemann13.lattice()
    span, den_s = frame.span.lattice()
    inv, den_inv = frame.inverse.lattice()
    b_form, den_b = sf.b_form.lattice()
    a_n, den_a = sf.a_n.lattice()
    tau, den_tau = sf.tau.lattice()
    gm, den_g = sf.induced_gamma.lattice()

    # vec[a][b][c] is the ambient vector R(E_a, E_b)E_c over den_s^3 den_r
    flat = tuple(tuple(chain.from_iterable(chain.from_iterable(amb13[i]))) for i in range(n))
    stage1 = reference_int_matmul(span, tuple(zip(*flat)))  # a -> (j, k, q)
    vec = []
    for a in rows:
        by_j = (stage1[a][j * n * n : (j + 1) * n * n] for j in range(n))
        stage2 = reference_int_matmul(span, tuple(zip(*by_j)))  # b -> (k, q)
        by_b = []
        for b in rows:
            by_k = (stage2[b][k * n : (k + 1) * n] for k in range(n))
            by_b.append(reference_int_matmul(span, tuple(zip(*by_k))))  # c -> q
        vec.append(by_b)
    d_amb = den_s**3 * den_r * den_inv
    d_shape = den_b * den_a
    den = lcm(d_amb, d_shape)
    f_amb, f_shape = den // d_amb, den // d_shape
    d_cod = den_b * lcm(den_g, den_tau)
    f_gamma, f_tau = d_cod // (den_g * den_b), d_cod // (den_tau * den_b)
    b_cols = tuple(zip(*b_form))
    gb = [reference_int_matmul(gm[a], b_cols) for a in rows]  # gb[a][b][c] = sum_k gm[a][b][k] B[k][c]
    gbt = [reference_int_matmul(gm[a], b_form) for a in rows]  # gbt[a][c][b] = sum_k gm[a][c][k] B[b][k]

    nums = []
    for a in rows:
        for b in rows:
            for c in rows:
                coords = [sum(map(mul, row, vec[a][b][c])) for row in inv]
                bac, bbc = b_form[a][c], b_form[b][c]
                # tangent part - B(E_a, E_c) A_N E_b + B(E_b, E_c) A_N E_a
                nums.extend(
                    f_amb * x - f_shape * (bac * y - bbc * z)
                    for x, y, z in zip(coords, a_n[b], a_n[a])
                )
                d_a_b = -gb[a][b][c] - gbt[a][c][b]
                d_b_a = -gb[b][a][c] - gbt[b][c][a]
                codazzi = f_gamma * (d_a_b - d_b_a) + f_tau * (tau[a] * bbc - tau[b] * bac)
                if coords[m] * d_cod != codazzi * d_amb:
                    raise InternalInconsistency(
                        f"Codazzi residual at basis triple ({a + 1},{b + 1},{c + 1})"
                    )
    return DenseTensor.from_lattice((m, m, m, m), nums, den)


def reference_fit_witness(columns, rhs):
    """Reference for the witness of an infeasible `exact.fit_tables`, on the
    flat rational components of the columns and the right-hand side: the
    offset whose row ends the first infeasible prefix of the component rows,
    one `reference_solve_affine` per prefix, or None when the fit is
    feasible."""
    rows = list(zip(*columns))
    for stop in range(1, len(rows) + 1):
        if reference_solve_affine(rows[:stop], rhs[:stop]).kind == "infeasible":
            return stop - 1
    return None


# ---------------------------------------------------------------------------
# randomized instances


def random_unimodular(rng: random.Random, n: int):
    """Product of integer shears and a signed permutation: integer matrix
    with determinant +-1, so its inverse is integral and coordinates stay
    small."""
    m = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def shear(i, j, u):
        for c in range(n):
            m[i][c] += u * m[j][c]

    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        shear(i, j, F(rng.choice([-2, -1, 1, 2])))
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(n)]
    m = [[signs[r] * m[perm[r]][c] for c in range(n)] for r in range(n)]
    return tuple(tuple(row) for row in m)


def conjugate_instance(spec: LieAlgebraSpec, ns: NordenStructure, s, vectors):
    """Express the same geometry in the basis whose columns are s: returns a
    new (spec, norden) pair plus the given ambient vectors rewritten in the
    new coordinates."""
    n = spec.dim
    s_inv = reference_mat_inverse(s)
    c = nested(spec.brackets)

    def new_bracket(i, j, r):
        total = F(0)
        for mm in range(n):
            if s[mm][i] == 0:
                continue
            for p in range(n):
                if s[p][j] == 0:
                    continue
                f = s[mm][i] * s[p][j]
                row = c[mm][p]
                for q in range(n):
                    if row[q] != 0:
                        total += f * row[q] * s_inv[r][q]
        return total

    brackets = tensor_from_function((n, n, n), lambda i, j, r: new_bracket(i, j, r))
    new_spec = LieAlgebraSpec(n, spec.basis_labels, brackets)
    g_new = mat_mul(mat_mul(transpose(s), nested(ns.g)), s)
    j_new = mat_mul(mat_mul(s_inv, nested(ns.j)), s)
    new_ns = norden(g_new, j_new)
    new_vectors = tuple(
        tuple(sum(s_inv[r][q] * v[q] for q in range(n)) for r in range(n)) for v in vectors
    )
    return new_spec, new_ns, new_vectors


def scale_brackets(spec: LieAlgebraSpec, lam: Fraction) -> LieAlgebraSpec:
    """Scale the bracket by a nonzero rational; Jacobi and antisymmetry are
    degree-homogeneous, so validity is preserved while the curvature scales
    by lam^2."""
    return LieAlgebraSpec(spec.dim, spec.basis_labels, tensor_scale(spec.brackets, lam))


def random_norden_pair(rng: random.Random, half: int):
    """Random valid Norden structure on dimension 2*half: J conjugated from
    the block form, metric anti-symmetrized through J and retried until
    nondegenerate."""
    n = 2 * half
    j0 = [[F(0)] * n for _ in range(n)]
    for i in range(half):
        j0[half + i][i] = F(1)
        j0[i][half + i] = F(-1)
    while True:
        s = random_unimodular(rng, n)
        s_inv = reference_mat_inverse(s)
        j = mat_mul(mat_mul(s, j0), s_inv)
        m = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        sym = [[(m[i][k] + m[k][i]) / 2 for k in range(n)] for i in range(n)]
        jt = transpose(j)
        jmj = mat_mul(mat_mul(jt, sym), j)
        g = tuple(tuple(sym[i][k] - jmj[i][k] for k in range(n)) for i in range(n))
        if mat_rank(g) == n:
            return g, j


def family_text(h: int, p: int = 1, q: int = 0) -> str:
    """The realified family [e1, ek] = -2i lambda ek (k = 2..h), lambda =
    p + iq, B = sum ek^2, as `.mf` text: X_k = e_k, X_{h+k} = i e_k,
    J X_k = X_{h+k}, g = Re B, and one block, the span of every field but X1
    under the associated metric. At h = 2 and lambda = 1 these are the
    tables of fixtures/sl2c_borel.mf."""
    n = 2 * h

    def terms(k, x, y):  # x X_k + y X_{h+k}, zero terms dropped
        return " ".join(f"{i}:{c}" for i, c in ((k, x), (h + k, y)) if c)

    lines = [f"DIM {n}"]
    for k in range(2, h + 1):
        lines.append(f"BRACKET 1 {k} = {terms(k, 2 * q, -2 * p)}")
        lines.append(f"BRACKET {h + 1} {h + k} = {terms(k, -2 * q, 2 * p)}")
        lines.append(f"BRACKET 1 {h + k} = {terms(k, 2 * p, 2 * q)}")
        lines.append(f"BRACKET {k} {h + 1} = {terms(k, -2 * p, -2 * q)}")
    lines += [f"METRIC {i} {i} = {1 if i <= h else -1}" for i in range(1, n + 1)]
    lines += [f"J {k} = {h + k}:1" for k in range(1, h + 1)]
    lines += [f"J {h + k} = {k}:-1" for k in range(1, h + 1)]
    lines.append("HYPERSURFACE metric=assoc span=" + ",".join(str(i) for i in range(2, n + 1)))
    return "\n".join(lines) + "\n"


def instance_text(spec: LieAlgebraSpec, ns: NordenStructure, blocks) -> str:
    """Bracket, metric and J tables as `.mf` text, with one HYPERSURFACE line
    per (metric keyword, 1-based span indices) block."""
    from nordenlight.exact import format_rational

    n = spec.dim
    c = nested(spec.brackets)
    g, j = nested(ns.g), nested(ns.j)

    def terms(values):
        return " ".join(f"{k + 1}:{format_rational(q)}" for k, q in enumerate(values) if q != 0)

    lines = [f"DIM {n}"]
    lines += [
        f"BRACKET {i + 1} {j + 1} = {terms(c[i][j])}"
        for i in range(n)
        for j in range(i + 1, n)
        if any(c[i][j])
    ]
    lines += [
        f"METRIC {i + 1} {k + 1} = {format_rational(g[i][k])}"
        for i in range(n)
        for k in range(i, n)
        if g[i][k] != 0
    ]
    lines += [f"J {i + 1} = {terms(j[q][i] for q in range(n))}" for i in range(n)]
    lines += [f"HYPERSURFACE metric={m} span={','.join(map(str, span))}" for m, span in blocks]
    return "\n".join(lines) + "\n"


def conjugated_family(h: int):
    """(spec, norden) of the family at h with its bracket scaled by 5/7, in
    the seeded basis that keeps X1 and X_{h+1} and changes both
    (X2, ..., Xh) and (X_{h+2}, ..., X_2h) by one unimodular matrix. The
    change commutes with J and maps span(X2, ..., X_2h) onto itself, so the
    block (the span of every field but X1) is the same radical-transversal
    hyperplane and runs the full path in denser coordinates."""
    from nordenlight.manifold_file import lie_algebra_spec, norden_from_file, parse_manifold_file

    n = 2 * h
    mf = parse_manifold_file(family_text(h))
    u = random_unimodular(random.Random(h), h - 1) if h > 2 else ((F(-1),),)
    s = [[F(0)] * n for _ in range(n)]
    s[0][0] = s[h][h] = F(1)
    for a in range(h - 1):
        for b in range(h - 1):
            s[1 + a][1 + b] = s[h + 1 + a][h + 1 + b] = u[a][b]
    spec, ns, _ = conjugate_instance(
        scale_brackets(lie_algebra_spec(mf), F(5, 7)), norden_from_file(mf), s, ()
    )
    return spec, ns


def conjugated_family_text(h: int) -> str:
    """`conjugated_family(h)` as `.mf` text with its one block."""
    spec, ns = conjugated_family(h)
    return instance_text(spec, ns, [("assoc", range(2, 2 * h + 1))])


def invalid_family_text(cause: str, h: int = 3) -> str:
    """The family at h broken in one known way, so that validation rejects
    it with exit 3; the causes are those of the benchmark's invalid inputs.
    "j_scaled" (J -> 2J, so J^2 = -4 I), "metric_scaled" (g(X1, X1)
    doubled: no anti-isometry) and "jacobi" ([X2, X_{h+2}] = X1) break
    `conjugated_family(h)`; "kaehler" swaps J X1 = X_{h+2} and
    J X2 = X_{h+1} in the family as written, an anti-isometry with
    J^2 = -I that is not parallel."""
    n = 2 * h
    if cause == "kaehler":
        swapped = {1: f"{h + 2}:1", 2: f"{h + 1}:1", h + 1: "2:-1", h + 2: "1:-1"}
        lines = [
            f"J {int(line.split()[1])} = {swapped[int(line.split()[1])]}"
            if line.startswith("J ") and int(line.split()[1]) in swapped
            else line
            for line in family_text(h).splitlines()
        ]
        return "\n".join(lines) + "\n"
    spec, ns = conjugated_family(h)
    if cause == "j_scaled":
        ns = norden_structure(ns.g, tensor_scale(ns.j, 2))
    elif cause == "metric_scaled":
        g = [list(row) for row in nested(ns.g)]
        g[0][0] *= 2
        ns = norden(g, ns.j)
    elif cause == "jacobi":
        c = [[list(row) for row in plane] for plane in nested(spec.brackets)]
        c[1][h + 1][0], c[h + 1][1][0] = F(1), F(-1)
        brackets = DenseTensor.from_entries((n, n, n), chain.from_iterable(chain.from_iterable(c)))
        spec = LieAlgebraSpec(n, spec.basis_labels, brackets)
    else:
        raise ValueError(f"unknown cause {cause!r}")
    return instance_text(spec, ns, [("assoc", range(2, n + 1))])


def principal_dual_text(text: str) -> str:
    """The Norden dual of an `.mf` input whose blocks induce the associated
    metric: the METRIC lines hold the entries of g~ = g(J., .), BRACKET and
    J are kept, and every block induces the principal metric. The dual's
    principal metric is the original's associated one, and its associated
    metric is g(J., J.) = -g, so the dual runs the principal-metric path on
    the same radical-transversal hypersurface: its constants (nu, nu~) are
    the original's primed pair, b, rho, the flags and the audit sides are
    the original's, and the Einstein coefficients (k, c) become (c, -k)."""
    from dataclasses import replace

    from nordenlight.manifold_file import norden_from_file, parse_manifold_file

    mf = parse_manifold_file(text)
    ga = nested(norden_from_file(mf).metric("associated"))
    n = mf.dim
    metric = tuple((i + 1, k + 1, ga[i][k]) for i in range(n) for k in range(i, n) if ga[i][k])
    blocks = tuple(replace(b, inducing_metric="principal") for b in mf.hypersurfaces)
    return replace(mf, metric_entries=metric, hypersurfaces=blocks).to_text()


INVALID_CAUSES = ("j_scaled", "metric_scaled", "jacobi", "kaehler")
# the hand-written fixtures; fixtures/family_h3.mf and family_h4.mf are
# family_text(3) and family_text(4), which the corpus holds already
FIXTURE_STEMS = ("abelian_flat", "sl2c_borel")


# The realified complex Heisenberg algebra [e1, e2] = e3 with B = sum ek^2:
# X_k = e_k, X_{3+k} = i e_k, J X_k = X_{3+k}, g = Re B. Its curvature is
# not of constant type, so the fit reports not_constant and no primed
# constants; of its four blocks two are nondegenerate and two not umbilical.
HEISENBERG_C_H3 = (
    "DIM 6\n"
    "BRACKET 1 2 = 3:1\nBRACKET 1 5 = 6:1\nBRACKET 2 4 = 6:-1\nBRACKET 4 5 = 3:-1\n"
    + "".join(f"METRIC {i} {i} = {1 if i <= 3 else -1}\n" for i in range(1, 7))
    + "".join(f"J {k} = {k + 3}:1\nJ {k + 3} = {k}:-1\n" for k in range(1, 4))
    + "HYPERSURFACE metric=principal span=2,3,4,5,6\n"
    "HYPERSURFACE metric=assoc span=2,3,4,5,6\n"
    "HYPERSURFACE metric=principal span=1,2,3,5,6\n"
    "HYPERSURFACE metric=assoc span=1,3,4,5,6\n"
)


# HEISENBERG_C_H3 with the antidiagonal form B(e1, e3) = B(e2, e2) = 1,
# whose one block has a radical and no radical transversal.
HEISENBERG_C_H3_ANTIDIAGONAL = (
    HEISENBERG_C_H3.split("METRIC")[0]
    + "METRIC 1 3 = 1\nMETRIC 2 2 = 1\nMETRIC 4 6 = -1\nMETRIC 5 5 = -1\n"
    + "".join(line for line in HEISENBERG_C_H3.splitlines(True) if line.startswith("J "))
    + "HYPERSURFACE metric=principal span=2,3,4,5,6\n"
)


def report_digests(report) -> dict:
    """The exit code and the sha256 digests of the structured and text
    renderings of a report, as tests/golden/report_digests.json pins them."""
    return {
        "exit_code": report.exit_code,
        "structured": hashlib.sha256(emit_report(report, "structured").encode()).hexdigest(),
        "text": hashlib.sha256(emit_report(report, "text").encode()).hexdigest(),
    }


def golden_corpus() -> list[tuple[str, str]]:
    """(name, `.mf` text) of the inputs whose report digests are pinned in
    tests/golden/report_digests.json: the hand-written fixtures, the family
    at h = 2-6 as written and conjugated, one input failing validation (a bracket that
    breaks Jacobi), one with four blocks (full path, nondegenerate, not a
    subalgebra, not umbilical), the family at h = 8 (dim 16, `MAX_DIM`) as
    written and conjugated, and one input for each cause of
    `invalid_family_text`, the principal-metric dual of the family at
    h = 3 (`principal_dual_text`), the realified complex Heisenberg
    algebra, whose curvature is not of constant type (`HEISENBERG_C_H3`),
    and with an antidiagonal form, and the family at h = 3 with lambda = i
    (nu < 0 and b < 0 on the full path) and lambda = 2 + i (both constants
    nonzero)."""
    from pathlib import Path

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    corpus = [(stem, (fixtures / f"{stem}.mf").read_text(encoding="utf-8")) for stem in FIXTURE_STEMS]
    for h in range(2, 7):
        corpus.append((f"family_h{h}", family_text(h)))
        corpus.append((f"family_h{h}_conjugated", conjugated_family_text(h)))
    corpus.append(("jacobi_broken_h3", family_text(3) + "BRACKET 2 5 = 1:1\n"))
    body = family_text(3).rsplit("HYPERSURFACE", 1)[0]
    spans = {d: ",".join(str(i) for i in range(1, 7) if i != d) for d in (1, 2, 4)}
    corpus.append((
        "four_blocks_h3",
        body
        + f"HYPERSURFACE metric=assoc span={spans[1]}\n"
        + f"HYPERSURFACE metric=principal span={spans[1]}\n"
        + f"HYPERSURFACE metric=assoc span={spans[2]}\n"
        + f"HYPERSURFACE metric=assoc span={spans[4]}\n",
    ))
    corpus.append(("family_h8", family_text(8)))
    corpus.append(("family_h8_conjugated", conjugated_family_text(8)))
    corpus += [(f"invalid_{cause}_h3", invalid_family_text(cause)) for cause in INVALID_CAUSES]
    corpus.append(("family_h3_principal_dual", principal_dual_text(family_text(3))))
    corpus.append(("heisenberg_c_h3", HEISENBERG_C_H3))
    corpus.append(("heisenberg_c_h3_antidiagonal", HEISENBERG_C_H3_ANTIDIAGONAL))
    body = family_text(3, 0, 1).rsplit("HYPERSURFACE", 1)[0]
    corpus.append(("family_h3_lambda_i", body + "HYPERSURFACE metric=assoc span=1,2,3,5,6\n"))
    corpus.append(("family_h3_lambda_2_plus_i", family_text(3, 2, 1)))
    return corpus


def family_member(conjugated: bool):
    """(spec, norden, ambient, run of its block) for the family at h = 3, as
    written or in a rescaled, conjugated form: a basis change of determinant
    +-6, the bracket scaled by 5/7 and the metric by 1/3, so the bracket,
    metric, J, connection, curvature and induced tables all get
    denominators, and they differ."""
    from nordenlight.ambient import build_ambient_geometry
    from nordenlight.manifold_file import (
        hypersurface_specs,
        lie_algebra_spec,
        norden_from_file,
        parse_manifold_file,
    )

    mf = parse_manifold_file(family_text(3))
    spec, ns = lie_algebra_spec(mf), norden_from_file(mf)
    span = hypersurface_specs(mf)[0].span
    if conjugated:
        s = [list(row) for row in random_unimodular(random.Random(1), 6)]
        for row in s:
            row[1] *= 2
            row[4] *= 3
        spec, ns, span = conjugate_instance(scale_brackets(spec, F(5, 7)), ns, s, nested(span))
        ns = norden_structure(tensor_scale(ns.g, F(1, 3)), ns.j)
    amb = build_ambient_geometry(spec, ns)
    return spec, ns, amb, run_hypersurface(amb, span, "associated")


def non_invariant_screen_run():
    """(spec, norden, ambient, frame, second fundamental data) for the h = 3
    family with its span listed as (X5, X3, X4, X2 + X4, X6): the engine picks
    the screen {X5, X3, X2 + X4, X6}, which J does not preserve (J X5 = -X2
    has a radical component), so the frame is not radical transversal. Given
    b = 2 and rho = 1 it still has every table, and most frame identities
    fail with witnesses."""
    from dataclasses import replace

    from nordenlight.hypersurface import (
        construct_screen,
        construct_transversal,
        gauss_weingarten,
        induce_and_classify,
    )

    spec, ns, amb, _ = family_member(False)
    x = [unit_vector(6, i) for i in range(6)]
    span = (x[4], x[2], x[3], tuple(a + b for a, b in zip(x[1], x[3])), x[5])
    hs = hyper_spec(span, "associated")
    cls = induce_and_classify(hs, amb)
    frame = construct_transversal(hs, amb, cls, construct_screen(hs, cls))
    frame = replace(frame, b=F(2))
    return spec, ns, amb, frame, replace(gauss_weingarten(frame, amb), rho=F(1))


def basis_span(dim: int, indices_1based):
    return tuple(unit_vector(dim, i - 1) for i in indices_1based)


def run_hypersurface(amb, span, inducing, xi_hint=None):
    """`pipeline.run_block` on rational span vectors and hint."""
    return run_block(hyper_spec(span, inducing, xi_hint), amb)


def random_rational(rng: random.Random, lo=-4, hi=4, dens=(1, 2, 3)):
    num = rng.randint(lo, hi)
    return F(num, rng.choice(dens))


def nonzero_rational(rng: random.Random, lo=-4, hi=4, dens=(1, 2, 3)):
    while True:
        q = random_rational(rng, lo, hi, dens)
        if q != 0:
            return q
