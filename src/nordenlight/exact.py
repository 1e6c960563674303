"""Exact rational linear algebra and dense component tables.

Every verification path is exact: no floating point anywhere. Scalars at the
boundaries (parsing, reported values, JSON) are `fractions.Fraction`:
arbitrary precision, canonical gcd-reduced form, positive denominator. The
hot component tables are computed as Python-int numerators over one common
positive denominator, the lattice form of a :class:`DenseTensor`; this module
is the only place that converts between the two forms. Row reduction pivots
on the first nonzero entry in column order, so results are deterministic on
every platform.

Vectors are flat tuples, matrices are tuples of row tuples, and component
tables of rank >= 2 use :class:`DenseTensor` (row-major, 0-based internally;
all external formats are 1-based).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product, repeat
from math import gcd, lcm, prod
from operator import add, mul, ne

Rational = Fraction
Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

_RATIONAL = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class ShapeError(ValueError):
    """Shape mismatch between operands of a tensor or matrix operation."""


# ---------------------------------------------------------------------------
# rational scalars


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with q > 0; rejects anything else, e.g. ``1/0``."""
    if not _RATIONAL.match(text):
        raise ValueError(f"malformed rational {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"malformed rational {text!r} (zero denominator)")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Serialize as ``p/q`` with q > 0, or a bare integer when q = 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def rational_bits(value: Fraction) -> int:
    """Bit length of the larger of numerator and denominator (lowest terms)."""
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


# ---------------------------------------------------------------------------
# vectors and matrices


def vec(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def mat(rows) -> Matrix:
    return tuple(vec(r) for r in rows)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if k == i else 0) for k in range(n))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u: Vector, c: Fraction) -> Vector:
    return tuple(a * c for a in u)


def vec_is_zero(u) -> bool:
    return all(a == 0 for a in u)


def bilinear(g: Matrix, u: Vector, v: Vector) -> Fraction:
    """u^T g v for a square coefficient table g; zero entries of u are skipped."""
    return sum(
        (ui * sum(g[i][j] * v[j] for j in range(len(v))) for i, ui in enumerate(u) if ui != 0),
        Fraction(0),
    )


def gram(g: Matrix, vectors) -> Matrix:
    """Gram matrix of the vectors under the bilinear form g."""
    return tuple(tuple(bilinear(g, u, v) for v in vectors) for u in vectors)


def bilinear_map(t, u: Vector, v: Vector) -> Vector:
    """sum_ij u_i v_j t[i][j] for a nested rank-3 table t (a bracket or a
    connection table); zero factors are skipped."""
    n = len(u)
    out = [Fraction(0)] * n
    for i in range(n):
        if u[i] == 0:
            continue
        for j in range(n):
            if v[j] == 0:
                continue
            f = u[i] * v[j]
            row = t[i][j]
            for k in range(n):
                if row[k] != 0:
                    out[k] += f * row[k]
    return tuple(out)


def first_difference(dims, a, b) -> tuple[tuple[int, ...], Fraction, Fraction] | None:
    """First position, in row-major order, where two flat row-major tables of
    shape dims differ: (1-based index, value in a, value in b), or None."""
    for ix, x, y in zip(product(*map(range, dims)), a, b):
        if x != y:
            return tuple(i + 1 for i in ix), x, y
    return None


def primitive_integer_vector(v: Vector) -> Vector:
    """Rescale to coprime integer coordinates with positive leading nonzero."""
    if vec_is_zero(v):
        raise ValueError("zero vector has no primitive form")
    denom = lcm(*(x.denominator for x in v))
    ints = [int(x * denom) for x in v]
    g = gcd(*(abs(x) for x in ints))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return vec(ints)


# ---------------------------------------------------------------------------
# row reduction, kernels, affine solving


def _rref(rows: list[list[Fraction]], width: int) -> list[int]:
    """In-place Gauss-Jordan; first nonzero pivot per column. Returns pivot columns."""
    pivots: list[int] = []
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


def mat_rank(m) -> int:
    rows = [list(map(Fraction, row)) for row in m]
    if not rows:
        return 0
    return len(_rref(rows, len(rows[0])))


def mat_inverse(m) -> Matrix:
    """Exact inverse of a square matrix; raises ShapeError when singular."""
    n = len(m)
    rows = [list(map(Fraction, row)) + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(m)]
    pivots = _rref(rows, n)
    if pivots != list(range(n)):
        raise ShapeError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def _echelon_insert(echelon: list, pivots: list[int], row: list[Fraction]) -> None:
    """Reduce a row against a growing reduced echelon and insert it when
    independent; pivot columns stay in ascending order. The echelon spans the
    same row space as the inserted rows, so pivot columns and kernels agree
    with a full reduction while tall systems stay cheap."""
    width = len(row)
    for r, p in enumerate(pivots):
        f = row[p]
        if f != 0:
            er = echelon[r]
            row = [a - f * b for a, b in zip(row, er)]
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


def kernel_basis(m) -> list[Vector]:
    """Basis of the exact null space of a rectangular matrix.

    Returned vectors are linearly independent and span the kernel; the list is
    empty exactly when the matrix is injective. Deterministic: free columns in
    ascending order, each basis vector has a 1 in its free column.
    """
    rows = [list(map(Fraction, row)) for row in m]
    if not rows:
        raise ShapeError("kernel_basis needs at least one row")
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ShapeError("matrix is not rectangular")
    echelon: list = []
    pivots: list[int] = []
    for row in rows:
        _echelon_insert(echelon, pivots, row)
    return _null_basis(echelon, pivots, ncols)


def _null_basis(echelon: list, pivots: list[int], ncols: int) -> list[Vector]:
    """Null-space basis of a reduced echelon over its first ncols columns,
    laid out as `kernel_basis` documents."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -echelon[r][f]
        basis.append(tuple(v))
    return basis


@dataclass(frozen=True)
class LinearSolution:
    """Exact classification of an affine system a.x = b."""

    kind: str  # "unique" | "parametric" | "infeasible"
    particular: Vector | None
    nullspace: tuple[Vector, ...]


def solve_affine(a, b) -> LinearSolution:
    """Solve a.x = b exactly: unique, parametric (with nullspace), or infeasible."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if len(b) != nrows:
        raise ShapeError("right-hand side length does not match row count")
    if not nrows:
        raise ShapeError("solve_affine needs at least one row")
    echelon: list = []
    pivots: list[int] = []
    for row, rhs in zip(a, b):
        aug = list(map(Fraction, row))
        aug.append(Fraction(rhs))
        _echelon_insert(echelon, pivots, aug)
    if ncols in pivots:
        return LinearSolution("infeasible", None, ())
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = echelon[r][ncols]
    basis = _null_basis(echelon, pivots, ncols)
    kind = "unique" if not basis else "parametric"
    return LinearSolution(kind, tuple(x), tuple(basis))


def symmetric_diagonal(g) -> tuple[Fraction, ...]:
    """Diagonal of a congruence diagonalization of a symmetric matrix.

    Signs of the entries give the signature, zeros the kernel dimension.
    Uses symmetric elimination; a zero diagonal with a nonzero off-diagonal
    entry is repaired by adding that row and column (valid away from
    characteristic 2).
    """
    n = len(g)
    m = [list(map(Fraction, row)) for row in g]
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


def signature(g) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix."""
    diag = symmetric_diagonal(g)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


# ---------------------------------------------------------------------------
# lattice form: int numerators over one common positive denominator


def lattice_rows(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Int numerators of a matrix (or a tuple of vectors) over the least
    common positive denominator of its entries."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows), den


def lattice_vector(v) -> tuple[tuple[int, ...], int]:
    """Int numerators of a vector over the least common positive denominator
    of its entries."""
    (nums,), den = lattice_rows((v,))
    return nums, den


def rational_vector(nums, den: int) -> Vector:
    """The rationals nums[i] / den."""
    return tuple(Fraction(x, den) for x in nums)


def rational_rows(rows, den: int) -> Matrix:
    """The rational matrix rows[i][j] / den."""
    return tuple(rational_vector(row, den) for row in rows)


def int_matmul(a, b_cols) -> tuple[tuple[int, ...], ...]:
    """a . b for int matrices, with b given by its columns (`tuple(zip(*b))`)
    so callers can reuse them: one C-level dot product per entry, and every
    all-zero row of a gives a zero row without any."""
    zero = (0,) * len(b_cols)
    return tuple(
        tuple(sum(map(mul, row, col)) for col in b_cols) if any(row) else zero for row in a
    )


def int_bilinear(u, g, v) -> tuple[tuple[int, ...], ...]:
    """The int matrix of pairings u_a^T g v_b, for the rows u_a of u and v_b
    of v."""
    return int_matmul(int_matmul(u, tuple(zip(*g))), v)


def _nest(dims, flat):
    """Row-major flat sequence as nested tuples of the given dimensions."""
    if not dims:
        return flat[0]
    nested = tuple(flat)
    for d in reversed(dims[1:]):
        items = iter(nested)
        nested = tuple(zip(*[items] * d))  # consecutive runs of d items
    return nested


# ---------------------------------------------------------------------------
# dense tensors


@dataclass(frozen=True)
class DenseTensor:
    """Dense component table of arbitrary rank, row-major, exact entries."""

    dims: tuple[int, ...]
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != prod(self.dims):
            raise ShapeError("entry count does not match dimensions")

    @property
    def rank(self) -> int:
        return len(self.dims)

    def _offset(self, idx) -> int:
        off = 0
        for d, i in zip(self.dims, idx):
            if not 0 <= i < d:
                raise IndexError(f"index {idx} out of range for dims {self.dims}")
            off = off * d + i
        return off

    def __getitem__(self, idx) -> Fraction:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != len(self.dims):
            raise ShapeError(f"rank-{self.rank} tensor indexed with {len(idx)} indices")
        return self.entries[self._offset(idx)]

    def rows(self) -> Matrix:
        if self.rank != 2:
            raise ShapeError("rows() needs a rank-2 tensor")
        n, m = self.dims
        return tuple(self.entries[i * m : (i + 1) * m] for i in range(n))

    @classmethod
    def from_lattice(cls, dims, nums, den: int) -> "DenseTensor":
        """Table whose row-major entries are nums[i] / den, for int nums and
        den > 0. The common factor of nums and den is cancelled first, so the
        lattice view this seeds is the one `lattice()` builds from the
        entries; equal entries share one Fraction object."""
        dims = tuple(dims)
        nums = tuple(nums)
        common = gcd(den, *nums)
        if common != 1:
            den //= common
            nums = tuple(x // common for x in nums)
        values = {x: Fraction(x, den) for x in set(nums)}
        table = cls(dims, tuple(map(values.__getitem__, nums)))
        object.__setattr__(table, "_lattice_memo", (_nest(dims, nums), den))
        return table

    def nested(self):
        """Nested tuples, convenient for hot loops; memoized per instance
        (the memo is not a dataclass field, so equality and repr ignore it)."""
        cached = getattr(self, "_nested_memo", None)
        if cached is None:
            cached = _nest(self.dims, self.entries)
            object.__setattr__(self, "_nested_memo", cached)
        return cached

    def lattice(self) -> tuple[tuple, int]:
        """(nested int numerators, den) with entry = numerator / den and den
        the least common positive denominator of the entries: the form the
        hot kernels compute in. Memoized per instance like `nested()`."""
        cached = getattr(self, "_lattice_memo", None)
        if cached is None:
            (nums,), den = lattice_rows((self.entries,))
            cached = (_nest(self.dims, nums), den)
            object.__setattr__(self, "_lattice_memo", cached)
        return cached

    def nonzero(self):
        """Yield (index tuple, value) for every nonzero entry, row-major order."""
        for ix, val in zip(product(*(range(d) for d in self.dims)), self.entries):
            if val != 0:
                yield ix, val

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def flat_lattice(self) -> tuple[tuple[int, ...], int]:
        """The lattice view as (row-major int numerators, den)."""
        nested, den = self.lattice()
        for _ in range(self.rank - 1):
            nested = chain.from_iterable(nested)
        return tuple(nested), den

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        return DenseTensor.from_lattice(self.dims, *lattice_combination(self, other, 1))

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        return DenseTensor.from_lattice(self.dims, *lattice_combination(self, other, -1))

    def __neg__(self) -> "DenseTensor":
        return self.scale(-1)

    def scale(self, c) -> "DenseTensor":
        c = Fraction(c)
        nums, den = self.flat_lattice()
        scaled = (c.numerator * x for x in nums)
        return DenseTensor.from_lattice(self.dims, scaled, den * c.denominator)


def lattice_combination(a: DenseTensor, b: DenseTensor, sign: int) -> tuple[tuple[int, ...], int]:
    """a + sign * b as (flat int numerators, den), with no Fraction entries:
    the column form of `fit_tables`."""
    if a.dims != b.dims:
        raise ShapeError("shape mismatch in tensor addition or subtraction")
    (x, dx), (y, dy) = a.flat_lattice(), b.flat_lattice()
    den = lcm(dx, dy)
    fx, fy = den // dx, sign * (den // dy)
    return tuple(fx * p + fy * q for p, q in zip(x, y)), den


# ---------------------------------------------------------------------------
# componentwise affine fits


def fit_tables(columns, rhs) -> LinearSolution:
    """Solve sum_j x_j columns[j] = rhs over every component of tables of one
    shape, with the outcome `solve_affine` gives on all component rows. Each
    table is given as (flat int numerators, den) with den > 0, e.g. by
    `DenseTensor.flat_lattice`.

    Rows of the coefficient matrix that are independent of the earlier ones
    are picked in order on the numerators (scaling a column by its
    denominator changes no rank), and only they go to `solve_affine`. When
    the full system is feasible its augmented row space equals that of the
    picked rows, so the kind, the particular solution and the null space are
    those of the full system; the full system is feasible exactly when that
    particular solution satisfies every component, checked in cross-multiplied
    ints. All-zero coefficient tables pick the first row."""
    flat = [tuple(nums) for nums, _ in columns]
    dens = [den for _, den in columns]
    b, db = tuple(rhs[0]), rhs[1]
    if any(len(col) != len(b) for col in flat):
        raise ShapeError("fit tables differ in shape")
    picked: list[int] = []
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, fraction-free reduced row)
    for i, row in enumerate(zip(*flat)):
        if not any(row):
            continue
        row = list(row)
        for p, er in echelon:
            if row[p]:
                f, g = er[p], row[p]
                row = [f * x - g * y for x, y in zip(row, er)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        echelon.append((lead, row))
        picked.append(i)
        if len(picked) == len(columns):
            break
    picked = picked or [0]
    sol = solve_affine(
        [tuple(Fraction(col[i], d) for col, d in zip(flat, dens)) for i in picked],
        [Fraction(b[i], db) for i in picked],
    )
    if sol.kind == "infeasible":
        return sol
    x, dx = lattice_vector(sol.particular)
    den = lcm(*dens)
    lhs = repeat(0)
    for col, xj, dj in zip(flat, x, dens):
        lhs = map(add, lhs, map(mul, col, repeat(xj * (den // dj) * db)))
    if any(map(ne, lhs, map(mul, b, repeat(dx * den)))):
        return LinearSolution("infeasible", None, ())
    return sol
