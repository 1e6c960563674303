"""Exact rational linear algebra and dense component tables.

Every verification path is exact: no floating point anywhere. Scalars at the
boundaries (parsing, reported values, JSON) are `fractions.Fraction`:
arbitrary precision, canonical gcd-reduced form, positive denominator. A
component table, :class:`DenseTensor`, holds only Python-int numerators over
one common positive denominator in lowest terms, the lattice form the hot
kernels compute in; its `Fraction` entries are built where a report, an
error or a test reads them. This module is the only place that converts
between the two forms. All row reduction is one fraction-free elimination on
int rows, :class:`Echelon`, pivoting on the first nonzero entry in column
order, so results are deterministic on every platform.

Vectors are flat tuples, matrices are tuples of row tuples, and component
tables of rank >= 2 use :class:`DenseTensor` (row-major, 0-based internally;
all external formats are 1-based).
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
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


def vec_is_zero(u) -> bool:
    return all(a == 0 for a in u)


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


class Echelon:
    """The reduced row echelon form of the int rows inserted so far, kept
    fraction-free: each row is primitive (no common factor), its pivot is its
    first nonzero entry in column order and positive, and it is zero in the
    pivot columns of the other rows. Each row is then the unique primitive
    multiple of a row of the rational RREF of the same row space, so entry
    sizes depend on the row space alone, not on the order of the rows. This
    is the one elimination of the engine; `mat_inverse`, `kernel_basis` and
    `solve_affine` are its Fraction-boundary wrappers."""

    def __init__(self, rows=()):
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []  # ascending; pivots[r] is the pivot column of rows[r]
        for row in rows:
            self.insert(row)

    def reduce(self, row) -> list[int]:
        """A nonzero multiple of the int row minus a combination of the
        echelon rows that is zero in every pivot column; it is all zero
        exactly when the row lies in the row space."""
        row = list(row)
        for p, er in zip(self.pivots, self.rows):
            f = row[p]
            if f:
                g = er[p]
                row = [g * x - f * y for x, y in zip(row, er)]
        return row

    def insert(self, row) -> bool:
        """Add an int row; returns whether it was independent of the rows
        before it."""
        row = self.reduce(row)
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            return False
        content = gcd(*row)
        if row[lead] < 0:
            content = -content
        row = [x // content for x in row]
        pv = row[lead]
        for i, er in enumerate(self.rows):
            f = er[lead]
            if f:
                er = [pv * x - f * y for x, y in zip(er, row)]
                content = gcd(*er)
                self.rows[i] = [x // content for x in er]
        pos = bisect(self.pivots, lead)
        self.rows.insert(pos, row)
        self.pivots.insert(pos, lead)
        return True

    def kernel(self, ncols: int) -> list[tuple[list[int], int]]:
        """Null-space basis over the first ncols columns as (int vector, den)
        pairs: free columns in ascending order, and each vector / den has a
        1 in its free column."""
        basis = []
        for f in range(ncols):
            if f in self.pivots:
                continue
            den = lcm(*(er[p] for p, er in zip(self.pivots, self.rows) if er[f]))
            v = [0] * ncols
            v[f] = den
            for p, er in zip(self.pivots, self.rows):
                v[p] = -er[f] * (den // er[p])
            basis.append((v, den))
        return basis


def _int_rows(m) -> list[tuple[int, ...]]:
    """Each row of a rational matrix scaled to ints by its own least common
    denominator; row scaling changes no row space."""
    return [lattice_vector(row)[0] for row in m]


def mat_inverse(m) -> Matrix:
    """Exact inverse of a square matrix; raises ShapeError when singular."""
    n = len(m)
    rows = []
    for i, row in enumerate(m):
        nums, den = lattice_vector(row)
        rows.append(nums + tuple(den if j == i else 0 for j in range(n)))
    basis = Echelon(rows)
    if basis.pivots != list(range(n)):
        raise ShapeError("matrix is singular")
    return tuple(rational_vector(er[n:], er[r]) for r, er in enumerate(basis.rows))


def kernel_basis(m) -> list[Vector]:
    """Basis of the exact null space of a rectangular matrix.

    Returned vectors are linearly independent and span the kernel; the list is
    empty exactly when the matrix is injective. Deterministic: free columns in
    ascending order, each basis vector has a 1 in its free column.
    """
    if not m:
        raise ShapeError("kernel_basis needs at least one row")
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise ShapeError("matrix is not rectangular")
    return [rational_vector(v, den) for v, den in Echelon(_int_rows(m)).kernel(ncols)]


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
    basis = Echelon(_int_rows((*row, rhs) for row, rhs in zip(a, b)))
    if ncols in basis.pivots:
        return LinearSolution("infeasible", None, ())
    x = [Fraction(0)] * ncols
    for p, er in zip(basis.pivots, basis.rows):
        x[p] = Fraction(er[ncols], er[p])
    nullspace = tuple(rational_vector(v, den) for v, den in basis.kernel(ncols))
    kind = "unique" if not nullspace else "parametric"
    return LinearSolution(kind, tuple(x), nullspace)


def signature(g) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric matrix, by symmetric
    elimination on int rows. A zero pivot is repaired by a congruence: a
    later nonzero diagonal entry is swapped in, or else the first later
    index j with a nonzero entry in the pivot row has its row and column
    added (valid away from characteristic 2). Eliminating with pivot p
    leaves |p| times the Schur complement, divided by its content: positive
    rescalings, so every later pivot keeps the sign it has over the
    rationals."""
    m = [list(row) for row in lattice_rows(g)[0]]
    n = len(m)
    pos = neg = 0
    while m:
        if m[0][0] == 0:
            j = next((k for k in range(1, len(m)) if m[k][k]), None)
            if j is not None:
                m[0], m[j] = m[j], m[0]
                for row in m:
                    row[0], row[j] = row[j], row[0]
            else:
                j = next((k for k in range(1, len(m)) if m[0][k]), None)
                if j is not None:
                    m[0] = [x + y for x, y in zip(m[0], m[j])]
                    for row in m:
                        row[0] += row[j]
        pv = m[0][0]
        if not pv:  # a zero row: nothing to eliminate
            m = [row[1:] for row in m[1:]]
            continue
        sign = 1 if pv > 0 else -1
        pos, neg = pos + (sign > 0), neg + (sign < 0)
        head = m[0][1:]
        m = [[sign * (pv * x - row[0] * y) for x, y in zip(row[1:], head)] for row in m[1:]]
        content = gcd(*chain.from_iterable(m))
        if content > 1:
            m = [[x // content for x in row] for row in m]
    return pos, neg, n - pos - neg


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


def nonzero_rows(rows) -> dict[int, tuple[tuple[int, int], ...]]:
    """The nonzero rows of a sequence of int rows as {row index: ((column,
    entry), ...)} over their nonzero entries, in ascending order: the sparse
    operand of the row-wise products (F. G. Gustavson, "Two fast algorithms
    for sparse matrices", ACM TOMS 4 (1978) 250-269) that the curvature
    builders and the symmetry checkers run."""
    return {
        k: tuple((q, x) for q, x in enumerate(row) if x) for k, row in enumerate(rows) if any(row)
    }


def flat_matmul(nums, width: int, b) -> list[int]:
    """a . b, flat row-major, for the int matrix a whose rows are the
    consecutive runs of `width` entries of the flat sequence nums (a table
    whose last slot is contracted) and an int matrix b with `width` rows.
    Each row of the product is accumulated from the nonzero entries of its
    row of a and the nonzero rows of b alone, as in Gustavson's product."""
    b_rows = nonzero_rows(b)
    cols = len(b[0])
    out = [0] * (len(nums) // width * cols)
    for r, items in nonzero_rows(zip(*[iter(nums)] * width)).items():
        base = r * cols
        for q, x in items:
            for c, y in b_rows.get(q, ()):
                out[base + c] += x * y
    return out


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
    """Dense component table of arbitrary rank: the row-major entries are
    nums[i] / den. The form is canonical, den > 0 and gcd(den, *nums) == 1,
    so den is the least common denominator of the entries and equal fields
    mean equal entries; a table in any other form is rejected. Build tables
    with `from_lattice`, which cancels, or `from_entries`. Fraction entries
    are made only where they are read."""

    dims: tuple[int, ...]
    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        if len(self.nums) != prod(self.dims):
            raise ShapeError("entry count does not match dimensions")
        if self.den <= 0 or gcd(self.den, *self.nums) != 1:
            raise ValueError("table numerators and denominator are not in lowest terms")

    @classmethod
    def from_lattice(cls, dims, nums, den: int) -> "DenseTensor":
        """Table whose row-major entries are nums[i] / den, for int nums and
        den > 0; the common factor of nums and den is cancelled."""
        nums = tuple(nums)
        common = gcd(den, *nums)
        if common != 1:
            den //= common
            nums = tuple(x // common for x in nums)
        return cls(tuple(dims), nums, den)

    @classmethod
    def from_entries(cls, dims, entries) -> "DenseTensor":
        """Table of the given row-major rational entries."""
        (nums,), den = lattice_rows((tuple(entries),))
        return cls(tuple(dims), nums, den)

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The row-major entries as Fractions, built on each read."""
        return rational_vector(self.nums, self.den)

    def __getitem__(self, idx) -> Fraction:
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != len(self.dims):
            raise ShapeError(f"rank-{self.rank} tensor indexed with {len(idx)} indices")
        off = 0
        for d, i in zip(self.dims, idx):
            if not 0 <= i < d:
                raise IndexError(f"index {idx} out of range for dims {self.dims}")
            off = off * d + i
        return Fraction(self.nums[off], self.den)

    @cached_property
    def _lattice_view(self):
        return _nest(self.dims, self.nums)

    def lattice(self) -> tuple[tuple, int]:
        """(nested int numerators, den): the form the hot kernels compute
        in, memoized per instance."""
        return self._lattice_view, self.den

    def flat_lattice(self) -> tuple[tuple[int, ...], int]:
        """(row-major int numerators, den)."""
        return self.nums, self.den

    def nonzero(self):
        """Yield (index tuple, value) for every nonzero entry, row-major order."""
        den = self.den
        for ix, x in zip(product(*map(range, self.dims)), self.nums):
            if x:
                yield ix, Fraction(x, den)

    def is_zero(self) -> bool:
        return not any(self.nums)


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
    basis = Echelon()
    for i, row in enumerate(zip(*flat)):
        if any(row) and basis.insert(row):
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
