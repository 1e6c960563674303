"""Exact rational linear algebra and sparse component tables.

Every verification path is exact: no floating point anywhere. Scalars (the
curvature constants, rho, b, the Einstein coefficients) are
`fractions.Fraction`: arbitrary precision, canonical gcd-reduced form,
positive denominator. Every vector, matrix and component table passed
between stages is a :class:`DenseTensor`, which stores only its nonzero
entries, as ascending row-major offsets and Python-int numerators over one
common positive denominator in lowest terms, the lattice form the kernels
compute in. `DenseTensor.from_entries` is the one conversion from
`Fraction`s (the parser's entries, and the scalars a kernel scales by), and
the report renders numerators over the denominator with `format_ratio`; a
table builds `Fraction` entries only where one is read by index, in an error
message or a test. Every int matrix product runs through one row-wise sparse
kernel, :func:`int_matmul`, and all row reduction is one fraction-free
elimination on int rows, :class:`Echelon`, pivoting on the first nonzero
entry in column order, so results are deterministic on every platform.

Tables are row-major and 0-based internally; all external formats are
1-based.
"""

from __future__ import annotations

import re
from bisect import bisect, bisect_left
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from heapq import merge
from itertools import chain, compress, count, groupby, repeat
from math import gcd, lcm, prod
from operator import add, floordiv, itemgetter, lt, mod, mul, neg
from typing import NamedTuple

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


def format_ratio(num: int, den: int) -> str:
    """Serialize the rational num / den, for den > 0, as `format_rational`
    does, after one gcd and without building a Fraction."""
    common = gcd(num, den)
    return str(num // common) if common == den else f"{num // common}/{den // common}"


def rational_bits(value: Fraction) -> int:
    """Bit length of the larger of numerator and denominator (lowest terms)."""
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


# ---------------------------------------------------------------------------
# row reduction, kernels, affine solutions


class Echelon:
    """The reduced row echelon form of the int rows inserted so far, kept
    fraction-free: each row is primitive (no common factor), its pivot is its
    first nonzero entry in column order and positive, and it is zero in the
    pivot columns of the other rows. Each row is then the unique primitive
    multiple of a row of the rational RREF of the same row space, so entry
    sizes depend on the row space alone, not on the order of the rows. This
    is the one elimination of the engine; `mat_inverse` and `fit_tables`
    run on it."""

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

    def solution(self, ncols: int) -> LinearSolution:
        """The solution, zero in the free columns, of the affine system whose
        augmented rows span the echelon, with the right-hand side in column
        ncols, which is not a pivot; a null space as in `kernel`."""
        den = lcm(*(er[p] for p, er in zip(self.pivots, self.rows)))
        x = [0] * ncols
        for p, er in zip(self.pivots, self.rows):
            x[p] = er[ncols] * (den // er[p])
        nullspace = tuple(DenseTensor.from_lattice((ncols,), v, d) for v, d in self.kernel(ncols))
        kind = "unique" if not nullspace else "parametric"
        return LinearSolution(kind, DenseTensor.from_lattice((ncols,), x, den), nullspace)


def mat_inverse(m: DenseTensor) -> DenseTensor:
    """Exact inverse of a square table; raises ShapeError when singular. For
    m = rows / den the echelon of [rows | I] is [P | P rows^-1] with P
    diagonal, so row r of the inverse is den times its right half over its
    pivot."""
    rows, den = m.lattice()
    n = len(rows)
    basis = Echelon(row + tuple(int(j == i) for j in range(n)) for i, row in enumerate(rows))
    if basis.pivots != list(range(n)):
        raise ShapeError("matrix is singular")
    common = lcm(*(er[r] for r, er in enumerate(basis.rows)))
    inverse = [[x * den * (common // er[r]) for x in er[n:]] for r, er in enumerate(basis.rows)]
    return DenseTensor.from_rows((n, n), inverse, common)


@dataclass(frozen=True)
class LinearSolution:
    """Exact classification of an affine system a.x = b."""

    kind: str  # "unique" | "parametric" | "infeasible"
    particular: DenseTensor | None
    nullspace: tuple[DenseTensor, ...]
    witness: int | None = None  # an infeasible fit's offset ending its first infeasible prefix


def signature(g: DenseTensor) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a symmetric table, by symmetric
    elimination on its int numerators. A zero pivot is repaired by a
    congruence: a later nonzero diagonal entry is swapped in, or else the
    first later index j with a nonzero entry in the pivot row has its row and
    column added (valid away from characteristic 2). Eliminating with pivot p
    leaves |p| times the Schur complement, divided by its content: positive
    rescalings, so every later pivot keeps the sign it has over the
    rationals."""
    m = [list(row) for row in g.lattice()[0]]
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
# sparse int products


def nonzero_rows(rows) -> dict[int, tuple[tuple[int, int], ...]]:
    """The nonzero rows of a sequence of int rows, or of a mapping {row:
    int row}, as {row: ((column, entry), ...)} over their nonzero entries in
    ascending order: the sparse form in which `int_matmul` reads them."""
    pairs = rows.items() if isinstance(rows, dict) else enumerate(rows)
    return {k: tuple(compress(enumerate(row), row)) for k, row in pairs if any(row)}


class RowIndex(NamedTuple):
    """An int matrix given by its nonzero rows (`nonzero_rows`) and its
    width: the form in which `int_matmul` reads its right operand. Callers
    that reuse an operand build it once with `row_index`."""

    rows: dict[int, tuple[tuple[int, int], ...]]
    width: int


def row_index(b) -> RowIndex:
    return RowIndex(nonzero_rows(b), len(b[0]) if b else 0)


def int_matmul(a, b):
    """a . b for int matrices: the one product kernel of the engine. Each
    product row is accumulated from the nonzero entries of its row of a and
    the nonzero rows of b alone, as in the row-wise sparse product of
    F. G. Gustavson, "Two fast algorithms for sparse matrices", ACM TOMS 4
    (1978) 250-269. b is given by its rows or by its `row_index`. a is given
    by its rows, and the product is then a tuple of int rows, or by its
    nonzero rows as {row: ((column, entry), ...)} (`nonzero_rows`,
    `DenseTensor.rows`), and the product is then {row: int list} over the
    rows of a that meet a nonzero row of b; every other product row is
    zero."""
    b_rows, width = b if isinstance(b, RowIndex) else row_index(b)

    def times(items):
        out = None
        for q, x in items:
            b_q = x and b_rows.get(q)
            if b_q:
                if out is None:
                    out = [0] * width
                for c, y in b_q:
                    out[c] += x * y
        return out

    if isinstance(a, dict):
        return {r: row for r, items in a.items() if (row := times(items)) is not None}
    zero = (0,) * width
    return tuple(tuple(row) if (row := times(enumerate(a_row))) else zero for a_row in a)


def add_row(rows: dict, key, f: int, row) -> None:
    """rows[key] += f * row for int rows of one width, where an absent key
    holds the zero row."""
    scaled = map(mul, row, repeat(f))
    acc = rows.get(key)
    rows[key] = list(scaled) if acc is None else list(map(add, acc, scaled))


def int_bilinear(u, g, v) -> tuple[tuple[int, ...], ...]:
    """The int matrix of pairings u_a^T g v_b, for the rows u_a of u and v_b
    of v."""
    return int_matmul(int_matmul(u, g), tuple(zip(*v)))


def _nest(dims, flat):
    """Row-major flat sequence as nested tuples of the given dimensions."""
    nested = tuple(flat)
    for d in reversed(dims[1:]):
        items = iter(nested)
        nested = tuple(zip(*[items] * d))  # consecutive runs of d items
    return nested


# ---------------------------------------------------------------------------
# component tables


@dataclass(frozen=True)
class DenseTensor:
    """Component table of arbitrary rank, stored by its nonzero entries: the
    entry at row-major offset offsets[i] is nums[i] / den, and every other
    entry is zero. The form is canonical: offsets ascend strictly inside
    the table, no stored numerator is zero, den > 0 and gcd(den, *nums) ==
    1, so den is the least common denominator of the entries and equal
    fields mean equal tables; a table in any other form is rejected. Build
    tables with `from_rows` or `from_lattice`, which cancel, or, from parsed
    Fraction entries, `from_entries`. A vector is a rank-1 table and a
    matrix a rank-2 one. The read API (`entries`, indexing, `nonzero()`,
    `lattice()`) shows the full table; Fraction entries are made only where
    they are read."""

    dims: tuple[int, ...]
    offsets: tuple[int, ...]
    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        offsets, nums = self.offsets, self.nums
        if len(offsets) != len(nums):
            raise ShapeError("offset and numerator counts differ")
        if offsets and not (
            0 <= offsets[0] and offsets[-1] < prod(self.dims) and all(map(lt, offsets, offsets[1:]))
        ):
            raise ValueError("table offsets are not ascending, distinct and inside the table")
        if 0 in nums:
            raise ValueError("table stores a zero numerator")
        if self.den <= 0 or gcd(self.den, *nums) != 1:
            raise ValueError("table numerators and denominator are not in lowest terms")

    @classmethod
    def from_rows(cls, dims, rows, den: int) -> "DenseTensor":
        """Table whose row r (the row-major offset of its leading indices)
        is rows[r] / den, for int rows over the last slot given as a mapping
        (absent rows are zero) or as a sequence of every row, and den > 0:
        the constructor of the tables accumulated from nonzero entries and
        of int matrices. Zeros are dropped and common factors cancelled."""
        if not isinstance(rows, dict):
            rows = dict(enumerate(rows))
        width = dims[-1]
        keys = sorted(rows)
        flat = list(chain.from_iterable(map(rows.__getitem__, keys)))
        spots = list(compress(count(), flat))  # positions in the concatenated rows
        shift = [(r - i) * width for i, r in enumerate(keys)]
        offsets = map(add, spots, map(shift.__getitem__, map(floordiv, spots, repeat(width))))
        return cls._cancelled(dims, offsets, filter(None, flat), den)

    @classmethod
    def from_lattice(cls, dims, nums, den: int) -> "DenseTensor":
        """Table whose row-major entries are nums[i] / den, for int nums and
        den > 0; the common factor of nums and den is cancelled."""
        nums = tuple(nums)
        if len(nums) != prod(dims):
            raise ShapeError("entry count does not match dimensions")
        return cls._cancelled(dims, compress(count(), nums), filter(None, nums), den)

    @classmethod
    def _cancelled(cls, dims, offsets, nums, den: int) -> "DenseTensor":
        nums = tuple(nums)
        common = gcd(den, *nums)
        if common != 1:
            den //= common
            nums = tuple(x // common for x in nums)
        return cls(tuple(dims), tuple(offsets), nums, den)

    @classmethod
    def from_entries(cls, dims, entries) -> "DenseTensor":
        """Table of the given row-major rational entries, over their least
        common denominator."""
        entries = tuple(entries)
        den = lcm(*(x.denominator for x in entries))
        return cls.from_lattice(dims, (x.numerator * (den // x.denominator) for x in entries), den)

    def __neg__(self) -> "DenseTensor":
        return DenseTensor(self.dims, self.offsets, tuple(map(neg, self.nums)), self.den)

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The row-major entries as Fractions, built on each read."""
        out = [Fraction(0)] * prod(self.dims)
        for k, x in zip(self.offsets, self.nums):
            out[k] = Fraction(x, self.den)
        return tuple(out)

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
        return Fraction(self.num(off), self.den)

    def num(self, offset: int) -> int:
        """The numerator of the entry at a row-major offset."""
        pos = bisect_left(self.offsets, offset)
        return self.nums[pos] if pos < len(self.offsets) and self.offsets[pos] == offset else 0

    def indexes(self, offsets):
        """The 0-based index tuples of row-major offsets."""
        slots = []
        for d in reversed(self.dims[1:]):
            slots.append(list(map(mod, offsets, repeat(d))))
            offsets = list(map(floordiv, offsets, repeat(d)))
        slots.append(offsets)
        return zip(*reversed(slots))

    # the views below are memoized per instance and read the stored entries

    @cached_property
    def rows(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """The nonzero rows over the last slot, {row offset: ((last index,
        numerator), ...)} in ascending order, as `nonzero_rows` gives them."""
        return self._grouped(self.dims[-1])

    @cached_property
    def blocks(self) -> dict[int, dict[int, tuple[tuple[int, int], ...]]]:
        """The nonzero rows of each matrix slice over the last two slots,
        {lead offset: {row: ((column, numerator), ...)}}: R(X_u, X_v) at
        u * n + v of a curvature table R13, D_{X_i} at i of a connection."""
        blocks: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}
        for r, items in self.rows.items():
            lead, k = divmod(r, self.dims[-2])
            blocks.setdefault(lead, {})[k] = items
        return blocks

    @cached_property
    def leading(self) -> RowIndex:
        """The table as a matrix from its leading slot to the offsets of
        the others: the operand that contracts rows into the leading slot."""
        width = prod(self.dims[1:])
        return RowIndex(self._grouped(width), width)

    def _grouped(self, width: int) -> dict[int, tuple[tuple[int, int], ...]]:
        offsets, widths = self.offsets, repeat(width)
        entries = zip(map(floordiv, offsets, widths), zip(map(mod, offsets, widths), self.nums))
        return {r: tuple(map(itemgetter(1), row)) for r, row in groupby(entries, itemgetter(0))}

    @cached_property
    def antisymmetric(self) -> bool:
        """Whether the table changes sign when its first two slots swap:
        every nonzero entry meets its negative at the swapped index."""
        d, rest = self.dims[0], prod(self.dims[2:])
        swapped = [k % rest + (k // rest % d * d + k // (d * rest)) * rest for k in self.offsets]
        entries = dict(zip(self.offsets, self.nums))
        return self.dims[1] == d and dict(zip(swapped, map(neg, self.nums))) == entries

    def difference(self, other: "DenseTensor") -> tuple[tuple[int, ...], Fraction, Fraction] | None:
        """The first position, in row-major order, where two tables of one
        shape differ: (1-based index, value here, value in other), or None."""
        own, theirs = dict(zip(self.offsets, self.nums)), dict(zip(other.offsets, other.nums))
        for k in sorted(own.keys() | theirs.keys()):
            x, y = Fraction(own.get(k, 0), self.den), Fraction(theirs.get(k, 0), other.den)
            if x != y:
                (ix,) = self.indexes((k,))
                return tuple(i + 1 for i in ix), x, y
        return None

    @cached_property
    def _lattice_view(self):
        flat = [0] * prod(self.dims)
        for k, x in zip(self.offsets, self.nums):
            flat[k] = x
        return _nest(self.dims, flat)

    def lattice(self) -> tuple[tuple, int]:
        """(nested int numerators, den) of the full table, memoized."""
        return self._lattice_view, self.den

    def nonzero(self):
        """Yield (index tuple, value) for every nonzero entry, row-major order."""
        den = self.den
        for ix, x in zip(self.indexes(self.offsets), self.nums):
            yield ix, Fraction(x, den)

    def is_zero(self) -> bool:
        return not self.nums


def primitive_integer_vector(v: DenseTensor) -> DenseTensor:
    """The vector rescaled to coprime integer coordinates with a positive
    leading nonzero entry."""
    if v.is_zero():
        raise ValueError("zero vector has no primitive form")
    content = gcd(*v.nums) if v.nums[0] > 0 else -gcd(*v.nums)
    return DenseTensor(v.dims, v.offsets, tuple(x // content for x in v.nums), 1)


# ---------------------------------------------------------------------------
# componentwise affine fits


def _combine(terms) -> dict[int, int]:
    """sum f * t over the (table, int factor) pairs of terms, as {offset:
    numerator} over the union of the supports (zero sums included): the
    residual of a fit."""
    out: dict[int, int] = {}
    for t, f in terms:
        scaled = dict(zip(t.offsets, map(mul, t.nums, repeat(f))))
        common = list(out.keys() & scaled.keys())
        sums = list(map(add, map(out.__getitem__, common), map(scaled.__getitem__, common)))
        out.update(scaled)
        out.update(zip(common, sums))
    return out


def fit_tables(columns, rhs) -> LinearSolution:
    """Solve sum_j x_j columns[j] = rhs over every component of `DenseTensor`s
    of one shape, from their nonzero entries. The augmented int rows of the
    union of the supports (elsewhere 0 = 0) go into one `Echelon` in
    row-major order, until the right-hand side becomes a pivot column
    (infeasible; that row's offset is the witness) or the coefficient
    columns become independent, when the prefix has a unique solution: the
    first later component it misses, checked in ints, ends the first
    infeasible prefix and is the witness."""
    if any(col.dims != rhs.dims for col in columns):
        raise ShapeError("fit tables differ in shape")
    k, tables = len(columns), (*columns, rhs)
    den = lcm(*(t.den for t in tables))
    scales = [den // t.den for t in tables]
    basis = Echelon()
    for i, _ in groupby(merge(*(t.offsets for t in tables))):  # the union of the supports
        if basis.insert([t.num(i) * f for t, f in zip(tables, scales)]):
            if basis.pivots[-1] == k:
                return LinearSolution("infeasible", None, (), i)
            if len(basis.pivots) == k:
                break
    sol = basis.solution(k)
    x, dx = sol.particular.lattice()
    residual = _combine([(col, xj * f) for col, xj, f in zip(columns, x, scales)] + [(rhs, -dx * scales[k])])
    witness = min((i for i, r in residual.items() if r), default=None)
    return sol if witness is None else LinearSolution("infeasible", None, (), witness)
