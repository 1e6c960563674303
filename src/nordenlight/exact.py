"""Exact rational linear algebra and dense component tables.

Every verification path computes over `fractions.Fraction`: arbitrary
precision integers, canonical gcd-reduced form, positive denominator. No
floating point anywhere. Row reduction pivots on the first nonzero entry in
column order, so results are deterministic on every platform.

Vectors are flat tuples, matrices are tuples of row tuples, and component
tables of rank >= 2 use :class:`DenseTensor` (row-major, 0-based internally;
all external formats are 1-based).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


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


def primitive_integer_vector(v: Vector) -> Vector:
    """Rescale to coprime integer coordinates with positive leading nonzero."""
    if vec_is_zero(v):
        raise ValueError("zero vector has no primitive form")
    from math import gcd, lcm

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

    @staticmethod
    def zeros(dims) -> "DenseTensor":
        dims = tuple(dims)
        return DenseTensor(dims, (Fraction(0),) * prod(dims))

    @classmethod
    def from_function(cls, dims, fn) -> "DenseTensor":
        dims = tuple(dims)
        values = (fn(*ix) for ix in product(*(range(d) for d in dims)))
        return cls(dims, tuple(v if type(v) is Fraction else Fraction(v) for v in values))

    @classmethod
    def from_rows(cls, rows) -> "DenseTensor":
        rows = tuple(tuple(map(Fraction, r)) for r in rows)
        return cls((len(rows), len(rows[0])), tuple(x for r in rows for x in r))

    @classmethod
    def from_vector(cls, v) -> "DenseTensor":
        v = tuple(map(Fraction, v))
        return cls((len(v),), v)

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

    def nested(self):
        """Nested tuples, convenient for hot loops; memoized per instance
        (the memo is not a dataclass field, so equality and repr ignore it)."""
        cached = getattr(self, "_nested_memo", None)
        if cached is not None:
            return cached

        def build(dims, flat):
            if not dims:
                return flat[0]
            step = prod(dims[1:])
            return tuple(build(dims[1:], flat[i * step : (i + 1) * step]) for i in range(dims[0]))

        cached = build(self.dims, self.entries)
        object.__setattr__(self, "_nested_memo", cached)
        return cached

    def nonzero(self):
        """Yield (index tuple, value) for every nonzero entry, row-major order."""
        for ix, val in zip(product(*(range(d) for d in self.dims)), self.entries):
            if val != 0:
                yield ix, val

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def __add__(self, other: "DenseTensor") -> "DenseTensor":
        if self.dims != other.dims:
            raise ShapeError("shape mismatch in tensor addition")
        return DenseTensor(self.dims, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "DenseTensor") -> "DenseTensor":
        if self.dims != other.dims:
            raise ShapeError("shape mismatch in tensor subtraction")
        return DenseTensor(self.dims, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "DenseTensor":
        return DenseTensor(self.dims, tuple(-a for a in self.entries))

    def scale(self, c) -> "DenseTensor":
        c = Fraction(c)
        return DenseTensor(self.dims, tuple(c * a for a in self.entries))


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
        total = Fraction(0)
        for m in range(csize):
            full_t = tix[:slot_t] + (m,) + tix[slot_t:]
            full_u = uix[:slot_u] + (m,) + uix[slot_u:]
            total += t[full_t] * u[full_u]
        return total

    return DenseTensor.from_function(out_dims, entry)
