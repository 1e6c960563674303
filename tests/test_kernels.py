"""The sparse kernels of `exact` against their dense references, bit for bit.

`int_matmul` (the one product kernel), the product of a table's last slot
with a matrix through it and `fit_tables` read nonzero entries only;
`tests/helpers.py` keeps the dense versions they replaced (`reference_*`).
The inputs are seeded random int matrices and tables with zero rows and
columns, negative entries, non-square shapes and empty supports, plus the
fit systems whose outcome, or whose infeasibility witness, hangs on one
component.
"""

import random
from fractions import Fraction as F
from itertools import product
from math import prod

import pytest

from helpers import (
    flat_lattice,
    fraction_solution,
    reference_fit_tables,
    reference_fit_witness,
    reference_flat_matmul,
    reference_int_matmul,
    tensor_add,
    tensor_scale,
)
from nordenlight.exact import (
    DenseTensor,
    ShapeError,
    fit_tables,
    int_matmul,
    nonzero_rows,
    row_index,
)


def random_int_matrix(rng, rows, cols, density):
    """Int rows with zero rows and zero columns mixed in."""
    dead_cols = {c for c in range(cols) if rng.random() < 0.2}
    out = []
    for _ in range(rows):
        if rng.random() < 0.2:
            out.append((0,) * cols)
            continue
        out.append(
            tuple(
                rng.randint(-9, 9) if c not in dead_cols and rng.random() < density else 0
                for c in range(cols)
            )
        )
    return tuple(out)


def random_table(rng, dims, density, dens=(1, 2, 3, 4, 6)):
    size = prod(dims)
    if rng.random() < 0.1:
        return DenseTensor.from_entries(dims, [F(0)] * size)  # empty support
    return DenseTensor.from_entries(
        dims,
        [F(rng.randint(-7, 7), rng.choice(dens)) if rng.random() < density else F(0) for _ in range(size)],
    )


def shapes(rng):
    return tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))


# ---------------------------------------------------------------------------
# the product kernel


def test_int_matmul_matches_the_dot_product_reference():
    rng = random.Random(4401)
    for trial in range(300):
        r, k, c = rng.randint(0, 6), rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.1, 0.4, 1.0))
        a, b = random_int_matrix(rng, r, k, density), random_int_matrix(rng, k, c, density)
        expected = reference_int_matmul(a, tuple(zip(*b)))
        assert int_matmul(a, b) == expected, trial
        assert int_matmul(a, row_index(b)) == expected, trial
        # a by its nonzero rows: the rows that meet a nonzero row of b, the
        # others zero
        sparse = int_matmul(nonzero_rows(a), b)
        assert set(sparse) <= set(nonzero_rows(a)), trial
        assert all(sparse.get(i, [0] * c) == list(row) for i, row in enumerate(expected)), trial


def test_int_matmul_shapes_and_zeros():
    assert int_matmul((), ((1, 2),)) == ()
    assert int_matmul(((0, 0),), ((1, 2), (3, 4))) == ((0, 0),)
    assert int_matmul(((1, 0, -2),), ((0, 0), (5, 5), (1, -1))) == ((-2, 2),)
    assert int_matmul({3: ((1, 7),)}, ((1,), (0,))) == {}
    assert int_matmul({3: ((0, -1), (1, 7))}, ((2,), (0,))) == {3: [-2]}


def test_table_times_matrix_matches_the_flat_reference():
    # the product of a table's last slot with a matrix, as the builders run
    # it: the table's nonzero rows through the kernel, then `from_rows`
    rng = random.Random(4402)
    for trial in range(200):
        dims = shapes(rng)
        t = random_table(rng, dims, rng.choice((0.1, 0.5, 1.0)))
        cols = rng.randint(1, 5)
        b = random_int_matrix(rng, dims[-1], cols, rng.choice((0.3, 1.0)))
        out_dims = dims[:-1] + (cols,)
        got = DenseTensor.from_rows(out_dims, int_matmul(t.rows, b), t.den)
        nums, den = flat_lattice(t)
        assert got == DenseTensor.from_lattice(out_dims, reference_flat_matmul(nums, dims[-1], b), den)


# ---------------------------------------------------------------------------
# componentwise fits


def reference_fit(columns, rhs):
    return reference_fit_tables([flat_lattice(t) for t in columns], flat_lattice(rhs))


def fit(columns, rhs):
    """`fit_tables` read back in the Fraction form of the reference."""
    return fraction_solution(fit_tables(columns, rhs))


def test_fit_tables_matches_the_dense_reference_on_random_systems():
    # right-hand sides in the span of the columns (unique or parametric),
    # perturbed at one component, and random
    rng = random.Random(4404)
    kinds = set()
    for trial in range(250):
        dims = shapes(rng)
        k = rng.randint(1, 3)
        density = rng.choice((0.1, 0.5, 1.0))
        columns = [random_table(rng, dims, density) for _ in range(k)]
        if trial % 7 == 0:
            columns[-1] = tensor_scale(columns[0], 2)  # dependent columns
        case = trial % 3
        if case == 2:
            rhs = random_table(rng, dims, density)
        else:
            rhs = DenseTensor.from_entries(dims, [F(0)] * prod(dims))
            for col in columns:
                rhs = tensor_add(rhs, tensor_scale(col, rng.randint(-3, 3)))
            if case == 1:
                entries = list(rhs.entries)
                entries[rng.randrange(len(entries))] += F(rng.choice((-1, 1)), rng.randint(1, 3))
                rhs = DenseTensor.from_entries(dims, entries)
        sol = fit(columns, rhs)
        assert sol == reference_fit(columns, rhs), trial
        kinds.add(sol.kind)
    assert kinds == {"unique", "parametric", "infeasible"}


def test_fit_tables_witness_ends_the_first_infeasible_prefix():
    # rank 1-3 tables and 1-3 columns, some dependent, with right-hand sides
    # in their span, perturbed at one or two components, or random: the
    # witness is the offset whose row ends the first prefix of component
    # rows with no solution, and only an infeasible fit has one
    rng = random.Random(4407)
    witnesses = set()
    for trial in range(400):
        dims = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        density = rng.choice((0.2, 0.5, 1.0))
        columns = [random_table(rng, dims, density) for _ in range(rng.randint(1, 3))]
        if trial % 5 == 0:
            columns[-1] = tensor_scale(columns[0], F(-1, 2))  # dependent columns
        if trial % 4 == 3:
            rhs = random_table(rng, dims, density)
        else:
            entries = [F(0)] * prod(dims)
            for col in columns:
                c = F(rng.randint(-3, 3), rng.randint(1, 2))
                entries = [x + c * y for x, y in zip(entries, col.entries)]
            for _ in range(trial % 3):
                entries[rng.randrange(len(entries))] += F(rng.choice((-1, 1)), rng.randint(1, 3))
            rhs = DenseTensor.from_entries(dims, entries)
        sol = fit_tables(columns, rhs)
        expected = reference_fit_witness([col.entries for col in columns], rhs.entries)
        assert sol.witness == expected, trial
        assert (sol.kind == "infeasible") == (expected is not None), trial
        witnesses.add(expected)
    assert len(witnesses) > 12


def test_fit_tables_on_components_outside_the_column_supports():
    dims = (2, 3)
    col = DenseTensor.from_entries(dims, [F(1), F(0), F(0), F(0), F(2), F(0)])
    zero = DenseTensor.from_entries(dims, [F(0)] * 6)
    cases = [
        # a component whose coefficient columns are all zero but whose
        # right-hand side is not: infeasible
        ((col,), DenseTensor.from_entries(dims, [F(3), F(0), F(0), F(0), F(6), F(1)]), "infeasible"),
        ((col,), DenseTensor.from_entries(dims, [F(3), F(0), F(0), F(0), F(6), F(0)]), "unique"),
        # all-zero coefficient tables pick "the first row", at offset 0,
        # outside every support; the outcome follows the right-hand side
        ((zero, zero), zero, "parametric"),
        ((zero,), DenseTensor.from_entries(dims, [F(5), F(0), F(0), F(0), F(0), F(0)]), "infeasible"),
        ((zero,), DenseTensor.from_entries(dims, [F(0), F(0), F(0), F(0), F(0), F(-2)]), "infeasible"),
        # an empty column next to a nonempty one
        ((col, zero), DenseTensor.from_entries(dims, [F(-1), F(0), F(0), F(0), F(-2), F(0)]), "parametric"),
    ]
    for columns, rhs, kind in cases:
        sol = fit(columns, rhs)
        assert sol.kind == kind
        assert sol == reference_fit(columns, rhs)
    with pytest.raises(ShapeError):
        fit_tables((col,), DenseTensor.from_entries((3, 2), [F(0)] * 6))


def test_fit_tables_picks_rows_by_support_order():
    # two columns with a few nonzero entries at random offsets, so the
    # picked rows lie anywhere in the union of the supports, and a
    # right-hand side in their span or off it at one component
    rng = random.Random(4405)
    for trial in range(100):
        dims = (rng.randint(2, 3),) * rng.randint(2, 3)
        size = prod(dims)
        columns = []
        for _ in range(2):
            entries = [F(0)] * size
            for spot in rng.sample(range(size), rng.randint(1, 3)):
                entries[spot] = F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
            columns.append(DenseTensor.from_entries(dims, entries))
        x = (F(rng.randint(-3, 3), rng.randint(1, 2)), F(rng.randint(-3, 3), rng.randint(1, 2)))
        entries = [x[0] * p + x[1] * q for p, q in zip(columns[0].entries, columns[1].entries)]
        if trial % 2:
            entries[rng.randrange(size)] += 1
        rhs = DenseTensor.from_entries(dims, entries)
        assert fit(columns, rhs) == reference_fit(columns, rhs), trial


# ---------------------------------------------------------------------------
# the stored nonzero views


def test_row_views_match_a_dense_scan():
    rng = random.Random(4406)
    for trial in range(150):
        dims = tuple(rng.randint(1, 4) for _ in range(rng.randint(2, 4)))
        t = random_table(rng, dims, rng.choice((0.1, 0.5, 1.0)))
        nums, _ = flat_lattice(t)
        width = dims[-1]
        dense_rows = [nums[r * width : (r + 1) * width] for r in range(len(nums) // width)]
        assert t.rows == nonzero_rows(dense_rows), trial
        rest = prod(dims[1:])
        lead = [nums[r * rest : (r + 1) * rest] for r in range(dims[0])]
        assert t.leading == (nonzero_rows(lead), rest), trial
        height = dims[-2]
        blocks = {}
        for r, items in nonzero_rows(dense_rows).items():
            blocks.setdefault(r // height, {})[r % height] = items
        assert t.blocks == blocks, trial


def test_antisymmetry_and_first_difference_match_a_dense_scan():
    rng = random.Random(4407)
    for trial in range(200):
        m = rng.randint(1, 4)
        dims = (m, m) + tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2)))
        rest = prod(dims[2:])
        entries = [F(0)] * prod(dims)
        for i, j in product(range(m), repeat=2):
            for r in range(rest):
                if i < j and rng.random() < 0.5:
                    x = F(rng.randint(-5, 5), rng.randint(1, 3))
                    entries[(i * m + j) * rest + r] = x
                    entries[(j * m + i) * rest + r] = -x
        if trial % 3 == 0:  # break the symmetry at one entry, possibly on the diagonal
            entries[rng.randrange(len(entries))] += 1
        t = DenseTensor.from_entries(dims, entries)
        expected = all(
            entries[(i * m + j) * rest + r] == -entries[(j * m + i) * rest + r]
            for i, j in product(range(m), repeat=2)
            for r in range(rest)
        )
        assert t.antisymmetric == expected, trial
        other = random_table(rng, dims, 0.3)
        diff = next(
            (
                (tuple(q + 1 for q in ix), x, y)
                for ix, x, y in zip(product(*map(range, dims)), t.entries, other.entries)
                if x != y
            ),
            None,
        )
        assert t.difference(other) == diff, trial
        assert t.difference(t) is None
