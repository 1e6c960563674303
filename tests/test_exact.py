import random
from fractions import Fraction as F
from itertools import product
from math import gcd, prod

import pytest

from nordenlight.exact import (
    DenseTensor,
    ShapeError,
    fit_tables,
    format_ratio,
    format_rational,
    int_matmul,
    parse_rational,
    primitive_integer_vector,
    signature,
)
from helpers import (
    echelon_fit,
    flat_lattice,
    fraction_solution,
    kernel,
    mat_rank,
    mat_mul,
    nested,
    reference_kernel_basis,
    reference_pi_tensors,
    solve,
    tensor_contract,
    tensor_from_function,
    tensor_from_rows,
    tensor_from_vector,
    tensor_add,
    tensor_neg,
    tensor_scale,
    tensor_sub,
    tensor_zeros,
    transpose,
)


class TestRationalGrammar:
    def test_round_trip(self):
        for text in ["0", "4", "-7", "3/4", "-3/4", "123456789012345678901/7"]:
            assert format_rational(parse_rational(text)) == text

    def test_reduction_and_positive_denominator(self):
        assert format_rational(parse_rational("6/4")) == "3/2"
        assert format_rational(parse_rational("-6/4")) == "-3/2"
        assert format_rational(parse_rational("8/4")) == "2"

    @pytest.mark.parametrize("bad", ["1/0", "1.5", "a", "1/-2", "--3", "3/", "/4", ""])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_canonical_form_random(self):
        rng = random.Random(7)
        for _ in range(200):
            num = rng.randint(-10**6, 10**6)
            den = rng.randint(1, 10**6)
            q = parse_rational(f"{num}/{den}")
            assert q.denominator > 0
            from math import gcd

            assert gcd(abs(q.numerator), q.denominator) == 1
            assert parse_rational(format_rational(q)) == q

    def test_format_ratio_reduces_like_format_rational(self):
        # the report formats table entries from numerator and denominator
        rng = random.Random(8)
        for _ in range(200):
            num, den, factor = rng.randint(-10**6, 10**6), rng.randint(1, 10**6), rng.randint(1, 9)
            assert format_ratio(num * factor, den * factor) == format_rational(F(num, den))
        assert [format_ratio(*p) for p in ((0, 7), (-6, 4), (8, 4), (5, 1))] == ["0", "-3/2", "2", "5"]


class TestKernelBasis:
    def test_explicit_kernel(self):
        m = [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert kernel(m) == reference_kernel_basis(m) == [(F(1), F(0), F(0))]

    def test_associated_gram_kernel(self, golden):
        # Gram matrix of the associated metric on the hypersurface span:
        # only nonzero entry pairs the second and fourth basis fields.
        _, ns, _ = golden
        idx = (1, 2, 3)  # X2, X3, X4 (0-based)
        gram = [
            [ns.g_assoc[a, b] for b in idx]
            for a in idx
        ]
        assert gram[0][2] == F(-1) and gram[2][0] == F(-1)
        assert kernel(gram) == reference_kernel_basis(gram) == [(F(0), F(1), F(0))]

    def test_injective(self):
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert kernel(m) == reference_kernel_basis(m) == []

    def test_kernel_invariants_random(self):
        rng = random.Random(11)
        for _ in range(150):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            basis = kernel(m)
            assert basis == reference_kernel_basis(m)
            assert mat_rank(m) + len(basis) == cols
            for v in basis:
                assert all(
                    sum(m[r][c] * v[c] for c in range(cols)) == 0 for r in range(rows)
                )
            if basis:
                assert mat_rank(basis) == len(basis)


class TestSolveAffine:
    def test_constant_curvature_fit(self, golden):
        # The curvature of the curved fixture fits the two curvature-type
        # tensors with unique coefficients (4, 0).
        _, ns, amb = golden
        pi1, pi2, pi3 = reference_pi_tensors(ns.g, ns.j)
        rows = list(zip(tensor_sub(pi1, pi2).entries, pi3.entries))
        sol = solve(rows, list(amb.riemann04.entries))
        assert sol.kind == "unique"
        assert sol.particular == (F(4), F(0))

    def test_zero_matrix_zero_rhs(self):
        sol = solve([[0, 0], [0, 0]], [0, 0])
        assert sol.kind == "parametric"
        assert sol.particular == (F(0), F(0))
        assert len(sol.nullspace) == 2

    def test_zero_matrix_nonzero_rhs(self):
        sol = solve([[0, 0], [0, 0]], [1, 0])
        assert sol.kind == "infeasible"
        assert sol.particular is None

    def test_unique_iff_injective_and_exact(self):
        rng = random.Random(13)
        for _ in range(150):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 4)
            a = [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
            x_true = [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(cols)]
            b = [sum(a[r][c] * x_true[c] for c in range(cols)) for r in range(rows)]
            sol = solve(a, b)
            assert sol.kind != "infeasible"
            assert (sol.kind == "unique") == (kernel(a) == [])
            assert all(
                sum(a[r][c] * sol.particular[c] for c in range(cols)) == b[r]
                for r in range(rows)
            )
            if sol.kind == "unique":
                assert sol.nullspace == ()


class TestTensorContract:
    def test_j_composed_with_j(self, golden):
        _, ns, _ = golden
        jj = tensor_contract(ns.j, 1, ns.j, 0)
        expected = tensor_from_function((4, 4), lambda i, k: -1 if i == k else 0)
        assert jj == expected

    def test_connection_slice(self, golden):
        # Contract the connection with the second basis field in the
        # derivative slot: the resulting table holds D_{X2}, whose value on
        # X2 is -2 X3.
        _, _, amb = golden
        x2 = tensor_from_vector([0, 1, 0, 0])
        table = tensor_contract(x2, 0, amb.gamma, 0)
        assert table.dims == (4, 4)
        assert table[1, 2] == F(-2)  # D_{X2} X2 has X3-coefficient -2
        assert table[1, 0] == 0 and table[1, 1] == 0 and table[1, 3] == 0

    def test_zero_tensor(self):
        z = tensor_zeros((3, 3))
        t = tensor_from_function((3, 3), lambda i, j: i + j)
        assert tensor_contract(t, 1, z, 0).is_zero()

    def test_shape_error(self):
        a = tensor_zeros((2, 2))
        b = tensor_zeros((3, 3))
        with pytest.raises(ShapeError, match="shape"):
            tensor_contract(a, 1, b, 0)

    def test_bilinearity_random(self):
        rng = random.Random(17)
        for _ in range(100):
            dims = (2, 2)
            t = tensor_from_function(dims, lambda *ix: rng.randint(-3, 3))
            u = tensor_from_function(dims, lambda *ix: rng.randint(-3, 3))
            w = tensor_from_function(dims, lambda *ix: rng.randint(-3, 3))
            alpha = F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            beta = F(rng.randint(-3, 3), rng.choice([1, 2, 3]))
            lhs = tensor_contract(t, 1, tensor_add(tensor_scale(u, alpha), tensor_scale(w, beta)), 0)
            rhs = tensor_add(
                tensor_scale(tensor_contract(t, 1, u, 0), alpha),
                tensor_scale(tensor_contract(t, 1, w, 0), beta),
            )
            assert lhs == rhs

    def test_rank_arithmetic(self):
        t = tensor_zeros((2, 2, 2))
        u = tensor_zeros((2, 2))
        assert tensor_contract(t, 2, u, 0).rank == 3
        v = tensor_from_vector([1, 2])
        assert tensor_contract(v, 0, v, 0).rank == 0


class TestSignature:
    def test_neutral_plane(self):
        assert signature(tensor_from_rows([[0, -1], [-1, 0]])) == (1, 1, 0)

    def test_degenerate(self):
        assert signature(tensor_from_rows([[0, 0, -1], [0, 0, 0], [-1, 0, 0]])) == (1, 1, 1)

    def test_random_congruence_invariance(self):
        from helpers import random_unimodular

        rng = random.Random(19)
        for _ in range(50):
            n = 3
            m = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            sym = [[m[i][k] + m[k][i] for k in range(n)] for i in range(n)]
            s = random_unimodular(rng, n)
            conj = mat_mul(mat_mul(transpose(s), sym), s)
            assert signature(tensor_from_rows(sym)) == signature(tensor_from_rows(conj))


class TestPrimitive:
    def test_scaling(self):
        v = tensor_from_vector((F(0), F(-1, 2), F(0), F(-3, 2)))
        assert nested(primitive_integer_vector(v)) == (
            F(0),
            F(1),
            F(0),
            F(3),
        )

    def test_leading_sign(self):
        assert nested(primitive_integer_vector(tensor_from_vector((F(-2), F(4))))) == (F(1), F(-2))


class TestLattice:
    def test_lattice_is_least_common_denominator(self):
        t = DenseTensor.from_entries((2, 2), (F(1, 2), F(-1, 3), F(0), F(2)))
        assert t.lattice() == (((3, -2), (0, 12)), 6)

    def test_from_lattice_cancels_to_the_entry_table(self):
        t = DenseTensor.from_lattice((2, 2), [4, -6, 0, 8], 12)
        assert (t.offsets, t.nums, t.den) == ((0, 1, 3), (2, -3, 4), 6)
        assert t.entries == (F(1, 3), F(-1, 2), F(0), F(2, 3))
        assert t.lattice() == (((2, -3), (0, 4)), 6)
        assert DenseTensor.from_entries(t.dims, t.entries) == t
        assert DenseTensor.from_lattice((3,), [0, 0, 0], 7).lattice() == ((0, 0, 0), 1)

    @staticmethod
    def random_entries(rng, dims, kind):
        size = prod(dims)
        if kind == "zero":
            return [F(0)] * size
        dens = rng.choice([(1,), (1, 2, 3), (5, 7, 35, 12)])
        return [
            F(rng.randint(-20, 20), rng.choice(dens)) if rng.random() < 0.6 else F(0)
            for _ in range(size)
        ]

    def test_random_tables_read_like_their_fraction_entries(self):
        # ranks 1-4, all-zero tables, negative entries, and numerators given
        # over a denominator with a common factor
        rng = random.Random(71)
        for trial in range(160):
            dims = tuple(rng.randint(1, 4) for _ in range(1 + trial % 4))
            entries = self.random_entries(rng, dims, "zero" if trial % 7 == 0 else "random")
            t = DenseTensor.from_entries(dims, entries)
            nums, _ = flat_lattice(t)
            den = t.den * rng.randint(1, 6)
            factor = den // t.den
            scaled = DenseTensor.from_lattice(dims, [x * factor for x in nums], den)
            assert scaled == t and hash(scaled) == hash(t), trial
            # the row constructor, with its rows in random order and zero
            # rows and entries among them, and the direct one
            width = dims[-1]
            rows = [
                (r, [x * factor for x in nums[r * width : (r + 1) * width]])
                for r in range(len(nums) // width)
            ]
            rows = [(r, row) for r, row in rows if any(row) or rng.random() < 0.3]
            rng.shuffle(rows)
            for other in (
                DenseTensor.from_rows(dims, dict(rows), den),
                DenseTensor(dims, t.offsets, t.nums, t.den),
            ):
                assert other == t and hash(other) == hash(t), trial
            assert t.den > 0 and gcd(t.den, *t.nums) == 1
            assert t.offsets == tuple(k for k, x in enumerate(entries) if x)
            assert 0 not in t.nums
            assert t.entries == tuple(entries)
            expected = [(ix, x) for ix, x in zip(product(*map(range, dims)), entries) if x != 0]
            assert list(t.nonzero()) == expected
            assert t.is_zero() == (not expected)
            if not expected:
                assert t.den == 1
            for ix, x in zip(product(*map(range, dims)), entries):
                assert t[ix] == x
            if len(dims) == 1:
                assert t[dims[0] - 1] == entries[-1]
            slot = rng.randrange(len(dims))
            for bad in (dims[slot], -1):
                with pytest.raises(IndexError):
                    t[tuple(bad if s == slot else 0 for s in range(len(dims)))]
            with pytest.raises(ShapeError):
                t[(0,) * (len(dims) + 1)]

    def test_direct_construction_must_be_canonical(self):
        assert DenseTensor((2,), (0, 1), (1, -3), 2).entries == (F(1, 2), F(-3, 2))
        assert DenseTensor((3,), (2,), (5,), 1).entries == (F(0), F(0), F(5))
        assert DenseTensor((2, 1), (), (), 1).is_zero()
        for offsets, nums, den in (
            ((1, 0), (1, 2), 1),  # unsorted
            ((1, 1), (1, 2), 1),  # duplicated
            ((0, 2), (1, 2), 1),  # past the end
            ((-1, 0), (1, 2), 1),  # before the start
            ((0, 1), (1, 0), 1),  # a stored zero
            ((), (), 7),  # all zero, not over 1
            ((0, 1), (2, 4), 6),  # common factor
            ((0, 1), (1, 2), 0),
            ((0, 1), (1, 2), -1),
            ((0, 1), (-1, 2), -3),
        ):
            with pytest.raises(ValueError):
                DenseTensor((2,), offsets, nums, den)
        with pytest.raises(ShapeError):
            DenseTensor((2, 2), (0, 1, 2), (1, 2), 1)
        for nums in ((1, 2, 3), (1, 2, 3, 4, 0)):
            with pytest.raises(ShapeError):
                DenseTensor.from_lattice((2, 2), nums, 1)

    def test_round_trip_and_arithmetic_random(self):
        rng = random.Random(23)
        for _ in range(100):
            dims = (2, 3, 2)
            a, b = (
                tensor_from_function(dims, lambda *ix: F(rng.randint(-9, 9), rng.randint(1, 6)))
                for _ in range(2)
            )
            nums, den = a.lattice()
            flat = [x for plane in nums for row in plane for x in row]
            assert DenseTensor.from_lattice(dims, flat, den) == a
            c = F(rng.randint(-4, 4), rng.randint(1, 4))
            assert tensor_add(a, b).entries == tuple(x + y for x, y in zip(a.entries, b.entries))
            assert tensor_sub(a, b).entries == tuple(x - y for x, y in zip(a.entries, b.entries))
            assert tensor_neg(a).entries == tuple(-x for x in a.entries)
            assert tensor_scale(a, c).entries == tuple(c * x for x in a.entries)

    def test_int_matmul_and_lattice_rows(self):
        rows, den = tensor_from_rows(((F(1, 2), F(0)), (F(0), F(0)), (F(1), F(-1, 4)))).lattice()
        assert (rows, den) == (((2, 0), (0, 0), (4, -1)), 4)
        b = ((1, 2), (3, 4))
        assert int_matmul(rows, b) == ((2, 4), (0, 0), (1, 4))

    def test_first_difference_is_row_major(self):
        a = (F(1), F(2), F(3), F(4))
        t = DenseTensor.from_entries((2, 2), a)
        assert t.difference(t) is None
        other = DenseTensor.from_entries((2, 2), (F(1), F(2), F(0), F(0)))
        assert t.difference(other) == ((2, 1), F(3), F(0))


class TestFitTables:
    @staticmethod
    def random_table(rng, dims, density=0.5):
        return tensor_from_function(
            dims,
            lambda *ix: F(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else 0,
        )

    def test_matches_the_full_echelon_on_random_tall_systems(self):
        # full rank, all-zero (parametric), rank-1 (parametric), and
        # one-entry-perturbed (infeasible) systems, with one to three unknowns
        rng = random.Random(53)
        dims = (3, 2, 4)
        kinds = set()
        for trial in range(120):
            k = 1 + trial % 3
            shape = trial % 4
            if shape == 1:
                columns = [tensor_zeros(dims)] * k
            elif shape == 2:
                base = self.random_table(rng, dims)
                columns = [tensor_scale(base, F(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(k)]
            else:
                columns = [self.random_table(rng, dims, rng.choice([0.2, 0.6, 1])) for _ in range(k)]
            x = [F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(k)]
            rhs = tensor_zeros(dims)
            for xj, col in zip(x, columns):
                rhs = tensor_add(rhs, tensor_scale(col, xj))
            if shape == 3 or trial % 5 == 0:
                entries = list(rhs.entries)
                entries[rng.randrange(len(entries))] += F(rng.choice([-1, 1]), rng.randint(1, 3))
                rhs = DenseTensor.from_entries(dims, entries)
            sol = fit_tables(columns, rhs)
            assert fraction_solution(sol) == echelon_fit(columns, rhs), trial
            kinds.add(sol.kind)
        assert kinds == {"unique", "parametric", "infeasible"}

    def test_degenerate_and_perturbed_leading_rows(self):
        zero = tensor_zeros((2, 3))
        lead = tensor_from_rows(((1, 0, 0), (0, 0, 0)))
        late = tensor_from_rows(((0, 0, 0), (0, 0, 2)))
        second = tensor_from_rows(((0, 1, 0), (0, 0, 0)))
        for columns, rhs, kind in (
            ((zero, zero), zero, "parametric"),
            ((zero, zero), lead, "infeasible"),
            ((zero, zero), late, "infeasible"),
            ((lead, late), tensor_add(lead, tensor_scale(late, 3)), "unique"),
            ((lead, late), tensor_add(tensor_add(lead, tensor_scale(late, 3)), second), "infeasible"),
            ((lead, tensor_scale(lead, 2)), tensor_scale(lead, 5), "parametric"),
        ):
            sol = fit_tables(columns, rhs)
            assert sol.kind == kind
            assert fraction_solution(sol) == echelon_fit(columns, rhs)
        with pytest.raises(ShapeError):
            fit_tables((zero,), tensor_zeros((3, 3)))
