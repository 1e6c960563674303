"""Seeded inputs for the benchmark, written as `.mf` text.

The family: the complex algebra [e1, ek] = -2i lam ek (k = 2..h) with the
holomorphic metric B = sum ek^2, realified with X_k = e_k, X_{h+k} = i e_k,
J X_k = X_{h+k} and g = Re B. At h = 2 and lam = 1 it is
`fixtures/sl2c_borel.mf`. Its coordinate hypersurface without X1, under the
associated metric, is lightlike, radical transversal and totally umbilical,
and the verdict has closed forms:

    nu = 4 lam^2, nu_assoc = 0, rho^2 / b = 4 lam^2,
    Ric = k g + c g~ with k = 8 (h - 1) lam^2 and c = 0,
    all four symmetry flags hold and the audit is consistent.

A complex-linear basis change P that fixes e1 and is unimodular over the
Gaussian integers on e2..eh keeps J, the bracket table and the radical line
(X_{h+1}); only the metric table becomes dense. The closed forms are
basis-free, so they hold for every conjugate.

Every generated `Case` states the verdict the engine must reach; the oracle
in `oracle.py` compares the report against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# The seed picks the sign of the rescaling factor and a signed permutation
# of the dense basis change; it keeps the sizes of every table entry, so
# each seed costs the engine about the same.
LAMBDAS = (Fraction(5, 7), Fraction(-5, 7))
SIGNS = (1, -1)
UNITS = (complex(1, 0), complex(-1, 0), complex(0, 1), complex(0, -1))


@dataclass(frozen=True)
class Case:
    """One input and the verdict it must get.

    `blocks` holds the expected outcome of each hypersurface block ("ok",
    "nondegenerate" or "not_umbilical"); blocks marked "ok" run the full path
    and are held to the closed forms for `lam` (lam = 0 is the flat case:
    every flag holds and the audit is not applicable). For an expected exit 3, `failed_check`
    names the validation check that must fail, or is "kaehler" when the
    ambient build rejects a non-parallel J.
    """

    kind: str
    text: str
    exit_code: int
    lam: Fraction | None
    h: int
    blocks: tuple[str, ...] = ()
    failed_check: str | None = None


def _fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _terms(row: dict[int, Fraction]) -> str:
    return " ".join(f"{k}:{_fmt(q)}" for k, q in sorted(row.items()))


def _lu_base(r: int) -> list[list[complex]]:
    """Dense r x r matrix L U over the Gaussian integers: unit lower and unit
    upper triangular factors whose off-diagonal entries are units, so the
    determinant is 1 and every entry stays small. Fixed per size."""
    rng = random.Random(r)
    low = [[1 + 0j if a == b else (rng.choice(UNITS) if a > b else 0j) for b in range(r)] for a in range(r)]
    up = [[1 + 0j if a == b else (rng.choice(UNITS) if a < b else 0j) for b in range(r)] for a in range(r)]
    return [[sum(low[a][k] * up[k][b] for k in range(r)) for b in range(r)] for a in range(r)]


def gaussian_unimodular(rng: random.Random, r: int) -> list[list[complex]]:
    """The fixed dense base times a seeded signed permutation: determinant a
    unit of the Gaussian integers."""
    base = _lu_base(r)
    perm = rng.sample(range(r), r)
    signs = [rng.choice(SIGNS) for _ in range(r)]
    return [[base[a][perm[b]] * signs[b] for b in range(r)] for a in range(r)]


def family_tables(h: int, lam: Fraction, p: list[list[complex]] | None = None):
    """Bracket, metric and J tables of the family in the basis changed by p
    (an (h-1) x (h-1) Gaussian-integer matrix on e2..eh; None is the
    identity). Returns (brackets, metric, j): brackets maps (i, j) with
    i < j to {k: coefficient}, metric maps (i, j) with i <= j to a value,
    j maps i to {k: coefficient}; all indices 1-based."""
    n = 2 * h
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}

    def put(i, j, k, q):
        if i > j:
            i, j, q = j, i, -q
        brackets.setdefault((i, j), {})[k] = q

    for k in range(2, h + 1):
        put(1, k, h + k, -2 * lam)
        put(h + 1, h + k, h + k, 2 * lam)
        put(1, h + k, k, 2 * lam)
        put(k, h + 1, k, -2 * lam)

    # complex Gram matrix C = P^T P of B in the new basis, with P_11 = 1
    full = [[1 + 0j if a == b == 0 else 0j for b in range(h)] for a in range(h)]
    for a in range(1, h):
        for b in range(1, h):
            full[a][b] = complex(p[a - 1][b - 1]) if p is not None else complex(a == b)
    gram = [[sum(full[q][a] * full[q][b] for q in range(h)) for b in range(h)] for a in range(h)]
    metric: dict[tuple[int, int], Fraction] = {}
    for a in range(h):
        for b in range(h):
            c = gram[a][b]
            entries = (
                (a + 1, b + 1, c.real),  # g(X_a, X_b) = Re C
                (a + 1, h + b + 1, -c.imag),  # g(X_a, i e_b) = Re(i C)
                (h + a + 1, h + b + 1, -c.real),  # g(i e_a, i e_b) = Re(-C)
            )
            for i, j, value in entries:
                if i <= j and value != 0:
                    metric[(i, j)] = Fraction(int(value))
    j_table = {k: {h + k: Fraction(1)} for k in range(1, h + 1)}
    j_table.update({h + k: {k: Fraction(-1)} for k in range(1, h + 1)})
    return brackets, metric, j_table


def render(n: int, brackets, metric, j_table, hypersurfaces) -> str:
    """The tables as `.mf` text; `hypersurfaces` holds (metric, span) pairs."""
    lines = [f"DIM {n}"]
    lines += [f"BRACKET {i} {j} = {_terms(row)}" for (i, j), row in sorted(brackets.items())]
    lines += [f"METRIC {i} {j} = {_fmt(q)}" for (i, j), q in sorted(metric.items())]
    lines += [f"J {i} = {_terms(row)}" for i, row in sorted(j_table.items())]
    lines += [f"HYPERSURFACE metric={m} span={','.join(map(str, span))}" for m, span in hypersurfaces]
    return "\n".join(lines) + "\n"


def without(n: int, dropped: int) -> tuple[int, ...]:
    return tuple(i for i in range(1, n + 1) if i != dropped)


def family_case(h: int, lam: Fraction = Fraction(1), p=None, kind: str = "family") -> Case:
    """The family member with its one full-path block (the span without X1,
    associated metric)."""
    tables = family_tables(h, lam, p)
    text = render(2 * h, *tables, [("assoc", without(2 * h, 1))])
    return Case(kind, text, 0, lam, h, ("ok",))


def dense_case(rng: random.Random, h: int) -> Case:
    lam = rng.choice(LAMBDAS)
    return family_case(h, lam, gaussian_unimodular(rng, h - 1), kind="dense")


# The four coordinate blocks that are subalgebras, as (metric, dropped
# field, expected outcome): without X1 under the associated metric is the
# full path; without X1 or X_{h+1} under the principal metric the block is
# nondegenerate; without X_{h+1} under the associated metric it is lightlike
# but not totally umbilical.
def _four_blocks(h: int):
    return (
        ("assoc", 1, "ok"),
        ("principal", 1, "nondegenerate"),
        ("principal", h + 1, "nondegenerate"),
        ("assoc", h + 1, "not_umbilical"),
    )


def four_block_case(rng: random.Random, h: int) -> Case:
    lam = rng.choice(LAMBDAS)
    tables = family_tables(h, lam, gaussian_unimodular(rng, h - 1))
    blocks = _four_blocks(h)
    text = render(2 * h, *tables, [(m, without(2 * h, d)) for m, d, _ in blocks])
    return Case("four_blocks", text, 4, lam, h, tuple(s for _, _, s in blocks))


def invalid_case(rng: random.Random, h: int) -> Case:
    """A family member broken in one known way, so validation rejects it
    (exit 3) with a named check."""
    lam = rng.choice(LAMBDAS)
    brackets, metric, j_table = family_tables(h, lam, gaussian_unimodular(rng, h - 1))
    n = 2 * h
    cause = rng.choice(("j_scaled", "metric_scaled", "jacobi", "kaehler"))
    if cause == "j_scaled":
        # J -> 2J: J^2 = -4 I
        j_table = {i: {k: 2 * q for k, q in row.items()} for i, row in j_table.items()}
        check = "complex_structure_squares_to_minus_identity"
    elif cause == "metric_scaled":
        # scale g(X1, X1) only: g(J X1, J X1) no longer equals -g(X1, X1)
        metric[(1, 1)] = 2 * metric[(1, 1)]
        check = "metric_anti_isometry"
    elif cause == "jacobi":
        # [X2, X_{h+2}] = X1 breaks the Jacobi identity with X1 and X_{h+1}
        brackets[(2, h + 2)] = {1: Fraction(1)}
        check = "jacobi_identity"
    else:
        # on the diagonal metric, J X1 = X_{h+2} and J X2 = X_{h+1} is still an
        # anti-isometry with J^2 = -I, but it is no longer parallel
        brackets, metric, j_table = family_tables(h, lam)
        j_table.update({1: {h + 2: Fraction(1)}, 2: {h + 1: Fraction(1)}})
        j_table.update({h + 1: {2: Fraction(-1)}, h + 2: {1: Fraction(-1)}})
        check = "kaehler"
    text = render(n, brackets, metric, j_table, [("assoc", without(n, 1))])
    return Case(f"invalid_{cause}", text, 3, lam, h, failed_check=check)


def fixture_cases(root: Path) -> list[Case]:
    fixtures = root / "fixtures"
    return [
        Case("fixture_sl2c_borel", (fixtures / "sl2c_borel.mf").read_text(), 0, Fraction(1), 2, ("ok",)),
        Case("fixture_abelian_flat", (fixtures / "abelian_flat.mf").read_text(), 0, Fraction(0), 2, ("ok",)),
    ]


def batch_cases(rng: random.Random, root: Path, blocks: int) -> list[Case]:
    """A stream of dim 4-6 inputs in blocks of ten, each block shuffled:
    a fixture, three conjugated and rescaled family members at h = 2 and one
    at h = 3, two invalid files (exit 3) and four-block files (exit 4), one
    at h = 2 and two at h = 3. Half of every block ends before a clean exit,
    and every prefix of the stream has nearly the same mix."""
    fixtures = fixture_cases(root)
    cases = []
    for b in range(blocks):
        block = [fixtures[b % len(fixtures)], dense_case(rng, 3), four_block_case(rng, 2)]
        block += [dense_case(rng, 2) for _ in range(3)]
        block += [invalid_case(rng, rng.choice((2, 3))) for _ in range(2)]
        block += [four_block_case(rng, 3) for _ in range(2)]
        rng.shuffle(block)
        cases += block
    return cases
