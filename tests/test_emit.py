"""Structured-report writer and nonzero listings.

`emit_report(..., "structured")` writes its JSON with the recursive writer
of `pipeline`, not `json.dumps`; these tests pin it to the bytes of
`json.dumps(tree, indent=2, ensure_ascii=True)` on seeded random trees and on
every golden-corpus report, and pin both rendered forms of the nonzero
listings of the tables in a report (`pipeline._listing`) to the per-entry
dict builder they replaced (`helpers.reference_tensor_nonzeros`).
"""

import json
import random
from math import prod

import pytest

from helpers import golden_corpus, reference_tensor_nonzeros
from nordenlight.exact import DenseTensor
from nordenlight.manifold_file import parse_manifold_file
from nordenlight.pipeline import Report, _listing, emit_report, run_pipeline

CHARS = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "€", " ", "\U0001d11e", "a", "Z", "0"]


def dumps(tree) -> str:
    return json.dumps(tree, indent=2, ensure_ascii=True) + "\n"


def written(tree) -> str:
    return emit_report(Report(tree, 0), "structured")


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_scalar(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.choice([0, 1, -1, 7, -42, 2**64, -(3**50)])
    if kind == 2:
        return rng.randrange(-10**6, 10**6)
    return rng.choice([True, False, None])


def random_tree(rng: random.Random, depth: int):
    """A list or dict of up to four children, each a scalar, an empty
    container or, while depth lasts, a further tree."""

    def child():
        kind = rng.randrange(5 if depth > 1 else 3)
        if kind >= 3:
            return random_tree(rng, depth - 1)
        return random_scalar(rng) if kind == 0 else [] if kind == 1 else {}

    if rng.random() < 0.5:
        return [child() for _ in range(rng.randrange(5))]
    return {random_text(rng): child() for _ in range(rng.randrange(5))}


def expanded(tree):
    """The tree with every table replaced by the reference list
    of its entries, as json.dumps can write it."""
    if isinstance(tree, dict):
        return {key: expanded(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [expanded(value) for value in tree]
    if isinstance(tree, DenseTensor):
        return reference_tensor_nonzeros(tree)
    return tree


def test_writer_matches_json_dumps_on_random_trees():
    rng = random.Random(20261018)
    trees = [random_scalar(rng) for _ in range(40)] + [random_tree(rng, rng.randrange(1, 5)) for _ in range(260)]
    assert sum(isinstance(t, (dict, list)) and len(t) > 1 for t in trees) > 100
    for tree in trees:
        assert written(tree) == dumps(tree)


CORPUS = golden_corpus()


@pytest.mark.parametrize("name,text", CORPUS, ids=[name for name, _ in CORPUS])
def test_writer_matches_json_dumps_on_golden_reports(name, text):
    report = run_pipeline(parse_manifold_file(text))
    assert emit_report(report, "structured") == dumps(expanded(report.data))


@pytest.mark.parametrize("bad", [1.5, object(), {"nested": [1, 2.0]}, {1: "int key"}])
def test_writer_rejects_other_types(bad):
    with pytest.raises(TypeError):
        written(bad)


def random_table(rng: random.Random, rank: int, den: int, density: float) -> DenseTensor:
    dims = tuple(rng.randrange(1, 5) for _ in range(rank))
    nums = [rng.choice([-9, -2, -1, 1, 3, den, 2**70]) if rng.random() < density else 0 for _ in range(prod(dims))]
    return DenseTensor.from_lattice(dims, nums, den)


TABLES = [
    random_table(random.Random(rank * 100 + den), rank, den, density)
    for rank in (1, 2, 3, 4)
    for den in (1, 6, 35)
    for density in (0.3, 1.0)
] + [DenseTensor.from_lattice((3, 2, 2), [0] * 12, 1)]


@pytest.mark.parametrize("table", TABLES, ids=[f"dims{t.dims}-den{t.den}-nnz{len(t.nums)}" for t in TABLES])
def test_listing_matches_reference(table):
    reference = reference_tensor_nonzeros(table)
    assert written({"listing": table}) == dumps({"listing": reference})
    labels = [f"e{i}" for i in range(1, max(table.dims) + 1)]
    assert _listing(table, labels, "  R(", ",", ") = ") == [
        f"  R({','.join(labels[i - 1] for i in e['index'])}) = {e['value']}" for e in reference
    ]


def test_listings_cover_signs_denominators_and_the_empty_table():
    assert {t.rank for t in TABLES} == {1, 2, 3, 4}
    assert any(x < 0 for t in TABLES for x in t.nums)
    assert 1 in {t.den for t in TABLES} and max(t.den for t in TABLES) > 1
    empty = TABLES[-1]
    assert empty.is_zero() and written({"listing": empty}) == '{\n  "listing": []\n}\n'
