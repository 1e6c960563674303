"""Byte-identity gate on the reports: the sha256 digests of the structured and
text reports, and the exit code, of every input of `helpers.golden_corpus`
must equal the pinned values in tests/golden/report_digests.json. An
arithmetic rewrite that changes any byte of any report fails here.

The pinned file is written by

    PYTHONPATH=src:tests python tests/test_golden.py

and is only rewritten when a report is meant to change.
"""

import json
import sys
from pathlib import Path

import pytest

from helpers import golden_corpus, report_digests
from nordenlight.manifold_file import parse_manifold_file
from nordenlight.pipeline import run_pipeline

PINNED = Path(__file__).resolve().parent / "golden" / "report_digests.json"


def report_digest(text: str) -> dict:
    return report_digests(run_pipeline(parse_manifold_file(text)))


CORPUS = golden_corpus()


def test_corpus_matches_pinned_names():
    assert [name for name, _ in CORPUS] == list(json.loads(PINNED.read_text()))


@pytest.mark.parametrize("name,text", CORPUS, ids=[name for name, _ in CORPUS])
def test_report_digest(name, text):
    assert report_digest(text) == json.loads(PINNED.read_text())[name]


if __name__ == "__main__":
    pinned = {name: report_digest(text) for name, text in CORPUS}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(pinned, indent=2) + "\n")
    print(f"wrote {len(pinned)} digests to {PINNED}", file=sys.stderr)
