"""Replay the CLI byte corpus: every call keeps its exit code and the
bytes of its stdout and stderr.  `make_cli_corpus.py` beside this file
regenerates the corpus."""

import json

import pytest

from make_cli_corpus import CORPUS, run

ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_a_corpus_call_keeps_its_bytes(entry):
    assert run(entry["argv"]) == entry
