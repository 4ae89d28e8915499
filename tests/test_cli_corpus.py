"""Replay the CLI byte corpus, the one digest pin of CLI output bytes:
every call keeps its exit code and the bytes of its stdout and stderr, with
reproduce's timings masked, and no --json result holds a raw float.  CI
replays the same entries through the installed `tracegeo`.
`make_cli_corpus.py` beside this file regenerates the corpus and says what
it masks."""

import json

import pytest

from make_cli_corpus import ARGVS, CORPUS, run

ENTRIES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES,
                         ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_a_corpus_call_keeps_its_bytes(entry):
    assert run(entry["argv"]) == entry


def test_the_corpus_holds_each_argv_of_the_generator_once():
    argvs = [e["argv"] for e in ENTRIES]
    assert argvs == ARGVS
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
