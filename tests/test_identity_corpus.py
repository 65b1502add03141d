"""The identity corpus against its committed reference.

scripts/identity_corpus.py prints the results of the engine, the oracle,
the bridge, validation, the F functions, the CLI and the samplers on a
fixed corpus, and tests/identity_reference.json holds a digest of every
16 lines of that output.  Each section in the script's SECTIONS must
match it bit for bit; the same check runs outside the test suite with

    PYTHONPATH=src python3 scripts/identity_corpus.py --check

The reference holds the results of the numpy and libm it was written
with: another platform may differ in the last bits without a defect.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "identity_corpus.py"
_SPEC = importlib.util.spec_from_file_location("identity_corpus", SCRIPT)
script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(script)


@pytest.fixture(scope="module")
def corpus_and_reference():
    return script.corpus(), script.read_reference()


@pytest.mark.parametrize("name", [name for name, _ in script.SECTIONS])
def test_section_matches_reference(corpus_and_reference, name):
    states, reference = corpus_and_reference
    section = dict(script.SECTIONS)[name]
    report = script.mismatch(name, script.section_lines(section, states),
                             reference)
    if report is not None:
        pytest.fail(report, pytrace=False)


def test_reference_covers_every_section(corpus_and_reference):
    _, reference = corpus_and_reference
    assert list(reference["sections"]) == [n for n, _ in script.SECTIONS]
