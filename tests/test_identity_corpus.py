"""The identity corpus against its committed reference.

scripts/identity_corpus.py prints the results of the engine, the oracle,
the bridge, validation, the CLI and the samplers on a fixed corpus, and
tests/identity_reference.json holds a digest of every 16 lines of that
output.  Each section in GATED must match it bit for bit.  The F section
(the F functions on a grid on every corpus state) and the CLI section
(154 invocations) would add about 0.7 s more, and are left to

    PYTHONPATH=src python3 scripts/identity_corpus.py --check

The reference holds the results of the numpy and libm it was written
with: another platform may differ in the last bits without a defect.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "identity_corpus.py"
GATED = ["engine", "bridge", "oracle", "validation", "local unitary",
         "pools"]


@pytest.fixture(scope="module")
def corpus_script():
    spec = importlib.util.spec_from_file_location("identity_corpus", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module, module.corpus(), module.read_reference()


@pytest.mark.parametrize("name", GATED)
def test_section_matches_reference(corpus_script, name):
    script, states, reference = corpus_script
    section = dict(script.SECTIONS)[name]
    report = script.mismatch(name, script.section_lines(section, states),
                             reference)
    if report is not None:
        pytest.fail(report, pytrace=False)


def test_reference_covers_every_section(corpus_script):
    script, _, reference = corpus_script
    assert list(reference["sections"]) == [n for n, _ in script.SECTIONS]
