"""Starting lieposet stays light, and its records keep their behaviour.

The records are NamedTuples and plain classes, not dataclasses:
``import dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``, and every ``@dataclass`` execs generated code, on each
launch of the CLI or a script."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lieposet.forms import ContactResult, KernelReport
from lieposet.posets import Poset
from lieposet.toral.blocks import block, family
from lieposet.toral.gluing import RULES, ConstructionScript, ScriptStep, glue, run_script

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_dataclasses_or_source_introspection():
    # the modules the import adds, so that those a site hook preloads do not count
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import lieposet, lieposet.sweep, lieposet.toral\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    added = set(json.loads(out.stdout))
    assert "lieposet.toral.gluing" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}, sorted(added)


def _records():
    """One instance of every NamedTuple record."""
    fork, six_a = block("contact_fork"), block("six_a")
    steps = [ScriptStep("contact_fork"), ScriptStep("six_a", rule="A1", identify=(("a1", 5),))]
    return [
        Poset.chain(3).extremal_data(),
        ContactResult(False, "x"),
        six_a,
        family("six_a"),
        RULES["A1"],
        glue(fork.poset, six_a, "A1", {"a1": 5}),
        steps[1],
        built := run_script(ConstructionScript(steps)),
        built.audits[-1],
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_kernel_reports_compare_without_their_coordinate_map():
    one = KernelReport("gA", [[1, 0, -2]], 3, to_coords=lambda x, d: {})
    two = KernelReport("gA", [[1, 0, -2]], 3)
    assert one == two and repr(one) == repr(two)
    assert repr(one) == "KernelReport(space='gA', generators=[[1, 0, -2]], scale=3)"
    assert one != KernelReport("gA", [[1, 0, -2]], -3)


def test_contact_result_is_its_verdict():
    assert bool(ContactResult(False, "x")) is False
    assert bool(ContactResult(True, "contact")) is True
