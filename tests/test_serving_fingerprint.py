"""Golden-fingerprint gate: the serving simulator's outputs, bit for bit.

Rebuilds ``tools/serving_fingerprint.py``'s 15-scenario fingerprint and
compares every entry with the committed golden file
``tests/data/serving_fingerprint.json``.  Any mismatch means a change
altered simulated results, which a refactor or optimisation must not do.
To record an intended change of results, recapture the file with
``PYTHONPATH=src python tools/serving_fingerprint.py
tests/data/serving_fingerprint.json`` on the interpreter minor version
below and say why in the change description.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "serving_fingerprint.json"

#: Interpreter the golden file was captured on.  Floats are compared by
#: their exact hex form, and Python 3.12 changed float ``sum()`` to
#: compensated summation, so other minors may differ in the last bits
#: without any simulator change; no other minor has been checked.
CAPTURED_ON = (3, 11)


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "serving_fingerprint", ROOT / "tools" / "serving_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(
    sys.version_info[:2] != CAPTURED_ON,
    reason=f"golden fingerprint captured on Python "
           f"{CAPTURED_ON[0]}.{CAPTURED_ON[1]}; float sum() differs from 3.12 "
           f"on and other minors are unchecked")
def test_serving_fingerprint_matches_golden():
    tool = _load_tool()
    golden = dict(tool._flatten(json.loads(GOLDEN.read_text())))
    # Round-trip through JSON so tuples and lists compare alike.
    current = dict(tool._flatten(json.loads(json.dumps(
        tool.build_fingerprint()))))
    assert len(golden) == 1520
    missing = sorted(set(golden) - set(current))
    extra = sorted(set(current) - set(golden))
    changed = [f"{key}: {golden[key]!r} != {current[key]!r}"
               for key in sorted(set(golden) & set(current))
               if golden[key] != current[key]]
    assert not missing, f"entries no longer produced: {missing[:20]}"
    assert not extra, f"entries not in the golden file: {extra[:20]}"
    assert not changed, (f"{len(changed)} fingerprint mismatches:\n"
                         + "\n".join(changed[:20]))
