"""Golden-fingerprint gate: the serving simulator's outputs, bit for bit.

Rebuilds ``tools/serving_fingerprint.py``'s 17-scenario fingerprint and
compares every entry with the committed golden file
``tests/data/serving_fingerprint.json``.  Any mismatch means a change
altered simulated results, which a refactor or optimisation must not do.
To record an intended change of results, recapture the file with
``PYTHONPATH=src python tools/serving_fingerprint.py
tests/data/serving_fingerprint.json`` and say why in the change
description.

The golden file was captured on Python 3.11, and the gate is not skipped
on other minors.  The one known difference between minors is float ``sum()``,
which Python 3.12 made compensated (Neumaier summation); float totals on
result paths therefore use a plain left fold
(:func:`repro.serving.metrics.fold_sum`).  The last test below checks that
without a 3.12 interpreter: it rebuilds the fingerprint with
``builtins.sum`` replaced by an emulation of 3.12's ``sum()``.
"""

import builtins
import importlib.util
import json
import math
from pathlib import Path

from repro.serving.metrics import fold_sum

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "serving_fingerprint.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "serving_fingerprint", ROOT / "tools" / "serving_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare_with_golden(tool):
    golden = dict(tool._flatten(json.loads(GOLDEN.read_text())))
    # Round-trip through JSON so tuples and lists compare alike.
    current = dict(tool._flatten(json.loads(json.dumps(
        tool.build_fingerprint()))))
    assert len(golden) == 1994
    missing = sorted(set(golden) - set(current))
    extra = sorted(set(current) - set(golden))
    changed = [f"{key}: {golden[key]!r} != {current[key]!r}"
               for key in sorted(set(golden) & set(current))
               if golden[key] != current[key]]
    assert not missing, f"entries no longer produced: {missing[:20]}"
    assert not extra, f"entries not in the golden file: {extra[:20]}"
    assert not changed, (f"{len(changed)} fingerprint mismatches:\n"
                         + "\n".join(changed[:20]))


def _compensated_sum(iterable, /, start=0):
    """Python 3.12's ``sum()``: exact ints first; once the total is a
    float, exact-float items are added with Neumaier compensation and
    ints are added as floats; anything else falls back to ``+``."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) in (int, bool):
                total += item
                continue
            total = total + item
            break
        else:
            return total
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    compensation = 0.0
    for item in items:
        if type(item) is float:
            step = total + item
            if abs(total) >= abs(item):
                compensation += (total - step) + item
            else:
                compensation += (item - step) + total
            total = step
        elif type(item) is int and -2**63 <= item < 2**63:
            total += float(item)
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            for item in items:
                total = total + item
            return total
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_emulation_differs_from_left_fold():
    """The emulation is live: it rounds where a left fold does not.  The
    reference is ``fold_sum``, not the builtin, whose rounding depends on
    the interpreter."""
    values = [1.0, 1e100, 1.0, -1e100]
    assert fold_sum(values) == 0.0
    assert _compensated_sum(values) == 2.0
    assert _compensated_sum([1, 2, 3]) == 6
    assert _compensated_sum([0.1] * 10) == 1.0 != fold_sum([0.1] * 10)


def test_serving_fingerprint_matches_golden():
    _compare_with_golden(_load_tool())


def test_serving_fingerprint_matches_golden_under_compensated_sum(
        monkeypatch):
    """The fingerprint does not depend on how ``sum()`` rounds floats, so
    a Python 3.12 interpreter should reproduce the 3.11 golden file."""
    tool = _load_tool()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    _compare_with_golden(tool)
