#!/usr/bin/env python
"""Size report of the serving simulator: code lines and settable values.

Prints two tables:

* counted code lines per module under ``src/repro/serving/`` — lines that
  are not blank, not comment-only and not part of a docstring;
* the constructor-settable values of the scheduler, the scheduling and
  autoscaler configs and every registered router — dataclass fields with
  ``init=True``, or the parameters of a plain class's ``__init__``.

Both numbers track the "same behaviour from less code" aim: a change that
deletes a path or turns a setting nothing varies into a constant shows up
here.  The report gates nothing.

Usage::

    PYTHONPATH=src python tools/serving_size.py
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import io
import sys
import tokenize
from pathlib import Path
from typing import List, Set, Tuple

_NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> Set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counted_lines(source: str) -> int:
    """Lines holding code that is neither a comment nor a docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NON_CODE:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def settable_values(cls: type) -> List[str]:
    """Names a caller can set when constructing ``cls``."""
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]
    params = inspect.signature(cls).parameters.values()
    return [p.name for p in params
            if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]


def _classes() -> List[Tuple[str, type]]:
    from repro.serving.autoscaler import AutoscalerConfig
    from repro.serving.cluster import ROUTERS
    from repro.serving.policies import SchedulingConfig
    from repro.serving.scheduler import ContinuousBatchingScheduler

    classes = [ContinuousBatchingScheduler, SchedulingConfig,
               AutoscalerConfig]
    classes += sorted(set(ROUTERS.values()), key=lambda c: c.__name__)
    return [(cls.__name__, cls) for cls in classes]


def main() -> int:
    import repro.serving

    print("Counted code lines (non-blank, non-comment, non-docstring)")
    total = 0
    for path in sorted(Path(repro.serving.__file__).parent.glob("*.py")):
        count = counted_lines(path.read_text())
        total += count
        print(f"  {path.name:<22} {count:>5}")
    print(f"  {'total':<22} {total:>5}")
    print()
    print("Constructor-settable values")
    total = 0
    for name, cls in _classes():
        names = settable_values(cls)
        total += len(names)
        print(f"  {name:<28} {len(names):>3}  {', '.join(names)}")
    print(f"  {'total':<28} {total:>3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
