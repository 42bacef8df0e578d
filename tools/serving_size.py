#!/usr/bin/env python
"""Size report of the serving simulator: code lines and settable values.

Prints three tables:

* counted code lines per module under ``src/repro/serving/`` — lines that
  are not blank, not comment-only and not part of a docstring;
* the constructor-settable values of the scheduler, the scheduling and
  autoscaler configs and every registered router — dataclass fields with
  ``init=True``, or the parameters of a plain class's ``__init__``;
* the five longest functions under ``src/repro/serving/``, in physical
  lines from the ``def`` line to the last line of the body, docstring
  included.

All three track the "same behaviour from less code" aim: a change that
deletes a path, turns a setting nothing varies into a constant or splits
an oversized function shows up here.  The report gates nothing.

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


def function_spans(source: str) -> List[Tuple[int, str]]:
    """``(physical lines, qualified name)`` of every function in ``source``."""
    spans: List[Tuple[int, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    spans.append((child.end_lineno - child.lineno + 1, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return spans


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
    spans: List[Tuple[int, str]] = []
    for path in sorted(Path(repro.serving.__file__).parent.glob("*.py")):
        source = path.read_text()
        count = counted_lines(source)
        total += count
        print(f"  {path.name:<22} {count:>5}")
        spans += [(lines, f"{path.name}:{name}")
                  for lines, name in function_spans(source)]
    print(f"  {'total':<22} {total:>5}")
    print()
    print("Constructor-settable values")
    total = 0
    for name, cls in _classes():
        names = settable_values(cls)
        total += len(names)
        print(f"  {name:<28} {len(names):>3}  {', '.join(names)}")
    print(f"  {'total':<28} {total:>3}")
    print()
    print("Longest functions (physical lines, docstring included)")
    for lines, name in sorted(spans, key=lambda s: (-s[0], s[1]))[:5]:
        print(f"  {name:<48} {lines:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
