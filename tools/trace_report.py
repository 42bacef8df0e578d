#!/usr/bin/env python
"""SLO-attribution report over a saved Chrome trace.

Answers the question end-of-run aggregates cannot: *which phase caused the
TTFT violations*.  The input is a trace written by
``repro.serving.telemetry.write_chrome_trace`` (single engine or merged
cluster); every finished request is reconstructed from its span events —
TTFT/TPOT come out bitwise-identical to the live ``ServingMetrics`` values,
because the closing span event carries the raw timestamps, and the TTFT
percentiles and attainment are computed by ``ServingMetrics`` itself — and
each request's TTFT window is attributed to the lifecycle phases it
overlapped (queued / prefill / stall / transfer / decode).

Usage::

    PYTHONPATH=src python tools/trace_report.py trace.json \
        --ttft-slo 0.2 --tpot-slo 0.05 [--top 5] [--json]

The text report shows attainment, the mean phase breakdown over all requests
vs. the violators, the dominant violator phase, and the worst offenders.
``--json`` emits the same numbers machine-readably instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from repro.serving.metrics import ServingMetrics
from repro.serving.telemetry import PHASES, SLOAttribution, attribute_slo


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms"


def _phase_line(phases: dict) -> str:
    parts = [f"{name} {_ms(phases[name])}" for name in (*PHASES, "other")]
    return " / ".join(parts)


def render_text(att: SLOAttribution, top: int) -> str:
    records = att.records
    lines = [
        f"requests reconstructed: {len(records)} "
        f"(TTFT SLO {_ms(att.ttft_slo_s)}, TPOT SLO {_ms(att.tpot_slo_s)})",
        f"SLO attainment: {att.attainment * 100:.1f}% "
        f"({len(att.violators)} violators)",
    ]
    ttft = ServingMetrics(requests=records).ttft
    lines.append(f"TTFT: p50 {_ms(ttft.p50)} / p95 {_ms(ttft.p95)} / "
                 f"p99 {_ms(ttft.p99)}")
    lines.append("mean TTFT phase breakdown (all requests):")
    lines.append("  " + _phase_line(att.mean_phase_seconds()))
    if att.violators:
        lines.append("mean TTFT phase breakdown (violators only):")
        lines.append("  " + _phase_line(
            att.mean_phase_seconds(violators_only=True)))
        lines.append(f"dominant violator phase: {att.dominant_phase()}")
    else:
        lines.append("no violators — every request met the SLO")
    worst = att.worst(top)
    if worst:
        lines.append(f"worst {len(worst)} requests by TTFT:")
        for r in worst:
            marker = "" if r.meets_slo(att.ttft_slo_s, att.tpot_slo_s) \
                else "  <-- violation"
            phases = ", ".join(
                f"{name}={_ms(r.phase_s.get(name, 0.0))}"
                for name in (*PHASES,) if r.phase_s.get(name, 0.0) > 0)
            lines.append(
                f"  req {r.request_id} (replica {r.replica}): "
                f"ttft {_ms(r.ttft)}, tpot {_ms(r.tpot)}, "
                f"{r.preemptions} preempts, {r.migrations} migrations"
                f"{' [' + phases + ']' if phases else ''}{marker}")
    return "\n".join(lines)


def render_json(att: SLOAttribution, top: int) -> dict:
    return {
        "num_requests": len(att.records),
        "ttft_slo_s": att.ttft_slo_s,
        "tpot_slo_s": att.tpot_slo_s,
        "attainment": att.attainment,
        "num_violators": len(att.violators),
        "mean_phase_seconds": att.mean_phase_seconds(),
        "violator_mean_phase_seconds":
            att.mean_phase_seconds(violators_only=True),
        "dominant_violator_phase": att.dominant_phase(),
        "ttft_p99_s": ServingMetrics(requests=att.records).ttft.p99,
        "worst": [
            {"request_id": r.request_id, "replica": r.replica,
             "ttft_s": r.ttft, "tpot_s": r.tpot,
             "preemptions": r.preemptions, "migrations": r.migrations,
             "phase_seconds": r.phase_s}
            for r in att.worst(top)
        ],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Attribute SLO violations to lifecycle phases from a "
                    "saved Chrome trace")
    parser.add_argument("trace", help="trace JSON written by "
                                      "write_chrome_trace")
    parser.add_argument("--ttft-slo", type=float, default=0.2,
                        help="TTFT objective in seconds (default 0.2)")
    parser.add_argument("--tpot-slo", type=float, default=0.05,
                        help="TPOT objective in seconds (default 0.05)")
    parser.add_argument("--top", type=int, default=5,
                        help="worst offenders to list (default 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    args = parser.parse_args(argv)

    with open(args.trace) as fh:
        trace = json.load(fh)
    att = attribute_slo(trace, args.ttft_slo, args.tpot_slo)
    if not att.records:
        print("no finished requests found in trace", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(render_json(att, args.top), indent=2,
                         sort_keys=True))
    else:
        print(render_text(att, args.top))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
