"""``tools/trace_report.py`` reads its percentiles and attainment off the
live metrics' own summary rule, so a report over a saved trace equals the
``ServingMetrics`` of the run that wrote it, bit for bit."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    SCHEDULING_PRESETS,
    SYSTEM_PRESETS,
    ServingEngine,
    attribute_slo,
    make_bursty_workload,
    write_chrome_trace,
)

ROOT = Path(__file__).resolve().parents[1]
TTFT_SLO, TPOT_SLO = 0.05, 0.02


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "trace_report", ROOT / "tools" / "trace_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    engine = ServingEngine(get_config("llama-2-7b"), A100,
                           SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=1024)
    result = engine.serve(make_bursty_workload(num_requests=40, seed=5),
                          max_num_seqs=8,
                          scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                          telemetry=True)
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    write_chrome_trace(str(path), result.telemetry)
    return result, path


def test_render_json_matches_live_metrics(traced):
    result, path = traced
    tool = _load_tool()
    att = attribute_slo(json.loads(path.read_text()), TTFT_SLO, TPOT_SLO)
    report = tool.render_json(att, top=3)
    assert report["num_requests"] == len(result.metrics)
    assert report["ttft_p99_s"] == result.metrics.ttft.p99
    assert report["attainment"] == \
        result.metrics.slo_attainment(TTFT_SLO, TPOT_SLO)
    assert len(report["worst"]) == 3


def test_main_json_and_text(traced, capsys):
    result, path = traced
    tool = _load_tool()
    args = [str(path), "--ttft-slo", str(TTFT_SLO),
            "--tpot-slo", str(TPOT_SLO)]
    assert tool.main(args + ["--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ttft_p99_s"] == result.metrics.ttft.p99
    assert report["attainment"] == \
        result.metrics.slo_attainment(TTFT_SLO, TPOT_SLO)
    assert tool.main(args) == 0
    text = capsys.readouterr().out
    assert f"requests reconstructed: {len(result.metrics)}" in text
    assert f"p99 {result.metrics.ttft.p99 * 1e3:.1f} ms" in text


def test_main_rejects_a_trace_without_requests(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"traceEvents": []}))
    assert _load_tool().main([str(path)]) == 1
    assert "no finished requests" in capsys.readouterr().err
