"""Direct coverage for the reporting helpers that examples/benchmarks lean
on: ``ServingResult.summary_text()``, ``LatencySummary`` percentile math,
``ServingMetrics`` summaries and the SLO attainment/goodput helpers — all of
which were previously exercised only through end-to-end runs."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.serving import (
    LatencySummary,
    Request,
    RequestMetrics,
    ServingMetrics,
    ServingResult,
    SpeculationStats,
)
from repro.serving.prefix_cache import PrefixCacheStats

SRC = Path(__file__).resolve().parents[1] / "src"


def _metric(request_id=0, output_len=10, arrival=0.0, first=1.0, finish=2.0,
            **kwargs):
    return RequestMetrics(request_id=request_id, prompt_len=100,
                          output_len=output_len, arrival_time=arrival,
                          first_token_time=first, finish_time=finish, **kwargs)


# ----------------------------------------------------------------------
# LatencySummary
# ----------------------------------------------------------------------
def _summary_hex(summary):
    return [x.hex() for x in (summary.mean, summary.p50, summary.p95,
                              summary.p99, summary.maximum)]


def _numpy_hex(values):
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(all="ignore"):  # huge finite values may overflow
        p50, p95, p99 = np.percentile(arr, [50, 95, 99])
        return [float(x).hex()
                for x in (np.mean(arr), p50, p95, p99, np.max(arr))]


# Any finite float but -0.0 (mapped to 0.0): where +0.0 and -0.0 tie,
# np.percentile returns whichever sign its partition left in place.
# Latencies are differences of non-negative clocks and never -0.0.
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(
    lambda x: x + 0.0)


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE, min_size=1, max_size=300))
@example([0.1 * i for i in range(1, 101)])
def test_latency_summary_percentiles_match_numpy(values):
    """``from_values`` is NumPy's mean, linear percentile and max, bit for
    bit."""
    assert _summary_hex(LatencySummary.from_values(values)) == \
        _numpy_hex(values)


@pytest.mark.parametrize(
    "n", [1, 7, 8, 9, 127, 128, 129, 136, 257, 2_500, 100_000])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_latency_summary_matches_numpy_at_block_edges(n, seed):
    """Lengths at the edges of NumPy's pairwise-sum blocks (8 lanes, 128
    per leaf, splits at multiples of 8)."""
    rng = random.Random(seed)
    values = [rng.lognormvariate(-3.0, 2.0) for _ in range(n)]
    assert _summary_hex(LatencySummary.from_values(values)) == \
        _numpy_hex(values)


def test_summary_read_imports_no_numpy_ma():
    """A fresh interpreter serves, reads every summary and never imports
    ``numpy.ma`` (which ``np.percentile`` pulls in on first use)."""
    code = textwrap.dedent("""
        import sys
        from repro.gpu import A100
        from repro.model import get_config
        from repro.serving import (SYSTEM_PRESETS, ServingEngine,
                                   make_uniform_workload)
        engine = ServingEngine(get_config("llama-2-7b"), A100,
                               SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                               max_seq_len=512)
        result = engine.serve(make_uniform_workload(8, prompt_len=64,
                                                    output_len=8),
                              max_num_seqs=4)
        assert result.to_json()["metrics"]["num_requests"] == 8
        assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_latency_summary_empty_and_singleton():
    assert LatencySummary.from_values([]) == LatencySummary(0, 0, 0, 0, 0)
    single = LatencySummary.from_values([0.25])
    assert single.mean == single.p50 == single.p99 == single.maximum == 0.25


# ----------------------------------------------------------------------
# ServingMetrics summaries
# ----------------------------------------------------------------------
def test_serving_metrics_distributions():
    metrics = ServingMetrics(requests=[
        _metric(0, output_len=11, arrival=0.0, first=1.0, finish=2.0),
        _metric(1, output_len=11, arrival=1.0, first=4.0, finish=6.0),
    ])
    assert len(metrics) == 2
    assert metrics.ttft.mean == pytest.approx((1.0 + 3.0) / 2)
    assert metrics.e2e.maximum == pytest.approx(5.0)
    # TPOT: (finish - first) / (output_len - 1) per request.
    assert metrics.tpot.mean == pytest.approx((0.1 + 0.2) / 2)


def test_serving_metrics_from_requests_skips_unfinished():
    done = Request(request_id=0, prompt_len=16, output_len=4)
    done.first_token_time, done.finish_time = 1.0, 2.0
    pending = Request(request_id=1, prompt_len=16, output_len=4)
    metrics = ServingMetrics.from_requests([done, pending])
    assert [m.request_id for m in metrics.requests] == [0]
    with pytest.raises(ValueError):
        RequestMetrics.from_request(pending)


def test_slo_attainment_and_goodput():
    metrics = ServingMetrics(requests=[
        _metric(0, output_len=11, first=0.2, finish=0.7),    # meets both
        _metric(1, output_len=11, first=2.0, finish=2.5),    # TTFT miss
        _metric(2, output_len=11, first=0.2, finish=5.0),    # TPOT miss
        _metric(3, output_len=1, first=0.2, finish=0.2),     # 1-token: TTFT only
    ])
    assert metrics.slo_attainment(1.0, 0.1) == pytest.approx(0.5)
    # Goodput = attainment * finished / wall time.
    assert metrics.slo_goodput(1.0, 0.1, total_time_s=10.0) == \
        pytest.approx(0.5 * 4 / 10.0)
    assert metrics.slo_goodput(1.0, 0.1, total_time_s=0.0) == 0.0
    assert ServingMetrics().slo_attainment(1.0, 0.1) == 0.0


def test_transfer_delay_summary_covers_migrated_only():
    metrics = ServingMetrics(requests=[
        _metric(0, migrations=1, transfer_delay_s=0.004),
        _metric(1, migrations=0, transfer_delay_s=0.0),
        _metric(2, migrations=1, transfer_delay_s=0.008),
    ])
    assert metrics.total_migrations == 2
    # Never-migrated requests don't drag the summary toward zero.
    assert metrics.transfer_delay.mean == pytest.approx(0.006)
    assert ServingMetrics(requests=[_metric(0)]).transfer_delay == \
        LatencySummary.from_values([])


def test_serving_metrics_summary_text():
    metrics = ServingMetrics(requests=[
        _metric(0, output_len=11, preemptions=2),
        _metric(1, output_len=11),
    ])
    text = metrics.summary_text()
    assert "requests: 2" in text
    assert "preemptions: 2" in text
    for line in ("TTFT", "TPOT", "E2E"):
        assert line in text


# ----------------------------------------------------------------------
# ServingResult.summary_text
# ----------------------------------------------------------------------
def test_serving_result_summary_text_minimal():
    result = ServingResult(total_time_s=2.0, generated_tokens=500,
                           prompt_tokens=1000, peak_batch=8,
                           num_iterations=100, num_finished=5,
                           num_unserved=1, kv_utilization_peak=0.42)
    text = result.summary_text()
    assert "throughput: 250.0 tok/s" in text
    assert "(5 finished, 1 unserved)" in text
    assert "KV utilization: peak 42.0%" in text
    assert "tokens/iteration: 5.00" in text          # 500 tokens / 100 iters
    assert "prefix cache" not in text                # stats absent => no line
    assert "speculation" not in text                 # stats absent => no line
    assert "TTFT" not in text                        # no metrics attached


def test_serving_result_summary_text_full():
    stats = PrefixCacheStats(lookups=4, hit_tokens=300, miss_tokens=100,
                             inserted_pages=10, evicted_pages=3)
    metrics = ServingMetrics(requests=[_metric(0, output_len=11)])
    result = ServingResult(total_time_s=1.0, generated_tokens=100,
                           prompt_tokens=400, peak_batch=4, num_iterations=50,
                           num_finished=1, metrics=metrics,
                           kv_utilization_peak=0.805, prefix_stats=stats)
    text = result.summary_text()
    assert "hit rate 75.0%" in text
    assert "300 prefill tokens saved" in text
    assert "3 pages evicted" in text
    assert "TPOT" in text                            # metrics block included
    # Derived gauges agree with the stats object.
    assert result.cache_hit_rate == pytest.approx(0.75)
    assert result.saved_prefill_tokens == 300


def test_serving_result_zero_time_throughput():
    result = ServingResult(total_time_s=0.0, generated_tokens=0,
                           prompt_tokens=0, peak_batch=0, num_iterations=0)
    assert result.generation_throughput == 0.0
    assert result.cache_hit_rate == 0.0
    assert result.saved_prefill_tokens == 0
    assert result.tokens_per_iteration == 0.0        # no division by zero
    assert result.acceptance_rate == 0.0
    assert result.speculation_speedup == 0.0
    assert "throughput: 0.0 tok/s" in result.summary_text()


# ----------------------------------------------------------------------
# Speculative-decoding gauges
# ----------------------------------------------------------------------
def test_speculation_stats_properties():
    empty = SpeculationStats()
    assert empty.acceptance_rate == 0.0
    assert empty.mean_accepted_per_step == 0.0
    assert empty.speedup == 0.0                      # no pure-decode samples
    stats = SpeculationStats(spec_steps=10, proposed_tokens=40,
                             accepted_tokens=30, committed_tokens=40,
                             spec_time_s=2.0, baseline_time_s=5.0)
    assert stats.acceptance_rate == pytest.approx(0.75)
    assert stats.mean_accepted_per_step == pytest.approx(3.0)
    assert stats.mean_committed_per_request_step == pytest.approx(4.0)
    assert stats.speedup == pytest.approx(2.5)


def test_serving_result_summary_text_speculation_gauges():
    stats = SpeculationStats(spec_steps=50, proposed_tokens=200,
                             accepted_tokens=150, committed_tokens=200,
                             spec_time_s=1.0, baseline_time_s=2.5)
    result = ServingResult(total_time_s=1.0, generated_tokens=400,
                           prompt_tokens=800, peak_batch=4,
                           num_iterations=100, num_finished=4,
                           spec_stats=stats)
    text = result.summary_text()
    assert "tokens/iteration: 4.00" in text
    assert "speculation: acceptance 75.0%" in text
    assert "3.00 accepted tokens/step" in text
    assert "est. speedup 2.50x" in text
    assert result.acceptance_rate == pytest.approx(0.75)
    assert result.speculation_speedup == pytest.approx(2.5)


def test_serving_metrics_acceptance_rate():
    metrics = ServingMetrics(requests=[
        _metric(0, spec_steps=5, draft_proposed=20, draft_accepted=16),
        _metric(1, spec_steps=2, draft_proposed=10, draft_accepted=2),
        _metric(2),                                  # plain-decoded request
    ])
    assert metrics.draft_proposed_tokens == 30
    assert metrics.draft_accepted_tokens == 18
    assert metrics.acceptance_rate == pytest.approx(0.6)
    # Speculation off: no proposals anywhere, the gauge reads 0 safely.
    assert ServingMetrics(requests=[_metric(0)]).acceptance_rate == 0.0
