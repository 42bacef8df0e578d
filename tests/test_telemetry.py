"""Telemetry subsystem tests: determinism, default-off identity, Chrome
trace schema, exact latency reconstruction, counters and SLO attribution."""

from __future__ import annotations

import io
import json

import pytest

from repro.gpu import A100
from repro.model import get_config
from repro.serving import (
    PHASES,
    ClusterEngine,
    CounterRegistry,
    SCHEDULING_PRESETS,
    SYSTEM_PRESETS,
    ServingEngine,
    ServingMetrics,
    TelemetryConfig,
    Tracer,
    attribute_slo,
    collect_counters,
    make_bursty_workload,
    make_chat_workload,
    make_mixed_precision_workload,
    make_uniform_workload,
    trace_phase_records,
    write_chrome_trace,
)


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


def _engine(llama7b, max_seq_len=1024):
    return ServingEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                         max_seq_len=max_seq_len)


def _traced_run(llama7b, telemetry=True, preset="chunked-preempt", seed=5):
    engine = _engine(llama7b)
    workload = make_bursty_workload(num_requests=40, seed=seed)
    return engine.serve(workload, max_num_seqs=8,
                        scheduling=SCHEDULING_PRESETS[preset],
                        telemetry=telemetry)


def _trace_bytes(result) -> str:
    buf = io.StringIO()
    write_chrome_trace(buf, result.telemetry)
    return buf.getvalue()


# ----------------------------------------------------------------------
# Determinism + default-off identity
# ----------------------------------------------------------------------
def test_two_identical_traced_runs_export_byte_identical_traces(llama7b):
    a = _trace_bytes(_traced_run(llama7b))
    b = _trace_bytes(_traced_run(llama7b))
    assert a == b


def test_cluster_traced_runs_export_byte_identical_traces(llama7b):
    def run():
        cluster = ClusterEngine(llama7b, A100,
                                SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                                num_replicas=3, max_seq_len=1024)
        workload = make_bursty_workload(num_requests=60, seed=9)
        result = cluster.serve(
            workload, router="least-outstanding", max_num_seqs=8,
            scheduling=SCHEDULING_PRESETS["chunked-preempt"], telemetry=True)
        buf = io.StringIO()
        write_chrome_trace(buf, result.chrome_trace())
        return result, buf.getvalue()

    result_a, trace_a = run()
    _result_b, trace_b = run()
    assert trace_a == trace_b
    assert len(result_a.tracers) == 3


def _demoting_run(llama7b, telemetry=True):
    """Chat sessions on a 96-page FP16 pool: shared prefixes are demoted
    under pressure and later turns pay their dequantization."""
    engine = ServingEngine(llama7b, A100, SYSTEM_PRESETS["trt-fp16"],
                           max_seq_len=4096)
    capacity = 96 * engine.new_kv_manager().bytes_per_page()
    engine.kv_capacity_bytes = lambda: capacity
    workload = make_chat_workload(num_sessions=8, turns_per_session=4,
                                  system_prompt_len=192, user_len=32,
                                  assistant_len=64, think_time_s=6.0, seed=11)
    return engine.serve(workload, max_num_seqs=3,
                        scheduling=SCHEDULING_PRESETS["prefix-demote"],
                        telemetry=telemetry)


def test_tracing_does_not_perturb_the_simulation(llama7b):
    """A traced run commits the exact same schedule as an untraced one,
    with and without KV demotion."""
    for run in (_traced_run, _demoting_run):
        plain = run(llama7b, telemetry=None)
        traced = run(llama7b, telemetry=True)
        assert plain.total_time_s.hex() == traced.total_time_s.hex()
        assert plain.generated_tokens == traced.generated_tokens
        assert plain.num_iterations == traced.num_iterations
        assert plain.num_preemptions == traced.num_preemptions
        for a, b in zip(plain.metrics.requests, traced.metrics.requests):
            assert a == b
        assert plain.telemetry is None
        assert traced.telemetry is not None
    assert traced.prefix_stats.demoted_hit_tokens > 0
    dequants = [e for e in _load_trace(traced)["traceEvents"]
                if e["name"] == "kv_dequant"]
    assert dequants and all(e["ph"] == "n" for e in dequants)
    assert any(e["args"]["tokens"] > 0 for e in dequants)


def test_telemetry_off_records_nothing(llama7b):
    result = _traced_run(llama7b, telemetry=None)
    assert result.telemetry is None
    # Counters ride on every result, traced or not.
    assert result.counters is not None
    assert result.counters.get("engine_iterations_total") == \
        result.num_iterations


# ----------------------------------------------------------------------
# Chrome trace schema
# ----------------------------------------------------------------------
def _load_trace(result) -> dict:
    return json.loads(_trace_bytes(result))


def test_chrome_trace_schema(llama7b):
    trace = _load_trace(_traced_run(llama7b))
    events = trace["traceEvents"]
    assert events, "trace must not be empty"
    for event in events:
        assert event["ph"] in ("M", "X", "b", "n", "e", "C")
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event["ts"], (int, float))
        assert event["ts"] >= 0
        assert "name" in event and "cat" in event
        if event["ph"] == "X":
            assert event["dur"] >= 0
        if event["ph"] in ("b", "n", "e"):
            assert "id" in event
    # Metadata names the process and both threads.
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}


def test_chrome_trace_spans_nest_correctly(llama7b):
    """Every async begin has a matching end, at a later-or-equal ts, and
    phase spans lie inside their request's outer span."""
    trace = _load_trace(_traced_run(llama7b))
    outer: dict = {}
    for event in trace["traceEvents"]:
        if event.get("cat") != "request":
            continue
        key = (event["pid"], event["id"], event["name"])
        if event["ph"] == "b":
            outer.setdefault(key, []).append(event["ts"])
        elif event["ph"] == "e":
            assert key in outer and outer[key], f"unmatched end for {key}"
            start = outer[key].pop()
            assert event["ts"] >= start
    dangling = {k: v for k, v in outer.items() if v}
    assert not dangling, f"unclosed spans: {dangling}"


def test_iteration_slices_are_sequential_per_replica(llama7b):
    trace = _load_trace(_traced_run(llama7b))
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert slices
    end = 0.0
    for event in sorted(slices, key=lambda e: e["ts"]):
        assert event["ts"] >= end - 1e-6
        end = event["ts"] + event["dur"]
        assert event["args"]["committed_tokens"] >= 0


# ----------------------------------------------------------------------
# Exact reconstruction + attribution
# ----------------------------------------------------------------------
def test_trace_reconstructs_ttft_tpot_exactly(llama7b):
    result = _traced_run(llama7b)
    records = trace_phase_records(_load_trace(result))
    by_id = {m.request_id: m for m in result.metrics.requests}
    assert len(records) == len(by_id)
    for record in records:
        metrics = by_id[record.request_id]
        assert record.ttft.hex() == metrics.ttft.hex()
        assert record.tpot.hex() == metrics.tpot.hex()
        assert record.e2e_latency.hex() == metrics.e2e_latency.hex()


def test_phase_attribution_covers_the_ttft_window(llama7b):
    """Phase seconds sum to (almost exactly) each request's TTFT: the span
    model accounts for the whole window, leaving no unexplained gap."""
    result = _traced_run(llama7b)
    records = trace_phase_records(_load_trace(result))
    for record in records:
        accounted = sum(record.phase_s[p] for p in PHASES)
        assert accounted == pytest.approx(record.ttft, abs=1e-9)


def test_attribute_slo_flags_violators(llama7b):
    result = _traced_run(llama7b)
    trace = _load_trace(result)
    # An impossible TTFT objective: every request violates, and the
    # dominant phase is whichever eats the biggest share.
    att = attribute_slo(trace, ttft_slo_s=0.0, tpot_slo_s=1.0)
    assert att.attainment == 0.0
    assert len(att.violators) == len(att.records)
    assert att.dominant_phase() in PHASES
    # A no-op objective: nobody violates.
    att = attribute_slo(trace, ttft_slo_s=1e9, tpot_slo_s=1e9)
    assert att.attainment == 1.0
    assert att.dominant_phase() is None
    assert [r.request_id for r in att.worst(3)] == \
        [r.request_id for r in sorted(att.records,
                                      key=lambda r: -r.ttft)[:3]]


def _closing_event(request_id: int, ttft: float) -> dict:
    """A request span's closing event, as ``trace_phase_records`` reads it."""
    return {"cat": "request", "ph": "e", "name": f"req {request_id}",
            "id": str(request_id), "pid": 0, "ts": 0.0,
            "args": {"arrival_time_s": 0.0, "first_token_time_s": ttft,
                     "finish_time_s": ttft + 1.0, "output_len": 11}}


def test_attainment_matches_serving_metrics(llama7b):
    result = _traced_run(llama7b)
    att = attribute_slo(_load_trace(result), 0.05, 0.02)
    # Same per-request rule, exact timestamps -> same attainment as the
    # live metrics (no precision floors in this workload).
    assert att.attainment == result.metrics.slo_attainment(0.05, 0.02)
    # With precision floors, a request served below its floor fails the
    # SLO however fast it was, in the trace as in the live metrics.
    floored = _engine(llama7b, max_seq_len=4096).serve(
        make_mixed_precision_workload(120, seed=3), max_num_seqs=32,
        scheduling=SCHEDULING_PRESETS["chunked"], telemetry=True)
    below = sum(not m.precision_ok for m in floored.metrics.requests)
    assert below > 0
    att = attribute_slo(_load_trace(floored), 10.0, 1.0)
    assert att.attainment == floored.metrics.slo_attainment(10.0, 1.0) < 1.0
    assert len(att.violators) == below
    # A closing event without the precision args (an older trace) reads
    # as served at any precision.
    trace = _load_trace(floored)
    for event in trace["traceEvents"]:
        if event["ph"] == "e" and event["name"].startswith("req "):
            event["args"].pop("precision_floor_bits", None)
            event["args"].pop("served_precision_bits", None)
    assert attribute_slo(trace, 10.0, 1.0).attainment == 1.0
    # Attainment is good / n, as in the live metrics: with 1 violator in
    # 3 records, 1 - 1/3 would end one bit above 2/3.
    trace = {"traceEvents": [_closing_event(i, ttft)
                             for i, ttft in enumerate((0.01, 0.02, 0.5))]}
    att = attribute_slo(trace, 0.1, 0.2)
    assert len(att.violators) == 1
    assert att.attainment == 2 / 3 == \
        ServingMetrics(requests=att.records).slo_attainment(0.1, 0.2)


def test_preemption_stall_phase_is_attributed(llama7b, monkeypatch):
    """A run with preemptions produces stall spans on the victims."""
    engine = _engine(llama7b, max_seq_len=1536)
    monkeypatch.setattr(engine, "kv_capacity_bytes", lambda: 0.9 * (1 << 30))
    workload = make_uniform_workload(12, prompt_len=1024, output_len=512)
    result = engine.serve(workload,
                          scheduling=SCHEDULING_PRESETS["chunked-preempt"],
                          telemetry=True)
    assert result.num_preemptions > 0
    kinds = {e[1] for e in result.telemetry.events}
    assert "preempted" in kinds
    spans = result.telemetry.phase_spans()
    assert any(phase == "stall"
               for spans_ in spans.values() for phase, _, _ in spans_)


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_counter_registry_roundtrip_and_merge():
    a = CounterRegistry()
    a.set("x_total", 3)
    a.inc("x_total", 2)
    a.set("u_ratio", 0.25, kind="gauge")
    b = CounterRegistry()
    b.set("x_total", 10)
    b.set("y_total", 1)
    merged = CounterRegistry().merge(a).merge(b)
    assert merged.get("x_total") == 15
    assert merged.get("y_total") == 1
    assert merged.get("u_ratio") == 0.25
    text = merged.prometheus_text()
    assert "# TYPE repro_u_ratio gauge" in text
    assert "repro_x_total 15" in text
    assert a == CounterRegistry().merge(a)
    assert a != b
    with pytest.raises(ValueError):
        a.set("bad", 1, kind="histogram")


def test_collect_counters_matches_component_state(llama7b):
    engine = _engine(llama7b)
    workload = make_chat_workload(num_sessions=12, seed=2)
    result = engine.serve(workload, max_num_seqs=8,
                          scheduling=SCHEDULING_PRESETS["prefix-aware"])
    counters = result.counters
    assert counters.get("engine_generated_tokens_total") == \
        result.generated_tokens
    assert counters.get("scheduler_preemptions_total") == \
        result.num_preemptions
    assert counters.get("prefix_hit_tokens_total") == \
        result.prefix_stats.hit_tokens
    # With prefix caching, shared blocks stay resident after their owners
    # finish, so allocated > freed at end of run; without it the ledger
    # must balance exactly (checked below on a prefix-free run).
    assert counters.get("kv_pages_allocated_total") >= \
        counters.get("kv_pages_freed_total")

    plain = _engine(llama7b)
    plain_result = plain.serve(workload, max_num_seqs=8,
                               scheduling=SCHEDULING_PRESETS["chunked"])
    plain_counters = plain_result.counters
    assert plain_counters.get("kv_pages_allocated_total") == \
        plain_counters.get("kv_pages_freed_total")  # conservation


def test_cluster_counters_merge_replicas(llama7b):
    cluster = ClusterEngine(llama7b, A100,
                            SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=3, max_seq_len=1024)
    workload = make_bursty_workload(num_requests=45, seed=4)
    result = cluster.serve(workload, max_num_seqs=8,
                           scheduling=SCHEDULING_PRESETS["chunked"])
    merged = result.counters()
    assert merged.get("scheduler_finished_requests_total") == \
        result.num_finished
    assert merged.get("engine_generated_tokens_total") == \
        result.generated_tokens
    per_replica = sum(r.counters.get("kv_total_pages")
                      for r in result.replica_results)
    assert merged.get("kv_total_pages") == per_replica


# ----------------------------------------------------------------------
# Structured export (S1) + config validation
# ----------------------------------------------------------------------
def test_serving_result_to_json_is_serializable_and_complete(llama7b):
    result = _traced_run(llama7b)
    payload = json.loads(json.dumps(result.to_json()))
    assert payload["num_finished"] == result.num_finished
    assert payload["generation_throughput"] == result.generation_throughput
    assert payload["metrics"]["ttft"]["p99"] == result.metrics.ttft.p99
    assert payload["counters"]["engine_iterations_total"] == \
        result.num_iterations


def test_cluster_result_to_json(llama7b):
    cluster = ClusterEngine(llama7b, A100,
                            SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=2, max_seq_len=1024)
    workload = make_bursty_workload(num_requests=30, seed=6)
    result = cluster.serve(workload, max_num_seqs=8)
    payload = json.loads(json.dumps(result.to_json()))
    assert payload["num_replicas"] == 2
    assert len(payload["replica_results"]) == 2
    assert payload["generated_tokens"] == result.generated_tokens
    assert payload["counters"] == result.counters().as_dict()


def test_telemetry_config_validation(llama7b):
    with pytest.raises(ValueError):
        TelemetryConfig(sample_interval_s=0.0)
    for interval in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sample_interval_s"):
            TelemetryConfig(sample_interval_s=interval)
    with pytest.raises(TypeError):
        _traced_run(llama7b, telemetry="yes")
    # A cluster run builds one tracer per replica, so it takes a config
    # and refuses a ready-made Tracer.
    cluster = ClusterEngine(llama7b, A100, SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                            num_replicas=2)
    for bad in ("yes", Tracer()):
        with pytest.raises(TypeError, match="TelemetryConfig"):
            cluster.serve(make_uniform_workload(4, seed=0), telemetry=bad)
    # Recorder toggles: spans off -> no events, series off -> no samples.
    slim = _traced_run(
        llama7b, telemetry=TelemetryConfig(spans=False, timeseries=False))
    assert slim.telemetry.events == []
    assert slim.telemetry.series == []
    assert slim.telemetry.iterations  # iteration records still on
    custom_tracer = Tracer(replica_index=7, replica_name="probe")
    traced = _traced_run(llama7b, telemetry=custom_tracer)
    assert traced.telemetry is custom_tracer
    assert custom_tracer.chrome_trace()["traceEvents"][0]["pid"] == 7


def test_collect_counters_works_on_untraced_spec_run(llama7b):
    """Speculation counters surface in the registry."""
    from repro.serving import EngineStepper, SpeculativeConfig
    engine = _engine(llama7b)
    spec = SpeculativeConfig(draft_model=get_config("llama-68m"),
                             lookahead=2)
    stepper = EngineStepper(engine, max_num_seqs=4,
                            scheduling=SCHEDULING_PRESETS["chunked"],
                            speculative=spec)
    workload = make_bursty_workload(num_requests=10, seed=8)
    stepper.submit(list(workload.requests))
    stepper.run()
    counters = collect_counters(stepper)
    assert counters.get("spec_steps_total") == stepper.spec.stats.spec_steps
    assert counters.get("spec_committed_tokens_total") == \
        stepper.spec.stats.committed_tokens
