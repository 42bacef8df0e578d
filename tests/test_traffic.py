"""Tests for the production traffic layer: diurnal and flash-crowd arrival
processes, the JSONL trace format, multi-tenant SLO tiers with tier-aware
admission (deferral, aging floor, load shedding), the reactive autoscaler,
and the determinism guarantees of traced autoscaled multi-tenant runs."""

import io
import json

import pytest

from repro.gpu import A100, PCIE_GEN4
from repro.model import get_config
from repro.serving import (
    AutoscaleReport,
    AutoscalerConfig,
    ClusterEngine,
    ContinuousBatchingScheduler,
    FleetSnapshot,
    PagedKVCacheManager,
    ReactiveAutoscaler,
    Request,
    RequestState,
    SCHEDULING_PRESETS,
    ScalingEvent,
    SchedulingConfig,
    ServingEngine,
    TIERS,
    TenantSpec,
    Workload,
    assign_tenants,
    get_system,
    load_trace,
    make_diurnal_workload,
    make_flash_crowd_workload,
    make_tenant_pool,
    save_trace,
    write_chrome_trace,
)


@pytest.fixture(scope="module")
def llama7b():
    return get_config("llama-2-7b")


@pytest.fixture(scope="module")
def system():
    return get_system("qserve-w4a8kv4-chn")


def _manager(model, capacity_gib=10.0):
    return PagedKVCacheManager(model=model,
                               system=get_system("qserve-w4a8kv4-chn"),
                               capacity_bytes=capacity_gib * (1 << 30),
                               page_size=16, max_seq_len=1536)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
def test_diurnal_workload_basics():
    wl = make_diurnal_workload(200, base_rate=10.0, amplitude=0.8,
                               period_s=20.0, seed=3)
    arrivals = [r.arrival_time for r in wl.requests]
    assert len(wl) == 200
    assert arrivals == sorted(arrivals)
    assert all(b > a for a, b in zip(arrivals, arrivals[1:]))
    assert [r.request_id for r in wl.requests] == list(range(200))


def test_diurnal_workload_is_seeded():
    a = make_diurnal_workload(100, seed=1)
    b = make_diurnal_workload(100, seed=1)
    c = make_diurnal_workload(100, seed=2)
    assert [r.arrival_time for r in a.requests] == \
           [r.arrival_time for r in b.requests]
    assert [r.arrival_time for r in a.requests] != \
           [r.arrival_time for r in c.requests]


def test_diurnal_rate_actually_modulates():
    # With a strong amplitude the peak half-period must hold clearly more
    # arrivals than the trough half-period, across full cycles.
    period = 40.0
    wl = make_diurnal_workload(2000, base_rate=10.0, amplitude=0.9,
                               period_s=period, seed=5)
    peak = trough = 0
    for r in wl.requests:
        phase = (r.arrival_time % period) / period
        if phase < 0.5:      # sin > 0: above-base rate
            peak += 1
        else:
            trough += 1
    assert peak > 2 * trough


def test_diurnal_validation():
    with pytest.raises(ValueError):
        make_diurnal_workload(0)
    with pytest.raises(ValueError):
        make_diurnal_workload(10, amplitude=1.5)
    with pytest.raises(ValueError):
        make_diurnal_workload(10, base_rate=0.0)


def test_flash_crowd_spike_density():
    # A 10x spike over [10, 20) should hold roughly 10x the arrivals per
    # second of the surrounding baseline.
    wl = make_flash_crowd_workload(1500, base_rate=4.0,
                                   spikes=((10.0, 10.0, 10.0),), seed=9)
    in_spike = sum(1 for r in wl.requests if 10.0 <= r.arrival_time < 20.0)
    before = sum(1 for r in wl.requests if r.arrival_time < 10.0)
    assert before > 0 and in_spike > 0
    per_s_spike = in_spike / 10.0
    per_s_base = before / 10.0
    assert 5.0 < per_s_spike / per_s_base < 20.0
    arrivals = [r.arrival_time for r in wl.requests]
    assert arrivals == sorted(arrivals)


def test_flash_crowd_validation():
    with pytest.raises(ValueError):
        make_flash_crowd_workload(10, spikes=((0.0, -1.0, 2.0),))
    with pytest.raises(ValueError):
        make_flash_crowd_workload(10, spikes=((0.0, 1.0, 0.0),))
    with pytest.raises(ValueError):
        make_flash_crowd_workload(10, base_rate=0.0)


# ----------------------------------------------------------------------
# Tenants and tiers
# ----------------------------------------------------------------------
def test_tenant_pool_mix():
    pool = make_tenant_pool(4, free_fraction=0.5)
    assert [t.tier for t in pool] == ["paid", "paid", "free", "free"]
    assert make_tenant_pool(3, free_fraction=0.0) == tuple(
        TenantSpec(name=f"tenant-{i:02d}", tier="paid") for i in range(3))
    with pytest.raises(ValueError):
        make_tenant_pool(0)
    with pytest.raises(ValueError):
        TenantSpec(name="x", tier="vip")
    with pytest.raises(ValueError):
        TenantSpec(name="x", weight=0.0)


def test_assign_tenants_deterministic_and_weighted():
    wl = make_diurnal_workload(400, seed=1)
    assign_tenants(wl, tenants=4, free_fraction=0.5, seed=7)
    tags_a = [(r.tenant, r.tier) for r in wl.requests]
    wl2 = make_diurnal_workload(400, seed=1)
    assign_tenants(wl2, tenants=4, free_fraction=0.5, seed=7)
    assert tags_a == [(r.tenant, r.tier) for r in wl2.requests]
    assert {tier for _, tier in tags_a} == set(TIERS)
    # A heavily weighted tenant dominates the draw.
    wl3 = make_diurnal_workload(400, seed=1)
    assign_tenants(wl3, tenants=[TenantSpec("whale", weight=50.0),
                                 TenantSpec("minnow", tier="free")], seed=7)
    whale = sum(1 for r in wl3.requests if r.tenant == "whale")
    assert whale > 350


def test_tenant_stamping_does_not_change_arrivals():
    plain = make_diurnal_workload(50, seed=4)
    tagged = make_diurnal_workload(50, tenants=4, seed=4)
    assert [(r.arrival_time, r.prompt_len, r.output_len)
            for r in plain.requests] == \
           [(r.arrival_time, r.prompt_len, r.output_len)
            for r in tagged.requests]
    assert all(r.tenant is None and r.tier == "paid" for r in plain.requests)
    assert all(r.tenant is not None for r in tagged.requests)


def test_copy_fresh_preserves_tenant_and_tier():
    wl = make_flash_crowd_workload(20, tenants=4, seed=2)
    fresh = wl.copy_fresh()
    assert [(r.tenant, r.tier) for r in fresh.requests] == \
           [(r.tenant, r.tier) for r in wl.requests]


# ----------------------------------------------------------------------
# JSONL trace format
# ----------------------------------------------------------------------
def test_trace_round_trip(tmp_path):
    wl = make_flash_crowd_workload(40, tenants=4, free_fraction=0.5, seed=6)
    wl.requests[0].model = "llama-2-7b"
    path = tmp_path / "trace.jsonl"
    save_trace(wl, path)
    back = load_trace(path)
    assert [(r.request_id, r.arrival_time, r.prompt_len, r.output_len,
             r.tenant, r.tier, r.model) for r in back.requests] == \
           [(r.request_id, r.arrival_time, r.prompt_len, r.output_len,
             r.tenant, r.tier, r.model) for r in wl.requests]
    # Loaded requests are pristine: no engine-side progress carried over.
    assert all(r.state is RequestState.WAITING and r.generated == 0
               for r in back.requests)


def test_trace_load_sorts_and_renumbers():
    lines = [
        json.dumps({"arrival_s": 5.0, "prompt_tokens": 32,
                    "output_tokens": 4, "tier": "free"}),
        json.dumps({"arrival_s": 1.0, "prompt_tokens": 16,
                    "output_tokens": 8, "tenant": "acme"}),
    ]
    wl = load_trace(lines)
    assert [r.request_id for r in wl.requests] == [0, 1]
    assert [r.arrival_time for r in wl.requests] == [1.0, 5.0]
    assert wl.requests[0].tenant == "acme"
    assert wl.requests[0].tier == "paid"       # default
    assert wl.requests[1].tier == "free"


def test_trace_load_validates():
    with pytest.raises(ValueError, match="line 1.*missing 'arrival_s'"):
        load_trace([json.dumps({"prompt_tokens": 1, "output_tokens": 1})])
    with pytest.raises(ValueError, match="line 2.*unknown tier"):
        load_trace([
            json.dumps({"arrival_s": 0, "prompt_tokens": 1,
                        "output_tokens": 1}),
            json.dumps({"arrival_s": 1, "prompt_tokens": 1,
                        "output_tokens": 1, "tier": "platinum"}),
        ])
    with pytest.raises(ValueError, match="line 1.*invalid JSON"):
        load_trace(["{not json"])


@pytest.mark.parametrize("field,value,message", [
    ("arrival_s", float("nan"), "arrival_s must be a finite number"),
    ("arrival_s", float("inf"), "arrival_s must be a finite number"),
    ("arrival_s", -3, "arrival_s must be a finite number"),
    ("arrival_s", "soon", "arrival_s must be a finite number"),
    ("arrival_s", True, "arrival_s must be a finite number"),
    ("prompt_tokens", 10.9, "prompt_tokens must be a positive integer"),
    ("prompt_tokens", 10.0, "prompt_tokens must be a positive integer"),
    ("prompt_tokens", True, "prompt_tokens must be a positive integer"),
    ("prompt_tokens", 0, "prompt_tokens must be a positive integer"),
    ("prompt_tokens", "12", "prompt_tokens must be a positive integer"),
    ("output_tokens", -1, "output_tokens must be a positive integer"),
    ("output_tokens", None, "output_tokens must be a positive integer"),
])
def test_trace_load_rejects_bad_values(field, value, message):
    """Bad values fail at the trace boundary, naming the offending line."""
    good = {"arrival_s": 0.5, "prompt_tokens": 16, "output_tokens": 4}
    bad = dict(good, **{field: value})
    with pytest.raises(ValueError, match=f"trace line 2: {message}"):
        load_trace([json.dumps(good), json.dumps(bad)])


def test_trace_replay_reproducible(llama7b, system):
    wl = make_diurnal_workload(60, base_rate=20.0, period_s=10.0,
                               tenants=4, seed=8)
    buf = io.StringIO()
    save_trace(wl, buf)
    engine = ServingEngine(llama7b, A100, system, max_seq_len=2048)

    def replay():
        trace = load_trace(io.StringIO(buf.getvalue()))
        r = engine.serve(trace, max_num_seqs=16,
                         scheduling=SCHEDULING_PRESETS["tiered"])
        return json.dumps(r.to_json(), sort_keys=True)

    assert replay() == replay()


# ----------------------------------------------------------------------
# Tier-aware admission
# ----------------------------------------------------------------------
def _tiered_scheduler(llama7b, max_num_seqs=4, **kwargs):
    return ContinuousBatchingScheduler(
        kv_manager=_manager(llama7b),
        scheduling=SchedulingConfig(tier_admission=True, **kwargs),
        max_num_seqs=max_num_seqs)


def _mk(request_id, tier="paid", arrival=0.0, prompt=64, output=8):
    r = Request(request_id=request_id, prompt_len=prompt, output_len=output,
                arrival_time=arrival)
    r.tier = tier
    return r


def test_free_tier_deferred_under_seq_pressure(llama7b):
    # max_num_seqs=4 with the default 25% headroom: free-tier requests are
    # deferred once <= 1 slot stays open.
    sched = _tiered_scheduler(llama7b)
    paid = [_mk(i) for i in range(3)]
    free = [_mk(10 + i, tier="free") for i in range(2)]
    sched.submit(free + paid)
    admitted = sched.admit(now=0.0)
    assert [r.request_id for r in admitted] == [0, 1, 2]   # paid first
    assert sched.tier_deferrals == 2
    assert all(r.tier == "free" for r in sched.waiting)
    # Regression: deferrals are a constant-time pre-screen, not admission
    # scans — only the 3 paid requests were examined.
    assert sched.admission_scanned_requests == 3


def test_free_tier_admitted_without_pressure(llama7b):
    sched = _tiered_scheduler(llama7b, max_num_seqs=16)
    sched.submit([_mk(0, tier="free"), _mk(1)])
    admitted = sched.admit(now=0.0)
    # No pressure: both admit, paid still ranked first.
    assert [r.request_id for r in admitted] == [1, 0]
    assert sched.tier_deferrals == 0


def test_aging_floor_promotes_deferred_free_tier(llama7b):
    sched = _tiered_scheduler(llama7b)   # TIER_AGING_S = 5.0
    sched.submit([_mk(i) for i in range(3)] + [_mk(9, tier="free")])
    sched.admit(now=0.0)
    assert sched.admit(now=4.0) == []            # still deferred
    deferred_before = sched.tier_deferrals
    admitted = sched.admit(now=6.0)              # waited past TIER_AGING_S
    assert [r.request_id for r in admitted] == [9]
    assert sched.tier_deferrals == deferred_before


def test_free_tier_shedding(llama7b):
    sched = _tiered_scheduler(llama7b, free_tier_drop_after_s=1.0)
    paid = [_mk(i) for i in range(4)]
    sched.submit(paid)
    sched.admit(now=0.0)                          # fleet saturated
    late_free = _mk(20, tier="free", arrival=0.0)
    sched.submit([late_free])
    sched.admit(now=0.5)                          # not yet past the cutoff
    assert late_free.state is not RequestState.DROPPED
    sched.admit(now=2.0)
    assert late_free.state is RequestState.DROPPED
    assert late_free.drop_time == 2.0
    assert sched.dropped == [late_free]
    assert sched.drops_by_tier == {"free": 1}
    assert late_free not in sched.waiting


def test_paid_tier_never_shed(llama7b):
    sched = _tiered_scheduler(llama7b, free_tier_drop_after_s=1.0)
    sched.submit([_mk(i) for i in range(4)])
    sched.admit(now=0.0)
    late_paid = _mk(20, arrival=0.0)
    sched.submit([late_paid])
    sched.admit(now=50.0)
    assert late_paid.state is not RequestState.DROPPED
    assert sched.dropped == []


def test_tier_admission_off_is_bitwise_identical(llama7b, system):
    # Stamping tenants must not change a default-scheduling run at all.
    engine = ServingEngine(llama7b, A100, system, max_seq_len=2048)
    plain = make_diurnal_workload(60, base_rate=15.0, period_s=10.0, seed=2)
    tagged = make_diurnal_workload(60, base_rate=15.0, period_s=10.0,
                                   tenants=4, seed=2)
    ra = engine.serve(plain, max_num_seqs=16,
                      scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    rb = engine.serve(tagged, max_num_seqs=16,
                      scheduling=SCHEDULING_PRESETS["chunked-preempt"])
    assert ra.total_time_s == rb.total_time_s
    assert ra.generated_tokens == rb.generated_tokens
    assert ra.num_finished == rb.num_finished
    assert ra.num_dropped == rb.num_dropped == 0


def test_tiered_serving_favours_paid_ttft(llama7b, system):
    # Under sustained overload, tier-aware admission must buy paid requests
    # a better TTFT than free ones.
    engine = ServingEngine(llama7b, A100, system, max_seq_len=2048)
    wl = make_diurnal_workload(150, base_rate=40.0, amplitude=0.5,
                               period_s=10.0, prompt_len=256, output_len=32,
                               tenants=4, free_fraction=0.5, seed=3)
    r = engine.serve(wl, max_num_seqs=8,
                     scheduling=SCHEDULING_PRESETS["tiered"])
    by_tier = r.metrics.by_tier()
    assert set(by_tier) == {"paid", "free"}
    assert by_tier["paid"].ttft.mean < by_tier["free"].ttft.mean
    payload = r.to_json()
    assert set(payload["metrics"]["by_tier"]) == {"paid", "free"}


def test_tiered_shedding_serving_counters(llama7b, system):
    engine = ServingEngine(llama7b, A100, system, max_seq_len=2048)
    # Enough backlog that late free-tier requests queue past the preset's
    # 20 s shed cutoff while the sequence cap stays saturated.
    wl = make_diurnal_workload(500, base_rate=80.0, amplitude=0.3,
                               period_s=10.0, prompt_len=512, output_len=64,
                               tenants=4, free_fraction=0.5, seed=3)
    r = engine.serve(wl, max_num_seqs=4,
                     scheduling=SCHEDULING_PRESETS["tiered-shed"],
                     telemetry=True)
    assert r.num_dropped > 0
    assert r.num_dropped <= r.num_unserved    # dropped is a subset
    counters = r.counters.as_dict()
    assert counters["scheduler_dropped_requests_total"] == r.num_dropped
    assert counters["scheduler_dropped_tier_free_total"] == r.num_dropped
    assert counters["scheduler_tier_deferrals_total"] > 0
    # Dropped requests carry an instant marker in the Chrome trace and
    # close their span at the drop.
    events = r.telemetry.chrome_trace()["traceEvents"]
    drops = [e for e in events if e.get("name") == "dropped"]
    assert len(drops) == r.num_dropped


# ----------------------------------------------------------------------
# Autoscaler unit behaviour
# ----------------------------------------------------------------------
def test_autoscaler_config_validation():
    with pytest.raises(ValueError):
        AutoscalerConfig(min_replicas=0)
    with pytest.raises(ValueError):
        AutoscalerConfig(min_replicas=3, max_replicas=2)
    with pytest.raises(ValueError):
        AutoscalerConfig(interval_s=0.0)
    with pytest.raises(ValueError):
        AutoscalerConfig(slo_floor=0.0)
    with pytest.raises(ValueError):
        ReactiveAutoscaler(AutoscalerConfig(min_replicas=2), max_replicas=1)


@pytest.mark.parametrize("field, value", [
    ("interval_s", float("nan")),
    ("interval_s", float("inf")),
    ("up_cooldown_s", float("nan")),
    ("down_cooldown_s", float("inf")),
    ("provision_s", float("inf")),
    ("provision_s", float("nan")),
    ("scale_up_queue_depth", float("nan")),
    ("scale_down_outstanding", float("inf")),
    ("ttft_slo_s", float("nan")),
    ("ttft_slo_s", float("inf")),
    ("min_replicas", 1.5),
    ("min_replicas", True),
    ("max_replicas", 2.0),
    ("slo_min_samples", 5.0),
], ids=lambda v: repr(v))
def test_autoscaler_config_rejects_non_finite_and_non_integer(field, value):
    """NaN slips through ``x <= 0`` checks, and a NaN tick interval would
    keep the cluster loop from ever reaching its stop rule."""
    with pytest.raises(ValueError, match=field):
        AutoscalerConfig(**{field: value})


def test_cold_start_prices_weight_transfer():
    cfg = AutoscalerConfig(provision_s=2.0)
    bytes_ = 13 * (1 << 30)
    assert cfg.cold_start_s(bytes_) == \
        2.0 + PCIE_GEN4.transfer_latency(bytes_)
    assert cfg.cold_start_s(0) == pytest.approx(2.0 + PCIE_GEN4.latency_s)


def _snap(now, active=1, starting=0, queue=0, outstanding=0,
          finished=0, ok=0):
    return FleetSnapshot(now=now, num_active=active, num_starting=starting,
                         queue_depth=queue, outstanding=outstanding,
                         recent_finished=finished, recent_slo_ok=ok)


def test_autoscaler_scales_up_on_queue_depth():
    cfg = AutoscalerConfig(scale_up_queue_depth=4.0, up_cooldown_s=10.0)
    scaler = ReactiveAutoscaler(cfg, max_replicas=4)
    assert scaler.decide(_snap(0.0, queue=5, outstanding=5)) == \
        ("up", "queue-depth")
    assert scaler.decide(_snap(0.0, queue=4, outstanding=4)) is None
    # Per provisioned replica: 2 active + 1 starting need > 12 queued.
    assert scaler.decide(
        _snap(0.0, active=2, starting=1, queue=12, outstanding=12)) is None


def test_autoscaler_up_cooldown():
    cfg = AutoscalerConfig(scale_up_queue_depth=1.0, up_cooldown_s=10.0)
    scaler = ReactiveAutoscaler(cfg, max_replicas=4)
    assert scaler.decide(_snap(5.0, queue=9)) is not None
    scaler.commit(ScalingEvent(5.0, "up", 1, 1, "queue-depth"))
    assert scaler.decide(_snap(9.0, queue=9)) is None       # cooling down
    assert scaler.decide(_snap(15.0, queue=9)) is not None


def test_autoscaler_respects_max_replicas():
    cfg = AutoscalerConfig(scale_up_queue_depth=1.0, up_cooldown_s=0.0)
    scaler = ReactiveAutoscaler(cfg, max_replicas=2)
    assert scaler.decide(_snap(0.0, active=2, queue=100)) is None
    assert scaler.decide(_snap(0.0, active=1, starting=1, queue=100)) is None


def test_autoscaler_slo_signal():
    cfg = AutoscalerConfig(scale_up_queue_depth=100.0, up_cooldown_s=0.0,
                           ttft_slo_s=0.2, slo_floor=0.9, slo_min_samples=5)
    scaler = ReactiveAutoscaler(cfg, max_replicas=4)
    assert scaler.decide(_snap(0.0, finished=10, ok=8)) == \
        ("up", "slo-attainment")
    assert scaler.decide(_snap(0.0, finished=10, ok=9)) is None
    assert scaler.decide(_snap(0.0, finished=4, ok=0)) is None  # too few


def test_autoscaler_scale_down_hysteresis():
    cfg = AutoscalerConfig(min_replicas=1, up_cooldown_s=0.0,
                           down_cooldown_s=30.0, scale_down_outstanding=1.0)
    scaler = ReactiveAutoscaler(cfg, max_replicas=4)
    idle = lambda t, n: _snap(t, active=n, queue=0, outstanding=0)
    assert scaler.decide(idle(0.0, 2)) == ("down", "idle")
    scaler.commit(ScalingEvent(0.0, "down", 1, 1, "idle"))
    assert scaler.decide(idle(10.0, 2)) is None     # down cooldown
    assert scaler.decide(idle(31.0, 2)) is not None
    # A recent scale-up also blocks scale-down for down_cooldown_s.
    scaler.commit(ScalingEvent(40.0, "up", 2, 2, "queue-depth"))
    assert scaler.decide(idle(50.0, 3)) is None
    assert scaler.decide(idle(71.0, 3)) is not None
    # Never below the floor; never while a replica is starting.
    assert scaler.decide(idle(100.0, 1)) is None
    assert scaler.decide(_snap(100.0, active=2, starting=1)) is None


def test_autoscale_report_accounting():
    report = AutoscaleReport(
        windows=[[(0.0, 10.0)], [(2.0, 6.0), (8.0, 10.0)]],
        gpus_per_replica=2, makespan_s=10.0)
    assert report.replica_seconds == pytest.approx(16.0)
    assert report.gpu_seconds == pytest.approx(32.0)
    assert report.peak_replicas == 2
    payload = report.to_json()
    assert payload["gpu_seconds"] == pytest.approx(32.0)
    assert payload["peak_replicas"] == 2


# ----------------------------------------------------------------------
# Autoscaled cluster serving
# ----------------------------------------------------------------------
def _flash_workload(n=220):
    return make_flash_crowd_workload(
        n, base_rate=2.0, spikes=((5.0, 30.0, 6.0),),
        prompt_len=512, output_len=200, tenants=4, free_fraction=0.5, seed=7)


def _autoscaler_config():
    return AutoscalerConfig(min_replicas=1, max_replicas=4, interval_s=2.0,
                            scale_up_queue_depth=2.0, up_cooldown_s=2.0,
                            down_cooldown_s=4.0, scale_down_outstanding=6.0,
                            ttft_slo_s=0.5)


def _autoscaled_cluster(llama7b, system):
    return ClusterEngine(llama7b, A100, system, num_replicas=4,
                         max_seq_len=2048)


def test_autoscaled_serving_lifecycle(llama7b, system):
    cluster = _autoscaled_cluster(llama7b, system)
    r = cluster.serve(_flash_workload(), max_num_seqs=8,
                      scheduling=SCHEDULING_PRESETS["tiered"],
                      autoscaler=_autoscaler_config())
    assert r.num_finished + r.num_unserved == 220
    assert r.num_unserved == 0
    report = r.autoscale
    assert report is not None
    assert report.num_scale_ups > 0
    assert report.num_scale_downs > 0
    assert 1 <= report.peak_replicas <= 4
    # Windows are well-formed and the fleet never exceeds the pool.
    for slot in report.windows:
        for start, end in slot:
            assert 0.0 <= start <= end
    # The autoscaled fleet must cost less than holding the whole pool for
    # the makespan.
    assert r.gpu_seconds < 4 * r.total_time_s
    payload = r.to_json()
    assert payload["autoscale"]["num_scale_ups"] == report.num_scale_ups
    assert payload["gpu_seconds"] == r.gpu_seconds


def test_autoscaled_drain_migrates_decodes(llama7b, system):
    # The drain path must move in-flight decodes (not kill them): with
    # aggressive scale-down thresholds some scale-down happens while
    # requests are still decoding, producing priced migrations.
    cluster = _autoscaled_cluster(llama7b, system)
    r = cluster.serve(_flash_workload(), max_num_seqs=8,
                      scheduling=SCHEDULING_PRESETS["tiered"],
                      autoscaler=_autoscaler_config())
    assert r.autoscale.num_scale_downs > 0
    assert r.num_unserved == 0
    if r.num_migrations:
        migrated = [m for m in r.metrics.requests if m.migrations > 0]
        assert migrated
        assert all(m.transfer_delay_s >= 0.0 for m in migrated)


def test_autoscaler_rejects_disaggregation(llama7b, system):
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=2,
                            max_seq_len=2048, roles=["prefill", "decode"])
    with pytest.raises(ValueError, match="mutually exclusive"):
        cluster.serve(_flash_workload(40), autoscaler=AutoscalerConfig())


def test_autoscaler_rejects_oversized_pool_request(llama7b, system):
    cluster = ClusterEngine(llama7b, A100, system, num_replicas=2,
                            max_seq_len=2048)
    with pytest.raises(ValueError, match="exceeds the replica pool"):
        cluster.serve(_flash_workload(40),
                      autoscaler=AutoscalerConfig(max_replicas=8))


def test_autoscaled_beats_static_peak_fleet_on_gpu_seconds(llama7b, system):
    # The capacity-planning claim at test scale: same SLO attainment class,
    # strictly fewer GPU-seconds than the equal-peak static fleet.
    wl = _flash_workload()
    cluster = _autoscaled_cluster(llama7b, system)
    auto = cluster.serve(wl.copy_fresh(), max_num_seqs=8,
                         scheduling=SCHEDULING_PRESETS["tiered"],
                         autoscaler=_autoscaler_config())
    static = cluster.serve(wl.copy_fresh(), max_num_seqs=8,
                           scheduling=SCHEDULING_PRESETS["tiered"])
    assert auto.num_unserved == static.num_unserved == 0
    assert auto.gpu_seconds < static.gpu_seconds
    slo_auto = auto.metrics.slo_attainment(1.0, 0.05)
    slo_static = static.metrics.slo_attainment(1.0, 0.05)
    assert slo_auto >= slo_static - 0.1


# ----------------------------------------------------------------------
# Determinism of traced autoscaled multi-tenant runs
# ----------------------------------------------------------------------
def test_autoscaled_multitenant_run_is_deterministic(llama7b, system):
    def run():
        cluster = _autoscaled_cluster(llama7b, system)
        return cluster.serve(_flash_workload(), max_num_seqs=8,
                             scheduling=SCHEDULING_PRESETS["tiered-shed"],
                             autoscaler=_autoscaler_config(),
                             telemetry=True)

    a, b = run(), run()
    # Hex-exact result identity (json.dumps floats round-trip exactly).
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)
    # Byte-identical Chrome traces.
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_chrome_trace(buf_a, a.chrome_trace())
    write_chrome_trace(buf_b, b.chrome_trace())
    assert buf_a.getvalue() == buf_b.getvalue()
