"""Plain decode iterations priced as a row, and closed-form serving oracles.

A plain decode step's latency is ``((G + A(c)) + O) + C``: only the
attention term depends on the context.  :meth:`ServingEngine.decode_row`
prices a run of contexts in one pass from the attention roofline's row
form, and the coast and ``_plan_latency`` read every plain decode
iteration's price from it.  The row is the same formula as
:meth:`ServingEngine.mixed_step` in another shape, so the first tests pin
it to ``mixed_step`` as float hex over every system preset, three model
shapes (MHA, GQA and MoE) and TP degrees 1, 2 and 4.  The guard test
checks that the coast prices only the slots its window can reach.

The oracles at the end are built from ``prefill``/``decode_step`` and the
request lengths alone, never from the engine's row: a lone request and a
batch of identical requests admitted together must end exactly where the
closed form says.
"""

import pytest

from repro.gpu import A100, KV_KERNELS, attention_decode_latency
from repro.gpu.attention_kernel import attention_decode_row
from repro.model import get_config
from repro.serving import (
    EngineStepper,
    ParallelConfig,
    Request,
    SYSTEM_PRESETS,
    ServingEngine,
    Workload,
    make_uniform_workload,
)

MODELS = ("llama-2-7b", "llama-3-8b", "mixtral-8x7b")
#: Contexts 0 (priced as 1), 1 and 2, a stride through the range, and the
#: last two contexts a 4096-token engine reaches.
CONTEXTS = (0, 1, 2) + tuple(range(3, 4095, 157)) + (4095, 4096)


@pytest.mark.parametrize("system", list(SYSTEM_PRESETS))
def test_decode_row_matches_mixed_step_bit_for_bit(system):
    for name in MODELS:
        for tp in (1, 2, 4):
            engine = ServingEngine(get_config(name), A100,
                                   SYSTEM_PRESETS[system], max_seq_len=4096,
                                   parallel=ParallelConfig(tp_degree=tp))
            for batch in range(1, 65):
                got = engine.decode_row(batch, 0, 3)
                for context in CONTEXTS[3:]:
                    got += engine.decode_row(batch, context, 1)
                want = [engine.mixed_step((), batch, c).total.hex()
                        for c in CONTEXTS]
                assert [v.hex() for v in got] == want, (name, tp, batch)


def test_attention_latency_is_its_row_of_one():
    for kernel in KV_KERNELS.values():
        for heads, kv_heads in ((32, 32), (32, 8), (40, 40)):
            row = attention_decode_row(A100, kernel, 16, 1, 300, heads,
                                       kv_heads, 128)
            for context in (1, 2, 77, 300):
                one = attention_decode_latency(A100, kernel, 16, context,
                                               heads, kv_heads, 128)
                assert one.total.hex() == row[context - 1].hex()
                assert [one.total] == attention_decode_row(
                    A100, kernel, 16, context, 1, heads, kv_heads, 128)


def test_the_coast_prices_only_the_slots_it_can_reach(monkeypatch):
    """On decode-long-shaped traffic every quiet window ends at the next
    arrival, long before its first finish.  The coast fills a missing slot
    with the slots the time left allows, so it writes at most 1.5 times the
    slots any iteration reads; filling to the window's end would write
    many times more."""
    written, read = [0], set()
    decode_row = ServingEngine.decode_row
    plan_latency = ServingEngine._plan_latency
    coast = EngineStepper._coast

    def counted_row(self, batch, first_context, count):
        written[0] += count
        return decode_row(self, batch, first_context, count)

    def recorded_plan(self, plan):
        if not plan.prefill_chunks:
            read.add((len(plan.decode), plan.decode_context))
        return plan_latency(self, plan)

    def recorded_coast(self, t):
        scheduler = self.scheduler
        batch, context = len(scheduler.running), scheduler.decode_context_len()
        first = scheduler.decode_iterations
        coast(self, t)
        ran = scheduler.decode_iterations - first
        if self._quiet_bound > self.now:  # the cut window read one more
            ran += 1
        read.update((batch, context + i) for i in range(ran))

    monkeypatch.setattr(ServingEngine, "decode_row", counted_row)
    monkeypatch.setattr(ServingEngine, "_plan_latency", recorded_plan)
    monkeypatch.setattr(EngineStepper, "_coast", recorded_coast)
    engine = ServingEngine(get_config("llama-2-7b"), A100,
                           SYSTEM_PRESETS["qserve-w4a8kv4-chn"],
                           max_seq_len=4096)
    result = engine.serve(
        make_uniform_workload(300, prompt_len=512, output_len=512,
                              arrival_rate=40.0, seed=0),
        max_num_seqs=128)
    assert result.num_finished == 300
    assert len(read) > 200
    assert written[0] <= 1.5 * len(read), (written[0], len(read))


# ----------------------------------------------------------------------
# Closed-form oracles
# ----------------------------------------------------------------------
def _engine(system="qserve-w4a8kv4-chn", tp=1):
    return ServingEngine(get_config("llama-2-7b"), A100,
                         SYSTEM_PRESETS[system], max_seq_len=4096,
                         parallel=ParallelConfig(tp_degree=tp))


def _closed_form(engine, batch, prompt_len, output_len):
    """``(prefill done, first token, finish)`` of ``batch`` identical
    requests admitted together at time 0 under stall prefill: the priced
    prefill, then one decode step per output token at contexts
    ``prompt_len``, ``prompt_len + 1``, ... added to the clock in order."""
    clock = prefilled = engine.prefill(batch, prompt_len).total
    first = None
    for generated in range(output_len):
        clock += engine.decode_step(batch, prompt_len + generated).total
        if first is None:
            first = clock
    return prefilled, first, clock


@pytest.mark.parametrize("system,tp", [("qserve-w4a8kv4-chn", 1),
                                       ("trt-fp16", 2), ("atom-w4a4", 4)])
@pytest.mark.parametrize("prompt_len", [1, 128, 1000])
def test_a_lone_request_waits_only_for_its_priced_prefill(system, tp,
                                                          prompt_len):
    """Alone, a request's prefill ends at its priced prefill, and its first
    token follows one decode step later: the engine stamps the first token
    when the first decode iteration commits it."""
    engine = _engine(system, tp)
    request = Request(request_id=0, prompt_len=prompt_len, output_len=20)
    engine.serve(Workload([request]))
    prefilled, first, finish = _closed_form(engine, 1, prompt_len, 20)
    assert request.prefill_done_time.hex() == prefilled.hex()
    assert request.first_token_time.hex() == first.hex()
    assert request.finish_time.hex() == finish.hex()


@pytest.mark.parametrize("system,tp", [("qserve-w4a8kv4-chn", 1),
                                       ("trt-w8a8", 2),
                                       ("qserve-w4a8kv4-grp", 4)])
@pytest.mark.parametrize("batch,prompt_len,output_len",
                         [(2, 64, 300), (16, 512, 200), (48, 100, 90)])
def test_identical_requests_end_at_the_closed_form(system, tp, batch,
                                                   prompt_len, output_len):
    engine = _engine(system, tp)
    requests = [Request(request_id=i, prompt_len=prompt_len,
                        output_len=output_len) for i in range(batch)]
    result = engine.serve(Workload(requests), max_num_seqs=batch)
    prefilled, first, finish = _closed_form(engine, batch, prompt_len,
                                            output_len)
    assert result.num_finished == batch
    assert result.num_iterations == 1 + output_len
    for request in requests:
        assert request.prefill_done_time.hex() == prefilled.hex()
        assert request.first_token_time.hex() == first.hex()
        assert request.finish_time.hex() == finish.hex()
    assert result.total_time_s.hex() == finish.hex()
