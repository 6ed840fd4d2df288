"""The iteration-level request plane: continuous batching + paged KV."""

import pytest

from repro.errors import ReproError
from repro.llm import LlmBackend
from repro.serve.continuous import ContinuousBatchingSimulation
from repro.serve.loadgen import constant_trace, poisson_trace
from repro.serve.simulator import EndpointSimulation

PROMPTS = [f"prompt-{i:02d}" for i in range(16)]


def llm_backend(seed=7):
    return LlmBackend(part="T4", seed=seed)


def run_continuous(endpoint, backend, trace, **kwargs):
    return ContinuousBatchingSimulation(endpoint, backend,
                                        **kwargs).run(trace)


class TestConservation:
    def test_every_request_is_accounted_for(self, make_endpoint):
        ep = make_endpoint(max_queue_depth=16)
        trace = poisson_trace(150.0, 600.0, PROMPTS, seed=3)
        report = run_continuous(ep, llm_backend(), trace)
        assert report.submitted == len(trace)
        assert (report.completed + report.shed + report.expired
                == report.submitted)

    def test_light_load_completes_everything(self, make_endpoint):
        ep = make_endpoint()
        report = run_continuous(ep, llm_backend(),
                                constant_trace(20.0, 500.0, PROMPTS))
        assert report.completed == report.submitted
        assert report.shed == report.expired == 0

    def test_teardown_leaves_no_kv_or_weights_behind(self, make_endpoint):
        ep = make_endpoint()
        sim = ContinuousBatchingSimulation(ep, llm_backend())
        sim.run(constant_trace(40.0, 400.0, PROMPTS, seed=1))
        assert sim.policy.decoders
        for st in sim.policy.decoders.values():   # every pool emptied
            assert st.kv.live_seqs == 0 and st.kv.live_pages == 0
            assert st.pool.leak_report().ok
            assert st.pool.free_bytes == st.pool.total_bytes
            # the weights and the KV reservation, nothing per page
            assert st.pool.alloc_count == st.pool.free_count == 2
        sim.check_invariants()

    def test_interruption_releases_the_replicas_kv(self, make_endpoint):
        # reclaim the replica mid-decode: running sequences displace or
        # shed, and the reclaimed replica's pool is torn down through the
        # same audit as the survivors'
        ep = make_endpoint(min_replicas=1, max_replicas=2)
        sim = ContinuousBatchingSimulation(ep, llm_backend())
        report = sim.run(constant_trace(40.0, 400.0, PROMPTS, seed=1),
                         interruptions=[(100.0, 0)])
        assert report.interrupted_replicas == 1
        assert (report.completed + report.shed + report.expired
                == report.submitted)
        victim = sim.policy.interrupted[0]
        assert victim.kv.peak_pages > 0           # it was mid-decode
        assert victim.kv.live_seqs == 0 and victim.kv.live_pages == 0
        assert victim.pool.leak_report().ok
        assert victim.pool.free_bytes == victim.pool.total_bytes
        assert victim.pool.alloc_count == victim.pool.free_count == 2
        assert 0 not in sim.policy.decoders
        sim.check_invariants()

    @pytest.mark.parametrize("reclaim_ms", [300.0, 380.0])
    def test_reclaimed_replicas_kv_peak_is_reported(self, make_endpoint,
                                                    reclaim_ms):
        # replica 0 peaks at 70 pages before its reclaim; the survivor
        # peaks lower (300 ms) or never decodes at all (380 ms)
        ep = make_endpoint(min_replicas=1, max_replicas=2)
        sim = ContinuousBatchingSimulation(ep, llm_backend())
        report = sim.run(constant_trace(40.0, 400.0, PROMPTS, seed=1),
                         interruptions=[(reclaim_ms, 0)])
        victim = sim.policy.interrupted[0].kv
        assert victim.peak_pages == 70
        assert report.kv_peak_pages == victim.peak_pages
        assert report.kv_page_utilization == victim.peak_page_utilization


class TestTeardownAudit:
    """``run()`` tears every replica down, then audits what is left."""

    @staticmethod
    def _run_leaking(make_endpoint, leak):
        sim = ContinuousBatchingSimulation(make_endpoint(), llm_backend())
        teardown = sim.policy.teardown

        def leaky_teardown():
            for st in sim.policy.decoders.values():
                leak(st)
            teardown()

        sim.policy.teardown = leaky_teardown
        return sim.run(constant_trace(20.0, 200.0, PROMPTS, seed=1))

    def test_a_sequence_left_in_a_cache_is_a_kv_leak(self, make_endpoint):
        with pytest.raises(ReproError, match="KV ledger leak on replica "
                           r"\d+: 1 sequences / 2 pages"):
            self._run_leaking(make_endpoint,
                              lambda st: st.kv.allocate(-1, 20))

    def test_a_stray_pool_allocation_is_a_pool_leak(self, make_endpoint):
        with pytest.raises(ReproError, match="device pool leak on replica"):
            self._run_leaking(make_endpoint,
                              lambda st: st.pool.allocate(64, tag="stray"))


class TestLlmReportFields:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.cloud.session import CloudSession
        from repro.serve.endpoint import Endpoint, EndpointConfig

        ep = Endpoint(CloudSession(), EndpointConfig(
            name="cont-report", instance_type="g4dn.xlarge",
            initial_replicas=1, min_replicas=1, max_replicas=1,
            max_batch_size=8, max_queue_depth=64))
        try:
            return run_continuous(
                ep, llm_backend(),
                poisson_trace(60.0, 800.0, PROMPTS, seed=5))
        finally:
            ep.delete()

    def test_token_throughput_is_populated(self, report):
        assert report.total_tokens > 0
        assert report.prefill_tokens > 0
        assert report.tokens_per_sec > 0
        assert report.tokens_per_sec_p50 > 0

    def test_ttft_sits_under_full_latency(self, report):
        assert 0 < report.ttft_p50_ms <= report.latency_p50_ms
        assert report.ttft_p50_ms <= report.ttft_p95_ms <= report.ttft_p99_ms
        assert report.ttft_mean_ms > 0

    def test_inter_token_latency_percentiles(self, report):
        assert 0 < report.itl_p50_ms <= report.itl_p99_ms

    def test_kv_peak_observed(self, report):
        assert report.kv_peak_pages > 0
        assert 0 < report.kv_page_utilization <= 1.0

    def test_ttft_exemplars_link_real_requests(self, report):
        # (value_ms, request_id) pairs, worst first — same shape as the
        # latency exemplars the one-shot plane already emits
        assert report.ttft_exemplars
        values = [v for v, _ in report.ttft_exemplars]
        assert values == sorted(values, reverse=True)
        for value, request_id in report.ttft_exemplars:
            assert value > 0 and request_id.isdigit()

    def test_report_round_trips_through_json(self, report):
        from repro.serve.report import SloReport
        clone = SloReport.from_dict(report.to_dict())
        assert clone.to_json() == report.to_json()


class TestPagedKvPressure:
    def test_tiny_budget_forces_preemption_without_oom(self, make_endpoint):
        backend = llm_backend()
        budget = backend.spec.kv_bytes_per_token * 16 * 40   # 40 pages
        ep = make_endpoint(max_batch_size=8, max_queue_depth=128)
        sim = ContinuousBatchingSimulation(
            ep, backend, kv_budget_bytes=budget)
        report = sim.run(poisson_trace(40.0, 800.0, PROMPTS, seed=2))
        assert report.preemptions > 0
        assert report.kv_peak_pages <= 40        # the ledger held the line
        assert (report.completed + report.shed + report.expired
                == report.submitted)

    def test_strict_preflight_rejects_overcommitted_config(
            self, make_endpoint):
        # 512 × 640 tokens of worst-case KV cannot fit a g4dn.xlarge;
        # the simulator refuses before a single event fires
        ep = make_endpoint(max_batch_size=512, max_queue_depth=512)
        sim = ContinuousBatchingSimulation(ep, llm_backend())
        with pytest.raises(ReproError, match="MEM-PEAK-OOM"):
            sim.run(constant_trace(10.0, 100.0, PROMPTS))

    def test_page_tokens_validation(self, make_endpoint):
        with pytest.raises(ReproError):
            ContinuousBatchingSimulation(make_endpoint(), llm_backend(),
                                         kv_page_tokens=0)

    def test_negative_kv_budget_is_rejected_up_front(self, make_endpoint):
        with pytest.raises(ReproError, match="kv_budget_bytes"):
            ContinuousBatchingSimulation(make_endpoint(), llm_backend(),
                                         kv_budget_bytes=-1)
        # an empty budget is legal: no request can ever fit, so all shed
        report = run_continuous(make_endpoint(), llm_backend(),
                                constant_trace(20.0, 100.0, PROMPTS),
                                kv_budget_bytes=0)
        assert report.shed == report.submitted > 0

    def test_non_iteration_backend_rejected(self, make_endpoint, backend):
        with pytest.raises(ReproError):
            ContinuousBatchingSimulation(make_endpoint(), backend)


class TestDeadlineAwareAdmission:
    def test_hopeless_requests_expire_at_admission(self, make_endpoint):
        # deadlines shorter than any prefill: everything expires, nothing
        # occupies KV or decodes
        ep = make_endpoint(default_deadline_ms=0.01, max_queue_depth=64)
        report = run_continuous(ep, llm_backend(),
                                constant_trace(50.0, 300.0, PROMPTS))
        assert report.expired == report.submitted
        assert report.completed == 0
        assert report.total_tokens == 0


class TestDeterminismAndBaseline:
    def test_reports_are_byte_identical_across_runs(self):
        from repro.cloud.session import CloudSession
        from repro.serve.endpoint import Endpoint, EndpointConfig

        def one_run():
            ep = Endpoint(CloudSession(), EndpointConfig(
                name="det", instance_type="g4dn.xlarge",
                initial_replicas=1, min_replicas=1, max_replicas=1,
                max_batch_size=8, max_queue_depth=64))
            try:
                return run_continuous(
                    ep, llm_backend(),
                    poisson_trace(80.0, 600.0, PROMPTS, seed=9))
            finally:
                ep.delete()

        assert one_run().to_json() == one_run().to_json()

    def test_llm_backend_drops_into_the_oneshot_plane(self, make_endpoint):
        # ModelBackend contract: the same backend serves under the plain
        # dynamic-batching simulator, no LLM fields populated
        ep = make_endpoint()
        report = EndpointSimulation(ep, llm_backend()).run(
            constant_trace(10.0, 400.0, PROMPTS))
        assert report.completed == report.submitted
        assert report.total_tokens == 0
