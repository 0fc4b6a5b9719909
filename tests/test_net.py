"""Unit tests for repro.net (delay space and transport)."""

import numpy as np
import pytest

from repro.net import DELAY_SPACE_DIMENSIONS, DelaySpace, Network
from repro.net.transport import ServiceConfig
from repro.sim import QUERY, UPDATE, Simulator
from repro.telemetry import MetricsRegistry, Telemetry


def make_space(n=16, **kwargs):
    return DelaySpace(n, np.random.default_rng(0), **kwargs)


class TestDelaySpace:
    def test_five_dimensional_by_default(self):
        ds = make_space()
        assert DELAY_SPACE_DIMENSIONS == 5
        assert ds.coordinates.shape == (16, 5)

    def test_symmetric(self):
        ds = make_space()
        for a, b in [(0, 1), (3, 9), (14, 2)]:
            assert ds.latency_ms(a, b) == pytest.approx(ds.latency_ms(b, a))

    def test_zero_self_latency(self):
        ds = make_space()
        assert ds.latency_ms(5, 5) == 0.0

    def test_positive_off_diagonal(self):
        ds = make_space()
        assert all(
            ds.latency_ms(a, b) > 0 for a in range(4) for b in range(4) if a != b
        )

    def test_base_offset_floor(self):
        ds = make_space(base_ms=50.0, jitter_ms=0.0)
        assert ds.latency_ms(0, 1) >= 50.0

    def test_latency_seconds(self):
        ds = make_space()
        assert ds.latency(0, 1) == pytest.approx(ds.latency_ms(0, 1) / 1000.0)

    def test_matrix_agrees_with_pointwise(self):
        ds = make_space(n=8)
        m = ds.matrix_ms()
        for a in range(8):
            for b in range(8):
                assert m[a, b] == pytest.approx(ds.latency_ms(a, b))

    def test_mean_latency_scale_calibration(self):
        # With default calibration mean one-way should be order-100 ms.
        ds = DelaySpace(64, np.random.default_rng(1))
        assert 60 <= ds.mean_latency_ms() <= 160

    def test_nearest(self):
        ds = make_space()
        cands = [3, 7, 11]
        best = ds.nearest(0, cands)
        assert best in cands
        assert all(
            ds.latency_ms(0, best) <= ds.latency_ms(0, c) for c in cands
        )

    def test_nearest_empty(self):
        with pytest.raises(ValueError):
            make_space().nearest(0, [])

    def test_index_bounds(self):
        ds = make_space(4)
        with pytest.raises(IndexError):
            ds.latency_ms(0, 4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DelaySpace(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            make_space(scale_ms=-1)


class TestLatencyMemo:
    """``latency`` memoises on the unordered pair; every float it hands
    out is the one a never-memoised space computes with
    ``np.linalg.norm``."""

    N = 64

    @staticmethod
    def _reference_ms(space, a, b):
        """The delay as the paper's formula reads, through NumPy's norm."""
        if a == b:
            return 0.0
        c = space.coordinates
        dist = float(np.linalg.norm(c[a] - c[b]))
        jitter = float(space._jitter[a, b]) if space._jitter is not None else 0.0
        return space.base_ms + space.scale_ms * dist + jitter

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("jitter_ms", [5.0, 0.0])
    def test_bit_identical_to_the_unmemoised_expression(self, seed, jitter_ms):
        def space():
            return DelaySpace(
                self.N, np.random.default_rng(seed), jitter_ms=jitter_ms
            )

        memo, fresh = space(), space()
        for a in range(self.N):
            for b in range(self.N):
                want = self._reference_ms(fresh, a, b) / 1000.0
                assert fresh.latency_ms(a, b) / 1000.0 == want
                assert memo.latency(a, b) == want  # cold or mirrored entry
                assert memo.latency(b, a) == want
                assert memo.latency(a, b) == want  # warm
            assert memo.latency(a, a) == 0.0
        assert not fresh._latency  # the reference never touched its memo

    def test_bounds_checked_on_cold_and_warm_memo(self):
        ds = make_space(4)
        for _ in ("cold", "warm"):
            for a, b in [(0, 4), (4, 0), (-1, 2), (2, -1), (4, 4)]:
                with pytest.raises(IndexError):
                    ds.latency(a, b)
            assert ds.latency(0, 3) == ds.latency_ms(0, 3) / 1000.0

    def test_inputs_of_the_memo_are_read_only(self):
        ds = make_space(4)
        with pytest.raises(ValueError, match="read-only"):
            ds.coordinates[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            ds._jitter[0, 1] = 0.5

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_nearest_unchanged(self, seed):
        ds = DelaySpace(self.N, np.random.default_rng(seed))
        rng = np.random.default_rng(seed + 100)
        for node in range(self.N):
            cands = rng.choice(self.N, size=9, replace=False).tolist()
            lats = [ds.latency_ms(node, c) for c in cands]
            assert ds.nearest(node, cands) == cands[int(np.argmin(lats))]


class TestNetwork:
    def _net(self):
        sim = Simulator()
        ds = make_space(8, jitter_ms=0.0)
        net = Network(sim, ds, MetricsRegistry())
        return sim, ds, net

    def test_delivery_after_latency(self):
        sim, ds, net = self._net()
        got = []
        net.register(1, lambda m: got.append((m.payload, sim.now)))
        net.send(0, 1, QUERY, 64, payload="hi")
        sim.run()
        payload, t = got[0]
        assert payload == "hi"
        assert t == pytest.approx(ds.latency(0, 1) + net.processing_delay)

    def test_bytes_accounted(self):
        sim, ds, net = self._net()
        net.send(0, 1, QUERY, 64)
        net.send(0, 2, UPDATE, 100)
        assert net.metrics.bytes_total(QUERY) == 64
        assert net.metrics.bytes_total(UPDATE) == 100

    def test_on_delivery_override(self):
        sim, ds, net = self._net()
        got = []
        net.register(1, lambda m: got.append("handler"))
        net.send(0, 1, QUERY, 1, on_delivery=lambda m: got.append("override"))
        sim.run()
        assert got == ["override"]

    def test_failed_destination_drops(self):
        sim, ds, net = self._net()
        got = []
        net.register(1, lambda m: got.append(m))
        net.fail_node(1)
        net.send(0, 1, QUERY, 64)
        sim.run()
        assert got == []
        assert net.counters()["dropped"] == 1
        # Bytes still hit the wire from the (healthy) sender.
        assert net.metrics.bytes_total(QUERY) == 64

    def test_failed_sender_transmits_nothing(self):
        sim, ds, net = self._net()
        net.fail_node(0)
        net.send(0, 1, QUERY, 64)
        sim.run()
        assert net.metrics.bytes_total(QUERY) == 0

    def test_recovered_node_receives(self):
        sim, ds, net = self._net()
        got = []
        net.register(1, lambda m: got.append(m))
        net.fail_node(1)
        net.recover_node(1)
        net.send(0, 1, QUERY, 64)
        sim.run()
        assert len(got) == 1

    def test_unregistered_destination_is_noop(self):
        sim, ds, net = self._net()
        net.send(0, 3, QUERY, 64)
        sim.run()  # no handler: message silently discarded

    def test_is_failed(self):
        _, _, net = self._net()
        net.fail_node(2)
        assert net.is_failed(2)
        assert not net.is_failed(3)

    def test_counters_snapshot_isolation(self):
        # The series sampler stores counters() snapshots in ring buffers;
        # a snapshot must stay frozen while the network keeps counting.
        sim, ds, net = self._net()
        net.register(1, lambda m: None)
        net.send(0, 1, QUERY, 64)
        sim.run()
        before = net.counters()
        assert before["sent"] == 1 and before["delivered"] == 1
        net.fail_node(2)
        net.send(0, 1, QUERY, 64)
        net.send(0, 2, QUERY, 64)
        sim.run()
        after = net.counters()
        assert after["sent"] == 3
        assert after["dropped"] == 1
        # The earlier snapshot is unaffected by later traffic, and
        # mutating it never writes through to the live counters.
        assert before["sent"] == 1 and before["dropped"] == 0
        before["sent"] = 999
        assert net.counters()["sent"] == 3


#: message kinds of the equivalence workload, by how they are handled
NODE, KIND, BATCH = "", "kind-handled", "batch-handled"

SCENARIOS = ["no_loss", "loss", "failed_sender", "failed_receiver", "shedding"]


def _contiguous_requests(seed):
    """Seeded ``send_many`` request list in which every ``(dst, kind)``
    group is contiguous — what the update plane sends. (A group split
    across the list is by design still delivered together.)"""
    rng = np.random.default_rng(seed)
    pairs = [(dst, kind) for dst in (1, 2, 3, 4) for kind in (NODE, KIND, BATCH)]
    rng.shuffle(pairs)
    return [
        (dst, int(rng.integers(1, 500)), f"{dst}/{kind}/{i}", kind, None)
        for dst, kind in pairs
        for i in range(int(rng.integers(1, 4)))
    ]


def _drive(scenario, batched):
    """Send the request list from node 0 — as one ``send_many`` or as one
    ``send`` per request — and return everything observable."""
    sim = Simulator()
    tel = Telemetry(lambda: sim.now)
    loss_rng = np.random.default_rng(11)
    net = Network(
        sim, make_space(8, jitter_ms=0.0),
        loss_rate=0.3 if scenario == "loss" else 0.0,
        rng=loss_rng, telemetry=tel,
    )
    handled, dropped = [], []
    for node in (1, 2, 3, 4):
        net.register(node, lambda m: handled.append(("node", m.payload)))
        if scenario == "shedding":
            net.set_service(
                node, ServiceConfig(service_time=0.01, queue_limit=1)
            )
    net.register_kind(KIND, lambda m: handled.append(("kind", m.payload)))
    net.register_kind_batch(
        BATCH, lambda ms: handled.extend(("batch", m.payload) for m in ms)
    )
    if scenario == "failed_sender":
        net.fail_node(0)
    if scenario == "failed_receiver":
        net.fail_node(2)

    def on_dropped(msg, reason):
        dropped.append((msg.payload, reason))

    requests = _contiguous_requests(5)
    if batched:
        msgs = net.send_many(
            0, requests, UPDATE, phase="replicate", on_dropped=on_dropped
        )
    else:
        msgs = [
            net.send(0, dst, UPDATE, size, payload=payload, phase="replicate",
                     kind=kind, on_dropped=on_dropped, trace=trace)
            for dst, size, payload, kind, trace in requests
        ]
    sim.run()
    return {
        "msg_ids": [m.msg_id for m in msgs],
        "counters": net.counters(),
        "rows": net.metrics.rows(),
        "handled": handled,
        "dropped": dropped,
        "next_loss_draw": loss_rng.random(),
        "events": [
            (e.ts, e.name, e.kind, e.dur, e.span_id, list(e.tags.items()))
            for e in tel.events()
        ],
    }


class TestOneTransportPath:
    """``send`` and ``send_many`` share one send-time and one
    arrival-time disposition: a batch is N sends that share delivery
    events."""

    _net = TestNetwork._net

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_send_many_equals_n_sends(self, scenario):
        single = _drive(scenario, batched=False)
        batch = _drive(scenario, batched=True)
        events_single, events_batch = single.pop("events"), batch.pop("events")
        assert batch == single
        if scenario == "shedding":
            # A delivery group's transit spans close together, before its
            # messages are offered to the service queue, so within that
            # one instant the batch orders its events differently (and
            # numbers its spans in that order).
            def canonical(events):
                return sorted(
                    (ts, dict(tags)["msg_id"], name, kind, dur, tags)
                    for ts, name, kind, dur, _, tags in events
                )

            assert canonical(events_batch) == canonical(events_single)
        else:
            assert events_batch == events_single
        # The scenario exercised what it names.
        counters = single["counters"]
        expect_nonzero = {
            "no_loss": "delivered", "loss": "lost", "failed_sender": "dropped",
            "failed_receiver": "dropped", "shedding": "shed",
        }[scenario]
        assert counters[expect_nonzero] > 0
        if scenario == "failed_sender":
            assert counters["sent"] == 0 and not single["handled"]
            assert single["rows"] == []  # nothing hit the wire or the books

    def test_send_many_validates_each_message_size(self):
        # A negative size hidden in a positive-total (dst, kind) group is
        # the same error as in ``send``, and nothing of the call happens.
        sim, ds, net = self._net()
        got = []
        net.register(1, got.append)
        with pytest.raises(ValueError, match="negative message size: -10"):
            net.send(0, 1, QUERY, -10)
        with pytest.raises(ValueError, match="negative message size: -10"):
            net.send_many(
                0, [(1, 100, "a", "", None), (1, -10, "b", "", None)], QUERY
            )
        sim.run()
        assert got == []
        assert net.metrics.rows() == []
        assert net.counters()["sent"] == 0 and sim.processed == 0

    def test_message_is_a_slotted_value(self):
        sim, ds, net = self._net()
        msg = net.send(0, 1, QUERY, 64, payload="p", kind=BATCH)
        assert not hasattr(msg, "__dict__")
        assert (msg.src, msg.dst, msg.category, msg.size_bytes) == (0, 1, QUERY, 64)
        assert (msg.payload, msg.msg_id, msg.kind, msg.trace) == ("p", 0, BATCH, None)
        with pytest.raises(AttributeError):
            msg.extra = 1

    def test_single_send_reaches_batch_handler(self):
        sim, ds, net = self._net()
        groups = []
        net.register_kind_batch(BATCH, groups.append)
        msg = net.send(0, 1, QUERY, 64, kind=BATCH)
        sim.run()
        assert groups == [[msg]]
        assert net.counters()["delivered"] == 1

    def test_on_rejected_fires_once_per_shed_send(self):
        sim, ds, net = self._net()
        net.set_service(1, ServiceConfig(service_time=1.0, queue_limit=0))
        net.register(1, lambda m: None)
        rejected, reasons = [], []
        for payload in ("served", "shed-1", "shed-2"):
            net.send(
                0, 1, QUERY, 10, payload=payload,
                on_dropped=lambda m, reason: reasons.append(reason),
                on_rejected=lambda m: rejected.append(m.payload),
            )
        sim.run()
        assert rejected == ["shed-1", "shed-2"]
        assert reasons == ["shed", "shed"]
        # One reject notice per shed message, charged to the sender.
        assert net.metrics.per_server(QUERY, "reject") == {0: (2, 32)}
