"""Tests for the multi-process serving fleet (``repro.serving.procfleet``).

The process-spawning tests keep fleet spins to a minimum — each
``ProcessFleet`` pays a real ``spawn``-context interpreter start per
worker — and drive everything through the public front door so the wire
protocol, the socket-backed policy store, and the death accounting are
exercised exactly as ``repro loadgen --procs`` uses them.
"""

import asyncio
import json
import socket
import struct
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import NoReissue, SingleR
from repro.distributions import Deterministic
from repro.scenarios import coerce_scenario
from repro.scenarios.engines import serving_backend
from repro.serving.backends import SyntheticBackend
from repro.serving.fleet import PolicyStore, ServingFleet, ShardWorker
from repro.serving.hedge import HedgedClient, RequestOutcome
from repro.serving.loadgen import (
    RECORD_VERSION,
    LoadGenerator,
    as_record,
    validate_record,
)
from repro.serving.metrics import ServingMetrics
from repro.serving.procfleet import (
    MAX_FRAME_BYTES,
    MSG_BYE,
    MSG_METRICS_REPLY,
    MSG_REQUEST,
    MSG_RESPONSE,
    MSG_SHED,
    PolicyStoreServer,
    ProcessFleet,
    RemotePolicyStore,
    decode_payload,
    encode_frame,
    read_frame,
    recv_frame_blocking,
)


def quick_scenario():
    return coerce_scenario("fleet-tail-quick").check()


# ---------------------------------------------------------------------------
# Wire protocol (no processes)
# ---------------------------------------------------------------------------


def response(qid=123, latency=4.5, winner="primary", n_planned=1,
             n_reissues=0, cancelled=0, deadline=False, pair=None):
    return RequestOutcome(
        query_id=qid,
        latency_ms=latency,
        winner=winner,
        n_planned=n_planned,
        n_reissues=n_reissues,
        cancelled_attempts=cancelled,
        deadline_exceeded=deadline,
        pair=pair,
    )


def round_trip(msg_type, body):
    frame = encode_frame(msg_type, body)
    # 4-byte length prefix (type byte + payload), then the type byte.
    assert struct.unpack("!I", frame[:4])[0] == len(frame) - 4
    assert frame[4] == msg_type
    return decode_payload(frame[4], frame[5:])


class TestFraming:
    def test_binary_request_response_round_trip(self):
        # REQUEST: seq, query id, store version in a fixed 24-byte record.
        assert round_trip(MSG_REQUEST, (7, 123, 4)) == (7, 123, 4)
        assert len(encode_frame(MSG_REQUEST, (2**40, -5, 2**33))) == 5 + 24
        # RESPONSE: every outcome field survives, the latency bit for bit.
        outcomes = [
            response(latency=0.1 + 0.2),
            response(latency=5e-324, winner="reissue", n_reissues=2,
                     cancelled=1),
            response(latency=float("inf"), winner="none", deadline=True,
                     n_planned=0),
            response(latency=12.75, pair=(3.0000000000000004, 1e-9)),
        ]
        for seq, out in enumerate(outcomes):
            frame = encode_frame(MSG_RESPONSE, (seq, out))
            assert len(frame) == 5 + 55  # fixed width, pair or not
            got_seq, got = decode_payload(frame[4], frame[5:])
            assert got_seq == seq
            assert got == out
            assert struct.pack("!d", got.latency_ms) == struct.pack(
                "!d", out.latency_ms
            )

    def test_metrics_reply_is_json_not_pickle(self, rng):
        metrics = ServingMetrics()
        for x in rng.lognormal(3.0, 0.8, 500):
            metrics.record(response(latency=float(x)))
        frame = encode_frame(
            MSG_METRICS_REPLY, {"metrics": metrics.to_dict(), "stats": {}}
        )
        # Strict JSON on the wire (an empty digest's extremes are null).
        json.loads(frame[5:].decode())
        body = decode_payload(frame[4], frame[5:])
        back = ServingMetrics.from_dict(body["metrics"])
        assert back.completed == 500
        assert back.quantile(0.99) == metrics.quantile(0.99)
        empty = round_trip(MSG_BYE, {"metrics": ServingMetrics().to_dict()})
        assert empty["metrics"]["digest"]["min"] is None

    def test_blocking_and_async_readers_agree(self):
        parent, child = socket.socketpair()
        try:
            body = (1, response(qid=2, winner="none", deadline=True))
            parent.sendall(encode_frame(MSG_RESPONSE, body))
            parent.sendall(encode_frame(MSG_SHED, {"seq": 3, "qid": 4}))
            assert recv_frame_blocking(child) == (MSG_RESPONSE, body)
            assert recv_frame_blocking(child) == (
                MSG_SHED, {"seq": 3, "qid": 4}
            )

            async def read_async():
                reader = asyncio.StreamReader()
                reader.feed_data(encode_frame(MSG_REQUEST, (1, 2, 3)))
                reader.feed_eof()
                return await read_frame(reader)

            assert asyncio.run(read_async()) == (MSG_REQUEST, (1, 2, 3))
        finally:
            parent.close()
            child.close()

    def test_partial_frame_raises_on_closed_peer(self):
        parent, child = socket.socketpair()
        # A REQUEST header of the right width (25 = type + 24), cut short.
        parent.sendall(b"\x00\x00\x00\x19\x01trunc")
        parent.close()
        with pytest.raises(ConnectionError):
            recv_frame_blocking(child)
        child.close()

    def test_oversized_length_fails_fast_without_allocating(self):
        # A corrupt prefix claiming ~4 GiB: rejected from the header
        # alone, with the peer still open (no wait, no big buffer).
        header = struct.pack("!IB", 0xFFFFFFF0, MSG_BYE)
        parent, child = socket.socketpair()
        child.settimeout(5.0)
        try:
            parent.sendall(header)
            tracemalloc.start()
            with pytest.raises(ConnectionError, match="BYE"):
                recv_frame_blocking(child)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 64 * 1024
        finally:
            parent.close()
            child.close()


# ---------------------------------------------------------------------------
# Framing fuzz: malformed input raises a named error, never hangs
# ---------------------------------------------------------------------------


def _feed_and_read(data: bytes, eof: bool):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        # A reader that waited on a malformed header would time out here.
        return await asyncio.wait_for(read_frame(reader), timeout=2.0)

    return asyncio.run(go())


def _recv_from(data: bytes, close: bool):
    parent, child = socket.socketpair()
    child.settimeout(2.0)  # a hang surfaces as TimeoutError, not a pass
    try:
        parent.sendall(data)
        if close:
            parent.shutdown(socket.SHUT_WR)
        return recv_frame_blocking(child)
    finally:
        parent.close()
        child.close()


_VALID_FRAMES = [
    encode_frame(MSG_REQUEST, (1, 2, 3)),
    encode_frame(MSG_RESPONSE, (9, response(pair=(1.0, 2.0)))),
    encode_frame(MSG_SHED, {"seq": 1, "qid": 2}),
]


class TestFramingFuzz:
    @given(
        msg_type=st.integers(0, 255),
        payload=st.one_of(
            st.binary(max_size=80),
            st.binary(min_size=24, max_size=24),  # REQUEST width
            st.binary(min_size=55, max_size=55),  # RESPONSE width
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_decode_payload_raises_only_named_errors(self, msg_type, payload):
        try:
            decode_payload(msg_type, payload)
        except ConnectionError as exc:
            assert "frame" in str(exc)

    @given(
        msg_type=st.sampled_from([MSG_REQUEST, MSG_RESPONSE]),
        width=st.integers(0, 120),
    )
    @settings(max_examples=100, deadline=None)
    def test_wrong_width_binary_frames_name_their_type(self, msg_type, width):
        expected = 24 if msg_type == MSG_REQUEST else 55
        frame = struct.pack("!IB", width + 1, msg_type) + bytes(width)
        name = "REQUEST" if msg_type == MSG_REQUEST else "RESPONSE"
        if width == expected:
            assert _feed_and_read(frame, eof=True)[0] == msg_type
            return
        # Rejected from the header, before any payload byte is read.
        for read in (
            lambda: _feed_and_read(frame[:5], eof=False),
            lambda: _recv_from(frame[:5], close=False),
            lambda: decode_payload(msg_type, bytes(width)),
        ):
            with pytest.raises(ConnectionError, match=name):
                read()

    @given(
        frame=st.sampled_from(_VALID_FRAMES),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_truncated_frames_raise_on_eof(self, frame, data):
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(asyncio.IncompleteReadError):
            _feed_and_read(frame[:cut], eof=True)
        with pytest.raises(ConnectionError):
            _recv_from(frame[:cut], close=True)

    @given(
        length=st.one_of(
            st.just(0), st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1)
        ),
        msg_type=st.sampled_from([MSG_REQUEST, MSG_SHED, MSG_BYE]),
    )
    @settings(max_examples=50, deadline=None)
    def test_out_of_range_lengths_are_refused_at_once(self, length, msg_type):
        header = struct.pack("!IB", length, msg_type)
        for read in (
            lambda: _feed_and_read(header, eof=False),
            lambda: _recv_from(header, close=False),
        ):
            with pytest.raises(ConnectionError, match="frame length"):
                read()

    @given(msg_type=st.integers(0, 255).filter(
        lambda t: t not in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0x14, 0x15, 0x16)
    ))
    @settings(max_examples=50, deadline=None)
    def test_unknown_types_are_refused_at_once(self, msg_type):
        header = struct.pack("!IB", 8, msg_type)
        for read in (
            lambda: _feed_and_read(header, eof=False),
            lambda: _recv_from(header, close=False),
            lambda: decode_payload(msg_type, b"{}"),
        ):
            with pytest.raises(ConnectionError, match="unknown frame type"):
                read()


# ---------------------------------------------------------------------------
# The socket-backed PolicyStore (threads only, no processes)
# ---------------------------------------------------------------------------


class TestRemotePolicyStore:
    def test_adopts_exactly_when_advertised_version_increases(
        self, tmp_path
    ):
        server = PolicyStoreServer(
            PolicyStore(SingleR(10.0, 0.5)), runtime_dir=str(tmp_path)
        )
        round_trips = []
        real_get = server.store.get

        def counted_get():
            round_trips.append(1)
            return real_get()

        server.store.get = counted_get
        try:
            a = RemotePolicyStore(server.address)
            b = RemotePolicyStore(server.address)
            assert len(round_trips) == 2  # one snapshot each at start
            assert (b.version, b.policy) == (1, SingleR(10.0, 0.5))
            # A shard over b reads it only when a request's version stamp
            # is newer than the version it serves: one round trip per
            # newer stamp, none for a stamp that is not newer.
            client = HedgedClient(
                SyntheticBackend(Deterministic(1.0), 0.0), NoReissue()
            )
            shard = ShardWorker(1, client, b)

            def serve(*stamps):
                async def go():
                    for qid, stamp in enumerate(stamps):
                        assert await shard.submit(qid, stamp) is not None

                asyncio.run(go())

            serve(0, 1, 1, 1)
            assert client.policy == SingleR(10.0, 0.5)
            assert len(round_trips) == 3
            # A publish from one client lands at v2 with the in-process
            # store's provenance; the publisher's cache updates in place.
            assert a.publish(SingleR(25.0, 0.3), source="clientA") == 2
            assert (a.version, a.policy) == (2, SingleR(25.0, 0.3))
            assert server.store.publishes == [(1, "init"), (2, "clientA")]
            serve(1, 1)
            assert client.policy == SingleR(10.0, 0.5)
            assert len(round_trips) == 3
            serve(2)
            assert client.policy == SingleR(25.0, 0.3)
            assert len(round_trips) == 4
            serve(2, 2, 1)
            assert len(round_trips) == 4
            a.close()
            b.close()
        finally:
            server.close()

    def test_tcp_transport(self):
        server = PolicyStoreServer(PolicyStore(), transport="tcp")
        try:
            client = RemotePolicyStore(server.address, transport="tcp")
            assert client.get() == (0, None)
            assert client.publish(SingleR(5.0, 0.2), source="t") == 1
            server.store.publish(SingleR(6.0, 0.1), source="direct")
            assert client.get() == (2, SingleR(6.0, 0.1))
            client.close()
        finally:
            server.close()

    def test_unknown_transport_is_named(self):
        with pytest.raises(ValueError, match="unix, tcp"):
            PolicyStoreServer(PolicyStore(), transport="carrier-pigeon")


# ---------------------------------------------------------------------------
# The process fleet itself
# ---------------------------------------------------------------------------


class TestProcessFleet:
    def test_smoke_counters_metrics_and_record(self, tmp_path):
        scenario = quick_scenario()
        fleet = ProcessFleet(
            2,
            scenario,
            policy=scenario.build_policy(),
            time_scale=0.0,
            seed=3,
        )
        try:
            generator = LoadGenerator(fleet, rng=3)
            result = generator.run(80, mode="open", target_rps=0)
            assert result.issued == 80
            assert result.completed == 80
            assert result.transport == "unix"
            # Per-worker and merged counter identity.
            stats = fleet.stats()
            assert stats["transport"] == "unix"
            assert len(stats["per_shard"]) == 2
            for worker in stats["per_shard"]:
                assert (
                    worker["issued"]
                    == worker["completed"] + worker["shed"] + worker["errors"]
                )
                assert worker["alive"]
            pids = {worker["pid"] for worker in stats["per_shard"]}
            assert len(pids) == 2  # real processes, not threads
            # Merged metrics come from the workers' own sketches.
            merged = fleet.metrics()
            assert merged.completed == 80
            assert merged.quantile(0.99) >= merged.quantile(0.50) > 0
            # The run shapes into a valid version-2 record.
            record = as_record(result, scenario.name, {"procs": 2})
            assert record["version"] == RECORD_VERSION
            assert record["results"]["transport"] == "unix"
            assert validate_record(record) == []
            # Round-trips through JSON (the committed-artifact path).
            assert validate_record(json.loads(json.dumps(record))) == []
        finally:
            fleet.close()
        # close() is idempotent and reaps every worker.
        fleet.close()
        for worker in fleet.workers:
            assert not worker.process.is_alive()

    def test_hot_path_never_polls_process_liveness(self, monkeypatch):
        import multiprocessing.process

        scenario = quick_scenario()
        fleet = ProcessFleet(
            2,
            scenario,
            policy=scenario.build_policy(),
            time_scale=0.0,
            seed=4,
        )
        try:
            calls = []
            real = multiprocessing.process.BaseProcess.is_alive

            def counted(process):
                calls.append(process.pid)
                return real(process)

            monkeypatch.setattr(
                multiprocessing.process.BaseProcess, "is_alive", counted
            )
            generator = LoadGenerator(fleet, rng=4)
            result = generator.run(200, mode="open", target_rps=0)
            assert result.completed == 200
            # Death is learnt from EOF on the request connection: no
            # waitpid per request (the old front door made three).
            assert calls == []
            assert all(worker.alive for worker in fleet.workers)
        finally:
            monkeypatch.undo()
            fleet.close()

    def test_each_run_closes_its_request_connection(self):
        # LoadGenerator.run is one asyncio.run per call: the request
        # connection opened on a run's loop must be closed when that loop
        # ends, not leaked until garbage collection.
        scenario = quick_scenario()
        fleet = ProcessFleet(
            1,
            scenario,
            policy=scenario.build_policy(),
            time_scale=0.0,
            seed=6,
        )
        try:
            worker = fleet.workers[0]
            generator = LoadGenerator(fleet, rng=6)
            assert generator.run(30, mode="open", target_rps=0).completed == 30
            first = worker._writer
            first_sock = first.transport.get_extra_info("socket")
            assert first.transport.is_closing()
            assert first_sock.fileno() == -1
            second = generator.run(30, mode="open", target_rps=0)
            assert second.issued == 30 and second.shed == 0
            assert worker._writer is not first
            assert worker._writer.transport.is_closing()
            assert worker.alive
        finally:
            fleet.close()

    def test_refit_on_one_worker_reaches_every_worker(self):
        # The PR 7 acceptance test, across process boundaries: worker 0
        # carries the AutoTuner; its refit must land in the parent-side
        # store (v >= 2) and be adopted by workers 1 and 2 through their
        # RemotePolicyStore before the run ends.
        scenario = quick_scenario()
        initial = SingleR(0.0, 0.2)
        fleet = ProcessFleet(
            3,
            scenario,
            policy=initial,
            probe_fraction=0.2,
            autotune=dict(
                percentile=0.95,
                budget=0.2,
                batch_size=50,
                refit_interval=100,
                window=1_000,
                use_correlation=False,
            ),
            time_scale=0.0,
            seed=7,
        )
        try:
            generator = LoadGenerator(fleet, rng=7)
            result = generator.run(900, mode="closed", concurrency=8)
            assert result.issued == 900
            stats = fleet.stats()
            tuned = stats["per_shard"][0]
            assert tuned["refits"] >= 1, "the tuned worker never refit"
            assert fleet.store.version >= 2
            sources = [source for _, source in fleet.store.publishes]
            assert any(s.startswith("shard0:refit") for s in sources)
            fitted_spec = tuned["policy_spec"]
            for worker in stats["per_shard"][1:]:
                assert worker["store_version"] >= 2
                assert worker["policy_spec"] == fitted_spec
        finally:
            fleet.close()

    def test_worker_crash_keeps_front_door_responsive(self):
        # Kill one worker mid-run: the fleet must keep serving from the
        # survivor, never hang, and account for every issued request
        # (in-flight and rerouted-away requests count as shed).
        scenario = quick_scenario()
        fleet = ProcessFleet(
            2,
            scenario,
            policy=scenario.build_policy(),
            time_scale=1e-4,
            seed=11,
        )
        try:
            killer = threading.Timer(0.03, fleet.workers[1].kill)
            generator = LoadGenerator(fleet, rng=11)
            killer.start()
            result = generator.run(400, mode="open", target_rps=3000)
            killer.join()
            assert not fleet.workers[1].alive
            assert fleet.workers[0].alive
            assert result.issued == 400
            assert (
                result.issued
                == result.completed + result.shed + result.errors
            )
            assert result.completed > 0  # the survivor kept serving
            stats = fleet.stats()
            for worker in stats["per_shard"]:
                assert (
                    worker["issued"]
                    == worker["completed"] + worker["shed"] + worker["errors"]
                )
            # The dead worker's responses survive in the parent-side
            # shadow, so the merged counters still balance — and the
            # record of a crashed run is still schema-valid.
            record = as_record(result, scenario.name, {"procs": 2})
            assert validate_record(record) == []
        finally:
            fleet.close()

    def test_all_workers_dead_sheds_instead_of_hanging(self):
        scenario = quick_scenario()
        fleet = ProcessFleet(
            1,
            scenario,
            policy=scenario.build_policy(),
            time_scale=0.0,
            seed=5,
        )
        try:
            fleet.workers[0].kill()
            fleet.workers[0].process.join(timeout=10)

            async def drive():
                return [await fleet.request(i) for i in range(5)]

            outcomes = asyncio.run(drive())
            assert outcomes == [None] * 5
            assert fleet.shed_total == 5
        finally:
            fleet.close()

    def test_constructor_validation(self):
        scenario = quick_scenario()
        with pytest.raises(ValueError, match="n_procs"):
            ProcessFleet(0, scenario)
        with pytest.raises(ValueError, match="unix, tcp"):
            ProcessFleet(1, scenario, transport="smoke-signal")


# ---------------------------------------------------------------------------
# One front door, two transports
# ---------------------------------------------------------------------------

FLEET_STATS_KEYS = {
    "shards", "selector", "transport", "requests", "completed", "shed",
    "shed_unrouted", "errors", "policy_version", "per_shard",
}
SHARD_STATS_KEYS = {
    "shard", "pid", "alive", "issued", "accepted", "completed", "shed",
    "errors", "peak_active", "reissue_rate", "deadline_misses", "p99_ms",
    "refits", "store_version", "policy_spec",
}


def contract_fleet(transport: str):
    scenario = quick_scenario()
    if transport == "loop":
        return ServingFleet.build(
            2,
            lambda shard, rng: serving_backend(scenario, 0.0, rng),
            policy=scenario.build_policy(),
            seed=8,
        )
    return ProcessFleet(
        2,
        scenario,
        policy=scenario.build_policy(),
        time_scale=0.0,
        transport=transport,
        seed=8,
    )


@pytest.mark.parametrize("transport", ["loop", "unix"])
def test_front_door_contract_holds_on_every_transport(transport):
    with contract_fleet(transport) as fleet:
        result = LoadGenerator(fleet, rng=8).run(
            120, mode="open", target_rps=0
        )
        stats = fleet.stats()
        assert set(stats) == FLEET_STATS_KEYS
        assert stats["transport"] == result.transport == transport
        for entry in stats["per_shard"]:
            assert set(entry) == SHARD_STATS_KEYS
            assert entry["alive"]
            assert (
                entry["issued"]
                == entry["completed"] + entry["shed"] + entry["errors"]
            )
        record = as_record(result, "fleet-tail-quick", {"transport": transport})
        assert validate_record(json.loads(json.dumps(record))) == []
        if transport != "loop":
            # A dead worker's entry keeps the same keys.
            fleet.workers[1].kill()
            fleet.workers[1].process.join(timeout=10)
            dead = fleet.stats()["per_shard"][1]
            assert set(dead) == SHARD_STATS_KEYS
            assert not dead["alive"]
