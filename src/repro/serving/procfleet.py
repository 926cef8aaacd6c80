"""Process shards: the serving fleet's socket transport.

An in-loop :class:`~repro.serving.fleet.ServingFleet` runs every shard
on *one* asyncio loop on *one* core — it measures concurrency, not
parallelism. This module gives the same front door shards that are real
worker processes, the "Tail at Scale" deployment shape: hedging across
independently scheduled workers whose stragglers are uncorrelated, and
whose cost is paid over a real transport instead of an in-process call.

* :class:`WorkerHandle` — the front door's shard handle for one worker:
  ``submit`` sends a request frame over a Unix-domain or TCP socket and
  awaits its reply; front-door counters and a shadow
  :class:`~repro.serving.metrics.ServingMetrics` keep the accounting
  exact when the worker dies (a closed pipe sheds the in-flight
  requests, and the front door routes around the dead shard).
* :func:`_worker_main` — one worker: its own event loop, its own
  :class:`~repro.serving.hedge.HedgedClient` (plus optional
  :class:`~repro.serving.autotune.AutoTuner` on the tuned shard) wrapped
  in the same :class:`~repro.serving.fleet.ShardWorker` the in-loop
  fleet calls directly.
* :class:`PolicyStoreServer` / :class:`RemotePolicyStore` — the
  fleet-shared :class:`~repro.serving.fleet.PolicyStore` moved behind a
  socket. The server (in the front-door process) owns the versioned
  store. The front door stamps the store's version on every request
  frame, and a worker's ``ShardWorker`` reads its ``RemotePolicyStore``
  (one round trip) only when that version is newer than the one it
  serves. So one worker's autotuner refit reaches every worker before
  it serves its next request, at no per-request socket cost.
* :class:`ProcessFleet` — the process lifecycle: it spawns the workers
  and the store server and hands the workers to the ``ServingFleet``
  front door it inherits.

Wire protocol
-------------
Every message is one frame: a 4-byte big-endian length (type byte plus
payload, at most :data:`MAX_FRAME_BYTES`), a 1-byte type, the payload.
The two hot frames, ``REQUEST`` and ``RESPONSE``, are fixed-width
``struct`` records (layouts below); every other frame is UTF-8 JSON,
metrics in their :meth:`ServingMetrics.to_dict` form. A frame of the
wrong length or an unknown type raises ``ConnectionError`` naming the
frame type before its payload is read.

Observability crosses the process boundary the same way the pipeline's
pool does: the front door captures :func:`repro.obs.snapshot_context`,
each worker buffers its spans under that parent via
:func:`repro.obs.remote_context`, and the shutdown reply ships the span
dicts home where :func:`repro.obs.absorb` re-parents them.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import shutil
import socket
import struct
import tempfile
import threading
import time

import numpy as np

from ..core.policies import ReissuePolicy
from ..obs.trace import absorb, get_tracer, snapshot_context
from .fleet import PolicyStore, ServingFleet, ShardWorker, tail_stats
from .hedge import RequestOutcome
from .metrics import ServingMetrics

#: Transports the fleet (and ``repro loadgen --transport``) accepts.
TRANSPORTS = ("unix", "tcp")

_HEAD = struct.Struct("!IB")  # frame length, type byte

#: The largest frame length a reader accepts; a corrupt length prefix
#: fails at once instead of waiting for gigabytes that never come.
MAX_FRAME_BYTES = 64 << 20

#: Write-buffer size above which a sender awaits ``drain()`` (asyncio's
#: default high-water mark); below it a frame write never yields.
_HIGH_WATER = 64 << 10

# -- message types -----------------------------------------------------------
MSG_REQUEST = 0x01  # parent -> worker: _REQUEST record
MSG_RESPONSE = 0x02  # worker -> parent: _RESPONSE record
MSG_SHED = 0x03  # worker -> parent: {"seq", "qid"} (admission shed)
MSG_ERROR = 0x04  # worker -> parent: {"seq", "qid"} (contained failure)
MSG_METRICS = 0x07  # parent -> worker: {} (metrics-pull)
MSG_METRICS_REPLY = 0x08  # worker -> parent: {"metrics", "stats"}
MSG_SHUTDOWN = 0x09  # parent -> worker: {}
MSG_BYE = 0x0A  # worker -> parent: {"spans"}
MSG_STORE_GET = 0x14  # client -> store: {}
MSG_STORE_STATE = 0x15  # store -> client: {"version", "policy"}
MSG_STORE_PUBLISH = 0x16  # client -> store: {"policy", "source"}

#: Type byte -> name, for errors ("REQUEST", "BYE", ...).
_NAMES = {v: k[4:] for k, v in list(globals().items()) if k.startswith("MSG_")}

# -- fixed-width records -----------------------------------------------------
#: REQUEST: seq u64, query id i64, policy-store version u64 (24 bytes).
_REQUEST = struct.Struct("!QqQ")
#: RESPONSE: seq u64, query id i64, latency_ms f64, winner code u8,
#: n_planned / n_reissues / cancelled u32, deadline flag, has-pair flag,
#: probe pair (primary, reissue) 2 x f64 (55 bytes).
_RESPONSE = struct.Struct("!QqdBIII??dd")
_WIDTHS = {MSG_REQUEST: _REQUEST.size, MSG_RESPONSE: _RESPONSE.size}
_REQUEST_FRAME = struct.Struct(_HEAD.format + _REQUEST.format[1:])
_RESPONSE_FRAME = struct.Struct(_HEAD.format + _RESPONSE.format[1:])
_WINNERS = ("primary", "reissue", "none")
_WINNER_CODES = {name: code for code, name in enumerate(_WINNERS)}


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(msg_type: int, body) -> bytes:
    """One wire frame. ``REQUEST`` bodies are ``(seq, qid, version)``,
    ``RESPONSE`` bodies ``(seq, RequestOutcome)``; the rest are JSON."""
    if msg_type == MSG_REQUEST:
        return _REQUEST_FRAME.pack(_REQUEST.size + 1, msg_type, *body)
    if msg_type == MSG_RESPONSE:
        seq, out = body
        return _RESPONSE_FRAME.pack(
            _RESPONSE.size + 1, msg_type, seq, out.query_id, out.latency_ms,
            _WINNER_CODES[out.winner], out.n_planned, out.n_reissues,
            out.cancelled_attempts, out.deadline_exceeded,
            out.pair is not None, *(out.pair or (0.0, 0.0)),
        )
    payload = json.dumps(body, separators=(",", ":"), default=float).encode()
    return _HEAD.pack(len(payload) + 1, msg_type) + payload


def decode_payload(msg_type: int, payload: bytes):
    """Inverse of :func:`encode_frame` for one frame's payload; raises
    ``ConnectionError`` naming the frame type when it is malformed."""
    name = _frame_name(msg_type)
    try:
        if msg_type == MSG_REQUEST:
            return _REQUEST.unpack(payload)
        if msg_type == MSG_RESPONSE:
            (seq, qid, latency, winner, planned, reissues, cancelled,
             deadline, has_pair, first, second) = _RESPONSE.unpack(payload)
            pair = (first, second) if has_pair else None
            return seq, RequestOutcome(
                qid, latency, _WINNERS[winner], planned, reissues,
                cancelled, deadline, pair,
            )
        body = json.loads(payload)
    except (struct.error, ValueError, IndexError) as exc:
        raise ConnectionError(f"malformed {name} frame: {exc}") from None
    if not isinstance(body, dict):
        raise ConnectionError(f"malformed {name} frame: not a JSON object")
    return body


def _frame_name(msg_type: int) -> str:
    try:
        return _NAMES[msg_type]
    except KeyError:
        raise ConnectionError(f"unknown frame type {msg_type:#04x}") from None


def _payload_size(length: int, msg_type: int) -> int:
    """Check a frame header before reading its payload."""
    name = _frame_name(msg_type)
    if not 1 <= length <= MAX_FRAME_BYTES:
        raise ConnectionError(
            f"{name} frame length {length} outside [1, {MAX_FRAME_BYTES}]"
        )
    width = _WIDTHS.get(msg_type, length - 1)
    if length - 1 != width:
        raise ConnectionError(
            f"{name} frame has {length - 1} payload bytes, expected {width}"
        )
    return width


async def read_frame(reader: asyncio.StreamReader) -> tuple[int, object]:
    """Read one frame; raises ``IncompleteReadError`` on a closed peer
    and ``ConnectionError`` on a malformed frame."""
    length, msg_type = _HEAD.unpack(await reader.readexactly(_HEAD.size))
    payload = await reader.readexactly(_payload_size(length, msg_type))
    return msg_type, decode_payload(msg_type, payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame_blocking(sock: socket.socket) -> tuple[int, object]:
    """Blocking-socket twin of :func:`read_frame`."""
    length, msg_type = _HEAD.unpack(_recv_exact(sock, _HEAD.size))
    payload = _recv_exact(sock, _payload_size(length, msg_type))
    return msg_type, decode_payload(msg_type, payload)


def _connect_blocking(transport: str, address, timeout: float) -> socket.socket:
    if transport == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
    else:
        host, port = address
        sock = socket.create_connection((host, int(port)), timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


# ---------------------------------------------------------------------------
# The socket-backed PolicyStore
# ---------------------------------------------------------------------------


class PolicyStoreServer:
    """Serve a :class:`PolicyStore` to worker processes over a socket.

    Runs in the front-door process on daemon threads (one acceptor, one
    per connection) so publishes and reads never touch the serving event
    loop. The wrapped store keeps the exact in-process semantics —
    monotone versions, ``publishes`` provenance — so ``fleet.store`` is
    the same object whichever fleet flavour sits in front of it.
    """

    def __init__(
        self,
        store: PolicyStore | None = None,
        *,
        transport: str = "unix",
        runtime_dir: str | None = None,
    ):
        if transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {transport!r} "
                f"(valid: {', '.join(TRANSPORTS)})"
            )
        self.store = store if store is not None else PolicyStore()
        self.transport = transport
        self._closing = threading.Event()
        if transport == "unix":
            path = os.path.join(
                runtime_dir or tempfile.mkdtemp(prefix="repro-store-"),
                "policy.sock",
            )
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.bind(path)
            self.address = path
        else:
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._sock.bind(("127.0.0.1", 0))
            self.address = list(self._sock.getsockname())
        self._sock.listen(32)
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-policy-store", daemon=True
        )
        self._acceptor.start()

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed
            threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True
            ).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(None)
            while True:
                try:
                    msg_type, body = recv_frame_blocking(conn)
                except (ConnectionError, OSError):
                    return
                if msg_type == MSG_STORE_GET:
                    version, policy = self.store.get()
                    reply = {
                        "version": version,
                        "policy": None if policy is None else policy.to_spec(),
                    }
                elif msg_type == MSG_STORE_PUBLISH:
                    policy = ReissuePolicy.from_spec(body["policy"])
                    version = self.store.publish(
                        policy, source=body.get("source", "")
                    )
                    reply = {"version": version, "policy": body["policy"]}
                else:
                    return  # unknown frame: drop the connection
                try:
                    conn.sendall(encode_frame(MSG_STORE_STATE, reply))
                except OSError:
                    return

    def close(self) -> None:
        self._closing.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self.transport == "unix":
            try:
                os.unlink(self.address)
            except OSError:
                pass


class RemotePolicyStore:
    """Worker-side :class:`PolicyStore` replacement over a socket.

    ``get()`` is one round trip to the server. The front door stamps
    the authoritative version on every request frame and a
    :class:`ShardWorker` calls ``get()`` only when that stamp is newer
    than the version it serves, so a worker adopts a publish before it
    serves the next request routed to it, at the cost of one round trip
    per publish rather than per request. ``publish()`` is a synchronous
    round trip (refits are rare).
    """

    def __init__(
        self,
        address,
        *,
        transport: str = "unix",
        timeout: float = 10.0,
    ):
        self.transport = transport
        self.address = address
        self.timeout = float(timeout)
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._version = 0
        self._policy: ReissuePolicy | None = None
        # Fail fast if the server is unreachable.
        self._adopt(self._rpc(MSG_STORE_GET, {}))

    @property
    def version(self) -> int:
        return self._version

    @property
    def policy(self) -> ReissuePolicy | None:
        return self._policy

    def _rpc(self, msg_type: int, body: dict) -> dict:
        with self._lock:
            if self._sock is None:
                self._sock = _connect_blocking(
                    self.transport, self.address, self.timeout
                )
            try:
                self._sock.sendall(encode_frame(msg_type, body))
                reply_type, reply = recv_frame_blocking(self._sock)
            except (ConnectionError, OSError):
                # One reconnect attempt: the server may have restarted.
                self._sock.close()
                self._sock = _connect_blocking(
                    self.transport, self.address, self.timeout
                )
                self._sock.sendall(encode_frame(msg_type, body))
                reply_type, reply = recv_frame_blocking(self._sock)
            if reply_type != MSG_STORE_STATE:
                raise ConnectionError(
                    f"unexpected policy-store reply type {reply_type:#x}"
                )
            return reply

    def _adopt(self, reply: dict) -> None:
        version = int(reply["version"])
        if version != self._version:
            spec = reply.get("policy")
            self._policy = (
                None if spec is None else ReissuePolicy.from_spec(spec)
            )
            self._version = version

    def get(self) -> tuple[int, ReissuePolicy | None]:
        """The server's ``(version, policy)``; the last one seen if the
        server is unreachable (the next newer stamp retries)."""
        try:
            self._adopt(self._rpc(MSG_STORE_GET, {}))
        except (ConnectionError, OSError):
            pass
        return self._version, self._policy

    def publish(self, policy: ReissuePolicy, source: str = "") -> int:
        if not isinstance(policy, ReissuePolicy):
            raise TypeError(
                f"expected a ReissuePolicy, got {type(policy).__name__}"
            )
        reply = self._rpc(
            MSG_STORE_PUBLISH, {"policy": policy.to_spec(), "source": source}
        )
        self._adopt(reply)
        return self._version

    def close(self) -> None:
        with self._lock:
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None


# ---------------------------------------------------------------------------
# The worker process
# ---------------------------------------------------------------------------


def _worker_main(spec: dict) -> None:
    """Entry point of one worker process (must stay module-level so the
    ``spawn`` start method can import it)."""
    asyncio.run(_worker_serve(spec))


async def _worker_serve(spec: dict) -> None:
    from ..obs.trace import remote_context
    from ..scenarios.engines import serving_backend
    from ..scenarios.model import Scenario
    from .autotune import AutoTuner
    from .hedge import HedgedClient

    shard_id = int(spec["shard_id"])
    scenario = Scenario.from_dict(spec["scenario"])
    backend_seq, client_seq = np.random.SeedSequence(
        (int(spec["seed"]), shard_id, 0xF1EE7)
    ).spawn(2)
    backend = serving_backend(
        scenario, spec["time_scale"], np.random.default_rng(backend_seq)
    )
    tuner = None
    if spec.get("autotune") and spec.get("tuned"):
        tuner = AutoTuner(**spec["autotune"])
    policy = None
    if spec.get("policy") is not None and tuner is None:
        policy = ReissuePolicy.from_spec(spec["policy"])
    store = RemotePolicyStore(
        spec["store_address"], transport=spec["transport"]
    )
    client = HedgedClient(
        backend,
        policy,
        concurrency=spec["concurrency"],
        deadline_ms=spec["deadline_ms"],
        probe_fraction=spec["probe_fraction"],
        tuner=tuner,
        rng=np.random.default_rng(client_seq),
    )
    shard = ShardWorker(shard_id, client, store, spec["admission_limit"])
    done = asyncio.Event()
    tasks: set[asyncio.Task] = set()  # strong refs: a bare task is weak

    async def handle_conn(reader, writer):
        wlock = asyncio.Lock()

        async def send(msg_type: int, body) -> None:
            if writer.is_closing():
                return  # the parent hung up; it already shed this seq
            writer.write(encode_frame(msg_type, body))
            if writer.transport.get_write_buffer_size() > _HIGH_WATER:
                async with wlock:
                    await writer.drain()

        async def serve_request(seq: int, qid: int, version: int) -> None:
            # submit() sheds before its first await, so this is the
            # saturation it decides on.
            shed = shard.saturated
            outcome = await shard.submit(qid, version)
            if outcome is not None:
                reply = MSG_RESPONSE, (seq, outcome)
            else:
                reply = MSG_SHED if shed else MSG_ERROR, {"seq": seq, "qid": qid}
            # If the parent connection closed mid-request the reply has
            # nowhere to go — drop it; the parent already shed the seq.
            try:
                await send(*reply)
            except (RuntimeError, ConnectionError, OSError):
                pass

        try:
            while True:
                try:
                    msg_type, body = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return
                if msg_type == MSG_REQUEST:
                    task = asyncio.ensure_future(serve_request(*body))
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
                elif msg_type == MSG_METRICS:
                    await send(
                        MSG_METRICS_REPLY,
                        {
                            "metrics": client.metrics.to_dict(),
                            "stats": shard.stats(),
                        },
                    )
                elif msg_type == MSG_SHUTDOWN:
                    try:
                        shard.close()
                    except Exception:  # noqa: BLE001 - report, don't die
                        pass
                    tracer = get_tracer()
                    spans = (
                        [s.as_dict() for s in tracer.drain()]
                        if tracer.enabled
                        else []
                    )
                    await send(MSG_BYE, {"spans": spans})
                    done.set()
                    return
                else:
                    return  # unknown frame: drop the connection
        except asyncio.CancelledError:
            # Server teardown cancels open connection handlers; exiting
            # quietly keeps the asyncio streams callback from logging.
            return
        finally:
            writer.close()

    with remote_context(spec.get("trace_ctx")):
        if spec["transport"] == "unix":
            server = await asyncio.start_unix_server(
                handle_conn, path=spec["worker_path"]
            )
            address = spec["worker_path"]
        else:
            server = await asyncio.start_server(handle_conn, "127.0.0.1", 0)
            address = list(server.sockets[0].getsockname())
        # The ready file both signals readiness and reports the bound
        # address (a TCP worker picks its own port). Write-then-rename so
        # the parent never reads a half-written file.
        tmp_path = spec["ready_path"] + ".tmp"
        with open(tmp_path, "w") as fh:
            json.dump({"address": address, "pid": os.getpid()}, fh)
        os.replace(tmp_path, spec["ready_path"])
        async with server:
            await done.wait()
    store.close()


# ---------------------------------------------------------------------------
# The worker's shard handle and the process lifecycle
# ---------------------------------------------------------------------------


class _WorkerDied(ConnectionError):
    """The worker's pipe closed while requests were in flight."""


class WorkerHandle:
    """The front door's shard handle for one worker process.

    Owns the process handle, the per-event-loop request connection, and
    the parent-side accounting: ``dispatched``/``completed``/``shed``/
    ``errors`` counters plus a shadow :class:`ServingMetrics` rebuilt
    from response frames. The shadow is what keeps the fleet's merged
    counters exact when a worker dies — its own metrics die with it, but
    every response that actually reached the front door is still
    accounted.
    """

    def __init__(self, spec: dict, ctx):
        self.spec = spec
        self.shard_id = int(spec["shard_id"])
        self._ctx = ctx
        self.process = None
        self.address = None
        self.dispatched = 0
        self.completed = 0
        self.shed = 0
        self.errors = 0
        self.in_flight = 0
        self.died = False
        self.shadow = ServingMetrics()
        self._seq = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._loop = None
        self._reader = None
        self._writer = None
        self._wlock: asyncio.Lock | None = None
        self._conn_lock: asyncio.Lock | None = None
        self._read_task = None  # strong ref: create_task alone is weak

    # -- lifecycle -----------------------------------------------------------
    def spawn(self) -> None:
        process = self._ctx.Process(
            target=_worker_main, args=(self.spec,), daemon=True
        )
        process.start()
        self.process = process

    def wait_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        ready_path = self.spec["ready_path"]
        while time.monotonic() < deadline:
            if os.path.exists(ready_path):
                with open(ready_path) as fh:
                    info = json.load(fh)
                self.address = info["address"]
                return
            if not self.process.is_alive():
                raise RuntimeError(
                    f"worker {self.shard_id} exited during startup "
                    f"(exitcode {self.process.exitcode})"
                )
            time.sleep(0.01)
        raise TimeoutError(
            f"worker {self.shard_id} did not come up within {timeout:.0f}s"
        )

    @property
    def alive(self) -> bool:
        """False once the worker is known dead: its request connection
        hit EOF or a connection to it failed (or it never came up).
        Never polls the process."""
        return not self.died and self.address is not None

    @property
    def load(self) -> int:
        """Requests in flight to this worker (the routing signal)."""
        return self.in_flight

    # -- the request path ----------------------------------------------------
    async def _connection(self) -> asyncio.StreamWriter:
        """The request connection on the running loop, opened on first
        use (the LoadGenerator runs one ``asyncio.run`` per run)."""
        loop = asyncio.get_running_loop()
        writer = self._writer
        if self._loop is loop and writer and not writer.is_closing():
            return writer
        if self._loop is not loop:
            # First touch from a new event loop: reset per-loop state. No
            # await between the check and the reset, so this is race-free.
            self._loop = loop
            self._reader = self._writer = self._read_task = None
            self._wlock = asyncio.Lock()
            self._conn_lock = asyncio.Lock()
        async with self._conn_lock:
            if self._writer is not None and not self._writer.is_closing():
                return self._writer
            if self.spec["transport"] == "unix":
                reader, writer = await asyncio.open_unix_connection(
                    self.address
                )
            else:
                host, port = self.address
                reader, writer = await asyncio.open_connection(
                    host, int(port)
                )
            self._reader, self._writer = reader, writer
            self._read_task = loop.create_task(
                self._read_loop(reader, writer)
            )
            return writer

    async def _read_loop(self, reader, writer) -> None:
        """Route response frames to their futures until EOF or until the
        run's event loop cancels this task at teardown; either way the
        connection ends with it, so a later loop opens its own."""
        try:
            while True:
                msg_type, body = await read_frame(reader)
                seq = body[0] if msg_type == MSG_RESPONSE else body.get("seq")
                future = self._pending.pop(seq, None)
                if future is not None and not future.done():
                    future.set_result((msg_type, body))
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # EOF or a broken frame: the worker exited or stopped
            # speaking the protocol. Route nothing more to it.
            if reader is self._reader:
                self.died = True
        finally:
            # Also runs on event-loop teardown (task cancellation), which
            # is not death: either way, whatever is still pending will
            # never be answered on this connection.
            if reader is self._reader:
                self._fail_pending()
            writer.close()

    def _fail_pending(self) -> None:
        """The pipe closed: fail every pending request as shed."""
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(_WorkerDied())

    async def submit(
        self, query_id: int, version: int
    ) -> RequestOutcome | None:
        """Dispatch one request stamped with the fleet's policy-store
        ``version``; ``None`` means shed, errored, or lost to a dying
        worker — the caller's stream never sees an exception."""
        self.dispatched += 1
        seq = next(self._seq)
        self.in_flight += 1
        try:
            writer = await self._connection()
            future = self._loop.create_future()
            self._pending[seq] = future
            writer.write(encode_frame(MSG_REQUEST, (seq, query_id, version)))
            if writer.transport.get_write_buffer_size() > _HIGH_WATER:
                async with self._wlock:
                    await writer.drain()
            msg_type, body = await future
        except (ConnectionError, OSError) as exc:
            self._pending.pop(seq, None)
            if not isinstance(exc, _WorkerDied):
                self.died = True  # refused or reset: nobody is serving
            self.shed += 1
            return None
        finally:
            self.in_flight -= 1
        if msg_type == MSG_RESPONSE:
            self.completed += 1
            outcome = body[1]
            self.shadow.record(outcome)
            return outcome
        if msg_type == MSG_SHED:
            self.shed += 1
            return None
        self.errors += 1  # MSG_ERROR: contained worker-side failure
        return None

    # -- blocking control-plane RPCs (off the event loop) --------------------
    def control_rpc(self, msg_type: int, body: dict, timeout: float = 10.0):
        """One blocking request/reply on a fresh connection — usable
        after the serving event loop has closed (metrics-pull and
        shutdown both come through here)."""
        sock = _connect_blocking(
            self.spec["transport"], self.address, timeout
        )
        try:
            sock.sendall(encode_frame(msg_type, body))
            return recv_frame_blocking(sock)
        finally:
            sock.close()

    def pull(self) -> dict | None:
        """Metrics-pull: the worker's live ``ServingMetrics`` + stats,
        or ``None`` for a dead/unreachable worker."""
        if not self.alive:
            return None
        try:
            msg_type, body = self.control_rpc(MSG_METRICS, {})
        except (ConnectionError, OSError, TimeoutError):
            self.died = True
            return None
        if msg_type != MSG_METRICS_REPLY:
            return None
        body["metrics"] = ServingMetrics.from_dict(body["metrics"])
        return body

    def metrics(self) -> ServingMetrics:
        """The worker's own metrics; its front-door shadow once it is
        dead, so every response that arrived is still counted."""
        pulled = self.pull()
        return self.shadow if pulled is None else pulled["metrics"]

    def stats(self) -> dict:
        """Per-shard accounting with the in-loop shard's keys.

        Counters and latency come from the front door, so ``issued ==
        completed + shed + errors`` holds even across a crash; peak,
        refits and policy come from the worker while it is alive
        (``None`` once it is dead).
        """
        pulled = self.pull()
        detail = {} if pulled is None else pulled["stats"]
        return {
            "shard": self.shard_id,
            "pid": self.process.pid,
            "alive": self.alive,
            "issued": self.dispatched,
            "accepted": self.completed + self.errors,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "peak_active": detail.get("peak_active"),
            **tail_stats(self.shadow),
            "refits": detail.get("refits"),
            "store_version": detail.get("store_version"),
            "policy_spec": detail.get("policy_spec"),
        }

    def shutdown(self, timeout: float = 10.0) -> dict | None:
        """Graceful stop; returns the BYE payload (buffered spans)."""
        bye = None
        if self.alive:
            try:
                msg_type, body = self.control_rpc(MSG_SHUTDOWN, {}, timeout)
                if msg_type == MSG_BYE:
                    bye = body
            except (ConnectionError, OSError, TimeoutError):
                pass
        if self.process is not None:
            if bye is not None:
                self.process.join(timeout=timeout)  # it exits after BYE
            self.kill()  # dead, hung or unreachable: don't wait for it
            self.process.join(timeout=timeout)
        return bye

    def kill(self) -> None:
        """SIGKILL the worker (fault injection for tests); a no-op once
        it has been reaped."""
        if self.process is not None:
            self.process.kill()


class ProcessFleet(ServingFleet):
    """The serving fleet over N worker *processes*.

    Routing, accounting, ``metrics()`` and ``stats()`` are the inherited
    :class:`~repro.serving.fleet.ServingFleet` front door; its shards
    are :class:`WorkerHandle` objects (also kept as ``workers``). This
    class owns the process lifecycle: it starts the
    :class:`PolicyStoreServer` around the fleet's store, spawns one
    worker per shard, and shuts both down in :meth:`close`. What the
    process boundary buys: every worker owns a core-wide event loop,
    requests travel over real sockets, and one worker dying sheds its
    in-flight requests and reroutes new arrivals instead of taking the
    fleet down.

    Parameters mirror ``ServingFleet.build`` plus the process-fleet
    knobs: ``transport`` (``"unix"`` default, ``"tcp"``), ``autotune``
    (an :class:`AutoTuner` kwargs dict for the tuned shard — the tuner
    itself must be built in the worker process).
    """

    def __init__(
        self,
        n_procs: int,
        scenario,
        *,
        policy: ReissuePolicy | None = None,
        selector="round-robin",
        admission_limit: int | None = None,
        concurrency: int = 64,
        deadline_ms: float | None = None,
        probe_fraction: float = 0.0,
        autotune: dict | None = None,
        tuned_shard: int = 0,
        time_scale: float = 2e-5,
        transport: str = "unix",
        seed: int = 0,
        spawn_timeout: float = 60.0,
    ):
        if n_procs < 1:
            raise ValueError("n_procs must be >= 1")
        if autotune is not None and not 0 <= tuned_shard < n_procs:
            raise ValueError(
                f"tuned_shard {tuned_shard} out of range for "
                f"{n_procs} worker(s)"
            )
        self._runtime_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        try:
            self._store_server = PolicyStoreServer(
                PolicyStore(policy),
                transport=transport,
                runtime_dir=self._runtime_dir,
            )
        except ValueError:  # an unknown transport, named by the server
            shutil.rmtree(self._runtime_dir, ignore_errors=True)
            raise
        self.transport = transport
        self._closed = False
        ctx = multiprocessing.get_context("spawn")
        scenario_dict = scenario.to_dict()
        trace_ctx = snapshot_context()
        self.workers = []
        for i in range(n_procs):
            spec = {
                "shard_id": i,
                "scenario": scenario_dict,
                "policy": None if policy is None else policy.to_spec(),
                "autotune": dict(autotune) if autotune else None,
                "tuned": autotune is not None and i == tuned_shard,
                "concurrency": int(concurrency),
                "deadline_ms": deadline_ms,
                "probe_fraction": float(probe_fraction),
                "admission_limit": admission_limit,
                "time_scale": float(time_scale),
                "transport": transport,
                "store_address": self._store_server.address,
                "worker_path": os.path.join(
                    self._runtime_dir, f"worker{i}.sock"
                ),
                "ready_path": os.path.join(
                    self._runtime_dir, f"worker{i}.ready"
                ),
                "seed": int(seed),
                "trace_ctx": trace_ctx,
            }
            self.workers.append(WorkerHandle(spec, ctx))
        try:
            for worker in self.workers:
                worker.spawn()
            deadline = time.monotonic() + spawn_timeout
            for worker in self.workers:
                worker.wait_ready(max(deadline - time.monotonic(), 0.1))
        except BaseException:
            self.close()
            raise
        self._init_front_door(self.workers, self._store_server.store, selector)

    def close(self) -> None:
        """Shut every worker down, absorb their spans, stop the store
        server, and remove the socket/ready files (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            bye = worker.shutdown()
            if bye and bye.get("spans"):
                absorb(bye["spans"])
        self._store_server.close()
        shutil.rmtree(self._runtime_dir, ignore_errors=True)

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass
