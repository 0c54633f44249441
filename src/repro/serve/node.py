"""One fleet node: a TCP server wrapping a read-only serving tuner.

A :class:`NodeServer` listens on a TCP socket, and over
:mod:`repro.serve.rpc`'s self-verifying framing answers:

``("register", spec, weights_update, dtypes)``
    Build the serving tuner from the picklable
    :class:`~repro.serve.spec.TunerSpec` plus the **versioned**
    :class:`~repro.serve.spec.WeightsUpdate` (``.npz`` weight bytes + a
    monotonically increasing generation number), and eagerly compile the
    autograd-free :class:`~repro.nn.inference.InferenceProgram` for every
    requested serving dtype — after registration no request pays lowering
    cost.  The replacement tuner is built *outside* the serving lock, so
    in-flight sweeps finish on the old weights and the swap itself is one
    pointer assignment under the lock; a stale version (older than the
    node's current one) is rejected, so a delayed registration can never
    roll the node back mid-rolling-update.
``("sweep", regions, power_caps, dtype)``
    One batched :meth:`~repro.core.tuner.PnPTuner.predict_sweep_many` call
    over the node's share of the fleet, byte-identical to serial
    ``predict_sweep`` on the parent tuner.
``("clear",)`` / ``("stats",)`` / ``("ping",)`` / ``("stop",)``
    Cache control, cache statistics, liveness, shutdown.  ``ping`` reports
    the node's registration state, weights version and frame-protocol
    version, which is what the fleet's heartbeat handshake uses to decide
    whether a recovered node needs a re-registration before being
    re-admitted (and whether the peer speaks the frame protocol at all).

Frames are the self-verifying v2 format from :mod:`repro.serve.rpc`; a
connection whose stream fails verification (:class:`~repro.serve.rpc.
RpcCorruption`) is counted in the node's ``corrupt_frames`` statistic and
torn down — corruption is unrecoverable mid-stream, so the client must
reconnect, exactly as if the node had dropped the socket.

The node accepts any number of sequential or concurrent client connections
(registration is node-global, and a lock serializes tuner access), so a
restarted client re-attaches to a warm, already-registered node.  Run one
in-process via :meth:`serve_forever` or as a subprocess via
:func:`node_subprocess_main` (what :class:`~repro.serve.fleet.LocalFleet`
spawns).

Shutdown is graceful: the subprocess entry point installs a ``SIGTERM``
handler that stops the accept loop, lets every in-flight request finish its
reply (:meth:`NodeServer.wait_idle`), and exits 0 — so rolling restarts and
:meth:`~repro.serve.fleet.LocalFleet.close` terminate nodes without cutting
a sweep off mid-reply or relying on hard kills.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import traceback
from typing import Sequence, Tuple

from repro.serve import rpc
from repro.serve.spec import WeightsUpdate, build_predictor_from_update
from repro.utils.logging import get_logger

__all__ = ["NodeServer", "node_subprocess_main"]

_LOG = get_logger("serve.node")


class NodeServer:
    """A TCP sweep-serving node; one per machine (or per core locally).

    ``port=0`` (the default) binds an ephemeral port — read the actual
    endpoint from :attr:`address` after construction.  The listening socket
    is bound in ``__init__`` so the address can be published (to a parent
    process, a service registry, ...) before :meth:`serve_forever` starts
    accepting.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen()
        self.address: Tuple[str, int] = self._sock.getsockname()
        self._tuner = None
        # The canonical serving entry point (repro.serve.predictor): a
        # TieredPredictor when the registration shipped a distilled blob,
        # a GNNPredictor otherwise.  Sweeps route through it; the tuner is
        # kept alongside for cache control.
        self._predictor = None
        self._version = 0
        # Connections torn down because their stream failed frame
        # verification (bad magic/version/length/digest).  Surfaced in the
        # stats reply so the fleet client and gateway can account for
        # corruption fleet-wide.
        self._corrupt_frames = 0
        self._lock = threading.Lock()
        self._stopped = threading.Event()
        # In-flight request accounting for the graceful-drain path: the
        # counter covers dispatch + reply of every request being served.
        self._idle = threading.Condition()
        self._inflight = 0

    # ----------------------------------------------------------------- loop
    def serve_forever(self) -> None:
        """Accept connections until a ``stop`` request (or :meth:`shutdown`)."""
        while not self._stopped.is_set():
            try:
                connection, _ = self._sock.accept()
            except OSError:
                break  # listening socket closed by shutdown()
            thread = threading.Thread(
                target=self._serve_connection, args=(connection,), daemon=True
            )
            thread.start()

    def shutdown(self) -> None:
        """Stop accepting; in-flight connections finish their current reply."""
        self._stopped.set()
        # A blocked accept() is not reliably interrupted by closing the
        # listener on Linux; a throwaway connection wakes it so the loop
        # observes the stop event (needed when shutdown() comes from
        # another thread — the subprocess SIGTERM path interrupts accept
        # on its own, but takes the same exit).
        try:
            waker = socket.create_connection(self.address, timeout=1.0)
            waker.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - defensive
            pass

    def wait_idle(self, timeout: float = 30.0) -> bool:
        """Block until no request is in flight (the graceful-drain barrier).

        Returns ``True`` when the node drained, ``False`` on timeout.  Only
        requests already being dispatched count as in flight; connections
        idling between requests do not hold the drain up.
        """
        with self._idle:
            return self._idle.wait_for(lambda: self._inflight == 0, timeout=timeout)

    def _serve_connection(self, connection: socket.socket) -> None:
        with connection:
            while not self._stopped.is_set():
                try:
                    message = rpc.recv_message(connection)
                except rpc.RpcCorruption as error:
                    # Verification failed before any unpickling.  The stream
                    # is unrecoverable past this point: count it and tear
                    # the connection down so the client reconnects clean.
                    with self._lock:
                        self._corrupt_frames += 1
                    _LOG.warning(
                        "node %s:%d (pid %d): corrupt frame, closing "
                        "connection: %s",
                        *self.address,
                        os.getpid(),
                        error,
                    )
                    return
                except rpc.ConnectionClosed:
                    return  # client went away; keep serving others
                with self._idle:
                    self._inflight += 1
                try:
                    try:
                        reply = ("ok", self._dispatch(message))
                    except Exception as error:  # noqa: BLE001 - report, keep serving
                        reply = ("error", rpc.error_frame(error))
                    try:
                        rpc.send_message(connection, reply)
                    except rpc.ConnectionClosed:
                        return  # client vanished while we served its request
                finally:
                    with self._idle:
                        self._inflight -= 1
                        self._idle.notify_all()
                if (
                    reply[0] == "ok"
                    and isinstance(message, tuple)
                    and message
                    and message[0] == "stop"
                ):
                    return

    # ------------------------------------------------------------- dispatch
    def _dispatch(self, message: Tuple):
        command = message[0]
        if command == "ping":
            # Deliberately lock-free: a node mid-sweep (or mid-registration
            # build) must still answer heartbeats, or a busy node would be
            # mistaken for a hung one.
            return {
                "registered": self._tuner is not None,
                "version": self._version,
                "protocol": rpc.PROTOCOL_VERSION,
                "pid": os.getpid(),
            }
        if command == "register":
            _, spec, update, dtypes = message
            return self._register(spec, update, dtypes)
        if command == "stop":
            self.shutdown()
            return None
        if command not in ("sweep", "clear", "stats"):
            raise ValueError(f"unknown command {command!r}")
        # Everything below serves the registered tuner.
        with self._lock:
            tuner = self._require_registered()
            if command == "sweep":
                _, regions, power_caps, dtype = message
                return self._predictor.predict_sweep_many(
                    regions, power_caps, dtype=dtype
                )
            if command == "stats":
                cache = tuner._embedding_cache
                tier_stats = getattr(self._predictor, "tier_stats", None)
                return {
                    "size": len(cache),
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "version": self._version,
                    "protocol": rpc.PROTOCOL_VERSION,
                    "corrupt_frames": self._corrupt_frames,
                    "pid": os.getpid(),
                    "buffers": tuner.inference_cache_stats(),
                    # Micro/GNN routing counters; a GNN-only node reports
                    # zeros so fleet-wide aggregation never needs a guard.
                    "tier": tier_stats()
                    if tier_stats is not None
                    else {"micro_hits": 0, "fallbacks": 0, "micro_families": 0},
                }
            # command == "clear" — sheds both tiers: clear_inference_buffers
            # walks the tuner's attached micro runtimes too.
            tuner._embedding_cache.clear()
            tuner.clear_inference_buffers()
            return None

    def _register(self, spec, update: WeightsUpdate, dtypes: Sequence):
        # Build the replacement tuner OUTSIDE the serving lock: registration
        # (graph building, weight loading, program compilation) can take
        # seconds, and in-flight sweeps must finish on the old weights.  The
        # swap below is then a pointer assignment under the lock — atomic
        # from every serving request's point of view.
        tuner, predictor = build_predictor_from_update(spec, update)
        # build_serving_tuner compiled the tuner's own dtype; eagerly
        # compile any additional serving dtypes (e.g. "float32" on a
        # float64-trained tuner) so no sweep pays lowering cost either.
        for dtype in dtypes:
            tuner.compile_inference(dtype)
        with self._lock:
            if update.version < self._version:
                raise ValueError(
                    f"stale weights version {update.version} "
                    f"(node is already at version {self._version})"
                )
            previous = self._tuner
            self._tuner = tuner
            self._predictor = predictor
            self._version = update.version
            if previous is not None:
                # Shed the superseded tuner's arenas and plan-pinning memos
                # eagerly — rolling weight updates must not let two
                # generations of inference buffers coexist until GC runs.
                previous.clear_inference_buffers()
            _LOG.info(
                "node %s:%d (pid %d) registered weights version %d "
                "(%d regions, dtypes %s)",
                *self.address,
                os.getpid(),
                self._version,
                len(tuner.builder.regions()),
                sorted(tuner._programs),
            )
            return {
                "num_regions": len(tuner.builder.regions()),
                "dtypes": sorted(tuner._programs),
                "version": self._version,
                "protocol": rpc.PROTOCOL_VERSION,
                "pid": os.getpid(),
            }

    def _require_registered(self):
        if self._tuner is None:
            raise RuntimeError("node has no registered tuner (send 'register' first)")
        return self._tuner


def node_subprocess_main(
    channel, host: str = "127.0.0.1", port: int = 0, drain_timeout: float = 30.0
) -> None:
    """Subprocess entry point: bind, report the endpoint, serve forever.

    ``channel`` is one end of a ``multiprocessing.Pipe``; the node sends
    ``("ready", (host, port))`` once listening (or ``("error", traceback)``
    if binding failed) and then closes it — all further traffic is TCP.
    :class:`~repro.serve.fleet.LocalFleet` spawns one of these per node.

    ``SIGTERM`` triggers a graceful shutdown: the handler stops the accept
    loop (closing the listener wakes the blocked ``accept``), in-flight
    requests drain for up to ``drain_timeout`` seconds, and the process
    exits 0 — so a rolling restart or fleet teardown is a clean lifecycle
    event, not a hard kill that can cut a reply off mid-frame.
    """
    try:
        server = NodeServer(host=host, port=port)
    except Exception:  # noqa: BLE001 - report startup failures to the parent
        channel.send(("error", traceback.format_exc()))
        channel.close()
        return

    def _graceful_terminate(signum, frame) -> None:
        _LOG.info(
            "node %s:%d (pid %d): SIGTERM — draining in-flight requests",
            *server.address,
            os.getpid(),
        )
        server.shutdown()

    signal.signal(signal.SIGTERM, _graceful_terminate)
    channel.send(("ready", server.address))
    channel.close()
    _LOG.info("node %s:%d (pid %d) serving", *server.address, os.getpid())
    server.serve_forever()
    drained = server.wait_idle(timeout=drain_timeout)
    _LOG.info(
        "node %s:%d (pid %d) stopped (%s)",
        *server.address,
        os.getpid(),
        "drained" if drained else f"drain timed out after {drain_timeout:.0f}s",
    )
