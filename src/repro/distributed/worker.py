"""The distributed worker process: ``python -m repro.distributed.worker``.

A worker is deliberately dumb.  It connects back to the coordinator's
listening socket, introduces itself with HELLO, and then serves a
strictly sequential request/reply loop until it is told to shut down
(or its connection dies, at which point it exits — a worker without a
coordinator has nothing to live for).  All cleverness — heartbeating,
retry, reassignment, degradation — lives in the supervisor; keeping
the worker a pure function of its request stream is what makes worker
death a *recoverable* event instead of a consistency hazard.

Request handling:

- ``PING`` → ``PONG`` (liveness only; carries the coordinator's nonce
  back so a stale reply can never satisfy a fresh probe).
- ``SHARD`` → store the shard payload under its key, reply ``ACK``
  with the arrays' checksum so the coordinator can verify the shard
  survived the trip.  Shards arrive once (or again, after a
  reassignment) and live for the worker's whole life.
- ``TASK`` → run one block's product against the whole operand via
  :func:`repro.parallel.sharded.shard_kernel_result` — the *same*
  arithmetic body the in-process backends execute, which is the whole
  bitwise-determinism argument — and reply ``RESULT`` with that
  block's rows of the output.  A task whose
  propagated deadline budget is already spent is refused with an
  in-band ``ERROR`` (kind ``"deadline"``) instead of computing an
  answer nobody is waiting for.
- ``CALL`` → run a module-level function against one item (the generic
  ``Backend.map`` surface); exceptions travel back in-band as
  ``ERROR`` (kind ``"task_exception"``) with the pickled exception, so
  an :class:`~repro.linalg.operators.InjectedFaultError` in a mapped
  task surfaces to the caller exactly as it would serially.
- ``SHUTDOWN`` → exit 0.

Any protocol violation on the inbound stream makes the worker exit
nonzero immediately: once framing is untrustworthy the only safe
answer is a fresh process.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import time
import zlib
from typing import Any, Dict

from repro.distributed.framing import (
    MSG_ACK,
    MSG_CALL,
    MSG_ERROR,
    MSG_HELLO,
    MSG_PING,
    MSG_PONG,
    MSG_RESULT,
    MSG_SHARD,
    MSG_SHUTDOWN,
    MSG_TASK,
    Transport,
)
from repro.exceptions import ProtocolError, TransportError

__all__ = ["main", "payload_checksum", "serve"]


def payload_checksum(arrays: Dict[str, Any]) -> int:
    """CRC over a shard payload's arrays, in sorted key order.

    Cheap enough to run on both ends of the one-time shard shipment;
    catches the "pickle round-tripped but bytes differ" class of bug
    that per-frame CRCs cannot (they only cover one hop's wire bytes).
    """
    crc = 0
    for key in sorted(arrays):
        array = arrays[key]
        crc = zlib.crc32(key.encode("utf-8"), crc)
        crc = zlib.crc32(str(array.dtype).encode("utf-8"), crc)
        crc = zlib.crc32(str(array.shape).encode("utf-8"), crc)
        crc = zlib.crc32(memoryview(array).cast("B"), crc)
    return crc


def _materialize(message: Dict[str, Any]) -> Any:
    """Rebuild a shard object from its SHARD message payload."""
    arrays = message["arrays"]
    if message["kind"] == "csr":
        # Imported here so ``--help`` and the connect path stay fast.
        from repro.linalg.sparse import CSRMatrix

        return CSRMatrix(
            arrays["data"],
            arrays["indices"],
            arrays["indptr"],
            tuple(message["shape"]),
        )
    block = arrays["block"]
    if not block.flags["C_CONTIGUOUS"]:
        block = block.copy(order="C")
    return block


def serve(transport: Transport, worker_id: int) -> None:
    """Run the request/reply loop until SHUTDOWN or connection loss."""
    shards: Dict[str, Any] = {}
    transport.send(MSG_HELLO, {"worker_id": worker_id, "pid": os.getpid()})
    while True:
        mtype, message = transport.recv(timeout=None)
        if mtype == MSG_PING:
            transport.send(MSG_PONG, {"nonce": message.get("nonce")})
        elif mtype == MSG_SHARD:
            shard = _materialize(message)
            shards[message["key"]] = (message["kind"], shard)
            transport.send(
                MSG_ACK,
                {
                    "key": message["key"],
                    "checksum": payload_checksum(message["arrays"]),
                },
            )
        elif mtype == MSG_TASK:
            _serve_task(transport, shards, message)
        elif mtype == MSG_CALL:
            _serve_call(transport, message)
        elif mtype == MSG_SHUTDOWN:
            return
        else:
            raise ProtocolError(f"unexpected message type {mtype} at worker")


def _serve_task(
    transport: Transport, shards: Dict[str, Any], message: Dict[str, Any]
) -> None:
    from repro.parallel.sharded import shard_kernel_result

    task_id = message["task_id"]
    # Deadline propagation: the coordinator stamps each task with an
    # absolute CLOCK_MONOTONIC deadline (system-wide on Linux, and the
    # backend is localhost-only), so a task that sat in a dead worker's
    # socket buffer past its budget is refused, not computed.
    deadline = message.get("deadline")
    if deadline is not None and time.monotonic() > deadline:
        transport.send(
            MSG_ERROR,
            {"task_id": task_id, "kind": "deadline", "detail": "budget spent"},
        )
        return
    entry = shards.get(message["key"])
    if entry is None:
        transport.send(
            MSG_ERROR,
            {
                "task_id": task_id,
                "kind": "missing_shard",
                "detail": f"no shard stored under key {message['key']!r}",
            },
        )
        return
    kind, shard = entry
    t0 = time.perf_counter()
    try:
        result = shard_kernel_result(
            kind, shard, message["kernel"], message["operand"]
        )
    # Justification: any kernel failure must travel back in-band —
    # letting it kill the worker would turn a numeric bug into a
    # (misdiagnosed) transport failure.
    except Exception as exc:  # repro: noqa-RPR002
        transport.send(
            MSG_ERROR,
            {
                "task_id": task_id,
                "kind": "task_exception",
                "exception": exc,
                "detail": f"{type(exc).__name__}: {exc}",
            },
        )
        return
    transport.send(
        MSG_RESULT,
        {
            "task_id": task_id,
            "array": result,
            "seconds": time.perf_counter() - t0,
        },
    )


def _serve_call(transport: Transport, message: Dict[str, Any]) -> None:
    task_id = message["task_id"]
    try:
        result = message["fn"](message["item"])
    # Justification: the generic map surface mirrors the local
    # backends — the first task exception must propagate to the
    # caller, so it rides back in-band rather than killing us.
    except Exception as exc:  # repro: noqa-RPR002
        transport.send(
            MSG_ERROR,
            {
                "task_id": task_id,
                "kind": "task_exception",
                "exception": exc,
                "detail": f"{type(exc).__name__}: {exc}",
            },
        )
        return
    transport.send(MSG_RESULT, {"task_id": task_id, "result": result})


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.distributed.worker",
        description="One distributed SRDA worker (spawned by the supervisor).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--worker-id", type=int, required=True)
    args = parser.parse_args(argv)

    sock = socket.create_connection((args.host, args.port), timeout=10.0)
    sock.settimeout(None)
    transport = Transport(sock)
    try:
        serve(transport, args.worker_id)
    except TransportError:
        # Connection to the coordinator is gone; nothing to clean up —
        # shards are in-memory only.
        return 1
    except ProtocolError:
        return 2
    finally:
        transport.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
