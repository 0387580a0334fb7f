"""Deterministic chaos injection for the distributed backend.

PR 1 proved the *numeric* fallback chains against
:class:`~repro.linalg.operators.FaultyOperator`; this module extends
the same philosophy to the transport layer.  Everything is **seeded
and deterministic**: a chaos scenario is an exactly reproducible
schedule, so a test that asserts "lose worker 0 on the fifth product
and still match the serial fit bitwise" fails the same way every time
or not at all.

Three pieces:

- :class:`ChaosPlan` — the declarative schedule.  Exact triggers
  (``kill_at``, ``corrupt_sends``, ``drop_sends``, ``delay_sends``)
  index into *data-frame* sequences (SHARD/TASK/CALL — heartbeat
  chatter is excluded precisely so background PING timing cannot
  perturb the schedule).  Probabilistic rates (``p_corrupt`` etc.)
  draw from a ``numpy`` generator seeded by ``seed``.
- :class:`ChaosTransport` — a :class:`~repro.distributed.framing.Transport`
  that consults the plan before each data frame it sends: corrupting
  payload bits *after* the CRC is computed (so the receiver's CRC
  check must catch it), dropping the frame entirely (the receiver
  times out), or sleeping first (slow-worker simulation).  Frame
  counters are per-transport, so a plan addresses "the 3rd data frame
  on worker 1's connection" deterministically.
- :class:`ChaosBackend` — wraps *any* backend: schedules worker kills
  by product index against a distributed backend, and injects
  :class:`~repro.linalg.operators.InjectedFaultError` / delays into
  local ``map`` calls, so the same scenario vocabulary drives tests
  for every backend tier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.distributed.framing import Transport, data_frame_types
from repro.linalg.operators import InjectedFaultError
from repro.parallel.backends import Backend

__all__ = ["ChaosBackend", "ChaosPlan", "ChaosTransport"]


@dataclass
class ChaosPlan:
    """A seeded, reproducible schedule of transport-layer faults.

    Attributes
    ----------
    seed:
        Seed for the probabilistic rates; exact triggers don't use it.
    kill_at:
        ``{product_index: worker_id_or_ids}`` — before the Nth
        distributed product (0-based), kill that worker (or each of a
        tuple of workers — killing all of them forces the degradation
        path).  Handled by :class:`ChaosBackend`.
    corrupt_sends, drop_sends, delay_sends:
        Per-connection data-frame indices (0-based) at which the
        sending transport corrupts the payload, silently drops the
        frame, or sleeps ``delay_seconds`` first.  Handled by
        :class:`ChaosTransport`.
    p_corrupt, p_drop, p_delay:
        Probabilistic per-data-frame rates on top of the exact
        triggers, drawn from ``default_rng(seed)`` per transport.
    delay_seconds:
        Sleep applied by a delay trigger.
    map_fail_at:
        Item indices at which a local ``ChaosBackend.map`` raises
        :class:`InjectedFaultError` (counted across the backend's
        lifetime).
    map_delay_every:
        When set, every Nth local map item sleeps ``delay_seconds``.
    """

    seed: int = 0
    kill_at: Dict[int, Any] = field(default_factory=dict)
    corrupt_sends: Tuple[int, ...] = ()
    drop_sends: Tuple[int, ...] = ()
    delay_sends: Tuple[int, ...] = ()
    p_corrupt: float = 0.0
    p_drop: float = 0.0
    p_delay: float = 0.0
    delay_seconds: float = 0.01
    map_fail_at: Tuple[int, ...] = ()
    map_delay_every: Optional[int] = None

    def wants_transport(self) -> bool:
        """True when any trigger needs a :class:`ChaosTransport`."""
        return bool(
            self.corrupt_sends
            or self.drop_sends
            or self.delay_sends
            or self.p_corrupt
            or self.p_drop
            or self.p_delay
        )


class ChaosTransport(Transport):
    """A transport that sabotages its own sends on schedule.

    Only *data* frames (SHARD/TASK/CALL) advance the fault counter —
    see :func:`repro.distributed.framing.data_frame_types` — so the
    schedule is independent of heartbeat timing.  Corruption flips a
    payload bit after the header (CRC included) is already built,
    guaranteeing the receiver sees a CRC mismatch, which is exactly
    the detection path the tests need to exercise.
    """

    def __init__(self, sock: Any, plan: ChaosPlan) -> None:
        super().__init__(sock)
        self.plan = plan
        self._data_frames = 0
        self._rng = np.random.default_rng(plan.seed)

    def _send_raw(self, frame: bytes, mtype: int) -> None:
        if mtype not in data_frame_types():
            super()._send_raw(frame, mtype)
            return
        index = self._data_frames
        self._data_frames += 1
        plan = self.plan
        delay = index in plan.delay_sends or (
            plan.p_delay > 0 and self._rng.random() < plan.p_delay
        )
        drop = index in plan.drop_sends or (
            plan.p_drop > 0 and self._rng.random() < plan.p_drop
        )
        corrupt = index in plan.corrupt_sends or (
            plan.p_corrupt > 0 and self._rng.random() < plan.p_corrupt
        )
        if delay:
            time.sleep(plan.delay_seconds)
        if drop:
            # The frame vanishes; the receiver's deadline machinery
            # must notice.  Counters still advance: bytes that were
            # *meant* to be sent are not accounted as traffic.
            return
        if corrupt and len(frame) > 18:
            mutated = bytearray(frame)
            mutated[-1] ^= 0x40  # one payload bit, CRC now stale
            frame = bytes(mutated)
        super()._send_raw(frame, mtype)


class ChaosBackend(Backend):
    """Wraps any backend, injecting faults per a :class:`ChaosPlan`.

    For a distributed inner backend, ``kill_at`` schedules worker
    kills by *product index* (each ``run_tasks`` batch is one
    product).  For local backends, ``map_fail_at``/``map_delay_every``
    inject :class:`InjectedFaultError` and stalls into mapped tasks.
    Everything else delegates, so the wrapper is transparent to the
    sharded layer (including the ``remote`` flag and the degradation
    surface).
    """

    def __init__(self, inner: Backend, plan: ChaosPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._products = 0
        self._map_items = 0

    # -- delegated surface --------------------------------------------
    @property
    def name(self) -> str:  # type: ignore[override]
        return f"chaos({self.inner.name})"

    @property
    def n_workers(self) -> int:  # type: ignore[override]
        return self.inner.n_workers

    @property
    def remote(self) -> bool:
        return getattr(self.inner, "remote", False)

    @property
    def on_unhealthy(self) -> str:
        return getattr(self.inner, "on_unhealthy", "degrade")

    def __getattr__(self, attribute: str) -> Any:
        # Fallback delegation for the distributed surface
        # (ship_shards, run_tasks is overridden below, stats, ...).
        return getattr(self.inner, attribute)

    # -- chaos hooks ---------------------------------------------------
    def _maybe_kill(self) -> None:
        index = self._products
        self._products += 1
        victims = self.plan.kill_at.get(index)
        if victims is None:
            return
        kill = getattr(self.inner, "kill_worker", None)
        if kill is None:
            return
        if isinstance(victims, int):
            victims = (victims,)
        for worker_id in victims:
            kill(worker_id)

    def run_tasks(self, tasks: Any) -> Any:
        self._maybe_kill()
        return self.inner.run_tasks(tasks)

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        tasks = list(items)
        if getattr(self.inner, "remote", False):
            self._maybe_kill()
            return self.inner.map(fn, tasks)

        plan = self.plan

        def chaotic(item: Any) -> Any:
            index = self._map_items
            self._map_items += 1
            if index in plan.map_fail_at:
                raise InjectedFaultError(
                    f"chaos-injected fault at map item {index}"
                )
            if plan.map_delay_every and index % plan.map_delay_every == 0:
                time.sleep(plan.delay_seconds)
            return fn(item)

        return self.inner.map(chaotic, tasks)

    def close(self) -> None:
        self.inner.close()
