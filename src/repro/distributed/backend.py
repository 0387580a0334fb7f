"""The distributed execution backend (localhost TCP workers).

:class:`DistributedBackend` implements the
:class:`~repro.parallel.backends.Backend` protocol over a
:class:`~repro.distributed.supervisor.Supervisor`-managed pool of
worker subprocesses.  It follows the tiled-array playbook the ROADMAP
sketched: shard payloads (row blocks of ``X`` and of ``X.T``) ship
**once** (checksummed) at operator construction, and each product
moves only its operand block (``c-1`` columns in LSQR) to every
block's worker and each block's rows of the result back — the traffic
pattern the paper's linear-time claim needs to survive a network hop.

Two surfaces:

- The generic :meth:`map` (module-level functions only: tasks cross
  a process boundary, so closures cannot be pickled).
- The remote-shard surface (:attr:`remote` = True):
  :meth:`ship_shards` + :meth:`run_tasks`, used by
  :class:`~repro.parallel.sharded.ShardedOperator` to pin shards to
  workers and stream products.

Failure policy lives in two knobs: ``max_retries`` bounds recovery
attempts (retry → reassign → backoff, in the supervisor), and
``on_unhealthy`` decides what happens when recovery is exhausted —
``"degrade"`` (default) lets the sharded layer fall back to a local
backend and record it in ``fit_report_``; ``"raise"`` propagates
:class:`~repro.exceptions.ClusterUnhealthyError`.

The backend is **lazy**: workers spawn on first use, so constructing
an estimator with ``backend="distributed"`` costs nothing until fit.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.distributed.framing import Transport
from repro.distributed.supervisor import Supervisor
from repro.parallel.backends import Backend, effective_n_jobs

__all__ = ["DistributedBackend"]


class DistributedBackend(Backend):
    """Socket-based backend over supervised localhost worker processes.

    Parameters
    ----------
    n_workers:
        Worker subprocesses to spawn (default: every available core).
    heartbeat_interval:
        Seconds between supervisor liveness probes (0 disables).
    task_timeout:
        Per-round deadline budget for one batch of products or calls.
    max_retries:
        Recovery rounds (retry + reassign) before the cluster is
        declared unhealthy.
    backoff_base:
        First retry's backoff sleep; doubles each round.
    on_unhealthy:
        ``"degrade"`` — callers holding local shard copies fall back
        to a local backend; ``"raise"`` — propagate
        :class:`~repro.exceptions.ClusterUnhealthyError`.
    chaos:
        Optional :class:`~repro.distributed.chaos.ChaosPlan`; when it
        carries transport triggers, every worker connection is wrapped
        in a :class:`~repro.distributed.chaos.ChaosTransport`.
    """

    name = "distributed"
    #: Shards must be *shipped* (no shared address space); the sharded
    #: layer checks this flag to pick the remote transport path.
    remote = True

    def __init__(
        self,
        n_workers: Optional[int] = None,
        heartbeat_interval: float = 2.0,
        task_timeout: float = 30.0,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        on_unhealthy: str = "degrade",
        chaos: Optional[Any] = None,
    ) -> None:
        if on_unhealthy not in ("degrade", "raise"):
            raise ValueError(
                f"on_unhealthy must be 'degrade' or 'raise', "
                f"got {on_unhealthy!r}"
            )
        self.n_workers = effective_n_jobs(-1 if n_workers is None else n_workers)
        self.heartbeat_interval = float(heartbeat_interval)
        self.task_timeout = float(task_timeout)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.on_unhealthy = on_unhealthy
        self.chaos = chaos
        self._supervisor: Optional[Supervisor] = None
        self._closed = False
        self._shard_counter = 0

    # ------------------------------------------------------------------
    def _transport_factory(self) -> Callable[[socket.socket], Transport]:
        plan = self.chaos
        if plan is not None and plan.wants_transport():
            from repro.distributed.chaos import ChaosTransport

            def make(sock: socket.socket) -> Transport:
                return ChaosTransport(sock, plan)

            return make
        return Transport

    def _ensure_started(self) -> Supervisor:
        if self._closed:
            raise RuntimeError("DistributedBackend is closed")
        if self._supervisor is None:
            self._supervisor = Supervisor(
                n_workers=self.n_workers,
                heartbeat_interval=self.heartbeat_interval,
                task_timeout=self.task_timeout,
                max_retries=self.max_retries,
                backoff_base=self.backoff_base,
                transport_factory=self._transport_factory(),
            )
        return self._supervisor

    @property
    def started(self) -> bool:
        """True once worker processes exist (first use, not __init__)."""
        return self._supervisor is not None

    @property
    def healthy(self) -> bool:
        """True when at least one worker is alive (lazily: not started
        counts as healthy — workers would spawn on first use)."""
        if self._supervisor is None:
            return not self._closed
        return self._supervisor.healthy

    # ------------------------------------------------------------------
    # Remote-shard surface (ShardedOperator)
    # ------------------------------------------------------------------
    def ship_shards(
        self, payloads: Sequence[Dict[str, Any]]
    ) -> List[str]:
        """Ship shard payloads to workers; returns their shard keys.

        Each payload dict carries ``kind`` (``"csr"``/``"dense"``),
        ``shape``, and ``arrays`` (name → ndarray).  Payloads are
        retained by the supervisor for reassignment after worker
        death.
        """
        supervisor = self._ensure_started()
        keys = []
        for payload in payloads:
            key = f"shard-{self._shard_counter}"
            self._shard_counter += 1
            supervisor.ship_shard(
                key, payload["kind"], payload["shape"], payload["arrays"]
            )
            keys.append(key)
        return keys

    def run_tasks(self, tasks: Sequence[Dict[str, Any]]) -> List[Any]:
        """Run shard-kernel tasks (``key``/``kernel``/``operand``)."""
        return self._ensure_started().run_tasks(tasks)

    def kill_worker(self, worker_id: int) -> None:
        """Kill one worker (chaos/test hook)."""
        self._ensure_started().kill_worker(worker_id)

    # ------------------------------------------------------------------
    # Generic Backend surface
    # ------------------------------------------------------------------
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        tasks = list(items)
        if not tasks:
            return []
        return self._ensure_started().run_calls(fn, tasks)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Recovery and traffic counters for benchmarks and reports."""
        if self._supervisor is None:
            return {
                "started": False,
                "bytes_sent": 0,
                "bytes_received": 0,
                "worker_deaths": 0,
                "reassignments": 0,
                "retries": 0,
                "heartbeats": 0,
                "live_workers": 0,
            }
        sent, received = self._supervisor.traffic()
        return {
            "started": True,
            "bytes_sent": sent,
            "bytes_received": received,
            "worker_deaths": self._supervisor.worker_deaths,
            "reassignments": self._supervisor.reassignments,
            "retries": self._supervisor.retries,
            "heartbeats": self._supervisor.heartbeats,
            "live_workers": len(self._supervisor.survivors),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            self._supervisor.close()
            self._supervisor = None
