"""Execution backend interface.

A backend turns one :class:`~repro.core.job.Job` into a
:class:`~repro.core.job.JobResult`, blocking for the job's duration.  The
scheduler owns all concurrency; backends only know how to run one job.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.job import Job, JobResult
from repro.core.options import Options

__all__ = ["Backend"]


class Backend(abc.ABC):
    """Runs jobs; one instance is shared by all of a run's worker threads."""

    #: Reported in joblogs and results as the execution host.
    host: str = "local"

    #: Concurrency the backend itself fixes (a host roster's total slots);
    #: None = the scheduler's ``-j`` applies unchanged.
    total_slots: Optional[int] = None

    #: Observability hook (a :class:`repro.obs.RunTracer`); None when the
    #: run is not being traced.  Backends emit point events through it
    #: (``self._tracer.instant(...)``) guarded by an ``is not None`` test.
    _tracer = None

    def bind_tracer(self, tracer) -> None:
        """Attach the run's tracer (called by the scheduler per run)."""
        self._tracer = tracer

    @abc.abstractmethod
    def run_job(
        self, job: Job, slot: int, options: Options, timeout: float | None = None
    ) -> JobResult:
        """Execute ``job`` to completion and return its result.

        ``timeout`` is the effective per-job wall-clock limit computed by
        the scheduler (seconds; None = unlimited) — backends must honour it
        by returning a TIMED_OUT result.  Backends must never raise for an
        ordinary job failure; failures are results, not exceptions.
        """

    def prepare_run(self, options: Options) -> None:
        """One-time per-run setup, called by the scheduler before dispatch.

        Backends hoist per-job-invariant work here — merged environments,
        process pools — so nothing constant is recomputed on the per-job
        hot path.  Default: nothing.
        """

    def prefetch_job(self, job: Job, options: Options) -> None:
        """Start ``job``'s stage-in ahead of its slot (``--stage-ahead``).

        Called by the scheduler for jobs it has pulled from the input but
        cannot dispatch yet.  Default: nothing to stage.
        """

    def staging_stats(self) -> dict:
        """Data-plane counters for the run summary; empty when none."""
        return {}

    def cancel_all(self) -> None:
        """Best-effort termination of everything in flight (``--halt now``)."""

    def close(self) -> None:
        """Release backend resources after a run."""
