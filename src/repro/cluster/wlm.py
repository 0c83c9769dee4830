"""Workload management: admission control on simulated time.

Part of the automatic configuration story (paper II.A: deployment arrives
"with workload management ... configured to match") and the substrate for
the concurrent-throughput experiments (Table 1, Tests 2 and 4): jobs with
known service demands are admitted into a bounded number of concurrency
slots; the scheduler computes completion times on a simulated clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import AdmissionError


@dataclass
class Job:
    """One unit of admitted work."""

    job_id: object
    service_seconds: float
    arrival: float = 0.0
    stream: int | None = None
    # Filled by the scheduler:
    start: float = -1.0
    finish: float = -1.0

    @property
    def scheduled(self) -> bool:
        """Whether the scheduler has assigned this job a start/finish."""
        return self.start >= 0.0 and self.finish >= 0.0

    @property
    def queue_wait(self) -> float | None:
        """Queue wait in sim seconds; None until the job is scheduled.

        The -1.0 start/finish sentinels used to leak through here as
        negative waits; an unscheduled job now reports None so misuse
        fails loudly instead of skewing averages.
        """
        if not self.scheduled:
            return None
        return self.start - self.arrival

    @property
    def response_time(self) -> float | None:
        """Response time in sim seconds; None until the job is scheduled."""
        if not self.scheduled:
            return None
        return self.finish - self.arrival


@dataclass
class ScheduleResult:
    jobs: list[Job]
    makespan: float
    total_service: float

    @property
    def throughput_per_hour(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return len(self.jobs) * 3600.0 / self.makespan

    @property
    def mean_response(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(j.response_time for j in self.jobs) / len(self.jobs)


class WorkloadManager:
    """Admission control: at most ``concurrency`` jobs run at once.

    ``speedup(n_running)`` optionally models how per-job service time
    stretches under concurrency (memory pressure, scheduling overhead); the
    default is perfect slot isolation.
    """

    def __init__(self, concurrency: int, queue_limit: int | None = None):
        if concurrency < 1:
            raise AdmissionError("WLM needs at least one concurrency slot")
        self.concurrency = concurrency
        self.queue_limit = queue_limit

    def schedule(self, jobs: list[Job]) -> ScheduleResult:
        """Run all jobs to completion on the simulated timeline.

        Jobs are admitted in arrival order; a job whose queue would exceed
        ``queue_limit`` is rejected with AdmissionError (admission control).
        """
        pending = sorted(jobs, key=lambda j: (j.arrival, str(j.job_id)))
        running: list[tuple[float, int]] = []  # (finish_time, index)
        finished: list[Job] = []
        queue: list[Job] = []
        now = 0.0
        i = 0
        total_service = 0.0
        while i < len(pending) or queue or running:
            # Admit arrivals up to `now`.
            while i < len(pending) and pending[i].arrival <= now:
                if self.queue_limit is not None and len(queue) >= self.queue_limit:
                    raise AdmissionError(
                        "WLM queue limit %d exceeded" % self.queue_limit
                    )
                queue.append(pending[i])
                i += 1
            # Start queued jobs while slots are free.
            while queue and len(running) < self.concurrency:
                job = queue.pop(0)
                job.start = max(now, job.arrival)
                job.finish = job.start + job.service_seconds
                total_service += job.service_seconds
                heapq.heappush(running, (job.finish, id(job), job))
            # Advance time to the next event.
            next_arrival = pending[i].arrival if i < len(pending) else None
            next_finish = running[0][0] if running else None
            candidates = [t for t in (next_arrival, next_finish) if t is not None]
            if not candidates:
                break
            now = min(candidates)
            while running and running[0][0] <= now:
                _, _, job = heapq.heappop(running)
                finished.append(job)
        makespan = max((j.finish for j in finished), default=0.0)
        return ScheduleResult(
            jobs=finished, makespan=makespan, total_service=total_service
        )


def schedule_streams(
    stream_service_times: list[list[float]], concurrency: int
) -> ScheduleResult:
    """Schedule closed-loop streams: each stream runs its queries serially,
    all streams in parallel, bounded by ``concurrency`` WLM slots."""
    n_streams = len(stream_service_times)
    cursors = [0] * n_streams
    stream_ready = [0.0] * n_streams
    slot_free = [0.0] * min(concurrency, max(n_streams, 1))
    finished: list[Job] = []
    total_service = 0.0
    remaining = sum(len(s) for s in stream_service_times)
    while remaining:
        # Pick the stream whose next query can start earliest.
        best = None
        for s in range(n_streams):
            if cursors[s] >= len(stream_service_times[s]):
                continue
            if best is None or stream_ready[s] < stream_ready[best]:
                best = s
        slot = min(range(len(slot_free)), key=lambda k: slot_free[k])
        start = max(stream_ready[best], slot_free[slot])
        service = stream_service_times[best][cursors[best]]
        job = Job(
            job_id="s%d-q%d" % (best, cursors[best]),
            service_seconds=service,
            arrival=stream_ready[best],
            stream=best,
            start=start,
            finish=start + service,
        )
        finished.append(job)
        total_service += service
        slot_free[slot] = job.finish
        stream_ready[best] = job.finish
        cursors[best] += 1
        remaining -= 1
    makespan = max((j.finish for j in finished), default=0.0)
    return ScheduleResult(jobs=finished, makespan=makespan, total_service=total_service)
