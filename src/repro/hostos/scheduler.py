"""Fair-share CPU scheduling: the fluid model of Linux CFS + cgroup CPU.

The scheduler implements generalized processor sharing (GPS): at any
instant, the machine's cycle throughput is divided among cgroups with
runnable tasks in proportion to their ``cpu_shares`` (capped by their
``cpu_quota``), and equally among tasks within a cgroup.  Rates are
recomputed whenever a task arrives, finishes, or a knob changes, and each
task's completion event is rescheduled -- the same event-driven fluid
technique the network fabric uses.

This is where the cross-layer fidelity the paper argues for comes from:
a container's CPU contention directly stretches request service times,
which shifts network traffic timing, which moves congestion.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Optional

from repro.errors import SchedulingError
from repro.hardware.cpu import Cpu
from repro.hostos.cgroup import CGroup
from repro.sim.kernel import Event, Simulator
from repro.sim.process import Signal


class Task:
    """A finite piece of CPU work (``cycles``) charged to a cgroup.

    The ``done`` Signal succeeds with the task when the last cycle
    executes.  Tasks can be cancelled (e.g. their container was stopped).
    """

    def __init__(self, scheduler: "FairShareScheduler", cycles: float,
                 cgroup: Optional[CGroup], name: str) -> None:
        # Numbered per scheduler, so an anonymous task's name (and the
        # text of its cancellation error) does not depend on how many
        # tasks the interpreter made before.
        self.task_id = next(scheduler._task_ids)
        self.scheduler = scheduler
        self.cycles = float(cycles)
        self.remaining = float(cycles)
        self.cgroup = cgroup
        self.name = name or f"task{self.task_id}"
        self.done = Signal(scheduler.sim, name=f"{self.name}.done")
        self.submitted_at = scheduler.sim.now
        self.completed_at: Optional[float] = None
        self.rate = 0.0
        self._last_update = scheduler.sim.now
        self._completion_event: Optional[Event] = None

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def cancel(self) -> None:
        """Abort the task; its ``done`` signal fails."""
        self.scheduler._cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Task {self.name} {self.remaining:.0f}/{self.cycles:.0f}cy>"


# The root cgroup: tasks submitted without an explicit group land here.
_ROOT_SHARES = 1024


class FairShareScheduler:
    """GPS over one machine's CPU with two-level (cgroup, task) sharing."""

    def __init__(self, sim: Simulator, cpu: Cpu, owner: str = "") -> None:
        self.sim = sim
        self.cpu = cpu
        self.owner = owner
        # Insertion-ordered (dict-as-set): iteration order is submission
        # order, identical in every interpreter process.  A real set of
        # Task objects iterates in id()-hash order, which leaks memory
        # layout into float-sum ordering and event scheduling order.
        self._tasks: Dict[Task, None] = {}
        self._task_ids = itertools.count(1)
        self.tasks_completed = 0
        self.tasks_cancelled = 0

    # -- submission --------------------------------------------------------

    def submit(self, cycles: float, cgroup: Optional[CGroup] = None,
               name: str = "") -> Task:
        """Queue ``cycles`` of work; returns the Task (wait on ``task.done``)."""
        if cycles < 0:
            raise SchedulingError(f"{self.owner}: cannot submit {cycles} cycles")
        task = Task(self, cycles, cgroup, name)
        if cycles == 0:
            task.completed_at = self.sim.now
            task.done.succeed(task)
            return task
        self._tasks[task] = None
        self._recompute()
        return task

    def run(self, cycles: float, cgroup: Optional[CGroup] = None,
            name: str = "") -> Signal:
        """Convenience: submit and return just the completion Signal."""
        return self.submit(cycles, cgroup, name).done

    # -- knob changes ---------------------------------------------------------

    def notify_change(self) -> None:
        """Re-balance after a cgroup knob changed (shares/quota edits)."""
        self._recompute()

    # -- internals --------------------------------------------------------------

    def _cancel(self, task: Task) -> None:
        if task.finished:
            return
        self._settle(task)
        self._detach(task)
        self.tasks_cancelled += 1
        task.done.fail(SchedulingError(f"task {task.name} cancelled"))
        self._recompute()

    def _settle(self, task: Task) -> None:
        elapsed = self.sim.now - task._last_update
        if elapsed > 0 and task.rate > 0:
            executed = min(task.remaining, task.rate * elapsed)
            task.remaining -= executed
            self.cpu.account_cycles(executed)
        task._last_update = self.sim.now

    def _detach(self, task: Task) -> None:
        self._tasks.pop(task, None)
        if task._completion_event is not None:
            task._completion_event.cancel()
            task._completion_event = None

    def _group_rates(self) -> Dict[Optional[CGroup], float]:
        """Water-fill capacity across cgroups by shares, capped by quotas."""
        capacity = self.cpu.capacity
        groups: Dict[Optional[CGroup], int] = {}
        for task in self._tasks:
            groups[task.cgroup] = groups.get(task.cgroup, 0) + 1

        weights = {
            group: (group.cpu_shares if group is not None else _ROOT_SHARES)
            for group in groups
        }
        caps = {
            group: (
                group.cpu_quota * capacity
                if group is not None and group.cpu_quota is not None
                else math.inf
            )
            for group in groups
        }
        rates: Dict[Optional[CGroup], float] = {group: 0.0 for group in groups}
        # ``groups`` is insertion-ordered off the task list, so water-fill
        # rounds visit cgroups (and sum their float weights) in the same
        # order in every process.
        active = list(groups)
        remaining = capacity
        while active and remaining > 1e-9:
            total_weight = sum(weights[g] for g in active)
            capped = []
            for group in active:
                share = remaining * weights[group] / total_weight
                if rates[group] + share >= caps[group] - 1e-9:
                    capped.append(group)
            if capped:
                for group in capped:
                    remaining -= caps[group] - rates[group]
                    rates[group] = caps[group]
                active = [g for g in active if g not in capped]
                continue
            for group in active:
                rates[group] += remaining * weights[group] / total_weight
            remaining = 0.0
        return rates

    def _recompute(self) -> None:
        for task in self._tasks:
            self._settle(task)

        group_rates = self._group_rates()
        group_counts: Dict[Optional[CGroup], int] = {}
        for task in self._tasks:
            group_counts[task.cgroup] = group_counts.get(task.cgroup, 0) + 1

        demand = 0.0
        for task in self._tasks:
            task.rate = group_rates[task.cgroup] / group_counts[task.cgroup]
            demand += task.rate
            if task._completion_event is not None:
                task._completion_event.cancel()
                task._completion_event = None
            if task.rate > 0:
                eta = task.remaining / task.rate
                task._completion_event = self.sim.schedule(eta, self._complete, task)

        self.cpu.set_utilization(demand / self.cpu.capacity if self.cpu.capacity else 0.0)

    def _complete(self, task: Task) -> None:
        if task.finished:
            return
        self._settle(task)
        if task.remaining > max(1e-6, task.cycles * 1e-9):
            # Stale wakeup or floating-point residue: re-arm completion so
            # the task always finishes (a zero rate waits for recompute).
            if task.rate > 0:
                task._completion_event = self.sim.schedule(
                    task.remaining / task.rate, self._complete, task
                )
            return
        task.remaining = 0.0
        task.completed_at = self.sim.now
        self._detach(task)
        self.tasks_completed += 1
        # Rebalance *before* waking waiters: code resumed by this task's
        # completion (e.g. a REST handler reading CPU load) must observe
        # the post-completion utilisation, not its own finished work.
        self._recompute()
        task.done.succeed(task)

    # -- reporting -----------------------------------------------------------------

    @property
    def runnable_count(self) -> int:
        return len(self._tasks)

    def load_by_cgroup(self) -> Dict[str, int]:
        """Runnable task count per cgroup name (dashboard feed)."""
        counts: Dict[str, int] = {}
        for task in self._tasks:
            key = task.cgroup.name if task.cgroup else "<root>"
            counts[key] = counts.get(key, 0) + 1
        return counts


class FifoScheduler(FairShareScheduler):
    """Run-to-completion FIFO CPU model: the ablation baseline.

    Ignores cgroup shares/quotas entirely: tasks execute one at a time at
    full speed in arrival order.  Exists to quantify what the GPS model
    buys (DESIGN.md §4): under FIFO, a long batch task head-of-line
    blocks every interactive request behind it, so service latency
    distributions are qualitatively wrong for co-located workloads.
    """

    def _group_rates(self) -> Dict[Optional[CGroup], float]:  # pragma: no cover
        raise NotImplementedError("FIFO does not use group rates")

    def _recompute(self) -> None:
        for task in self._tasks:
            self._settle(task)
        # Oldest task (by id) runs alone at full speed; the rest wait.
        running = min(self._tasks, key=lambda t: t.task_id, default=None)
        demand = 0.0
        for task in self._tasks:
            task.rate = self.cpu.capacity if task is running else 0.0
            demand += task.rate
            if task._completion_event is not None:
                task._completion_event.cancel()
                task._completion_event = None
            if task.rate > 0:
                task._completion_event = self.sim.schedule(
                    task.remaining / task.rate, self._complete, task
                )
        self.cpu.set_utilization(
            demand / self.cpu.capacity if self.cpu.capacity else 0.0
        )
