"""The campaign runner: fan a spec's runs out across worker processes.

Each run executes in its own OS process so the parent can enforce a hard
per-run wall-clock timeout (``run_timeout_s``) with ``terminate()``, a
crashed interpreter cannot take the campaign down, and runs genuinely
overlap.  Inside the worker the kernel's own
:class:`~repro.core.config.SimBudgetConfig` budgets apply; a tripped
budget surfaces as a ``budget-exceeded`` *record* in the result store,
not a crashed campaign.

Workers hand results back through per-run JSON files written atomically
(tmp + ``os.replace``); the parent folds them into the JSONL
:class:`~repro.campaign.store.ResultStore` as runs finish and cleans up
any partial result/artifact files a failed or killed worker left
behind, so an interrupted CI job never uploads a corrupt store.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.campaign.scenarios import RunContext, resolve_scenario
from repro.campaign.spec import CampaignSpec, RunSpec, load_spec
from repro.campaign.store import ResultStore, RunRecord
from repro.core.config import SimBudgetConfig
from repro.errors import CampaignError, SimBudgetExceeded

_POLL_S = 0.02
_TMP_DIR = "tmp"
_ARTIFACTS_DIR = "artifacts"


def _worker_main(payload: Dict[str, Any]) -> None:
    """Run one scenario in a child process; always exit 0 with a result file.

    Any exception -- including a tripped :class:`SimBudgetExceeded` --
    becomes a structured result, written atomically so the parent either
    sees a complete result or none at all (never a half-written one).
    """
    result: Dict[str, Any] = {"status": "ok", "metrics": {}, "error": None,
                              "error_type": None, "artifacts": []}
    ctx = RunContext(
        params=payload["params"],
        seed=payload["seed"],
        budget=SimBudgetConfig(**payload["budget"]),
        artifacts_dir=Path(payload["artifacts_dir"]),
        trace=payload["trace"],
    )
    started = time.monotonic()
    try:
        scenario = resolve_scenario(payload["scenario"])
        metrics = scenario(ctx)
        if not isinstance(metrics, Mapping):
            raise CampaignError(
                f"scenario {payload['scenario']!r} returned "
                f"{type(metrics).__name__}, expected a metrics dict"
            )
        # Round-trip now so an unserialisable metric fails *this* run.
        result["metrics"] = json.loads(json.dumps(dict(metrics)))
    except SimBudgetExceeded as exc:
        result["status"] = "budget-exceeded"
        result["error"] = str(exc)
        result["error_type"] = type(exc).__name__
    except Exception as exc:
        result["status"] = "failed"
        result["error"] = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        result["error_type"] = type(exc).__name__
    result["scenario_wall_s"] = round(time.monotonic() - started, 3)
    result["artifacts"] = ctx.artifacts

    result_path = Path(payload["result_path"])
    partial = result_path.with_suffix(".partial")
    partial.parent.mkdir(parents=True, exist_ok=True)
    partial.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    os.replace(partial, result_path)


@dataclass
class _ActiveRun:
    run: RunSpec
    process: multiprocessing.process.BaseProcess
    started: float
    attempt: int
    result_path: Path
    artifacts_dir: Path
    first_started: float


@dataclass
class CampaignResult:
    """What a finished campaign hands back."""

    spec: CampaignSpec
    store: ResultStore
    out_dir: Path
    records: List[RunRecord] = field(default_factory=list)
    wall_s: float = 0.0
    dashboard_path: Optional[Path] = None

    @property
    def ok(self) -> bool:
        return bool(self.records) and all(r.ok for r in self.records)

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts


class CampaignRunner:
    """Expand a spec and execute every run under the configured budgets."""

    def __init__(
        self,
        spec: Union[CampaignSpec, Mapping[str, Any], str, Path],
        out_dir: Union[str, Path],
        workers: Optional[int] = None,
        verbose: bool = True,
    ) -> None:
        self.spec = spec if isinstance(spec, CampaignSpec) else load_spec(spec)
        self.out_dir = Path(out_dir)
        self.workers = workers if workers is not None else self.spec.workers
        if self.workers < 1:
            raise CampaignError(f"workers must be >= 1, got {self.workers}")
        self.verbose = verbose
        # fork keeps dotted-ref scenarios defined in already-imported
        # modules (tests, notebooks) resolvable in the child; spawn is
        # the portable fallback.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    # -- helpers ----------------------------------------------------------

    def _log(self, message: str) -> None:
        if self.verbose:
            print(message, file=sys.stderr, flush=True)

    def _fresh_output_layout(self) -> None:
        """Start clean: previous stores/artifacts must not bleed in."""
        for name in (
            "results.jsonl", "results.sqlite", "dashboard.html",
        ):
            path = self.out_dir / name
            if path.exists():
                path.unlink()
        for sub in (_TMP_DIR, _ARTIFACTS_DIR):
            path = self.out_dir / sub
            if path.exists():
                shutil.rmtree(path)
        (self.out_dir / _TMP_DIR).mkdir(parents=True, exist_ok=True)

    def _launch(self, run: RunSpec, attempt: int,
                first_started: Optional[float] = None) -> _ActiveRun:
        result_path = self.out_dir / _TMP_DIR / f"{run.run_id}.json"
        artifacts_dir = self.out_dir / _ARTIFACTS_DIR / run.run_id
        # A retry (or a stale previous campaign) must not inherit
        # partial output from the dead attempt.
        if result_path.exists():
            result_path.unlink()
        partial = result_path.with_suffix(".partial")
        if partial.exists():
            partial.unlink()
        if artifacts_dir.exists():
            shutil.rmtree(artifacts_dir)
        payload = {
            "scenario": run.scenario,
            "params": run.params,
            "seed": run.seed,
            "trace": self.spec.trace,
            "budget": {
                "max_events": self.spec.budget.max_events,
                "max_sim_time_s": self.spec.budget.max_sim_time_s,
                "max_wall_s": self.spec.budget.max_wall_s,
            },
            "artifacts_dir": str(artifacts_dir),
            "result_path": str(result_path),
        }
        process = self._ctx.Process(
            target=_worker_main, args=(payload,),
            name=f"campaign-{run.run_id}", daemon=True,
        )
        process.start()
        now = time.monotonic()
        return _ActiveRun(
            run=run, process=process, started=now, attempt=attempt,
            result_path=result_path, artifacts_dir=artifacts_dir,
            first_started=first_started if first_started is not None else now,
        )

    def _record_from_result(self, active: _ActiveRun,
                            result: Dict[str, Any]) -> RunRecord:
        run = active.run
        return RunRecord(
            run_id=run.run_id, campaign=run.campaign, scenario=run.scenario,
            index=run.index, cell=run.cell, params=run.params, seed=run.seed,
            status=result["status"], metrics=result.get("metrics", {}),
            error=result.get("error"), error_type=result.get("error_type"),
            attempts=active.attempt,
            duration_s=round(time.monotonic() - active.first_started, 3),
            artifacts=result.get("artifacts", []),
        )

    def _infra_failure(self, active: _ActiveRun, status: str,
                       error: str) -> RunRecord:
        """A crashed or timed-out worker: clean its debris, record it."""
        for path in (active.result_path,
                     active.result_path.with_suffix(".partial")):
            if path.exists():
                path.unlink()
        if active.artifacts_dir.exists():
            shutil.rmtree(active.artifacts_dir)
        run = active.run
        return RunRecord(
            run_id=run.run_id, campaign=run.campaign, scenario=run.scenario,
            index=run.index, cell=run.cell, params=run.params, seed=run.seed,
            status=status, metrics={}, error=error,
            error_type=status, attempts=active.attempt,
            duration_s=round(time.monotonic() - active.first_started, 3),
        )

    # -- the drive loop ---------------------------------------------------

    def run(self) -> CampaignResult:
        # Resolve the scenario up front so a typo'd name fails before a
        # single worker is forked (dotted refs also get import-checked).
        resolve_scenario(self.spec.scenario)
        runs = self.spec.expand()
        self._fresh_output_layout()
        store = ResultStore(self.out_dir)
        timeout = self.spec.run_timeout_s
        total = len(runs)
        self._log(
            f"campaign {self.spec.name!r}: {self.spec.cell_count} cells x "
            f"{len(self.spec.seeds)} seeds = {total} runs, "
            f"{min(self.workers, total)} workers"
        )
        started = time.monotonic()
        pending = list(reversed(runs))       # pop() from the front
        active: List[_ActiveRun] = []
        by_id: Dict[str, RunRecord] = {}
        done = 0
        try:
            while pending or active:
                while pending and len(active) < self.workers:
                    active.append(self._launch(pending.pop(), attempt=1))
                still_active: List[_ActiveRun] = []
                for entry in active:
                    outcome = self._poll(entry, timeout)
                    if outcome is None:
                        still_active.append(entry)
                        continue
                    record, retry = outcome
                    if retry:
                        still_active.append(self._launch(
                            entry.run, attempt=entry.attempt + 1,
                            first_started=entry.first_started,
                        ))
                        continue
                    store.append(record)
                    by_id[record.run_id] = record
                    done += 1
                    detail = "" if record.ok else f" [{record.error}]"
                    cell = ",".join(
                        f"{k}={v}" for k, v in sorted(record.cell.items())
                    ) or "(single cell)"
                    self._log(
                        f"  [{done}/{total}] {record.run_id} "
                        f"{record.status:>8s}  {cell}"
                        f" seed={record.seed} {record.duration_s:.1f}s"
                        f"{detail}"
                    )
                active = still_active
                if active:
                    time.sleep(_POLL_S)
        finally:
            for entry in active:
                if entry.process.is_alive():
                    entry.process.terminate()
                    entry.process.join(timeout=5.0)
            tmp_dir = self.out_dir / _TMP_DIR
            if tmp_dir.exists():
                shutil.rmtree(tmp_dir, ignore_errors=True)
        store.write_sqlite()
        records = sorted(by_id.values(), key=lambda r: (r.index, r.seed))
        result = CampaignResult(
            spec=self.spec, store=store, out_dir=self.out_dir,
            records=records,
            wall_s=round(time.monotonic() - started, 3),
        )
        counts = ", ".join(
            f"{count} {status}" for status, count in sorted(result.summary().items())
        )
        self._log(f"campaign {self.spec.name!r} done in {result.wall_s:.1f}s: "
                  f"{counts}")
        return result

    def _poll(self, entry: _ActiveRun, timeout: Optional[float]):
        """None while running; else (record, retry?) when resolved."""
        may_retry = entry.attempt <= self.spec.retries
        if not entry.process.is_alive():
            entry.process.join()
            if entry.result_path.exists():
                try:
                    result = json.loads(
                        entry.result_path.read_text(encoding="utf-8")
                    )
                except json.JSONDecodeError as exc:
                    result = None
                    crash_error = f"worker wrote corrupt result: {exc}"
                else:
                    entry.result_path.unlink()
                    return self._record_from_result(entry, result), False
            else:
                crash_error = (
                    f"worker died without a result "
                    f"(exit code {entry.process.exitcode})"
                )
            if may_retry:
                self._log(f"  retrying {entry.run.run_id}: {crash_error}")
                self._cleanup_attempt(entry)
                return _RETRY
            return self._infra_failure(entry, "crashed", crash_error), False
        if timeout is not None and time.monotonic() - entry.started > timeout:
            entry.process.terminate()
            entry.process.join(timeout=5.0)
            if entry.process.is_alive():  # pragma: no cover - hard kill
                entry.process.kill()
                entry.process.join()
            error = f"run exceeded run_timeout_s={timeout}"
            if may_retry:
                self._log(f"  retrying {entry.run.run_id}: {error}")
                self._cleanup_attempt(entry)
                return _RETRY
            return self._infra_failure(entry, "timeout", error), False
        return None

    def _cleanup_attempt(self, entry: _ActiveRun) -> None:
        for path in (entry.result_path,
                     entry.result_path.with_suffix(".partial")):
            if path.exists():
                path.unlink()
        if entry.artifacts_dir.exists():
            shutil.rmtree(entry.artifacts_dir)


# Sentinel returned by _poll to signal "relaunch this run".
_RETRY = (None, True)


def run_campaign(
    spec: Union[CampaignSpec, Mapping[str, Any], str, Path],
    out_dir: Union[str, Path],
    workers: Optional[int] = None,
    baseline: Optional[Union[str, Path]] = None,
    dashboard: bool = True,
    verbose: bool = True,
) -> CampaignResult:
    """Run a campaign end to end: execute, index, render the dashboard."""
    from repro.campaign.dashboard import render_dashboard

    runner = CampaignRunner(spec, out_dir, workers=workers, verbose=verbose)
    baseline_path = baseline or runner.spec.baseline
    result = runner.run()
    if dashboard:
        baseline_store = (
            ResultStore.load(baseline_path) if baseline_path else None
        )
        result.dashboard_path = Path(render_dashboard(
            result.store, runner.out_dir / "dashboard.html",
            baseline=baseline_store,
        ))
    return result
