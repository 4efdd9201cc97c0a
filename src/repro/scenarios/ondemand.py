"""The on-demand scheduler: answer a query by evaluating waves of cells.

:func:`run_query` drives a :class:`~repro.scenarios.query.QuerySpec` to an
answer by repeatedly submitting small *waves* of sweep cells — through a
pluggable :class:`WaveExecutor` — and feeding the scores back into the
query's stopping rule.  Three drivers implement the three query kinds:

* ``best_of`` races one single-candidate *arm* spec per candidate, consuming
  the same cell prefix of every arm in lockstep so eliminations compare like
  with like.  With ``prefetch`` enabled the next wave is already in flight
  while the current one is scored, so eliminating a loser genuinely cancels
  running cells (through the executor's cancel path — the lease broker's
  ``CancelToken`` plumbing when executing remotely).  Prefetched outcomes of
  a wave that was never scored are discarded, so the cells *consumed* — and
  therefore the answer — are identical with prefetching on or off.
* ``adaptive_refinement`` evaluates a coarse subset of one axis's positions,
  then walks outward from the best position until the stopping rule calls
  the objective converged.
* ``confidence_sampling`` adds one workload per wave (wave *w* takes the
  cells with workload index *w* inside each core/group/axis block) and
  stops once the ranking is stable.

Every evaluated cell is an ordinary cell of an ordinary spec at its
ordinary :func:`~repro.scenarios.runner.expand_cells` position, executed
through the ordinary supervised path (cache, retries, faults) — so the
:class:`QueryResult`'s record of *exactly which* cells ran lets a full-grid
``run_scenario`` replay pin each one bit-identical.

The default :class:`InProcessWaveExecutor` runs waves on threads over the
shared process pool; the scenario service substitutes a broker-backed
executor (``repro.service.jobs``) that submits each wave as a child job
through the lease broker, scaling queries across the worker fleet.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.experiments.accuracy import summarize_rms
from repro.experiments.case_study import average_throughput
from repro.experiments.common import run_parallel
from repro.experiments.supervisor import CancelToken
from repro.faults import FaultPlan, plan_from_env
from repro.scenarios.query import QuerySpec
from repro.scenarios.runner import (
    EVALUATORS,
    axis_value_label,
    expand_cells,
)

__all__ = [
    "InProcessWaveExecutor",
    "QueryResult",
    "WaveExecutor",
    "format_query_payload",
    "run_query",
]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _notify(observer, event: dict) -> None:
    if observer is not None:
        observer(dict(event))


# ---------------------------------------------------------------- executors


class WaveExecutor:
    """Where query waves run.  ``start`` must not block on evaluation.

    ``start(spec, indices, label)`` launches the cells of ``spec`` at the
    given :func:`expand_cells` positions and returns a handle with two
    methods: ``wait()`` blocks until the wave resolves and returns a
    ``{global_index: outcome}`` dict (raising
    :class:`~repro.errors.JobCancelledError` if the wave was cancelled, or
    the evaluation error otherwise), and ``cancel()`` requests cooperative
    cancellation and returns immediately.
    """

    def start(self, spec, indices, label: str):
        raise NotImplementedError


class _InProcessHandle:
    def __init__(self, token: CancelToken):
        self.token = token
        self._done = threading.Event()
        self._result: dict | None = None
        self._error: BaseException | None = None

    def wait(self) -> dict:
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._result

    def cancel(self) -> None:
        self.token.cancel()


class InProcessWaveExecutor(WaveExecutor):
    """Run each wave on a thread through the supervised parallel path.

    Waves of different arms run concurrently (they share the persistent
    process pool), completed cells land in the content-addressed cache as
    they finish, and a cancelled wave unwinds at the next cell boundary —
    exactly the semantics a lease-holding worker has.
    """

    def __init__(self, jobs: int | None = None, cache: bool = True):
        self.jobs = jobs
        self.cache = cache
        self._plans: dict[int, tuple] = {}

    def _plan(self, spec):
        key = id(spec)
        if key not in self._plans:
            evaluator, cost_key = EVALUATORS[spec.kind]
            self._plans[key] = (expand_cells(spec), evaluator, cost_key, spec)
        return self._plans[key]

    def start(self, spec, indices, label: str) -> _InProcessHandle:
        cells, evaluator, cost_key, _ = self._plan(spec)
        indices = list(indices)
        tasks = [cells[index].task for index in indices]
        # Mirror the LocalPool: remap the fault plan to the wave's slice and
        # never let run_parallel fall back to the environment plan with
        # unremapped indices.
        plan = spec.fault_plan if spec.fault_plan is not None else plan_from_env()
        plan = (plan if plan is not None else FaultPlan()).for_cells(indices)
        token = CancelToken()
        handle = _InProcessHandle(token)

        def work() -> None:
            try:
                outcomes = run_parallel(
                    evaluator, tasks, jobs=self.jobs, cost_key=cost_key,
                    cache=self.cache, cancel=token, fault_plan=plan,
                )
            except BaseException as error:  # noqa: BLE001 — surfaced via wait()
                handle._error = error
            else:
                handle._result = dict(zip(indices, outcomes))
            finally:
                handle._done.set()

        thread = threading.Thread(target=work, daemon=True,
                                  name=f"wave-{label}")
        thread.start()
        return handle


# ------------------------------------------------------------------ scoring


def _arm_cell_score(race: str, candidate: str, outcome) -> float:
    """One cell's score for one best_of candidate, oriented higher-is-better."""
    if race == "policies":
        return float(outcome.stp.get(candidate, 0.0))
    return -summarize_rms([outcome], candidate)


def _objective_name(kind: str) -> tuple[str, bool]:
    """(human name, higher_is_better) of the kind's aggregate objective."""
    if kind == "throughput":
        return "average_stp", True
    return "ipc_rms", False


def _aggregate_objective(spec, results) -> float:
    """A cell set's best objective value, oriented higher-is-better.

    Throughput sweeps optimise the best policy's mean STP; accuracy sweeps
    optimise the best technique's mean IPC RMS (negated so that *higher*
    oriented scores are always better).
    """
    if spec.kind == "throughput":
        return max(average_throughput(results, policy)
                   for policy in spec.policies)
    return -min(summarize_rms(results, technique)
                for technique in spec.techniques)


def _candidate_scores(spec, results) -> dict[str, float]:
    """Raw per-candidate aggregate scores over a cell set."""
    if spec.kind == "throughput":
        return {policy: average_throughput(results, policy)
                for policy in spec.policies}
    return {technique: summarize_rms(results, technique)
            for technique in spec.techniques}


def _ranking(spec, results) -> tuple[str, ...]:
    """Best-first candidate ranking, tie-broken by name.

    Matches the composite ``best_*`` selectors' ``(-score, name)`` /
    ``(score, name)`` orders, so a query and a composite over the same
    cells rank candidates identically.
    """
    scores = _candidate_scores(spec, results)
    if spec.kind == "throughput":
        return tuple(sorted(scores, key=lambda name: (-scores[name], name)))
    return tuple(sorted(scores, key=lambda name: (scores[name], name)))


# ------------------------------------------------------------------- results


@dataclass
class QueryResult:
    """The answer plus an exact record of which cells were evaluated.

    ``evaluated`` maps arm name to ``{"spec": <spec dict>, "cells":
    [global indices]}`` — enough for a replay to run ``run_scenario`` on the
    very same spec and compare the listed cells bit-for-bit.  ``outcomes``
    keeps the raw consumed outcome objects (by arm, by global index) for
    in-process callers; it is deliberately absent from ``to_dict()``.
    """

    query: QuerySpec
    answer: dict
    evaluated: dict[str, dict]
    waves: list[dict]
    cells_evaluated: int
    cells_total: int
    outcomes: dict[str, dict[int, object]] = field(
        default_factory=dict, repr=False, compare=False)

    def to_dict(self) -> dict:
        saved = 0.0
        if self.cells_total:
            saved = 100.0 * (1.0 - self.cells_evaluated / self.cells_total)
        return {
            "query": self.query.to_dict(),
            "kind": self.query.kind,
            "answer": self.answer,
            "evaluated": self.evaluated,
            "waves": self.waves,
            "cells": {
                "evaluated": self.cells_evaluated,
                "total": self.cells_total,
                "saved_percent": round(saved, 2),
            },
        }

    def report(self) -> str:
        return format_query_payload(self.to_dict())


def format_query_payload(payload: dict) -> str:
    """Human-readable summary of a query result payload (dict form)."""
    query = payload.get("query", {})
    answer = payload.get("answer", {})
    cells = payload.get("cells", {})
    kind = payload.get("kind", query.get("kind", "?"))
    lines = [f"Query '{query.get('name', '?')}' ({kind})"]
    scores = answer.get("scores", {})
    if kind == "best_of":
        direction = "higher" if answer.get("higher_is_better") else "lower"
        lines.append(
            f"  winner: {answer.get('winner')} "
            f"({answer.get('objective')}, {direction} is better)"
        )
        if scores:
            ranked = sorted(scores.items(),
                            key=lambda item: (-item[1], item[0])
                            if answer.get("higher_is_better")
                            else (item[1], item[0]))
            lines.append("  scores: " + "  ".join(
                f"{name}={value:.4f}" for name, value in ranked))
        for drop in answer.get("eliminated", []):
            lines.append(
                f"  eliminated {drop['candidate']} after "
                f"{drop['after_cells']} cells"
            )
    elif kind == "adaptive_refinement":
        lines.append(
            f"  best {answer.get('axis')}: {answer.get('label')} "
            f"({answer.get('objective')} = {answer.get('score'):.4f})"
        )
        positions = answer.get("positions", {})
        if positions:
            lines.append("  evaluated: " + "  ".join(
                f"{label}={value:.4f}" for label, value in positions.items()))
    elif kind == "confidence_sampling":
        lines.append("  ranking: " + " > ".join(answer.get("ranking", [])))
        lines.append(
            f"  stable after {answer.get('workloads_used')} of "
            f"{answer.get('workloads_total')} workloads per group"
            if answer.get("stable")
            else "  ranking not stable — all workloads consumed"
        )
    evaluated = cells.get("evaluated")
    total = cells.get("total")
    lines.append(
        f"  cells: {evaluated}/{total} evaluated "
        f"({cells.get('saved_percent', 0.0):.1f}% of the grid skipped)"
    )
    return "\n".join(lines)


# ------------------------------------------------------------------- drivers


def run_query(query: QuerySpec, jobs: int | None = None, cache: bool = True,
              executor: WaveExecutor | None = None, observer=None,
              cancel: CancelToken | None = None) -> QueryResult:
    """Answer ``query`` by evaluating only the cells its question needs.

    ``executor`` defaults to the in-process
    :class:`InProcessWaveExecutor` (``jobs``/``cache`` configure it);
    ``observer``, when given, receives one dict per wave lifecycle event
    (``wave_started`` / ``wave_done`` / ``candidate_eliminated``) — the
    service forwards these onto the query job's SSE stream.  ``cancel``
    stops the query at the next wave boundary with
    :class:`~repro.errors.JobCancelledError`.
    """
    query.validate()
    if executor is None:
        executor = InProcessWaveExecutor(jobs=jobs, cache=cache)
    if cancel is None:
        cancel = CancelToken()
    if query.kind == "best_of":
        return _run_best_of(query, executor, observer, cancel)
    if query.kind == "adaptive_refinement":
        return _run_refinement(query, executor, observer, cancel)
    return _run_sampling(query, executor, observer, cancel)


def _run_best_of(query: QuerySpec, executor, observer,
                 cancel: CancelToken) -> QueryResult:
    race = query.resolved_race()
    rule = query.rule()
    candidates = list(query.candidates())
    arms = {name: query.arm_spec(name) for name in candidates}
    # Expansion does not depend on the candidate tuple, so every arm has the
    # same grid in the same order.
    grid = len(expand_cells(arms[candidates[0]]))
    samples: dict[str, list[float]] = {name: [] for name in candidates}
    outcomes: dict[str, dict[int, object]] = {name: {} for name in candidates}
    survivors = list(candidates)
    eliminated: list[dict] = []
    waves: list[dict] = []
    inflight: dict[str, tuple[list[int], object]] = {}
    current: dict[str, tuple[list[int], object]] = {}
    offset = 0
    wave_no = 0
    try:
        while offset < grid and len(survivors) > 1:
            cancel.raise_if_cancelled()
            count = min(query.wave_cells, grid - offset)
            indices = list(range(offset, offset + count))
            wave_no += 1
            for name in survivors:
                if name not in inflight:
                    inflight[name] = (
                        indices,
                        executor.start(arms[name], indices,
                                       f"{name}#{wave_no}"),
                    )
                _notify(observer, {"event": "wave_started", "wave": wave_no,
                                   "arm": name, "cells": count})
            current = {name: inflight.pop(name) for name in survivors}
            # Prefetch: launch every survivor's next wave before scoring this
            # one, so losers have cells genuinely in flight to cancel.
            if query.prefetch and offset + count < grid:
                ahead = list(range(offset + count,
                                   min(offset + count + query.wave_cells,
                                       grid)))
                for name in survivors:
                    inflight[name] = (
                        ahead,
                        executor.start(arms[name], ahead,
                                       f"{name}#{wave_no + 1}"),
                    )
            for name in survivors:
                wave_indices, handle = current[name]
                got = handle.wait()
                del current[name]  # consumed: nothing left to cancel
                for index in wave_indices:
                    outcomes[name][index] = got[index]
                    samples[name].append(
                        _arm_cell_score(race, name, got[index]))
                _notify(observer, {"event": "wave_done", "wave": wave_no,
                                   "arm": name, "cells": count,
                                   "consumed": len(samples[name])})
            waves.append({"wave": wave_no, "arms": list(survivors),
                          "offset": offset, "cells": count})
            offset += count
            for loser in rule.eliminate(
                    {name: samples[name] for name in survivors}):
                survivors.remove(loser)
                pending = inflight.pop(loser, None)
                if pending is not None:
                    pending[1].cancel()
                eliminated.append({"candidate": loser,
                                   "after_cells": len(samples[loser])})
                _notify(observer, {"event": "candidate_eliminated",
                                   "candidate": loser,
                                   "after_cells": len(samples[loser])})
    finally:
        # The answer is decided (or the query failed/was cancelled):
        # anything still in flight — prefetched waves, and the rest of a
        # wave whose wait was interrupted — was speculative; cancel it.
        # Completed cells stay cached.
        for _, handle in (*inflight.values(), *current.values()):
            handle.cancel()
    means = {name: _mean(samples[name]) for name in survivors}
    winner = min(survivors, key=lambda name: (-means[name], name))
    objective, higher_is_better = _objective_name(query.base.kind)
    raw_scores = {
        name: (_mean(values) if race == "policies" else -_mean(values))
        for name, values in samples.items() if values
    }
    answer = {
        "race": race,
        "winner": winner,
        "decided": len(survivors) == 1,
        "objective": objective,
        "higher_is_better": higher_is_better,
        "scores": raw_scores,
        "eliminated": eliminated,
    }
    evaluated = {
        name: {"spec": arms[name].to_dict(),
               "cells": sorted(outcomes[name])}
        for name in candidates
    }
    return QueryResult(
        query=query, answer=answer, evaluated=evaluated, waves=waves,
        cells_evaluated=sum(len(cells) for cells in outcomes.values()),
        cells_total=grid * len(candidates),
        outcomes=outcomes,
    )


def _run_refinement(query: QuerySpec, executor, observer,
                    cancel: CancelToken) -> QueryResult:
    spec = query.base
    axis = query.resolved_axis()
    axis_position = [a.name for a in spec.axes].index(axis.name)
    cells = expand_cells(spec)
    labels = [axis_value_label(axis, value) for value in axis.values]
    label_to_position = {label: position
                         for position, label in enumerate(labels)}
    positions: dict[int, list[int]] = {}
    for index, cell in enumerate(cells):
        label = cell.key[2].split("/")[axis_position]
        positions.setdefault(label_to_position[label], []).append(index)
    total_values = len(axis.values)
    rule = query.rule()
    consumed: dict[int, object] = {}
    position_scores: dict[int, float] = {}
    waves: list[dict] = []
    wave_no = 0

    def evaluate(wanted: list[int], round_name: str) -> None:
        nonlocal wave_no
        handles = []
        for position in wanted:
            wave_no += 1
            indices = positions[position]
            _notify(observer, {"event": "wave_started", "wave": wave_no,
                               "arm": labels[position], "round": round_name,
                               "cells": len(indices)})
            handles.append((wave_no, position, indices,
                            executor.start(spec, indices,
                                           f"{labels[position]}#{wave_no}")))
        for at, (number, position, indices, handle) in enumerate(handles):
            try:
                got = handle.wait()
            except BaseException:
                # An interrupted round must not strand its sibling waves.
                for _, _, _, pending in handles[at:]:
                    pending.cancel()
                raise
            for index in indices:
                consumed[index] = got[index]
            position_scores[position] = _aggregate_objective(
                spec, [got[index] for index in indices])
            waves.append({"wave": number, "arms": [labels[position]],
                          "round": round_name, "cells": len(indices)})
            _notify(observer, {"event": "wave_done", "wave": number,
                               "arm": labels[position], "round": round_name,
                               "cells": len(indices)})

    cancel.raise_if_cancelled()
    coarse = sorted(set(range(0, total_values, query.coarse_step))
                    | {total_values - 1})
    evaluate(coarse, "coarse")
    previous_best: float | None = None
    while True:
        cancel.raise_if_cancelled()
        best_position = min(position_scores,
                            key=lambda p: (-position_scores[p], p))
        best = position_scores[best_position]
        if rule.converged(previous_best, best):
            break
        neighbours = [p for p in (best_position - 1, best_position + 1)
                      if 0 <= p < total_values and p not in position_scores]
        if not neighbours:
            break
        previous_best = best
        evaluate(neighbours, "refine")
    objective, higher_is_better = _objective_name(spec.kind)
    orient = 1.0 if higher_is_better else -1.0
    answer = {
        "axis": axis.name,
        "value": axis.values[best_position],
        "label": labels[best_position],
        "objective": objective,
        "higher_is_better": higher_is_better,
        "score": orient * position_scores[best_position],
        "positions": {labels[p]: orient * position_scores[p]
                      for p in sorted(position_scores)},
    }
    evaluated = {spec.name: {"spec": spec.to_dict(),
                             "cells": sorted(consumed)}}
    return QueryResult(
        query=query, answer=answer, evaluated=evaluated, waves=waves,
        cells_evaluated=len(consumed), cells_total=len(cells),
        outcomes={spec.name: consumed},
    )


def _run_sampling(query: QuerySpec, executor, observer,
                  cancel: CancelToken) -> QueryResult:
    spec = query.base
    cells = expand_cells(spec)
    per_group = spec.workloads.per_group
    rule = query.rule()
    consumed: dict[int, object] = {}
    results: list = []
    rankings: list[tuple[str, ...]] = []
    waves: list[dict] = []
    used = 0
    for wave_no in range(1, per_group + 1):
        cancel.raise_if_cancelled()
        # Workloads are the innermost expansion loop: within each
        # core/group/axis block of `per_group` consecutive cells, position
        # w-1 is workload w.  The generator draws workloads sequentially
        # from one seeded RNG, so wave w everywhere samples the same
        # workload the full grid has at that position.
        indices = [index for index in range(len(cells))
                   if index % per_group == wave_no - 1]
        _notify(observer, {"event": "wave_started", "wave": wave_no,
                           "arm": spec.name, "cells": len(indices)})
        handle = executor.start(spec, indices, f"sample#{wave_no}")
        got = handle.wait()
        for index in indices:
            consumed[index] = got[index]
            results.append(got[index])
        used = wave_no
        rankings.append(_ranking(spec, results))
        waves.append({"wave": wave_no, "arms": [spec.name],
                      "cells": len(indices),
                      "ranking": list(rankings[-1])})
        _notify(observer, {"event": "wave_done", "wave": wave_no,
                           "arm": spec.name, "cells": len(indices),
                           "ranking": list(rankings[-1])})
        if rule.stable(rankings):
            break
    objective, higher_is_better = _objective_name(spec.kind)
    answer = {
        "ranking": list(rankings[-1]),
        "stable": rule.stable(rankings),
        "objective": objective,
        "higher_is_better": higher_is_better,
        "scores": _candidate_scores(spec, results),
        "workloads_used": used,
        "workloads_total": per_group,
    }
    evaluated = {spec.name: {"spec": spec.to_dict(),
                             "cells": sorted(consumed)}}
    return QueryResult(
        query=query, answer=answer, evaluated=evaluated, waves=waves,
        cells_evaluated=len(consumed), cells_total=len(cells),
        outcomes={spec.name: consumed},
    )
