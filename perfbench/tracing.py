"""Span tracing of the program's layers, installed from the benchmark.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public calls of each layer where the callers look them up: a
function imported by name (``from .fastsim import
evaluate_across_scenarios``) lives on in the importing module's
namespace, so every ``repro`` module attribute bound to the original
is replaced, not just the defining module's.  Methods are wrapped on
their class.  :meth:`Tracer.remove` puts every original back.

A span is ``(layer, name, start, end, parent_layer, info)`` on the
``time.monotonic`` clock, which is system-wide on Linux, so spans from a
worker process line up with the coordinator's.  A call made while the
same layer is already open in the same thread (``evaluate_member_slice``
calling ``evaluate_across_scenarios``, ``HeartbeatStorage`` delegating to
SQLite, the fidelity race running the member race) belongs to the outer
span and is not recorded again.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Collects spans in memory; owns the patches it installs."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()
        self._patches: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, info=None):
        """``fn`` recording one span per outermost call of ``layer``.

        ``info(arguments, result)`` condenses the call into the counts
        stored with the span; ``arguments`` maps parameter names to the
        bound values.
        """
        signature = inspect.signature(fn) if info is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if layer in stack:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            stack.append(layer)
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
            extra = None
            if info is not None:
                extra = info(signature.bind(*args, **kwargs).arguments, result)
            self.spans.append((layer, name, start, end, parent, extra))
            return result

        return traced

    def patch_function(self, module, attr: str, layer: str, info=None) -> None:
        """Wrap ``module.attr`` in every ``repro`` module that binds it."""
        original = getattr(module, attr)
        wrapper = self.wrap(layer, attr, original, info)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, True, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, layer: str, info=None) -> None:
        """Wrap ``cls.attr`` (own or inherited) on ``cls`` itself."""
        had_own = attr in cls.__dict__
        original = cls.__dict__[attr] if had_own else getattr(cls, attr)
        wrapper = self.wrap(layer, attr, original, info)
        self._patches.append((cls, attr, had_own, original))
        setattr(cls, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, had_own, original in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()


def _cell_info(scenarios, members, compositions) -> tuple:
    """(candidates, candidates x members x steps, needs a SoC trace)."""
    stack = [scenarios[j] for j in members] if members is not None else scenarios
    steps = sum(len(s.solar_per_kw_w) for s in stack)
    needs_trace = any(
        getattr(s, "battery_degradation", None) == "rainflow" for s in stack
    )
    return (len(compositions), len(compositions) * steps, needs_trace)


def _evaluate_info(arguments, result) -> tuple:
    return _cell_info(arguments["scenarios"], None, arguments["compositions"])


def _slice_info(arguments, result) -> tuple:
    return _cell_info(
        arguments["scenarios"], arguments["member_indices"], arguments["compositions"]
    )


def _race_info(arguments, result) -> tuple:
    stats = result.stats
    return (stats.member_evals, stats.low_fidelity_evals, stats.screened, stats.pruned)


def _ask_info(arguments, result) -> int:
    return int(arguments["trial_number"])


def _sample_info(arguments, result) -> int:
    return int(arguments["trial"].number)


def _lease_info(arguments, result) -> int:
    return len(result.get("items") or ())


def _count_info(arguments, result) -> int:
    return int(result)


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports."""
    import repro.blackbox.parallel  # noqa: F401 - binds names before patching
    import repro.blackbox.storage.journal  # noqa: F401
    import repro.blackbox.storage.memory  # noqa: F401
    import repro.blackbox.storage.sharded  # noqa: F401
    import repro.blackbox.storage.sqlite  # noqa: F401
    import repro.core.multiyear  # noqa: F401
    import repro.core.study_runner  # noqa: F401
    from repro.blackbox.samplers.nsga2 import NSGA2Sampler
    from repro.blackbox.storage.base import StudyStorage
    from repro.core import ensemble, fastsim, scenario
    from repro.core.fidelity import FidelityRacingEvaluator
    from repro.core.racing import RacingEvaluator
    from repro.service.lease import LeasedWorkQueue
    from repro.service.remote_worker import RemoteWorkerClient
    from repro.service.service import StudyService

    tracer.patch_function(scenario, "build_scenario", "scenario")
    tracer.patch_function(ensemble, "build_ensemble", "scenario")
    # The batched driver breeds through define-by-run ``sample`` calls
    # (one per parameter), the pipelined one through ``ask``.
    tracer.patch_method(NSGA2Sampler, "ask", "sampler", _ask_info)
    tracer.patch_method(NSGA2Sampler, "sample", "sampler", _sample_info)
    tracer.patch_method(NSGA2Sampler, "tell", "sampler")
    tracer.patch_function(
        fastsim, "evaluate_across_scenarios", "evaluate", _evaluate_info
    )
    tracer.patch_function(fastsim, "evaluate_member_slice", "evaluate", _slice_info)
    tracer.patch_method(RacingEvaluator, "race", "race", _race_info)
    tracer.patch_method(FidelityRacingEvaluator, "race", "race", _race_info)
    for cls in _subclasses(StudyStorage):
        for attr in ("record_trial_start", "record_trial_finish"):
            if attr in cls.__dict__:
                tracer.patch_method(cls, attr, "storage")
    tracer.patch_method(StudyService, "lease_work", "lease", _lease_info)
    tracer.patch_method(StudyService, "complete_work", "lease")
    tracer.patch_method(
        LeasedWorkQueue, "reclaim_expired", "lease_reclaim", _count_info
    )
    tracer.patch_method(RemoteWorkerClient, "evaluate_item", "worker")


def _union_s(intervals: list) -> float:
    total = 0.0
    end_so_far = None
    for start, end in sorted(intervals):
        if end_so_far is None or start > end_so_far:
            total += end - start
            end_so_far = end
        elif end > end_so_far:
            total += end - end_so_far
            end_so_far = end
    return total


def layer_metrics(spans: list, t_call: float, t_ret: float, trials: int) -> dict:
    """Per-layer metrics of one traced study (values only, no units).

    ``spans`` may mix processes; ``[t_call, t_ret]`` is the driver call.
    """
    wall = t_ret - t_call
    by_layer = defaultdict(list)
    for span in spans:
        by_layer[span[0]].append(span)

    def busy(layer, where=lambda s: True) -> float:
        return sum(s[3] - s[2] for s in by_layer[layer] if where(s))

    evaluate = by_layer["evaluate"]
    evaluate_s = busy("evaluate")
    cell_steps = sum(s[5][1] for s in evaluate)
    trace_s = busy("evaluate", lambda s: s[5][2])
    race = [s[5] for s in by_layer["race"]]
    full_evals = sum(r[0] for r in race)
    asks = [s for s in by_layer["sampler"] if s[1] in ("ask", "sample")]
    ask_s = sum(s[3] - s[2] for s in asks)
    tell_s = busy("sampler") - ask_s
    grants = [s[5] for s in by_layer["lease"] if s[1] == "lease_work"]
    non_empty = [g for g in grants if g > 0]
    worker_s = sum(
        max(0.0, min(s[3], t_ret) - max(s[2], t_call)) for s in by_layer["worker"]
    )
    covered = _union_s(
        [
            (max(s[2], t_call), min(s[3], t_ret))
            for s in spans
            if s[3] > t_call and s[2] < t_ret
        ]
    )
    return {
        "scenario.build_s": busy("scenario"),
        "sampler.asks": len({s[5] for s in asks}),
        "sampler.ask_s": ask_s,
        "sampler.tell_s": tell_s,
        "sampler.share": (ask_s + tell_s) / wall,
        "evaluate.calls": len(evaluate),
        "evaluate.candidates_per_call": (
            sum(s[5][0] for s in evaluate) / len(evaluate) if evaluate else 0
        ),
        "evaluate.cell_steps": cell_steps,
        "evaluate.s": evaluate_s,
        "evaluate.cell_steps_per_s": cell_steps / evaluate_s if evaluate_s else 0,
        "evaluate.trace_share": trace_s / evaluate_s if evaluate_s else 0,
        "race.self_s": busy("race") - busy("evaluate", lambda s: s[4] == "race"),
        "race.full_member_evals": full_evals,
        "race.low_fidelity_evals": sum(r[1] for r in race),
        "race.screened": sum(r[2] for r in race),
        "race.pruned_trials": sum(r[3] for r in race),
        "race.full_evals_per_trial": full_evals / trials,
        "storage.writes": len(by_layer["storage"]),
        "storage.write_s": busy("storage"),
        "lease.grants": len(non_empty),
        "lease.empty_grants": len(grants) - len(non_empty),
        "lease.items_per_grant": (
            sum(non_empty) / len(non_empty) if non_empty else 0
        ),
        "lease.reclaims": sum(s[5] for s in by_layer["lease_reclaim"]),
        "lease.service_s": busy("lease"),
        "worker.evaluate_s": worker_s,
        "worker.transport_s": wall - worker_s if by_layer["worker"] else 0.0,
        "worker.busy_share": worker_s / wall,
        "dispatcher.residual_s": wall - covered,
    }


#: per-layer metrics that count work; they repeat exactly for a fixed
#: workload and seed (``lease.empty_grants`` depends on timing)
EXACT_COUNTS = (
    "sampler.asks",
    "evaluate.calls",
    "evaluate.candidates_per_call",
    "evaluate.cell_steps",
    "race.full_member_evals",
    "race.low_fidelity_evals",
    "race.screened",
    "race.pruned_trials",
    "race.full_evals_per_trial",
    "storage.writes",
    "lease.grants",
)

