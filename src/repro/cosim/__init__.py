"""Vessim-style computing/energy co-simulator.

Vessim (Wiesner et al. 2024) composes heterogeneous simulation models —
energy producers, consumers, storage, grid interfaces, control systems —
into microgrid scenarios on top of the mosaik discrete-event co-simulation
framework.  This package reimplements the architecture the paper relies
on:

* :mod:`repro.cosim.engine` — a minimal mosaik-like discrete-event kernel
  that synchronizes steppable simulators;
* :mod:`repro.cosim.signal` — the *signal* abstraction serving
  time-indexed values (including :class:`SAMSignal`, the paper's
  contribution of wiring SAM generation models into Vessim);
* :mod:`repro.cosim.actor` — power actors (producers positive, consumers
  negative), fed by signals;
* :mod:`repro.cosim.battery` — the C/L/C storage model behind a generic
  :class:`~repro.cosim.storage.Storage` interface;
* :mod:`repro.cosim.microgrid` — per-step power-flow resolution
  (generation vs demand vs storage vs grid exchange);
* :mod:`repro.cosim.grid` — grid-exchange accounting (energy, emissions,
  cost);
* :mod:`repro.cosim.monitor` / :mod:`repro.cosim.controller` — telemetry
  collection and operational strategies (demand response, carbon-aware
  charging).
"""

from .actor import Actor
from .battery import CLCBattery, IdealBattery, LongDurationStorage
from .controller import CarbonAwareChargeController, Controller, DeferrableLoadController
from .faults import OutageInjector, OutageWindow, random_outage_schedule
from .engine import CoSimEnvironment, MicrogridSimulator, PeriodicSimulator, Simulator
from .grid import GridConnection
from .microgrid import Microgrid, StepResult
from .monitor import Monitor
from .policy import (
    CarbonAwarePolicy,
    DefaultPolicy,
    IslandedPolicy,
    MicrogridPolicy,
    TimeWindowPolicy,
    TouArbitragePolicy,
)
from .stacked import StackedStorage
from .scheduler import BatchJob, CarbonAwareBatchScheduler, FlexibleLoad
from .signal import (
    ConstantSignal,
    FunctionSignal,
    SAMSignal,
    Signal,
    TraceSignal,
)
from .storage import Storage

__all__ = [
    "Actor",
    "CLCBattery",
    "IdealBattery",
    "LongDurationStorage",
    "CarbonAwareChargeController",
    "Controller",
    "DeferrableLoadController",
    "CoSimEnvironment",
    "MicrogridSimulator",
    "PeriodicSimulator",
    "Simulator",
    "GridConnection",
    "Microgrid",
    "StepResult",
    "Monitor",
    "DefaultPolicy",
    "IslandedPolicy",
    "MicrogridPolicy",
    "TimeWindowPolicy",
    "CarbonAwarePolicy",
    "TouArbitragePolicy",
    "Signal",
    "ConstantSignal",
    "FunctionSignal",
    "TraceSignal",
    "SAMSignal",
    "Storage",
    "StackedStorage",
    "OutageInjector",
    "OutageWindow",
    "random_outage_schedule",
    "BatchJob",
    "CarbonAwareBatchScheduler",
    "FlexibleLoad",
]
