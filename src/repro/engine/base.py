"""Engine protocol and registry.

A *simulation engine* is a strategy for replaying one
:class:`~repro.cache.fastsim.CompiledTrace` on one
:class:`~repro.cache.hierarchy.HierarchyConfig` under many per-run seeds.
Engines are first-class objects selected **by name through the registry**;
no caller outside this package compares engine names against string
literals.  Every layer — :class:`~repro.cpu.core.TraceDrivenCore`, the
campaign executors (serial and process-parallel), the experiment drivers,
the CLI — resolves the requested name with :func:`get_engine` and drives the
resulting :class:`EngineSimulator`.

Capability flags describe what callers may rely on:

``supports_batch``
    :meth:`EngineSimulator.run_batch` amortises (or genuinely vectorises)
    work across seeds, so batching seeds into one call is cheaper than
    repeated :meth:`EngineSimulator.run` calls.
``bit_exact``
    Results are bit-exact with the reference hierarchy model for every seed
    (all built-in engines; a future sampling/approximate backend would clear
    this flag and campaign code can refuse it where exactness matters).
``requires_pickle``
    Running under a process pool ships the picklable ``(HierarchyConfig,
    CompiledTrace)`` pair to each worker, which rebuilds the simulator by
    engine name; engines setting this flag cannot have live simulator state
    shipped between processes.  All built-in engines rebuild cheaply, so the
    parallel executor supports them all.

Engines with optional dependencies (the ``jit`` tier needs numba) are always
*registered* — they appear in :func:`registered_engines`, the CLI accepts
them and :func:`get_engine` resolves them, so asking for one without its
dependency produces the engine's own clear error naming the missing extra
instead of an "unknown engine" message.  :func:`available_engines` filters
the registry down to the engines that can actually run here
(:meth:`Engine.availability` returns ``None``); callers that iterate "every
engine" — the equivalence suites, the campaign layers — use the available
set and keep working on machines without the optional extras.

To add a backend: subclass :class:`Engine`, implement :meth:`Engine.simulator`
returning an object with ``run(seed)`` / ``run_batch(seeds)`` producing
:class:`~repro.cache.fastsim.FastRunResult`, and call
:func:`register_engine` at import time (see ``repro/engine/__init__.py``).
Layout campaigns enter through :meth:`Engine.run_layouts`, whose default
replays one relocated trace per layout on the engine's own simulator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..cache.fastsim import CompiledTrace, FastRunResult
    from ..cache.hierarchy import HierarchyConfig

__all__ = [
    "Engine",
    "EngineSimulator",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "registered_engines",
    "available_engines",
    "engine_capabilities",
]


class EngineSimulator(Protocol):
    """What an engine's per-(config, trace) simulator must provide."""

    def run(self, seed: int) -> "FastRunResult":
        """Simulate one run under hierarchy seed ``seed``."""
        ...  # pragma: no cover - protocol

    def run_batch(self, seeds: Sequence[int]) -> List["FastRunResult"]:
        """Simulate one run per seed, in seed order."""
        ...  # pragma: no cover - protocol


class Engine(ABC):
    """A named simulation backend with declared capabilities."""

    #: Registry name (``"fast"``, ``"reference"``, ``"numpy"``, ...).
    name: str = "abstract"
    #: run_batch amortises/vectorises work across seeds.
    supports_batch: bool = True
    #: Bit-exact with the reference hierarchy model.
    bit_exact: bool = True
    #: Parallel execution rebuilds the simulator per worker from picklable
    #: (config, compiled) inputs instead of shipping live simulator state.
    requires_pickle: bool = True

    @abstractmethod
    def simulator(
        self, config: "HierarchyConfig", compiled: "CompiledTrace"
    ) -> EngineSimulator:
        """Build a simulator for one (hierarchy, compiled trace) pair."""

    def run_layouts(
        self,
        config: "HierarchyConfig",
        compiled: "CompiledTrace",
        line_table: "np.ndarray",
    ) -> List["FastRunResult"]:
        """One seed-0 run of ``compiled`` per memory layout, in column order.

        ``line_table`` is ``(n_lines, n_layouts)``: column ``i`` replaces
        ``compiled.unique_lines`` for layout ``i`` (see
        :mod:`repro.workloads.relocation`).  This default replays each
        relocated trace on its own simulator; batch engines override it to
        run the layouts as lanes of one execution.
        """
        return [
            self.simulator(config, compiled.relocated(column)).run(0)
            for column in line_table.T
        ]

    def availability(self) -> Optional[str]:
        """``None`` when the engine can run here, else why it cannot.

        Engines with optional dependencies override this to report the
        missing extra (the ``jit`` tier returns an install hint when numba
        is not importable); built-in engines are always available.
        """
        return None

    @property
    def available(self) -> bool:
        """Whether :meth:`simulator` can be used on this machine."""
        return self.availability() is None

    def plan_fallback(self) -> Optional[str]:
        """``None`` when the engine has no compiled-plan tier, else what
        happens when plan compilation raises
        :class:`~repro.engine.plan.PlanUnsupported` for a configuration.

        Engines executing a compiled :class:`~repro.engine.plan.TracePlan`
        override this so callers (and ``python -m repro engines``) can see
        which configurations leave the fast path and where they land —
        without building a simulator first.  The concrete per-configuration
        reason is on the built simulator (``plan_error``) and is logged once
        per simulator by ``run_batch``.
        """
        return None

    def describe(self) -> Dict[str, object]:
        """Structured capability summary (used by docs, reports and tests)."""
        return {
            "name": self.name,
            "supports_batch": self.supports_batch,
            "bit_exact": self.bit_exact,
            "requires_pickle": self.requires_pickle,
            "available": self.available,
            "availability": self.availability(),
            "plan_fallback": self.plan_fallback(),
        }


_REGISTRY: Dict[str, Engine] = {}


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Register ``engine`` under ``engine.name``.

    Re-registering a name raises unless ``replace=True`` (used by tests and
    by callers that want to override a built-in backend).
    """
    name = engine.name
    if not name or name == Engine.name:
        raise ValueError(f"engine {engine!r} must define a concrete name")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"engine {name!r} is already registered; pass replace=True to override"
        )
    _REGISTRY[name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove a registered engine (primarily for tests)."""
    _REGISTRY.pop(name, None)


def registered_engines() -> Tuple[str, ...]:
    """Names of all registered engines, sorted (usable here or not)."""
    return tuple(sorted(_REGISTRY))


def available_engines() -> Tuple[str, ...]:
    """Names of the registered engines that can run here, sorted.

    Excludes engines whose optional dependency is missing (see
    :meth:`Engine.availability`); callers that iterate "every engine"
    use this so optional tiers degrade by absence, not by crashing.
    """
    return tuple(
        name for name in registered_engines() if _REGISTRY[name].available
    )


def get_engine(name: str) -> Engine:
    """Resolve an engine by registry name.

    Unknown names raise :class:`ValueError` listing the registered names.
    Registered-but-unavailable engines resolve normally; their
    :meth:`Engine.simulator` raises the clear dependency error.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        registered = ", ".join(registered_engines()) or "<none>"
        raise ValueError(
            f"unknown engine {name!r}; registered engines: {registered}"
        ) from None


def engine_capabilities() -> Dict[str, Dict[str, object]]:
    """Capability matrix of every registered engine (name -> describe())."""
    return {name: _REGISTRY[name].describe() for name in registered_engines()}
