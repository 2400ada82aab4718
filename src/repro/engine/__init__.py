"""Simulation engine subsystem: protocol, registry and built-in backends.

Engine selection everywhere in the repository goes through this package:

>>> from repro.engine import registered_engines, get_engine
>>> registered_engines()
('jit', 'numpy', 'reference')
>>> get_engine("numpy").supports_batch
True

Built-in backends:

* ``numpy``     — vectorized batch engine simulating all seeds of a campaign
  chunk simultaneously by executing a compiled
  :class:`~repro.engine.plan.TracePlan` (numpy is a declared dependency of
  the package); the default engine everywhere;
* ``jit``       — the same compiled plan run by a numba-compiled per-lane
  kernel.  numba is optional (the ``jit`` extra): the engine is always
  *registered* but only *available* when numba imports —
  :func:`registered_engines` lists it either way,
  :func:`available_engines` only when usable;
* ``reference`` — object-oriented hierarchy model, slow but inspectable
  (the oracle every other engine is checked against).

All are bit-exact with each other.  See DESIGN.md ("Engines") for the
capability matrix and how to add a backend.
"""

from __future__ import annotations

from .base import (
    Engine,
    EngineSimulator,
    available_engines,
    engine_capabilities,
    get_engine,
    register_engine,
    registered_engines,
    unregister_engine,
)
from .jit import JitEngine, JitUnavailable
from .numpy_engine import NumpyEngine
from .reference import ReferenceEngine

__all__ = [
    "Engine",
    "EngineSimulator",
    "JitEngine",
    "JitUnavailable",
    "NumpyEngine",
    "ReferenceEngine",
    "available_engines",
    "engine_capabilities",
    "get_engine",
    "register_engine",
    "registered_engines",
    "unregister_engine",
]

register_engine(ReferenceEngine())
register_engine(NumpyEngine())
register_engine(JitEngine())
