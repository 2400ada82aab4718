"""Relocatable traces: one compiled template per workload, moved per layout.

A deterministic layout campaign measures one program at many memory
layouts.  The trace generators place every instruction fetch relative to
``code_base`` and every load and store relative to ``data_base``, and never
read ``stack_base``.  Moving a segment by a multiple of the L1 line size
therefore moves each of its lines by the same amount and changes nothing
else: a layout's :class:`~repro.cache.fastsim.CompiledTrace` is the
template's ``kinds`` and ``line_ids`` unchanged, with one shift per segment
added to ``unique_lines``.

:func:`layout_line_table` builds the shifted line tables of a whole campaign
as one ``(n_lines, n_layouts)`` array (the form
:meth:`repro.engine.Engine.run_layouts` consumes), and
:func:`check_relocation` verifies the contract against a trace actually
built at another layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cache.fastsim import FETCH_KIND, CompiledTrace
from .base import MemoryLayout

__all__ = ["check_relocation", "code_line_mask", "layout_line_table"]

#: Compiled line addresses are 32-bit (see :class:`CompiledTrace`).
_ADDRESS_MASK = 0xFFFF_FFFF


def code_line_mask(compiled: CompiledTrace) -> np.ndarray:
    """Per unique line: ``True`` for code (fetched), ``False`` for data.

    A line touched by both fetches and data accesses belongs to no single
    segment, so it cannot be relocated and is rejected.
    """
    kinds = np.asarray(compiled.kinds, dtype=np.int8)
    line_ids = np.asarray(compiled.line_ids, dtype=np.int64)
    n_lines = len(compiled.unique_lines)
    fetched = np.zeros(n_lines, dtype=bool)
    fetched[line_ids[kinds == FETCH_KIND]] = True
    accessed = np.zeros(n_lines, dtype=bool)
    accessed[line_ids[kinds != FETCH_KIND]] = True
    shared = np.nonzero(fetched & accessed)[0]
    if shared.size:
        raise ValueError(
            f"line {compiled.unique_lines[shared[0]]:#x} of {compiled.name!r} is "
            "both fetched and loaded/stored, so it belongs to no single segment "
            "and cannot be relocated"
        )
    return fetched


def layout_line_table(
    compiled: CompiledTrace,
    template: MemoryLayout,
    layouts: Sequence[MemoryLayout],
) -> np.ndarray:
    """The relocated line table of every layout, one column per layout.

    ``compiled`` is the workload compiled at ``template``.  Column ``i`` is
    the ``unique_lines`` of the workload compiled at ``layouts[i]``: code
    lines moved by the layout's code shift, data lines by its data shift.
    Raises :class:`ValueError` when a shift is not a multiple of the line
    size, or when a layout would put two lines of the trace on one address
    (the segments overlap there).
    """
    line_size = compiled.line_size
    shifts = np.empty((2, len(layouts)), dtype=np.int64)
    for index, layout in enumerate(layouts):
        code_shift = layout.code_base - template.code_base
        data_shift = layout.data_base - template.data_base
        if code_shift % line_size or data_shift % line_size:
            raise ValueError(
                f"layout {index} moves the code segment by {code_shift} B and "
                f"the data segment by {data_shift} B from the template layout; "
                f"relocation needs multiples of the {line_size} B L1 line size"
            )
        shifts[0, index] = code_shift
        shifts[1, index] = data_shift
    code = code_line_mask(compiled)
    lines = np.array(compiled.unique_lines, dtype=np.int64)
    table = lines[:, None] + np.where(code[:, None], shifts[0], shifts[1])
    table &= _ADDRESS_MASK
    collided = (np.diff(np.sort(table, axis=0), axis=0) == 0).any(axis=0)
    if collided.any():
        raise ValueError(
            f"layout {int(np.argmax(collided))} places a code line and a data "
            f"line of {compiled.name!r} on the same address; overlapping "
            "segments cannot be relocated"
        )
    return table.astype(np.uint64)


def check_relocation(
    relocated: CompiledTrace, built: CompiledTrace, layout: MemoryLayout
) -> None:
    """Raise :class:`ValueError` unless ``built`` equals ``relocated``.

    ``built`` is the workload compiled from a trace built at ``layout``;
    ``relocated`` is the template moved to the same layout.
    """
    if built.kinds != relocated.kinds:
        differs = "its access kinds differ"
    elif built.line_ids != relocated.line_ids:
        differs = "its line reuse pattern differs"
    elif built.unique_lines != relocated.unique_lines:
        differs = "its line addresses are not the template's shifted by segment"
    else:
        return
    raise ValueError(
        f"the trace builder's trace of {built.name!r} at {layout} is not the "
        f"relocated template ({differs}); layout campaigns need a builder that "
        "places fetches relative to code_base, loads and stores relative to "
        "data_base, and ignores stack_base"
    )
