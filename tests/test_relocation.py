"""Relocatable traces: a layout's compiled trace is the template, moved."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import run_layout_campaign
from repro.cache.fastsim import CompiledTrace
from repro.cpu.trace import Trace
from repro.platform.leon3 import platform_setup
from repro.workloads.base import MemoryLayout
from repro.workloads.eembc import eembc_kernel_names, eembc_trace
from repro.workloads.relocation import code_line_mask, layout_line_table

#: Segment shifts: multiples of the 32 B line size, zero and negative included.
shifts = st.integers(-128, 128).map(lambda lines: lines * 32)


class TestRelocationProperty:
    @given(
        name=st.sampled_from(eembc_kernel_names()),
        scale=st.floats(0.05, 1.0),
        code_shift=shifts,
        data_shift=shifts,
        stack_shift=shifts,
    )
    @settings(max_examples=30, deadline=None)
    def test_relocated_template_equals_built_trace(
        self, name, scale, code_shift, data_shift, stack_shift
    ):
        template_layout = MemoryLayout()
        layout = template_layout.shifted(code_shift, data_shift, stack_shift)
        template = CompiledTrace(eembc_trace(name, template_layout, scale))
        table = layout_line_table(template, template_layout, [layout])
        built = CompiledTrace(eembc_trace(name, layout, scale))
        assert built.kinds == template.kinds
        assert built.line_ids == template.line_ids
        assert built.unique_lines == table[:, 0].tolist()
        assert template.relocated(table[:, 0]).unique_lines == built.unique_lines


def rspeed(layout):
    return eembc_trace("rspeed", layout=layout, scale=0.1)


class TestRelocationRejects:
    def test_shift_not_a_multiple_of_the_line_size(self):
        layouts = [MemoryLayout(), MemoryLayout().shifted(code_shift=16)]
        with pytest.raises(ValueError, match="multiples of the 32 B L1 line size"):
            run_layout_campaign(rspeed, platform_setup("modulo"), 0, layouts=layouts)

    @pytest.mark.parametrize(
        "builder",
        [
            # Ignores the layout: nothing moves with the segments.
            lambda layout: rspeed(MemoryLayout()),
            # Places its data relative to the stack base.
            lambda layout: rspeed(MemoryLayout(layout.code_base, layout.stack_base)),
        ],
        ids=["ignores-layout", "reads-stack-base"],
    )
    def test_builder_breaking_the_contract(self, builder):
        layouts = [MemoryLayout(), MemoryLayout().shifted(64, 128, 192)]
        with pytest.raises(ValueError, match="not the relocated template"):
            run_layout_campaign(builder, platform_setup("modulo"), 0, layouts=layouts)

    def test_segments_landing_on_each_other(self):
        template = MemoryLayout()
        compiled = CompiledTrace(rspeed(template))
        onto_code = template.shifted(data_shift=template.code_base - template.data_base)
        with pytest.raises(ValueError, match="same address"):
            layout_line_table(compiled, template, [template, onto_code])

    def test_line_both_fetched_and_accessed(self):
        trace = Trace(name="mixed")
        trace.fetch(0x1000)
        trace.load(0x1004)
        with pytest.raises(ValueError, match="no single segment"):
            code_line_mask(CompiledTrace(trace))

    def test_relocated_needs_one_address_per_line(self):
        compiled = CompiledTrace(rspeed(MemoryLayout()))
        with pytest.raises(ValueError, match="line addresses"):
            compiled.relocated(compiled.unique_lines[:-1])
