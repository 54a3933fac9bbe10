"""Grouped device kernels against the per-element closures, bit for bit.

:class:`repro.spice.stampplan.StampPlan` evaluates diodes, switches and
MOSFETs through per-element closures below
``DEVICE_GROUP_THRESHOLD`` nonlinear elements and through the grouped
kernels of :mod:`repro.spice.devices` at and above it.  Both must write
the same companion-value bytes for every terminal-voltage vector,
including the inputs where a vectorised rewrite of a scalar branch is
easiest to get wrong: signed zeros, drain == source, NaN and infinite
voltages, and every gmin the DC gmin walk passes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FastDramDesign
from repro.spice import Circuit, Diode, MosfetElement, Resistor, Switch
from repro.spice import devices, stampplan
from repro.spice.mna import MnaSystem
from repro.spice.recovery import DEFAULT_RECOVERY
from repro.tech.node import Polarity, VtFlavor
from repro.tech.transistor import Mosfet

NODES = ("a", "b", "c", "d")

#: Every gmin a plan is asked to evaluate at: the DC gmin walk's ladder
#: (which ends on the transient's fixed 1e-12 S) plus zero.
GMINS = tuple(DEFAULT_RECOVERY.gmin_ladder) + (0.0,)

#: Voltages that exercise the branch edges: signed zeros, NaN,
#: infinities, the switch threshold and values shared between nodes
#: (so drain == source and gate == source happen often).
SPECIAL = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 0.6,
           1.2, 0.5, 1e-4, -1e-4)

voltages = st.one_of(st.sampled_from(SPECIAL),
                     st.floats(min_value=-2.0, max_value=2.0,
                               allow_nan=False))


def device_zoo() -> Circuit:
    """Every device class, both MOSFET polarities and flavours, and a
    ground terminal in every position."""
    cell = FastDramDesign().cell()
    node = cell.access.node
    nmos = Mosfet(node, Polarity.NMOS, VtFlavor.SVT,
                  width=node.width_units(4.0))
    pmos = Mosfet(node, Polarity.PMOS, VtFlavor.SVT,
                  width=node.width_units(6.0))
    hvt = Mosfet(node, Polarity.NMOS, VtFlavor.HVT,
                 width=cell.access.width,
                 length_factor=cell.access.length_factor)
    circuit = Circuit("device-zoo")
    for name in NODES:
        circuit.add(Resistor(f"r_{name}", name, "0", 1e6))
    circuit.add(MosfetElement("m1", "a", "b", "c", nmos))
    circuit.add(Diode("d1", "a", "c", v_t=0.026, v_clip=0.8))
    circuit.add(MosfetElement("m2", "c", "a", "0", pmos))
    circuit.add(Switch("s1", "a", "b", "c", "d"))
    circuit.add(MosfetElement("m3", "0", "d", "b", nmos))
    circuit.add(MosfetElement("m4", "a", "c", "d", pmos))
    circuit.add(Diode("d2", "0", "b", v_t=0.05, v_clip=0.6))
    circuit.add(MosfetElement("m5", "b", "0", "a", hvt))
    circuit.add(Switch("s2", "c", "0", "a", "0", threshold=0.3))
    circuit.add(MosfetElement("m6", "d", "d", "c", cell.access))
    circuit.add(MosfetElement("m7", "b", "a", "b", pmos))
    return circuit


def compile_both(circuit: Circuit, monkeypatch):
    """(closures plan, grouped plan) over one circuit."""
    monkeypatch.setattr(stampplan, "DEVICE_GROUP_THRESHOLD", 10**9)
    closures = stampplan.StampPlan(MnaSystem(circuit))
    monkeypatch.setattr(stampplan, "DEVICE_GROUP_THRESHOLD", 0)
    grouped = stampplan.StampPlan(MnaSystem(circuit))
    assert (closures.device, grouped.device) == ("closures", "grouped")
    return closures, grouped


@pytest.fixture(scope="module")
def zoo_plans():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return compile_both(device_zoo(), monkeypatch)


class TestGroupedMatchesClosures:
    @given(values=st.lists(voltages, min_size=len(NODES),
                           max_size=len(NODES)),
           gmin=st.sampled_from(GMINS))
    @settings(max_examples=400, deadline=None)
    def test_slot_bytes_identical(self, zoo_plans, values, gmin):
        closures, grouped = zoo_plans
        x = np.zeros(closures.size)
        for name, value in zip(NODES, values):
            x[closures.system.index(name)] = value
        expected = closures.device_values(x, gmin).tobytes()
        assert grouped.device_values(x, gmin).tobytes() == expected

    @pytest.mark.parametrize("gmin", GMINS)
    def test_equal_terminals_and_signed_zeros(self, zoo_plans, gmin):
        """All nodes at one voltage: every device sees vd == vs, and
        signed zeros sit on every compare."""
        closures, grouped = zoo_plans
        for value in (0.0, -0.0, 0.6, math.nan):
            x = np.full(closures.size, value)
            assert (grouped.device_values(x, gmin).tobytes()
                    == closures.device_values(x, gmin).tobytes())

    def test_zoo_covers_polarities_and_ground_terminals(self, zoo_plans):
        """The property above is only as good as its circuit: the zoo
        must mix both polarities in one group and ground every MOSFET
        terminal somewhere (ground reads the pinned pad column)."""
        _closures, grouped = zoo_plans
        mos = next(g for g in grouped._groups
                   if isinstance(g, devices._MosfetGroup))
        assert 0 < mos.kn < mos.d_cols.size  # both polarities present
        pad = grouped.size
        assert pad in mos.d_cols and pad in mos.g_cols and pad in mos.s_cols


class TestGroupBuilder:
    def test_groups_cover_every_slot_once(self, zoo_plans):
        _closures, grouped = zoo_plans
        written = []
        for group in grouped._groups:
            for name in ("s_g", "s_res", "s_out"):
                written.extend(getattr(group, name, np.empty(0)).tolist())
        assert sorted(written) == list(range(grouped.n_slots))

    def test_unknown_element_class_is_refused(self):
        class Other(Diode):
            pass

        with pytest.raises(TypeError, match="Other"):
            devices.build_device_groups(
                [[Other("x", "a", "0")]], [0], lambda node: 0, 1)
