"""Equivalence proof for the compiled stamp-plan fast path.

The contract is *bit-identity*: the compiled plan and the legacy
per-element stamping loop must produce exactly equal solution matrices
(``np.array_equal``, not ``allclose``) on every circuit, including when
the recovery ladder escalates (gmin stepping, substep halving) and on
fault-injected refresh scenarios.  Any drift here means the fast path
changed numerical behaviour, which the benchmark speedup must never
buy.

The local-block fixtures sit below ``DEVICE_GROUP_THRESHOLD``, so the
plan-vs-legacy classes run twice: as written (per-element closures)
and, through their ``*Grouped`` subclasses, with the threshold forced
to 0 so every plan evaluates its devices through the grouped kernels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FastDramDesign, obs
from repro.array.globalbitline import (build_globalbitline_read_circuit,
                                       globalbitline_initial_voltages)
from repro.array.localblock import build_localblock_read_circuit
from repro.errors import ConvergenceError
from repro.spice import (
    Capacitor,
    Circuit,
    Diode,
    MosfetElement,
    Resistor,
    StampPlan,
    VoltageSource,
    dc,
    simulate_transient,
    solve_dc,
    stamping_order,
)
from repro.spice import stampplan
from repro.spice.mna import MnaSystem
from repro.spice.recovery import RecoveryConfig
from repro.spice.stampplan import (
    _compile_mosfet_current,
    _compile_mosfet_magnitude,
)
from repro.units import ns, ps

from tests.spice.test_recovery import GMIN_LADDER, stiff_diode_circuit

_T_STOP = 1.0 * ns  # past SA enable (0.7 ns) and buffer enable (0.9 ns)
_DT = 1.0 * ps


def localblock_circuit(stored_value=0, refresh_only=False):
    cell = FastDramDesign().cell()
    circuit = build_localblock_read_circuit(cell, cells_per_lbl=16,
                                            stored_value=stored_value,
                                            refresh_only=refresh_only)
    initial = {"pre_rail": cell.bitline_precharge,
               "sa_rail": cell.bitline_precharge,
               "gbl_gnd": 0.3, "prech_ctl": 1.2}
    return circuit, initial


def both_paths(circuit, initial, **kwargs):
    fast = simulate_transient(circuit, t_stop=_T_STOP, dt=_DT,
                              initial_voltages=initial, stamp_plan=True,
                              **kwargs)
    legacy = simulate_transient(circuit, t_stop=_T_STOP, dt=_DT,
                                initial_voltages=initial, stamp_plan=False,
                                **kwargs)
    return fast, legacy


class TestTransientBitIdentity:
    def test_localblock_read_is_bit_identical(self):
        fast, legacy = both_paths(*localblock_circuit(stored_value=0))
        assert np.array_equal(fast.data, legacy.data)
        assert np.array_equal(fast.time, legacy.time)
        assert fast.node_index == legacy.node_index

    def test_localblock_read_of_one_is_bit_identical(self):
        fast, legacy = both_paths(*localblock_circuit(stored_value=1))
        assert np.array_equal(fast.data, legacy.data)

    def test_fault_injected_refresh_is_bit_identical(self):
        """Localised refresh (GBL floating) of a weak cell: the stored
        '1' has decayed to mid-rail, the fault-injection scenario the
        refresh path exists to repair."""
        circuit, initial = localblock_circuit(stored_value=1,
                                              refresh_only=True)
        initial = dict(initial, cell=0.45)  # decayed weak-cell level
        fast, legacy = both_paths(circuit, initial)
        assert np.array_equal(fast.data, legacy.data)

    def test_stiff_diode_under_gmin_ladder_is_bit_identical(self):
        """The recovery ladder escalates to gmin stepping — the exact
        path that rewrites the linear system mid-solve and must
        invalidate the factorization cache on both rails."""
        recovery = RecoveryConfig(max_newton=25, enable_damping=False,
                                  enable_substep=False, enable_source=False,
                                  gmin_ladder=GMIN_LADDER)
        circuit = stiff_diode_circuit()
        fast = simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                  initial_voltages={"in": 5.0},
                                  recovery=recovery, stamp_plan=True)
        legacy = simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                    initial_voltages={"in": 5.0},
                                    recovery=recovery, stamp_plan=False)
        assert np.array_equal(fast.data, legacy.data)

    def test_substep_halving_walks_identically(self):
        """Substep halving changes dt (a factorization-cache
        invalidation point); with gmin and source disabled the ladder
        is exhausted — both paths must fail on the same rung with the
        same transcript."""
        recovery = RecoveryConfig(max_newton=25, enable_gmin=False,
                                  enable_source=False)
        circuit = stiff_diode_circuit()
        transcripts = []
        for stamp_plan in (True, False):
            with pytest.raises(ConvergenceError) as excinfo:
                simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                   initial_voltages={"in": 5.0},
                                   recovery=recovery, stamp_plan=stamp_plan)
            transcripts.append([(a.rung, a.detail, a.converged)
                                for a in excinfo.value.recovery.attempts])
        assert transcripts[0] == transcripts[1]

    def test_trapezoidal_integrator_is_bit_identical(self):
        circuit = stiff_diode_circuit(v_t=0.05)
        fast = simulate_transient(circuit, t_stop=1e-9, dt=1e-11,
                                  initial_voltages={"in": 5.0},
                                  integrator="trap", stamp_plan=True)
        legacy = simulate_transient(circuit, t_stop=1e-9, dt=1e-11,
                                    initial_voltages={"in": 5.0},
                                    integrator="trap", stamp_plan=False)
        assert np.array_equal(fast.data, legacy.data)


class TestDcEquivalence:
    def test_localblock_dc_is_identical(self):
        circuit, _initial = localblock_circuit()
        assert (solve_dc(circuit, stamp_plan=True)
                == solve_dc(circuit, stamp_plan=False))

    def test_starved_newton_dc_recovers_identically(self):
        """A 15-iteration Newton budget escalates the DC ladder to
        source stepping — the rung that rescales the source vector and
        must invalidate the factorization cache on both paths."""
        recovery = RecoveryConfig(max_newton=15, gmin_ladder=GMIN_LADDER)
        circuit = stiff_diode_circuit(v_t=0.02)
        with obs.instrumented() as registry:
            fast = solve_dc(circuit, recovery=recovery, stamp_plan=True)
            counters = registry.snapshot()["counters"]
        assert counters["spice.recovery.source"] == 1  # the ladder ran
        assert fast == solve_dc(circuit, recovery=recovery,
                                stamp_plan=False)


class TestCompiledDevices:
    def test_compiled_mosfet_current_matches_element(self):
        circuit, _initial = localblock_circuit()
        elements = [el for el in circuit.elements
                    if isinstance(el, MosfetElement)]
        assert elements  # NMOS access/SA plus PMOS SA devices
        grid = np.linspace(-0.2, 1.4, 9)
        for element in elements:
            compiled = _compile_mosfet_current(element)
            for v_d in grid:
                for v_g in grid:
                    for v_s in (0.0, 0.3, 1.2):
                        assert compiled(v_d, v_g, v_s) == element.current(
                            v_d, v_g, v_s)

    def test_compiled_magnitude_is_finite_over_the_grid(self):
        circuit, _initial = localblock_circuit()
        element = next(el for el in circuit.elements
                       if isinstance(el, MosfetElement))
        magnitude = _compile_mosfet_magnitude(element)
        for vgs in np.linspace(-0.5, 1.5, 7):
            for vds in np.linspace(0.0, 1.5, 7):
                assert np.isfinite(magnitude(vgs, vds))


class _PythonDiode(Diode):
    """A Diode subclass the plan cannot batch (unknown type), forcing
    the generic per-element compiled path."""


class TestBatchedVsGenericPath:
    @staticmethod
    def _divider(diode_cls):
        circuit = Circuit("divider")
        circuit.add(VoltageSource("v1", "in", "0", dc(2.0)))
        circuit.add(Resistor("r1", "in", "mid", 10e3))
        circuit.add(diode_cls("d1", "mid", "0", v_t=0.026, v_clip=0.8))
        circuit.add(Capacitor("c1", "mid", "0", 1e-12))
        return circuit

    def test_generic_path_matches_batched_path(self):
        batched = simulate_transient(self._divider(Diode), t_stop=1e-9,
                                     dt=1e-11, stamp_plan=True)
        generic = simulate_transient(self._divider(_PythonDiode),
                                     t_stop=1e-9, dt=1e-11, stamp_plan=True)
        assert np.array_equal(batched.data, generic.data)

    def test_generic_path_matches_legacy(self):
        circuit = self._divider(_PythonDiode)
        fast = simulate_transient(circuit, t_stop=1e-9, dt=1e-11,
                                  stamp_plan=True)
        legacy = simulate_transient(circuit, t_stop=1e-9, dt=1e-11,
                                    stamp_plan=False)
        assert np.array_equal(fast.data, legacy.data)


class TestFactorizationCache:
    def test_linear_circuit_reuses_one_factorization(self):
        """A linear RC ladder has a constant Jacobian: the plan must
        factorize once and back-substitute every following timestep."""
        circuit = Circuit("rc-ladder")
        circuit.add(VoltageSource("v1", "n0", "0", dc(1.0)))
        for i in range(4):
            circuit.add(Resistor(f"r{i}", f"n{i}", f"n{i + 1}", 1e3))
            circuit.add(Capacitor(f"c{i}", f"n{i + 1}", "0", 1e-12))
        with obs.instrumented() as registry:
            simulate_transient(circuit, t_stop=1e-9, dt=1e-11,
                               stamp_plan=True)
            counters = registry.snapshot()["counters"]
        assert counters["spice.lu.refactor"] == 1
        assert counters["spice.lu.reuse"] > counters["spice.lu.refactor"]

    def test_nonlinear_circuit_refactors_as_companions_move(self):
        circuit, initial = localblock_circuit()
        with obs.instrumented() as registry:
            simulate_transient(circuit, t_stop=0.2 * ns, dt=_DT,
                               initial_voltages=initial, stamp_plan=True)
            counters = registry.snapshot()["counters"]
        assert counters["spice.lu.refactor"] > 0

    def test_newton_iteration_histogram_is_emitted(self):
        circuit, initial = localblock_circuit()
        with obs.instrumented() as registry:
            simulate_transient(circuit, t_stop=0.05 * ns, dt=_DT,
                               initial_voltages=initial, stamp_plan=True)
            snapshot = registry.snapshot()
        histogram = snapshot["histograms"]["spice.newton.iterations"]
        assert histogram["count"] == 50  # one observation per timestep


class TestStampingOrder:
    def test_order_groups_linear_elements_then_the_rest(self):
        """Linear elements come grouped by type (circuit order within a
        group), nonlinear elements trail in circuit order — the
        documented canonical order both solver paths share."""
        circuit, _initial = localblock_circuit()
        order = stamping_order(circuit)
        assert sorted(el.name for el in order) == sorted(
            el.name for el in circuit.elements)
        kinds = [type(el) for el in order]
        first_nonlinear = min(
            i for i, k in enumerate(kinds) if k is MosfetElement)
        assert all(k is not Resistor and k is not Capacitor
                   for k in kinds[first_nonlinear:])
        circuit_pos = {el.name: i for i, el in enumerate(circuit.elements)}
        for kind in (Capacitor, MosfetElement):
            positions = [circuit_pos[el.name] for el in order
                         if type(el) is kind]
            assert positions == sorted(positions)

    def test_plan_holds_its_system(self):
        circuit, _initial = localblock_circuit()
        system = MnaSystem(circuit)
        assert StampPlan(system).system is system


#: Diode-divider parameter space of the DC property tests.
DIVIDERS = dict(resistance=st.floats(min_value=1e3, max_value=1e7),
                v_t=st.floats(min_value=0.02, max_value=0.2),
                supply=st.floats(min_value=0.5, max_value=5.0))


def assert_divider_dc_identical(resistance, v_t, supply):
    circuit = Circuit("prop-divider")
    circuit.add(VoltageSource("v1", "in", "0", dc(supply)))
    circuit.add(Resistor("r1", "in", "d", resistance))
    circuit.add(Diode("d1", "d", "0", v_t=v_t, v_clip=0.8))
    assert (solve_dc(circuit, stamp_plan=True)
            == solve_dc(circuit, stamp_plan=False))


class TestPropertyEquivalence:
    @given(**DIVIDERS)
    @settings(max_examples=25, deadline=None)
    def test_dc_solution_identical_for_random_diode_dividers(
            self, resistance, v_t, supply):
        assert_divider_dc_identical(resistance, v_t, supply)


# -- the same suite on the grouped device kernels -------------------------------


@pytest.fixture(scope="class")
def grouped_devices():
    """Every plan compiled inside the class evaluates its devices
    through the grouped kernels (class scope keeps Hypothesis happy)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(stampplan, "DEVICE_GROUP_THRESHOLD", 0)
        yield


@pytest.mark.usefixtures("grouped_devices")
class TestTransientBitIdentityGrouped(TestTransientBitIdentity):
    pass


@pytest.mark.usefixtures("grouped_devices")
class TestDcEquivalenceGrouped(TestDcEquivalence):
    pass


@pytest.mark.usefixtures("grouped_devices")
class TestBatchedVsGenericPathGrouped(TestBatchedVsGenericPath):
    pass


@pytest.mark.usefixtures("grouped_devices")
class TestFactorizationCacheGrouped(TestFactorizationCache):
    pass


@pytest.mark.usefixtures("grouped_devices")
class TestPropertyEquivalenceGrouped:
    # Not a subclass: Hypothesis refuses one test run from two classes.
    @given(**DIVIDERS)
    @settings(max_examples=25, deadline=None)
    def test_dc_solution_identical_for_random_diode_dividers(
            self, resistance, v_t, supply):
        assert_divider_dc_identical(resistance, v_t, supply)


def gbl_circuit():
    """A global-bitline read with enough devices (69 MOSFETs, 20
    switches) to sit above the default threshold, small enough (89
    unknowns) to run dense too."""
    cell = FastDramDesign().cell()
    circuit = build_globalbitline_read_circuit(cell, blocks=8,
                                               cells_per_lbl=8)
    return circuit, globalbitline_initial_voltages(cell)


def with_threshold(monkeypatch, threshold, run):
    monkeypatch.setattr(stampplan, "DEVICE_GROUP_THRESHOLD", threshold)
    with obs.instrumented() as registry:
        result = run()
        counters = registry.snapshot()["counters"]
    return result, counters


class TestGroupedVsClosures:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_globalbitline_transient_bytes(self, monkeypatch, backend):
        circuit, initial = gbl_circuit()

        def run():
            return simulate_transient(circuit, t_stop=1.2 * ns,
                                      dt=4.0 * ps,
                                      initial_voltages=initial,
                                      backend=backend)

        grouped, counters = with_threshold(monkeypatch, 0, run)
        assert counters["spice.stampplan.device.grouped"] == 1
        closures, counters = with_threshold(monkeypatch, 10**9, run)
        assert counters["spice.stampplan.device.closures"] == 1
        assert grouped.data.tobytes() == closures.data.tobytes()

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_dc_gmin_walk_bytes(self, monkeypatch, backend):
        """solve_dc walks the whole gmin ladder (1e-3 S down to 1e-12
        S), so the MOSFET kernels see every rung's gmin."""
        circuit, _initial = gbl_circuit()

        def run():
            solution = solve_dc(circuit, backend=backend)
            return np.array([solution[k] for k in sorted(solution)])

        grouped, _ = with_threshold(monkeypatch, 0, run)
        closures, _ = with_threshold(monkeypatch, 10**9, run)
        assert grouped.tobytes() == closures.tobytes()


class TestDeviceSelection:
    def test_default_threshold_splits_the_workloads(self):
        """The 8-MOSFET local block stays on the closures; the
        global-bitline read goes grouped."""
        small, _ = localblock_circuit()
        large, _ = gbl_circuit()
        assert StampPlan(MnaSystem(small)).device == "closures"
        assert StampPlan(MnaSystem(large)).device == "grouped"

    def test_threshold_is_inclusive(self, monkeypatch):
        circuit, _ = localblock_circuit()
        count = StampPlan(MnaSystem(circuit)).nonlinear_count
        monkeypatch.setattr(stampplan, "DEVICE_GROUP_THRESHOLD", count)
        assert StampPlan(MnaSystem(circuit)).device == "grouped"
        monkeypatch.setattr(stampplan, "DEVICE_GROUP_THRESHOLD", count + 1)
        assert StampPlan(MnaSystem(circuit)).device == "closures"

    def test_generic_fallback_plans_use_closures(self, monkeypatch):
        monkeypatch.setattr(stampplan, "DEVICE_GROUP_THRESHOLD", 0)
        circuit = TestBatchedVsGenericPath._divider(_PythonDiode)
        assert StampPlan(MnaSystem(circuit)).device == "closures"

    def test_transient_span_names_the_device_path(self):
        from repro.obs.tracing import Tracer

        circuit, initial = gbl_circuit()
        tracer = Tracer()
        with obs.instrumented(tracer=tracer):
            simulate_transient(circuit, t_stop=10 * ps, dt=_DT,
                               initial_voltages=initial)
            simulate_transient(circuit, t_stop=10 * ps, dt=_DT,
                               initial_voltages=initial, stamp_plan=False)
        spans = [s for s in tracer.finished_roots()
                 if s.name == "spice.transient"]
        assert [s.attrs["device"] for s in spans] == ["grouped", "legacy"]
