"""The sparse MNA solve path: kernel, backend selection, contracts.

The sparse backend cannot be bit-identical to dense (the elimination
order differs), so its contract is two-sided:

* **dense-vs-sparse agreement**: every shared workload must agree
  within ``WAVEFORM_TOL`` volts at every node and timestep (the
  tolerance documented in ARCHITECTURE.md §15);
* **sparse run-to-run determinism**: the sparse path against itself
  must be *bit-identical* (``tobytes`` equality) under a fixed seed,
  serially and through ``--batch``/``--jobs`` ejection.

Both are enforced here, including a Hypothesis property across seeds
and block counts, plus the recovery-ladder behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FastDramDesign, obs
from repro.array.globalbitline import (build_globalbitline_read_circuit,
                                       globalbitline_initial_voltages)
from repro.errors import ConfigurationError
from repro.spice import simulate_transient, solve_dc
from repro.spice.linalg import lu_solve_dense
from repro.spice.mna import MnaSystem
from repro.spice.recovery import RecoveryConfig
from repro.spice.sparse import SparseContext
from repro.spice.stampplan import SPARSE_AUTO_THRESHOLD, resolve_backend
from repro.units import ns, ps

from tests.spice.test_recovery import GMIN_LADDER, stiff_diode_circuit
from tests.spice.test_stampplan import localblock_circuit

#: Dense-vs-sparse max-abs waveform tolerance, volts.  Measured
#: disagreement on the local-block and global-bitline workloads is
#: below 1e-12 V; the documented contract leaves three orders of
#: margin for platform variation.
WAVEFORM_TOL = 1e-9


def random_sparse_system(rng, n, extra=3):
    """A well-conditioned random sparse system (tridiagonal + extras)."""
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 4.0 + rng.uniform()
        if i:
            a[i, i - 1] = -1.0 - rng.uniform()
            a[i - 1, i] = -1.0 - rng.uniform()
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        a[i, j] += rng.uniform(-0.5, 0.5)
    b = rng.normal(size=n)
    return a, b


def context_for(a):
    flat = np.flatnonzero(a.ravel() != 0.0)
    return SparseContext(a.shape[0], flat), flat


class TestSparseKernel:
    @pytest.mark.parametrize("n", [2, 5, 16, 48])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        a, b = random_sparse_system(rng, n)
        ctx, flat = context_for(a)
        factors = ctx.factorize(a.ravel()[flat])
        x = ctx.solve(factors, b)
        np.testing.assert_allclose(x, lu_solve_dense(a, b),
                                   rtol=1e-9, atol=1e-12)

    def test_refactor_with_new_values_reuses_symbolic(self):
        rng = np.random.default_rng(3)
        a, b = random_sparse_system(rng, 12)
        ctx, flat = context_for(a)
        with obs.instrumented() as registry:
            ctx.factorize(a.ravel()[flat])
            scaled = 1.7 * a
            x = ctx.solve(ctx.factorize(scaled.ravel()[flat]), b)
            counters = registry.snapshot()["counters"]
        np.testing.assert_allclose(x, lu_solve_dense(scaled, b),
                                   rtol=1e-9, atol=1e-12)
        assert counters["spice.sparse.refactor"] == 2

    def test_run_to_run_bit_identity(self):
        rng = np.random.default_rng(5)
        a, b = random_sparse_system(rng, 20)
        ctx1, flat = context_for(a)
        ctx2, _ = context_for(a)
        x1 = ctx1.solve(ctx1.factorize(a.ravel()[flat]), b)
        x2 = ctx2.solve(ctx2.factorize(a.ravel()[flat]), b)
        assert x1.tobytes() == x2.tobytes()

    def test_zero_pivot_raises_singular(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        ctx, flat = context_for(np.ones((2, 2)))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            ctx.factorize(a.ravel()[flat])

    def test_structurally_empty_column_raises(self):
        a = np.array([[1.0, 0.0], [2.0, 0.0]])
        ctx, flat = context_for(a + np.eye(2) * 0)
        with pytest.raises(np.linalg.LinAlgError):
            ctx.factorize(a.ravel()[flat])

    def test_fill_ratio_gauge_set(self):
        rng = np.random.default_rng(6)
        a, _ = random_sparse_system(rng, 10)
        ctx, flat = context_for(a)
        with obs.instrumented() as registry:
            ctx.factorize(a.ravel()[flat])
            gauges = registry.snapshot()["gauges"]
        assert gauges["spice.sparse.fill_ratio"] >= 1.0
        assert ctx.fill_ratio >= 1.0


class TestBackendSelection:
    def test_invalid_backend_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("cholesky", 10)

    def test_auto_threshold(self):
        with obs.instrumented() as registry:
            assert resolve_backend(
                "auto", SPARSE_AUTO_THRESHOLD - 1) == "dense"
            assert resolve_backend(
                "auto", SPARSE_AUTO_THRESHOLD) == "sparse"
            counters = registry.snapshot()["counters"]
        assert counters["spice.sparse.auto.dense"] == 1
        assert counters["spice.sparse.auto.sparse"] == 1

    def test_sparse_requires_stamp_plan(self):
        circuit, initial = localblock_circuit()
        with pytest.raises(ConfigurationError):
            simulate_transient(circuit, t_stop=1 * ps, dt=1 * ps,
                               initial_voltages=initial,
                               stamp_plan=False, backend="sparse")

    def test_transient_span_carries_backend_tag(self):
        from repro.obs.tracing import Tracer

        circuit, initial = localblock_circuit()
        tracer = Tracer()
        with obs.instrumented(tracer=tracer):
            simulate_transient(circuit, t_stop=5 * ps, dt=1 * ps,
                               initial_voltages=initial,
                               backend="sparse")
        roots = [s for s in tracer.finished_roots()
                 if s.name == "spice.transient"]
        assert roots and roots[0].attrs["backend"] == "sparse"

    def test_auto_stays_dense_on_small_circuits(self):
        circuit, initial = localblock_circuit()
        assert MnaSystem(circuit).size < SPARSE_AUTO_THRESHOLD
        with obs.instrumented() as registry:
            simulate_transient(circuit, t_stop=5 * ps, dt=1 * ps,
                               initial_voltages=initial, backend="auto")
            counters = registry.snapshot()["counters"]
        assert counters["spice.sparse.auto.dense"] == 1


def gbl_workload(blocks=3, cells=3):
    cell = FastDramDesign().cell()
    circuit = build_globalbitline_read_circuit(
        cell, blocks=blocks, cells_per_lbl=cells)
    return circuit, globalbitline_initial_voltages(cell)


def run_backend(circuit, initial, backend, t_stop=0.3 * ns, dt=2.0 * ps,
                **kwargs):
    return simulate_transient(circuit, t_stop=t_stop, dt=dt,
                              initial_voltages=initial, backend=backend,
                              **kwargs)


def max_disagreement(a, b):
    return float(np.abs(a.data - b.data).max())


class TestDenseSparseAgreement:
    def test_localblock_within_tolerance(self):
        circuit, initial = localblock_circuit()
        dense = run_backend(circuit, initial, "dense", t_stop=1.0 * ns,
                            dt=1.0 * ps)
        sparse = run_backend(circuit, initial, "sparse", t_stop=1.0 * ns,
                             dt=1.0 * ps)
        assert max_disagreement(dense, sparse) < WAVEFORM_TOL

    def test_globalbitline_within_tolerance(self):
        circuit, initial = gbl_workload()
        dense = run_backend(circuit, initial, "dense")
        sparse = run_backend(circuit, initial, "sparse")
        assert max_disagreement(dense, sparse) < WAVEFORM_TOL

    def test_dc_within_tolerance(self):
        circuit, initial = gbl_workload()
        dense = solve_dc(circuit, initial_guess=initial, backend="dense")
        sparse = solve_dc(circuit, initial_guess=initial, backend="sparse")
        assert dense.keys() == sparse.keys()
        worst = max(abs(dense[k] - sparse[k]) for k in dense)
        assert worst < WAVEFORM_TOL


class TestSparseDeterminism:
    def test_transient_run_to_run_bit_identity(self):
        circuit, initial = gbl_workload()
        first = run_backend(circuit, initial, "sparse")
        second = run_backend(circuit, initial, "sparse")
        assert first.data.tobytes() == second.data.tobytes()

    @given(seed=st.integers(0, 2**16), blocks=st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_property_across_seeds_and_block_counts(self, seed, blocks):
        """Sparse determinism and dense agreement across the sampled
        (seed, block-count) grid the acceptance criteria name."""
        rng = np.random.default_rng(seed)
        cell = FastDramDesign().cell()
        circuit = build_globalbitline_read_circuit(
            cell, blocks=blocks, cells_per_lbl=2,
            stored_value=int(rng.integers(0, 2)),
            selected_block=int(rng.integers(0, blocks)))
        initial = globalbitline_initial_voltages(cell)
        a = run_backend(circuit, initial, "sparse", t_stop=20 * ps)
        b = run_backend(circuit, initial, "sparse", t_stop=20 * ps)
        assert a.data.tobytes() == b.data.tobytes()
        dense = run_backend(circuit, initial, "dense", t_stop=20 * ps)
        assert max_disagreement(dense, a) < WAVEFORM_TOL


class TestSparseRecoveryLadder:
    def test_gmin_ladder_on_sparse_matches_dense(self):
        recovery = RecoveryConfig(max_newton=25, gmin_ladder=GMIN_LADDER)
        circuit = stiff_diode_circuit()
        dense = simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                   initial_voltages={"in": 5.0},
                                   recovery=recovery, backend="dense")
        sparse = simulate_transient(circuit, t_stop=1e-9, dt=1e-10,
                                    initial_voltages={"in": 5.0},
                                    recovery=recovery, backend="sparse")
        assert max_disagreement(dense, sparse) < WAVEFORM_TOL

    def test_source_stepping_dc_on_sparse(self):
        recovery = RecoveryConfig(max_newton=25, gmin_ladder=GMIN_LADDER)
        circuit = stiff_diode_circuit()
        dense = solve_dc(circuit, recovery=recovery, backend="dense")
        sparse = solve_dc(circuit, recovery=recovery, backend="sparse")
        worst = max(abs(dense[k] - sparse[k]) for k in dense)
        assert worst < WAVEFORM_TOL


class TestSparseObsCounters:
    def test_symbolic_cache_reuse_across_plans(self):
        from repro.spice.sparse import _symbolic_cache

        circuit, initial = gbl_workload(blocks=2, cells=2)
        _symbolic_cache.clear()  # earlier tests may have warmed it
        with obs.instrumented() as registry:
            run_backend(circuit, initial, "sparse", t_stop=10 * ps)
            run_backend(circuit, initial, "sparse", t_stop=10 * ps)
            counters = registry.snapshot()["counters"]
        assert counters["spice.sparse.symbolic"] == 1
        assert counters["spice.sparse.symbolic_reuse"] >= 1
        assert counters["spice.sparse.refactor"] > 0
