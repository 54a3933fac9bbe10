"""Batched sample-axis transient solver: the Monte-Carlo fast path.

Variability sweeps evaluate the *same* circuit topology hundreds of
times with perturbed device parameters.  The scalar fast path
(:mod:`repro.spice.stampplan`) makes one solve cheap, but each sample
still pays a full Python Newton loop.  This module stacks **B**
parameter-perturbed instances of one topology on a shared sample axis
and advances them through one vectorised Newton loop:

* the per-sample linear bases become a ``(B, n, n)`` stack, sliced to
  the live rows once per step and copied per iterate (the batched twin
  of the scalar plan's ``np.copyto`` from its cached base);
* the nonlinear companion values are computed by the grouped device
  kernels of :mod:`repro.spice.devices` — one vectorised evaluator per
  element class over ``(L, E)`` arrays, with the MOSFET model's three
  finite-difference probes stacked on a leading axis so the magnitude
  model runs once per iterate — and
  scattered into the matrix stack over precomputed row-offset flat
  indices, stable-partitioned into a unique-destination prefix (plain
  fancy ``+=``, no collision possible) and a shared-destination
  remainder (unbuffered ``np.add.at``, which preserves each cell's
  accumulation order; see below);
* the linear solve loops LAPACK's fused factor+solve over the rows
  whose matrix changed (:func:`repro.spice.linalg.solve_fresh_row_t`)
  and the plain substitution over rows with valid cached factors;
  substitution stays per-sample because a vectorised triangular solve
  would change BLAS reduction order.  Checking for factor reuse costs
  a per-row array compare, so it runs on probation: a few thousand
  consecutive row-solves without one hit (the Newton-active regime —
  every iterate changes every matrix) switch the batch to an
  unconditionally-refactoring loop
  (:func:`repro.spice.linalg.solve_rows_t_into`) that skips the
  compare and the cache bookkeeping; ``dgesv`` *is* ``dgetrf`` +
  ``dgetrs``, so a fresh factor+solve returns the same bits a cache
  hit would have, and the skip is invisible in the results.

**Bit-identity contract.**  Converged batch samples are bit-identical
to scalar ``simulate_transient`` runs because the device kernels write
the scalar plan's companion-value bits (the contract of
:mod:`repro.spice.devices`, which the scalar plan itself relies on for
large circuits).  The companion scatter *is* the scalar plan's
``np.add.at``, batched: each live row's frozen in-row indices are
offset by the row's stride into the raveled stack, so the scatter
replays every sample's duplicate-preserving add sequence — same
cells, same order, same partial sums, same bits — while amortising
the fancy-indexing dispatch over the whole batch.  Splitting off the
unique-destination entries is bit-safe because a cell hit exactly
once has no accumulation order to preserve: one add is one add,
whether ``np.add.at`` or fancy ``+=`` performs it.

**Active set and ejection.**  Samples drop out of the active set the
iterate they converge (masked dropout), and the whole batch marches to
the next timestep together.  A sample is *ejected* — removed from the
batch and rerun from t=0 on the scalar path — when it

* hits a singular matrix (the scalar path raises a structural
  diagnosis; the rerun reproduces it),
* exhausts the Newton budget (the scalar path escalates the recovery
  ladder, which the batch does not replicate),
* drives its oscillation-guard damping to the 1/256 floor (a
  heuristic: such samples are headed for the ladder), or
* any unexpected exception escapes the batch internals, in which case
  *all* remaining active samples are ejected.

Ejection is always bit-safe: the rerun is a complete, independent
scalar simulation, so its result (or exception) is the serial
reference *by definition* — the ejection rules are pure performance
heuristics and can never change a waveform.

Observability: ``spice.batch.samples`` / ``spice.batch.ejected`` /
``spice.batch.batches`` / ``spice.batch.fallback`` counters, a
``spice.batch.occupancy`` time series (active fraction per step), and
the shared ``spice.lu.*`` and ``spice.newton.iterations`` instruments.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.analysis.effects import deterministic_under_seed
from repro.errors import ReproError, SimulationError
from repro.exec.supervise import tick as _supervision_tick
from repro.spice import linalg
from repro.spice.devices import build_device_groups
from repro.spice.elements import Diode, Switch, VoltageSource
from repro.spice.mna import MnaSystem
from repro.spice.mosfet import MosfetElement
from repro.spice.netlist import Circuit
from repro.spice.recovery import DEFAULT_RECOVERY, RecoveryConfig
from repro.spice.stampplan import (resolve_backend, SPARSE_AUTO_THRESHOLD,
                                   StampPlan, stamping_order)
from repro.spice.transient import (_DAMP_LIMIT, _MAX_NEWTON, _NEWTON_BUCKETS,
                                   _V_TOL, _initial_state, _validate_time_grid,
                                   TransientResult, simulate_transient)
from repro.tech.node import Polarity

_log = logging.getLogger(__name__)

#: Outcome of one sample: (True, TransientResult | measured value) or
#: (False, ReproError).  Non-ReproError exceptions always propagate.
Outcome = Tuple[bool, Any]


class _BatchUnsupported(Exception):
    """The circuit stack cannot run batched; fall back to scalar."""


#: Row-solves without a single LU-cache hit before a run stops paying
#: for the content-key compare (see ``BatchStampPlan._solve_rows``).
_LU_TRIAL = 2048

#: The batch runs recovery rung 0 only, whose gmin is the transient's
#: fixed one (``repro.spice.transient._solve_point``).
_GMIN = 1e-12  # noqa: L101 - gmin, siemens


def _scatter_keep(idx: np.ndarray, limit: Optional[int] = None
                  ) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Pad-filter a scatter-index array for batched ``np.add.at``.

    Positions whose destination is ``>= limit`` are dropped entirely:
    the scalar path scatters them into a pad slot that is never read,
    so skipping the adds cannot change an observable value.  Returns
    ``(keep, dst)`` where ``keep`` selects the surviving term columns
    (``None`` when nothing is dropped) and ``dst`` their in-row
    destinations.  The batched scatter offsets ``dst`` per live row and
    performs one unbuffered ``np.add.at`` over the whole stack — the
    very construct the scalar plan applies per sample, with each row's
    adds in the identical duplicate-preserving order, so every cell
    accumulates the same partial sums to the last bit.
    """
    idx = np.asarray(idx, dtype=np.intp)
    if limit is None or bool((idx < limit).all()):
        return None, idx.copy()
    keep = np.nonzero(idx < limit)[0]
    return keep, idx[keep]


def _split_unique(slot: np.ndarray, sign: np.ndarray, dst: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Stable-partition a scatter into unique-destination and shared
    columns.

    Destinations hit exactly once take a plain fancy add (no atomics,
    no ordering concern — one IEEE add each, exactly the scalar's);
    destinations hit more than once stay on ``np.add.at``, in their
    original relative order so each cell accumulates its partial sums
    in the scalar sequence.  Returns the permuted (slot, sign, dst)
    plus the unique-prefix length.
    """
    if dst.size == 0:
        return slot.copy(), sign.copy(), dst.copy(), 0
    counts = np.bincount(dst)
    uniq = counts[dst] == 1
    order = np.concatenate([np.nonzero(uniq)[0], np.nonzero(~uniq)[0]])
    return (np.asarray(slot)[order], np.asarray(sign)[order],
            dst[order], int(np.count_nonzero(uniq)))


@dataclasses.dataclass
class _BatchStep:
    """Everything fixed across the Newton iterates of one timestep."""

    rows: np.ndarray                 # sample ids, one per live row
    rhs_point: np.ndarray            # (L, n) linear RHS
    base: np.ndarray                 # (L, n, n) linear base slice
    group_consts: List[np.ndarray]   # one (K, L, E) stack per group

    def mask(self, keep: np.ndarray) -> "_BatchStep":
        return _BatchStep(
            rows=self.rows[keep], rhs_point=self.rhs_point[keep],
            base=self.base[keep],
            group_consts=[t[:, keep] for t in self.group_consts])


class BatchStampPlan:
    """B same-topology circuits compiled for simultaneous solves.

    Construction raises :class:`_BatchUnsupported` (caught by
    :func:`batch_transient_outcomes`, which falls back to the scalar
    path) when the stack is not batchable: mismatched topologies, or
    element types the stamp-plan compiler itself cannot batch.
    """

    def __init__(self, circuits: Sequence[Circuit]) -> None:
        self.circuits = list(circuits)
        self.batch = len(self.circuits)
        self.systems = [MnaSystem(c) for c in self.circuits]
        self.plans = [StampPlan(s) for s in self.systems]
        plan0 = self.plans[0]
        self.size = plan0.size
        self.n_nodes = len(self.systems[0].node_index)
        self._check_stack()
        # Scalar plan 0 owns the canonical scatter geometry; the
        # topology check above guarantees every sample shares it.
        _, m_dst = _scatter_keep(plan0._m_idx)
        # The matrix stack is stored *transposed* (each row holds A.T,
        # i.e. A in LAPACK's native Fortran order) so dgesv can factor
        # in place with no layout copy.  Flat index r*n+c becomes
        # c*n+r: the add sequence hitting each destination is
        # unchanged, only its storage address moves.
        n = self.size
        m_dst = (m_dst % n) * n + (m_dst // n)
        (self._m_slot, self._m_sign, self._m_dst,
         self._m_n_uniq) = _split_unique(
            plan0._m_slot, plan0._m_sign, m_dst)
        _, r_dst = _scatter_keep(plan0._r_idx)
        (self._r_slot, self._r_sign, self._r_dst,
         self._r_n_uniq) = _split_unique(
            plan0._r_slot, plan0._r_sign, r_dst)
        self._n_slots = plan0.n_slots
        # The device groups, one row per sample, in plan 0's slot
        # layout (the topology check lines every sample up with it).
        self._groups = build_device_groups(
            [p._nonlinear for p in self.plans], plan0._nl_slots,
            self.systems[0].index, self.size)
        # Linear RHS machinery: capacitor companions are stacked per
        # sample; sources shared across samples (the common case: the
        # builder reuses one waveform object) are evaluated once.  The
        # scalar path scatters grounded-capacitor terms into a pad row
        # it then slices off, so those writes are dropped here.
        self._n_caps = len(plan0._cap_c)
        self._cap_ia = plan0._cap_ia
        self._cap_ib = plan0._cap_ib
        self._cap_keep, self._cap_dst = _scatter_keep(
            plan0._cap_rhs_idx, limit=self.size)
        self._cap_c_stack = (np.array([p._cap_c for p in self.plans])
                             if self._n_caps else None)
        # Flat add.at index stacks, built lazily per live-row count
        # (the count shrinks as samples converge or eject).
        self._flat_cache: Dict[
            int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # Per-live-count iterate buffers (xpad, vals, m-terms, r-terms):
        # reused across iterates; only values that must outlive the
        # iterate (matrix factors, solutions) get fresh allocations.
        self._iter_scratch: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._step_scratch: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._geq_stack: Optional[np.ndarray] = None
        self._vsrc_rows = [br for _el, br, _ip, _in in plan0._vsources]
        self._vsrc_br = np.array(self._vsrc_rows, dtype=np.intp)
        self._vsrc_shared = [
            all(p._vsources[j][0] is plan0._vsources[j][0]
                for p in self.plans)
            for j in range(len(plan0._vsources))]
        self._vsrc_all_shared = all(self._vsrc_shared)
        self._isrc_rows = [(i_from, i_to)
                           for _el, i_from, i_to in plan0._isources]
        self._isrc_shared = [
            all(p._isources[j][0] is plan0._isources[j][0]
                for p in self.plans)
            for j in range(len(plan0._isources))]
        self._base_stack: Optional[np.ndarray] = None
        self._base_stack_key: Optional[Tuple] = None
        # Live-set caches: ejection is rare, so consecutive steps see
        # the identical `rows` array object and can reuse its gathers.
        self._live_rows: Optional[np.ndarray] = None
        self._live_base: Optional[np.ndarray] = None
        self._live_consts: List[np.ndarray] = []
        self._live_geq: Optional[np.ndarray] = None
        # Per-sample LU caches, keyed like the scalar inputs-mode key:
        # the base is fixed per run, so equal companion values mean an
        # equal assembled matrix (NaN rows never compare equal, which
        # conservatively forces a refactor).
        self._factors: List[Optional[linalg.LuFactors]] = [None] * self.batch
        self._lu_have = np.zeros(self.batch, dtype=bool)
        self._lu_vals = np.full((self.batch, self._n_slots), np.nan)
        # Reuse probation: a fresh factor+solve of an unchanged matrix
        # returns the same bits as a substitution with cached factors,
        # so the content-key compare is a pure heuristic.  If the first
        # _LU_TRIAL row-solves of a run never hit (a moving transient
        # refactors every iterate), stop paying for the compare.
        self._lu_skip = False
        self._lu_trial = _LU_TRIAL
        self._ok_true: Dict[int, np.ndarray] = {}
        self._c_reuse = obs.metrics().counter("spice.lu.reuse")
        self._c_refactor = obs.metrics().counter("spice.lu.refactor")

    # -- compilation -----------------------------------------------------------

    def _check_stack(self) -> None:
        if self.batch < 2:
            raise _BatchUnsupported("batch needs at least two samples")
        sys0 = self.systems[0]
        for sys_b in self.systems[1:]:
            if (sys_b.size != sys0.size
                    or sys_b.node_index != sys0.node_index
                    or sys_b.branch_index != sys0.branch_index):
                raise _BatchUnsupported(
                    "samples must share one circuit topology")
        plan0 = self.plans[0]
        if not plan0._batched:
            raise _BatchUnsupported(
                "circuit carries elements the stamp-plan compiler "
                "cannot batch")
        sig0 = self._signature(self.circuits[0])
        for circuit in self.circuits[1:]:
            if self._signature(circuit) != sig0:
                raise _BatchUnsupported(
                    "samples must share one element sequence")
        v_rows0 = [(br, ip, in_) for _el, br, ip, in_ in plan0._vsources]
        i_rows0 = [(i_f, i_t) for _el, i_f, i_t in plan0._isources]
        for plan in self.plans[1:]:
            if not plan._batched:
                raise _BatchUnsupported(
                    "circuit carries elements the stamp-plan compiler "
                    "cannot batch")
            for name in ("_m_idx", "_m_slot", "_m_sign",
                         "_r_idx", "_r_slot", "_r_sign",
                         "_cap_rhs_idx", "_cap_ia", "_cap_ib"):
                if not np.array_equal(getattr(plan, name),
                                      getattr(plan0, name)):
                    raise _BatchUnsupported(
                        "samples compiled to different scatter geometry")
            if ([(br, ip, in_) for _el, br, ip, in_ in plan._vsources]
                    != v_rows0
                    or [(i_f, i_t) for _el, i_f, i_t in plan._isources]
                    != i_rows0):
                raise _BatchUnsupported(
                    "samples compiled to different source rows")

    @staticmethod
    def _signature(circuit: Circuit) -> List[Tuple]:
        """Element sequence signature: type, name, terminals, polarity."""
        sig: List[Tuple] = []
        for el in stamping_order(circuit):
            entry: Tuple
            if type(el) is MosfetElement:
                entry = ("mosfet", el.name, el.drain, el.gate, el.source,
                         el.device.polarity is Polarity.NMOS)
            elif type(el) is Diode:
                entry = ("diode", el.name, el.anode, el.cathode)
            elif type(el) is Switch:
                entry = ("switch", el.name, el.node_a, el.node_b,
                         el.ctrl_p, el.ctrl_n)
            else:
                entry = (type(el).__name__, el.name)
            sig.append(entry)
        return sig

    # -- per-step / per-iterate API --------------------------------------------

    def begin_run(self, dt: float, integrator: str) -> None:
        """Stack the per-sample linear bases once per (dt, integrator).

        A base change invalidates every cached factorisation: the LU
        key compares companion values only, which is sound only while
        the underlying base stack is fixed.
        """
        key = (dt, integrator, _GMIN)
        if self._base_stack_key != key:
            # Transposed per sample to match the transposed `_m_dst`
            # scatter map (see __init__): row b holds base_b.T.
            self._base_stack = np.stack(
                [plan._base(dt, integrator, _GMIN).T
                 for plan in self.plans]).copy()
            self._base_stack_key = key
            self._lu_have[:] = False
        self._lu_skip = False
        self._lu_trial = _LU_TRIAL
        self._live_rows = None
        if self._n_caps:
            # Scalar: geq = cap_c / dt, elementwise per sample.
            self._geq_stack = self._cap_c_stack / dt

    def _flat_indices(self, live: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray, np.ndarray]:
        """Flat scatter indices for ``live`` rows.

        Matrix and RHS indices are *entry-major* — index ``[e, i]`` is
        scatter entry ``e`` of sample row ``i`` — split at the
        unique-destination prefix (``_split_unique``): the unique part
        takes a plain fancy ``+=``; the shared part replays each
        cell's scalar accumulation order under ``np.add.at`` (for one
        destination cell, entries keep ascending ``e`` order, and
        different rows never collide).  Capacitor indices stay
        row-major to match the ``(L, 2C)`` companion value layout.
        """
        cached = self._flat_cache.get(live)
        if cached is None:
            n = self.size
            col_m = np.arange(live, dtype=np.intp)[None, :] * (n * n)
            col_r = np.arange(live, dtype=np.intp)[None, :] * n
            row_r = np.arange(live, dtype=np.intp)[:, None] * n
            m_flat = (self._m_dst[:, None] + col_m).reshape(-1)
            r_flat = (self._r_dst[:, None] + col_r).reshape(-1)
            ku, kr = self._m_n_uniq * live, self._r_n_uniq * live
            cached = (m_flat[:ku], m_flat[ku:],
                      r_flat[:kr], r_flat[kr:],
                      (row_r + self._cap_dst).ravel())
            self._flat_cache[live] = cached
        return cached

    def _refresh_live(self, rows: np.ndarray) -> None:
        self._live_rows = rows
        self._live_base = self._base_stack[rows]
        self._live_consts = [g.consts[:, rows] for g in self._groups]
        if self._n_caps:
            self._live_geq = self._geq_stack[rows]

    def begin_step(self, rows: np.ndarray, x_hist: np.ndarray, t: float,
                   dt: float, integrator: str) -> _BatchStep:
        """Precompute one timestep's per-sample linear RHS rows.

        Vectorised transcription of ``StampPlan._point_rhs`` (backward
        Euler; the trapezoidal path never reaches the batch).  Order is
        preserved per RHS cell: capacitor companions first (one flat
        add.at), then voltage sources (disjoint branch rows), then
        current sources — exactly the scalar C, V, I sequence.  Shared
        source elements are evaluated once and broadcast; the value is
        what the scalar path computes for every sample by definition.
        """
        if rows is not self._live_rows:
            self._refresh_live(rows)
        live = rows.shape[0]
        n = self.size
        # rhs is this step's point-RHS: iterate() only ever copies it,
        # so the buffer can be recycled once the next step begins.
        scratch = self._step_scratch.get(live)
        if scratch is None:
            scratch = (np.zeros((live, n)), np.empty((live, n + 1)),
                       np.empty((live, self._n_caps)),
                       np.empty((live, 2 * self._n_caps)))
            self._step_scratch[live] = scratch
        rhs, xg, ieq, cap_vals = scratch
        rhs[:] = 0.0
        if self._n_caps:
            xg[:, :n] = x_hist
            xg[:, n] = 0.0
            np.subtract(xg[:, self._cap_ia], xg[:, self._cap_ib], out=ieq)
            np.multiply(self._live_geq, ieq, out=ieq)
            np.negative(ieq, out=cap_vals[:, 0::2])
            cap_vals[:, 1::2] = ieq
            cv = cap_vals
            if self._cap_keep is not None:
                cv = cap_vals[:, self._cap_keep]
            if self._cap_dst.size:
                cap_flat = self._flat_indices(live)[4]
                np.add.at(rhs.reshape(-1), cap_flat, cv.reshape(-1))
        plans = self.plans
        if self._vsrc_all_shared:
            if self._vsrc_rows:
                # Branch rows are unique per source, so one fancy add
                # performs exactly one IEEE add per cell (scalar order:
                # sources after capacitors, disjoint rows).
                values = np.array([src.waveform(t)
                                   for src, _br, _ip, _in
                                   in plans[0]._vsources])
                rhs[:, self._vsrc_br] += values
        else:
            for j, br in enumerate(self._vsrc_rows):
                if self._vsrc_shared[j]:
                    rhs[:, br] += plans[0]._vsources[j][0].waveform(t)
                else:
                    col = rhs[:, br]
                    for i, b in enumerate(rows.tolist()):
                        col[i] += plans[b]._vsources[j][0].waveform(t)
        for j, (i_from, i_to) in enumerate(self._isrc_rows):
            if self._isrc_shared[j]:
                current = plans[0]._isources[j][0].waveform(t)
                if i_from >= 0:
                    rhs[:, i_from] -= current
                if i_to >= 0:
                    rhs[:, i_to] += current
            else:
                for i, b in enumerate(rows.tolist()):
                    current = plans[b]._isources[j][0].waveform(t)
                    if i_from >= 0:
                        rhs[i, i_from] -= current
                    if i_to >= 0:
                        rhs[i, i_to] += current
        return _BatchStep(rows=rows, rhs_point=rhs, base=self._live_base,
                          group_consts=self._live_consts)

    def iterate(self, step: _BatchStep, x: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray]:
        """Assemble and solve one Newton iterate for every live row.

        Returns ``(x_new, ok)``; rows with a singular matrix come back
        ``ok=False`` with NaN solutions and must be ejected by the
        caller before the next iterate.
        """
        n = self.size
        live = step.rows.shape[0]
        scratch = self._iter_scratch.get(live)
        if scratch is None:
            xpad = np.empty((live, n + 1))
            # The ground pad column is read-only after this: every fill
            # gathers from xpad, nothing writes it.
            xpad[:, n] = 0.0
            scratch = (xpad,
                       np.empty((live, self._n_slots)),
                       np.empty((self._m_slot.shape[0], live)),
                       np.empty((self._r_slot.shape[0], live)),
                       np.empty((live, n, n)))
            self._iter_scratch[live] = scratch
        xpad, vals, mterm, rterm, mat_scratch = scratch
        xpad[:, :n] = x
        for group, consts in zip(self._groups, step.group_consts):
            group.fill(xpad, vals, consts, _GMIN)
        # `rhs` stays a fresh allocation on purpose: it is handed back
        # as the solution vector.  `matrices` must also outlive the
        # iterate while the LU cache is active (the in-place dgesv
        # turns its buffer into the cached factors); once the reuse
        # probation expires the factors are discarded and the per-live
        # scratch buffer serves instead.
        if self._lu_skip:
            np.copyto(mat_scratch, step.base)
            matrices = mat_scratch
        else:
            matrices = step.base.copy()
        rhs = step.rhs_point.copy()
        if self._n_slots:
            mu, md, ru, rd, _cap = self._flat_indices(live)
            ku, kr = self._m_n_uniq, self._r_n_uniq
            # Entry-major terms: row e holds scatter entry e across the
            # live samples, so the unique/shared split is contiguous.
            vals_t = vals.T
            terms = vals_t.take(self._m_slot, axis=0, out=mterm)
            np.multiply(terms, self._m_sign[:, None], out=terms)
            flat = matrices.reshape(-1)
            flat[mu] += terms[:ku].reshape(-1)
            np.add.at(flat, md, terms[ku:].reshape(-1))
            terms = vals_t.take(self._r_slot, axis=0, out=rterm)
            np.multiply(terms, self._r_sign[:, None], out=terms)
            flat = rhs.reshape(-1)
            flat[ru] += terms[:kr].reshape(-1)
            np.add.at(flat, rd, terms[kr:].reshape(-1))
        return self._solve_rows(step, matrices, rhs, vals)

    def _solve_rows(self, step: _BatchStep, matrices: np.ndarray,
                    rhs: np.ndarray, vals: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row LU with the scalar plan's inputs-mode content key.

        The solution is written in place into ``rhs`` (the caller owns
        that buffer and never reads the RHS again).  Rows whose
        companion values changed go through the fused factor+solve;
        rows with valid cached factors reuse them via substitution.
        """
        rows = step.rows
        live = rows.shape[0]
        if self._lu_skip:
            # Probation expired without a hit: factor every row without
            # consulting the cache.  The factors land in the caller's
            # recycled scratch and are discarded; the cached (factors,
            # vals, have) triple is never touched, so it stays coherent
            # and a later run may resume comparing against it.
            bad = linalg.solve_rows_t_into(matrices, rhs)
            if bad:
                ok = np.ones(live, dtype=bool)
                ok[bad] = False
                rhs[bad] = np.nan
            else:
                # The all-ok vector is never mutated downstream, so the
                # common case shares one cached buffer per live count.
                ok = self._ok_true.get(live)
                if ok is None:
                    ok = self._ok_true[live] = np.ones(live, dtype=bool)
            self._c_refactor.inc(live)
            return rhs, ok
        ok = np.ones(live, dtype=bool)
        full = live == self.batch   # rows must then be 0..batch-1
        same = self._lu_have if full else self._lu_have[rows]
        if self._n_slots:
            lu_vals = self._lu_vals if full else self._lu_vals[rows]
            same = same & (vals == lu_vals).all(axis=1)  # noqa: L102 - exact content key, like tobytes
        factors = self._factors
        rows_list = rows.tolist()
        backsolve = linalg.lu_backsolve_into
        n_fresh = 0
        if same.all():
            for i in range(live):
                backsolve(factors[rows_list[i]], rhs[i])
        else:
            if full:
                self._lu_vals[:] = vals
            else:
                self._lu_vals[rows] = vals
            # `matrices` rows hold A.T (see __init__) and are a fresh
            # per-iterate copy, so the in-place factorisation can own
            # the buffer: cached factors alias it, and the next
            # iterate's `step.base.copy()` never touches it again.
            solve_fresh = linalg.solve_fresh_row_t
            if not same.any():
                # Companion values changed for every row — the common
                # case mid-transient — so skip the per-row reuse test.
                for i in range(live):
                    fac = solve_fresh(matrices[i], rhs[i])
                    factors[rows_list[i]] = fac
                    if fac is None:
                        ok[i] = False
                        rhs[i] = np.nan
                n_fresh = live
            else:
                same_list = same.tolist()
                for i in range(live):
                    b = rows_list[i]
                    if same_list[i]:
                        backsolve(factors[b], rhs[i])
                        continue
                    n_fresh += 1
                    fac = solve_fresh(matrices[i], rhs[i])
                    factors[b] = fac
                    if fac is None:
                        ok[i] = False
                        rhs[i] = np.nan
            have = ok if n_fresh == live else (same | ok)
            if full:
                self._lu_have[:] = have
            else:
                self._lu_have[rows] = have
        if n_fresh:
            self._c_refactor.inc(n_fresh)
        if live - n_fresh:
            self._c_reuse.inc(live - n_fresh)
            self._lu_trial = _LU_TRIAL
        else:
            self._lu_trial -= live
            if self._lu_trial <= 0:
                self._lu_skip = True
        return rhs, ok


# -- the batched Newton driver -------------------------------------------------

def _normalize_initials(initial_voltages: Any, batch: int
                        ) -> List[Optional[Dict[str, float]]]:
    """One initial-voltage dict per sample (a single dict is shared)."""
    if initial_voltages is None or isinstance(initial_voltages, dict):
        return [initial_voltages] * batch
    initials = list(initial_voltages)
    if len(initials) != batch:
        raise SimulationError(
            f"{len(initials)} initial-voltage dicts for {batch} samples")
    return initials


def _run_batch(plan: BatchStampPlan, t_stop: float, dt: float,
               initials: List[Optional[Dict[str, float]]], integrator: str,
               recovery: Optional[RecoveryConfig],
               scalar_run: Callable[[int], Outcome]) -> List[Outcome]:
    """March the stack through every timestep; eject stragglers.

    The Newton loop is a row-parallel transcription of
    :func:`repro.spice.transient._solve_point` at recovery rung 0
    (plain Newton, ``initial_damping=1.0``, ``gmin=1e-12``): same
    pre-clip ``max_step``, same clipped-delta oscillation guard, same
    update-before-convergence-check ordering.  Any sample that leaves
    rung-0 behaviour — singular matrix, damping floor, exhausted
    budget — is ejected and rerun via ``scalar_run``.
    """
    circuits = plan.circuits
    batch = plan.batch
    config = recovery if recovery is not None else DEFAULT_RECOVERY
    budget = _MAX_NEWTON if config.max_newton is None else config.max_newton
    steps = int(round(t_stop / dt))
    if steps < 1:
        raise SimulationError("t_stop shorter than one time step")
    n = plan.size
    n_nodes = plan.n_nodes
    times = np.linspace(0.0, steps * dt, steps + 1)
    data = np.empty((batch, steps + 1, n))
    for b in range(batch):
        data[b, 0] = _initial_state(circuits[b], plan.systems[b],
                                    initials[b])
    plan.begin_run(dt, integrator)
    active = np.arange(batch)
    ejected: List[int] = []
    metrics = obs.metrics()
    metrics.counter("spice.batch.batches").inc()
    metrics.counter("spice.batch.samples").inc(batch)
    damping_counter = metrics.counter("spice.damping_events")
    histogram = metrics.histogram("spice.newton.iterations", _NEWTON_BUCKETS)
    occupancy = (obs.timeseries().series("spice.batch.occupancy")
                 if obs.is_enabled() else None)
    floor_limit = 1.0 / 256.0
    abs_scratch: Dict[int, np.ndarray] = {}
    dot_scratch: Dict[int, np.ndarray] = {}
    try:
        with obs.span("spice.batch.transient", circuit=circuits[0].name,
                      batch=batch, steps=steps, integrator=integrator):
            for step in range(1, steps + 1):
                if not active.size:
                    break
                _supervision_tick()
                t = times[step]
                # The scalar ladder solves rung 0 at t_start + sub_dt
                # with t_start = t - dt; (t - dt) + dt need not round
                # back to t, so replicate the exact expression.
                t_point = (t - dt) + dt
                if occupancy is not None:
                    occupancy.sample(float(t), active.size / batch)
                x_hist = data[active, step - 1, :]
                ctx = plan.begin_step(active, x_hist, t_point, dt,
                                      integrator)
                x = x_hist.copy()
                prev_delta: Optional[np.ndarray] = None
                damping = np.ones(active.size)
                damping_one = True   # all damping factors still == 1.0
                damping_events = np.zeros(active.size, dtype=np.intp)
                eject_now: List[int] = []
                for iteration in range(1, budget + 1):
                    x_new, ok = plan.iterate(ctx, x)
                    if not ok.all():
                        # Singular rows: the scalar path raises the
                        # structural diagnosis; the rerun reproduces it.
                        eject_now.extend(ctx.rows[~ok].tolist())
                        ctx = ctx.mask(ok)
                        x, x_new = x[ok], x_new[ok]
                        damping = damping[ok]
                        damping_events = damping_events[ok]
                        if prev_delta is not None:
                            prev_delta = prev_delta[ok]
                        if not ctx.rows.size:
                            break
                    # x_new is this iterate's private solution buffer;
                    # consuming it in place saves an allocation.
                    delta = np.subtract(x_new, x, out=x_new)
                    live = ctx.rows.shape[0]
                    if n_nodes:
                        ab = abs_scratch.get(live)
                        if ab is None:
                            ab = abs_scratch[live] = np.empty(
                                (live, n_nodes))
                        np.abs(delta[:, :n_nodes], out=ab)
                        max_step = ab.max(axis=1)
                    else:
                        max_step = np.zeros(live)
                    clip = max_step > _DAMP_LIMIT
                    if clip.any():
                        delta[clip] *= (_DAMP_LIMIT / max_step[clip])[:, None]
                    osc_any = False
                    if prev_delta is not None:
                        # Batched (L,1,n)@(L,n,1) matmul runs the same
                        # ddot kernel per row as the scalar path's
                        # np.dot (bit-verified); an einsum would not.
                        dot = dot_scratch.get(live)
                        if dot is None:
                            dot = dot_scratch[live] = np.empty(
                                (live, 1, 1))
                        np.matmul(delta[:, None, :],
                                  prev_delta[:, :, None], out=dot)
                        dots = dot.ravel()
                        osc = dots < 0.0
                        osc_any = bool(osc.any())
                        if osc_any:
                            damping = np.where(
                                osc,
                                np.maximum(damping * 0.5, floor_limit),
                                np.minimum(1.0, damping * 1.5))
                            damping_one = False
                            damping_events = damping_events + osc
                        elif not damping_one:
                            # Scalar growth path: min(1, d * 1.5).
                            damping = np.minimum(1.0, damping * 1.5)
                            damping_one = bool((damping == 1.0).all())  # noqa: L102 - exact saturation check
                    prev_delta = delta
                    # x + delta * 1.0 is bitwise x + delta, so skip the
                    # broadcast multiply while no row is damped; x is a
                    # driver-private buffer, so the add runs in place.
                    if damping_one:
                        x = np.add(x, delta, out=x)
                    else:
                        x = np.add(x, delta * damping[:, None], out=x)
                    converged = max_step < _V_TOL
                    if osc_any:
                        floor = osc & (damping <= floor_limit) & ~converged
                        floor_any = bool(floor.any())
                    else:
                        floor_any = False
                    conv_any = bool(converged.any())
                    if conv_any:
                        done_rows = ctx.rows[converged]
                        data[done_rows, step, :] = x[converged]
                        histogram.observe_many(iteration, done_rows.size)
                        conv_events = damping_events[converged]
                        if conv_events.any():
                            conv_idx = np.nonzero(converged)[0]
                            for k in np.nonzero(conv_events)[0].tolist():
                                i = int(conv_idx[k])
                                events = int(damping_events[i])
                                damping_counter.inc(events)
                                obs.event(
                                    "spice.newton.damped",
                                    circuit=circuits[int(ctx.rows[i])].name,
                                    time=float(t_point), events=events)
                    if floor_any:
                        eject_now.extend(ctx.rows[floor].tolist())
                        histogram.observe_many(iteration, int(floor.sum()))
                        drop = converged | floor
                    elif conv_any:
                        drop = converged
                    else:
                        continue
                    keep = ~drop
                    if not keep.any():
                        break
                    ctx = ctx.mask(keep)
                    x = x[keep]
                    prev_delta = prev_delta[keep]
                    damping = damping[keep]
                    damping_events = damping_events[keep]
                else:
                    # Newton budget exhausted: the scalar path would
                    # raise ConvergenceError and walk the recovery
                    # ladder, which the batch does not replicate.
                    histogram.observe_many(budget, int(ctx.rows.size))
                    eject_now.extend(ctx.rows.tolist())
                if eject_now:
                    ejected.extend(eject_now)
                    eject_set = set(eject_now)
                    active = np.array(
                        [b for b in active.tolist() if b not in eject_set],
                        dtype=np.intp)
                    metrics.counter("spice.batch.ejected").inc(len(eject_now))
                    obs.event("spice.batch.ejected",
                              circuit=circuits[0].name,
                              time=float(t_point), samples=len(eject_now))
            if active.size:
                metrics.counter("spice.timesteps").inc(steps * active.size)
    except ReproError:
        raise
    except Exception:
        # A defect in the batch machinery must never take down a sweep
        # the scalar path could complete: eject everything still active
        # and let the scalar reruns produce the authoritative results
        # (or the authoritative per-sample exceptions).
        _log.exception("batch solver aborted; ejecting %d active samples",
                       active.size)
        obs.event("spice.batch.abort", circuit=circuits[0].name,
                  samples=int(active.size))
        if active.size:
            metrics.counter("spice.batch.ejected").inc(active.size)
            ejected.extend(active.tolist())
        active = np.empty(0, dtype=np.intp)
    survivors = set(active.tolist())
    outcomes: List[Outcome] = []
    for b in range(batch):
        if b in survivors:
            outcomes.append((True, TransientResult(
                circuit=circuits[b], time=times, data=data[b],
                node_index=dict(plan.systems[b].node_index),
                branch_index=dict(plan.systems[b].branch_index))))
        else:
            outcomes.append(scalar_run(b))
    return outcomes


def batch_transient_outcomes(
        circuits: Sequence[Circuit], t_stop: float, dt: float,
        initial_voltages: Any = None, integrator: str = "be",
        recovery: Optional[RecoveryConfig] = None,
        backend: str = "auto") -> List[Outcome]:
    """Simulate a stack of same-topology circuits, one outcome each.

    Returns ``(True, TransientResult)`` or ``(False, ReproError)`` per
    sample, in input order.  Results are bit-identical to per-sample
    :func:`repro.spice.transient.simulate_transient` calls — samples
    the batch cannot carry (and whole stacks it cannot represent) are
    transparently evaluated on the scalar path.  Configuration errors
    (bad time grid, unknown integrator) raise immediately; per-sample
    :class:`repro.errors.ReproError` failures are captured in the
    outcome list; any other exception propagates.

    ``backend`` is the linear-kernel selector of
    :func:`repro.spice.transient.simulate_transient`.  The batched
    sample-axis solver is inherently dense (it row-solves small
    per-sample systems), so when the backend resolves to ``"sparse"``
    for this topology the whole stack ejects to the scalar path — each
    sample then runs scalar-sparse, never scalar-dense.
    """
    _validate_time_grid(t_stop, dt)
    if integrator not in ("be", "trap"):
        raise SimulationError(f"unknown integrator {integrator!r}")
    stack = list(circuits)
    if not stack:
        return []
    initials = _normalize_initials(initial_voltages, len(stack))

    def scalar_run(b: int) -> Outcome:
        try:
            return (True, simulate_transient(
                stack[b], t_stop, dt, initial_voltages=initials[b],
                integrator=integrator, recovery=recovery,
                backend=backend))
        except ReproError as exc:
            return (False, exc)

    if backend not in ("dense", "sparse", "auto"):
        resolve_backend(backend, 0)  # raises ConfigurationError
    # MNA size without allocating the dense system: non-ground nodes
    # plus one branch current per voltage source.  The auto threshold
    # is compared inline so the decision counter stays owned by the
    # per-plan resolve_backend call inside each solve.
    size = len(stack[0].nodes()) + sum(
        1 for el in stack[0].elements if type(el) is VoltageSource)
    reason = None
    if backend == "sparse" or (backend == "auto"
                               and size >= SPARSE_AUTO_THRESHOLD):
        reason = "sparse backend solves per sample"
    elif len(stack) == 1:
        reason = "single sample"
    elif integrator == "trap":
        reason = "trapezoidal capacitor history is scalar-only"
    plan = None
    if reason is None:
        try:
            plan = BatchStampPlan(stack)
        except _BatchUnsupported as exc:
            reason = str(exc)
    if plan is None:
        obs.metrics().counter("spice.batch.fallback").inc(len(stack))
        obs.event("spice.batch.fallback", samples=len(stack), reason=reason)
        return [scalar_run(b) for b in range(len(stack))]
    return _run_batch(plan, t_stop, dt, initials, integrator, recovery,
                      scalar_run)


def simulate_transient_batch(
        circuits: Sequence[Circuit], t_stop: float, dt: float,
        initial_voltages: Any = None, integrator: str = "be",
        recovery: Optional[RecoveryConfig] = None,
        backend: str = "auto") -> List[TransientResult]:
    """Like :func:`batch_transient_outcomes`, raising the first
    (sample-order) captured failure instead of returning it."""
    results: List[TransientResult] = []
    for ok, payload in batch_transient_outcomes(
            circuits, t_stop, dt, initial_voltages=initial_voltages,
            integrator=integrator, recovery=recovery, backend=backend):
        if not ok:
            raise payload
        results.append(payload)
    return results


# -- the Monte-Carlo batching contract -----------------------------------------

class BatchTransientModel:
    """A Monte-Carlo model the batched solver knows how to stack.

    Subclasses implement ``draw`` (rng -> sample parameters), ``build``
    (parameters -> Circuit), optionally ``initial_voltages``, and
    ``measure`` (TransientResult -> float), plus the ``t_stop`` / ``dt``
    class attributes.  Calling the model with a generator runs one
    sample on the scalar path — that keeps a model instance directly
    usable by ``run_monte_carlo(model, ...)`` at ``batch=1`` — while
    :func:`eval_model_batch` stacks many draws through the batched
    solver with bit-identical results.
    """

    t_stop: float
    dt: float
    integrator: str = "be"
    recovery: Optional[RecoveryConfig] = None
    backend: str = "auto"

    def draw(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def build(self, params: Any) -> Circuit:
        raise NotImplementedError

    def initial_voltages(self, params: Any) -> Optional[Dict[str, float]]:
        return None

    def measure(self, result: TransientResult, params: Any) -> float:
        raise NotImplementedError

    def __call__(self, rng: np.random.Generator) -> float:
        params = self.draw(rng)
        result = simulate_transient(
            self.build(params), self.t_stop, self.dt,
            initial_voltages=self.initial_voltages(params),
            integrator=self.integrator, recovery=self.recovery,
            backend=self.backend)
        return self.measure(result, params)


@deterministic_under_seed
def eval_model_batch(model: BatchTransientModel,
                     rngs: Sequence[np.random.Generator]) -> List[Outcome]:
    """Evaluate one model over per-sample generators as a single batch.

    Each sample owns its generator (the SeedSequence-spawned child
    stream), so draw order is independent of batching and the returned
    measurements are bit-identical to looping ``model(rng)`` serially.
    Per-sample ``ReproError`` failures — in ``draw``/``build``, the
    solve, or ``measure`` — are captured per outcome.
    """
    count = len(rngs)
    outcomes: List[Optional[Outcome]] = [None] * count
    built: List[int] = []
    circuits: List[Circuit] = []
    initials: List[Optional[Dict[str, float]]] = []
    params_by_sample: List[Any] = [None] * count
    for i, rng in enumerate(rngs):
        try:
            params = model.draw(rng)
            circuits.append(model.build(params))
            initials.append(model.initial_voltages(params))
        except ReproError as exc:
            outcomes[i] = (False, exc)
            continue
        params_by_sample[i] = params
        built.append(i)
    if built:
        solved = batch_transient_outcomes(
            circuits, model.t_stop, model.dt, initial_voltages=initials,
            integrator=model.integrator, recovery=model.recovery,
            backend=getattr(model, "backend", "auto"))
        for i, (ok, payload) in zip(built, solved):
            if not ok:
                outcomes[i] = (False, payload)
                continue
            try:
                outcomes[i] = (
                    True, float(model.measure(payload,
                                              params_by_sample[i])))
            except ReproError as exc:
                outcomes[i] = (False, exc)
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]
