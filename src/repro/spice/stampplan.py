"""Compiled stamp plans: the solver fast path.

The legacy Newton loop re-stamps *every* element of the circuit into a
zeroed dense matrix on *every* iterate, through the string-keyed
:class:`~repro.spice.mna.StampContext` API.  For the paper's local-block
fixtures that plumbing — dict lookups, per-element Python calls,
property chains down to the technology tables — dominates the solve.

A :class:`StampPlan` compiles a circuit once per :class:`MnaSystem`:

* the circuit is partitioned into **linear** elements (resistor,
  capacitor, voltage source, current source) and the **nonlinear rest**;
* the linear *matrix* contributions are assembled once per
  ``(dt, integrator, gmin)`` key and cached — per Newton iterate the
  base is block-copied, never re-stamped;
* the linear *RHS* contributions (source waveforms, capacitor history
  currents) are assembled once per solve point; the capacitor history
  scatter is vectorised with ``np.add.at`` over precompiled index
  arrays;
* diodes, switches and MOSFETs compute their companion values (the
  conductances plus the linearisation residue) into one value vector,
  and the matrix/RHS writes replay through two ``np.add.at`` scatters
  over index/sign arrays frozen in canonical write order (unknown
  element types fall back to their generic ``stamp()`` through a
  facade system with direct per-element writes, so plans accept any
  circuit);
* the LU factorisation of the last solve is kept and reused when the
  next matrix is unchanged (``spice.lu.reuse`` / ``spice.lu.refactor``
  count the split).  The reuse test compares content keys, so
  invalidation is automatic: gmin stepping, source stepping and
  substep halving all change the assembled matrix, so they can never
  reuse a stale factorisation by construction.  On fully-compiled
  plans the content key is the tuple of assembly *inputs* — the
  linear-base key, ``extra_gmin``, and the bytes of the nonlinear value
  vector — because assembly is a deterministic function of those
  inputs, equal inputs imply an equal matrix.  Plans carrying
  generic-fallback stamps (whose writes are opaque to the compiler)
  key on the full ``matrix.tobytes()``.

**Device evaluation.**  The companion values come from one of two
bit-identical evaluators, chosen per plan by its nonlinear element
count (``plan.device``, counted in ``spice.stampplan.device.grouped``
/ ``spice.stampplan.device.closures``):

* ``"closures"`` — one compiled Python closure per element, with node
  indices resolved to integers and process constants hoisted.  Cheap
  per call, so it wins on small circuits such as the 8-MOSFET local
  block;
* ``"grouped"`` — the class-wise kernels of
  :mod:`repro.spice.devices` (the ones the batched solver runs),
  evaluated at one stacked sample.  Their fixed per-call cost is that
  of a few dozen closures, but the per-device cost is several times
  lower, so they win from
  :data:`DEVICE_GROUP_THRESHOLD` devices up (calibrated by
  ``benchmarks/test_device_crossover.py``).

**Backends.**  ``backend`` selects the linear kernel: ``"dense"`` (the
default — LAPACK LU via :mod:`repro.spice.linalg`, bit-identical to
the legacy path), ``"sparse"`` (the pattern-compiled CSR path of
:mod:`repro.spice.sparse` — assembly scatters into the frozen value
array, never touching an O(n²) matrix copy), or ``"auto"`` (sparse at
and above ``SPARSE_AUTO_THRESHOLD`` unknowns, dense below; the
crossover is calibrated by ``benchmarks/test_sparse_throughput.py``).
Sparse factorisations follow the same last-factorisation reuse rule,
so the recovery ladder invalidates them exactly like dense ones.
Plans carrying generic-fallback stamps always solve dense (their
writes are opaque to the pattern compiler);
``spice.sparse.generic_fallback`` counts that demotion.

**Bit-identity contract.**  Both the plan and the legacy path stamp in
the canonical order of :func:`stamping_order` (linear groups by type in
circuit order, then the rest in circuit order), both device evaluators
replay the exact arithmetic of the element's ``stamp()`` (same
expression trees, same accumulation order — IEEE addition is not
associative, so order *is* the contract), and both paths factorise
through :mod:`repro.spice.linalg`.  ``tests/spice/test_stampplan.py``
asserts ``TransientResult.data`` equality to the last bit under both
device evaluators.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.spice import linalg
from repro.spice.devices import (DEVICE_TYPES, _mosfet_constants,
                                 build_device_groups)
from repro.spice.elements import (Capacitor, CurrentSource, Diode, Resistor,
                                  Switch, VoltageSource)
from repro.spice.sparse import SparseContext
from repro.spice.mna import MnaSystem, StampContext
from repro.spice.mosfet import _FD_STEP, MosfetElement
from repro.spice.netlist import CircuitElement
from repro.tech.node import Polarity

#: Exact types compiled into the linear base (subclasses keep their
#: generic ``stamp()`` and are treated as nonlinear-unknown).
_LINEAR_TYPES = (Resistor, Capacitor, VoltageSource, CurrentSource)

#: Upper bound on cached linear bases (substep halving creates a new
#: dt per halving; the ladder is bounded, but stay defensive).
_MAX_BASES = 64

#: Solves per LU reuse-ratio telemetry sample: wide enough that the
#: enabled path amortises the sampler call to noise, narrow enough to
#: resolve reuse collapses (e.g. a source ramp) inside one run.
_LU_SAMPLE_WINDOW = 256

#: ``backend="auto"`` picks the sparse path at and above this unknown
#: count.  Calibrated by ``benchmarks/test_sparse_throughput.py``: at
#: n ≈ 64 the dense LAPACK kernel still wins (lower fixed overhead),
#: from n ≈ 256 the pattern-compiled sparse refactor is an order of
#: magnitude faster and the gap widens cubically.
SPARSE_AUTO_THRESHOLD = 128

#: Plans with at least this many nonlinear elements (diodes, switches,
#: MOSFETs) evaluate them through the grouped kernels of
#: :mod:`repro.spice.devices`; smaller plans keep the per-element
#: closures.  Calibrated by ``benchmarks/test_device_crossover.py``:
#: the grouped kernels' fixed per-call cost still loses to the closures
#: at 32 MOSFETs (about 0.8x), and they win from 64 (about 1.4x) to the
#: 261-MOSFET global bitline (about 4.5x).
DEVICE_GROUP_THRESHOLD = 48


def resolve_backend(backend: str, size: int) -> str:
    """Resolve a requested backend to ``"dense"`` or ``"sparse"``.

    ``"auto"`` compares ``size`` (MNA unknown count) against
    :data:`SPARSE_AUTO_THRESHOLD` and counts its decision in
    ``spice.sparse.auto.dense`` / ``spice.sparse.auto.sparse``.
    """
    if backend not in ("dense", "sparse", "auto"):
        raise ConfigurationError(
            f"backend must be 'dense', 'sparse' or 'auto', got {backend!r}")
    if backend == "auto":
        choice = "sparse" if size >= SPARSE_AUTO_THRESHOLD else "dense"
        obs.metrics().counter(f"spice.sparse.auto.{choice}").inc()
        return choice
    return backend


def stamping_order(circuit) -> List[CircuitElement]:
    """The canonical element stamping order shared by both solver paths.

    Linear elements grouped by type — resistors, capacitors, voltage
    sources, current sources, each group in circuit order — followed by
    everything else in circuit order.  Grouping is what lets the plan
    pre-accumulate the linear part while keeping per-matrix-cell
    accumulation order (and therefore float rounding) identical to a
    sequential stamp walk.
    """
    groups: Dict[type, List[CircuitElement]] = {t: [] for t in _LINEAR_TYPES}
    rest: List[CircuitElement] = []
    for element in circuit.elements:
        bucket = groups.get(type(element))
        if bucket is not None:
            bucket.append(element)
        else:
            rest.append(element)
    ordered: List[CircuitElement] = []
    for linear_type in _LINEAR_TYPES:
        ordered.extend(groups[linear_type])
    ordered.extend(rest)
    return ordered


@dataclasses.dataclass
class _SolvePoint:
    """Everything fixed across the Newton iterates of one solve point."""

    base: np.ndarray
    rhs_point: np.ndarray
    gmin: float
    extra_gmin: float
    t: float
    dt: Optional[float]
    integrator: str
    cap_state: Optional[Dict[str, float]]
    x_prev: Optional[np.ndarray]
    source_scale: float
    #: Cache key of ``base`` — the (dt, integrator, gmin) tuple.  Part
    #: of the inputs-mode LU content key (see StampPlan._solve).
    base_key: Optional[Tuple[Optional[float], str, float]] = None


#: Compiled stamper: (x, matrix_flat, rhs, gmin, point) -> None.  The
#: matrix argument is the *raveled view* of the plan's matrix buffer —
#: scalar writes through precompiled flat indices are measurably
#: cheaper than 2-D tuple indexing, and hit the same memory.
_Stamper = Callable[[np.ndarray, np.ndarray, np.ndarray, float,
                     _SolvePoint], None]


class StampPlan:
    """One circuit compiled for fast repeated Newton solves."""

    def __init__(self, system: MnaSystem, *, lu_key: str = "inputs",
                 backend: str = "dense") -> None:
        if lu_key not in ("inputs", "matrix"):
            raise ConfigurationError(
                f"lu_key must be 'inputs' or 'matrix', got {lu_key!r}")
        backend = resolve_backend(backend, system.size)
        self.system = system
        self.size = system.size
        self._n_nodes = len(system.node_index)
        ground_slot = self.size  # pad slot for gathers/scatters via ground
        self._ground_slot = ground_slot

        self._matrix = np.zeros((self.size, self.size))
        self._matrix_flat = self._matrix.ravel()  # shared-memory view
        self._rhs = np.zeros(self.size)
        self._diag_flat = np.arange(self._n_nodes) * (self.size + 1)

        # Facade sharing the plan's buffers, for generic-fallback stamps.
        view = MnaSystem.__new__(MnaSystem)
        view.circuit = system.circuit
        view.node_index = system.node_index
        view.branch_index = system.branch_index
        view.size = system.size
        view.matrix = self._matrix
        view.rhs = self._rhs
        self._view = view

        self._resistors: List[Tuple[int, int, float]] = []
        self._cap_entries: List[Tuple[int, int, float]] = []
        self._cap_names: List[str] = []
        self._vsources: List[Tuple[VoltageSource, int, int, int]] = []
        self._isources: List[Tuple[CurrentSource, int, int]] = []
        nonlinear: List[CircuitElement] = []

        for element in stamping_order(system.circuit):
            kind = type(element)
            if kind is Resistor:
                self._resistors.append((
                    self._idx(element.node_a), self._idx(element.node_b),
                    1.0 / element.resistance))
            elif kind is Capacitor:
                self._cap_entries.append((
                    self._idx(element.node_a), self._idx(element.node_b),
                    element.capacitance))
                self._cap_names.append(element.name)
            elif kind is VoltageSource:
                self._vsources.append((
                    element, system.branch(element.name),
                    self._idx(element.node_p), self._idx(element.node_n)))
            elif kind is CurrentSource:
                self._isources.append((
                    element, self._idx(element.node_from),
                    self._idx(element.node_to)))
            else:
                nonlinear.append(element)
        self.nonlinear_count = len(nonlinear)

        # Nonlinear elements compile to *value producers*: per iterate
        # the plan computes every element's companion-model values
        # (conductances plus the linearisation residue) into one value
        # vector, and the matrix/RHS writes replay through two
        # np.add.at scatters over index/slot/sign arrays frozen at
        # compile time in canonical write order (np.add.at applies
        # unbuffered, in index order, so per-cell accumulation order —
        # and therefore rounding — is identical to the sequential
        # legacy walk).  The values come from per-element closures or,
        # from DEVICE_GROUP_THRESHOLD elements up, from the grouped
        # kernels of repro.spice.devices.  Circuits with an element
        # type the compiler does not know fall back to direct
        # per-element stamping so generic stamps interleave correctly.
        self._batched = all(type(el) in DEVICE_TYPES for el in nonlinear)
        grouped = (self._batched
                   and self.nonlinear_count >= DEVICE_GROUP_THRESHOLD)
        self.device = "grouped" if grouped else "closures"
        obs.metrics().counter(f"spice.stampplan.device.{self.device}").inc()
        self._nonlinear = nonlinear
        self._fillers: List[Callable] = []
        self._stampers: List[_Stamper] = []
        self._groups = None
        self.n_slots = 0
        if self._batched:
            m_writes: List[Tuple[int, int, float]] = []
            r_writes: List[Tuple[int, int, float]] = []
            slots: List[int] = []
            slot = 0
            for el in nonlinear:
                slots.append(slot)
                fill, n_slots, mw, rw = self._compile_fill(el, slot)
                if not grouped:
                    self._fillers.append(fill)
                m_writes.extend(mw)
                r_writes.extend(rw)
                slot += n_slots
            self.n_slots = slot
            #: First value slot of each nonlinear element.
            self._nl_slots = slots
            self._nl_vals = [0.0] * slot
            self._m_idx = np.array([w[0] for w in m_writes], dtype=np.intp)
            self._m_slot = np.array([w[1] for w in m_writes], dtype=np.intp)
            self._m_sign = np.array([w[2] for w in m_writes])
            self._r_idx = np.array([w[0] for w in r_writes], dtype=np.intp)
            self._r_slot = np.array([w[1] for w in r_writes], dtype=np.intp)
            self._r_sign = np.array([w[2] for w in r_writes])
            if grouped:
                self._groups = build_device_groups(
                    [nonlinear], slots, system.index, ground_slot)
                # One stacked sample: the padded iterate (ground column
                # pinned to 0.0) and its value row.
                self._xpad = np.zeros((1, self.size + 1))
                self._nl_row = np.empty((1, slot))
        else:
            for el in nonlinear:
                self._stampers.append(self._compile(el))

        # Vectorised capacitor gather/scatter indices (ground -> pad slot).
        n_caps = len(self._cap_entries)
        self._cap_ia = np.empty(n_caps, dtype=np.intp)
        self._cap_ib = np.empty(n_caps, dtype=np.intp)
        self._cap_c = np.empty(n_caps)
        rhs_idx = np.empty(2 * n_caps, dtype=np.intp)
        for j, (ia, ib, c) in enumerate(self._cap_entries):
            self._cap_ia[j] = ia if ia >= 0 else ground_slot
            self._cap_ib[j] = ib if ib >= 0 else ground_slot
            self._cap_c[j] = c
            # Replays stamp_current(node_b, node_a, ieq): -ieq at b, +ieq
            # at a, in that per-capacitor order.
            rhs_idx[2 * j] = ib if ib >= 0 else ground_slot
            rhs_idx[2 * j + 1] = ia if ia >= 0 else ground_slot
        self._cap_rhs_idx = rhs_idx
        # Scratch buffers for _point_rhs (overwritten every point).
        self._xg_pad = np.zeros(self.size + 1)
        self._cap_vals = np.empty(2 * n_caps)

        self._bases: Dict[Tuple[Optional[float], str, float], np.ndarray] = {}
        # Inputs-mode keys are only sound when every matrix write is
        # compiler-known; generic-fallback plans key on matrix bytes.
        self._lu_inputs_key = self._batched and lu_key == "inputs"
        # The last factorisation and its content key (see _reuse).
        self._lu_key: Optional[object] = None
        self._lu_factors: Optional[object] = None
        # Windowed LU telemetry: every _LU_SAMPLE_WINDOW solves, the
        # window's reuse fraction is sampled into the
        # ``spice.lu.reuse_ratio`` time series (x-axis: total solves).
        self._lu_solves = 0
        self._lu_window_solves = 0
        self._lu_window_reuses = 0

        # Sparse backend: freeze the sparsity pattern (every position
        # any stamp can write) and the scatter maps from the compiled
        # write lists into it.  Generic-fallback plans stay dense —
        # their writes are opaque to the pattern compiler.
        if backend == "sparse" and not self._batched:
            obs.metrics().counter("spice.sparse.generic_fallback").inc()
            backend = "dense"
        self.backend = backend
        self._sparse: Optional[SparseContext] = None
        if backend == "sparse":
            self._compile_sparse()

    def _compile_sparse(self) -> None:
        """Freeze the sparsity pattern and the value-scatter maps."""
        size = self.size
        pattern = {int(flat) for flat in self._m_idx}
        for ia, ib, _g in self._resistors:
            _pattern_couple(pattern, ia, ib, size)
        for ia, ib, _c in self._cap_entries:
            _pattern_couple(pattern, ia, ib, size)
        for _element, br, ip, in_ in self._vsources:
            if ip >= 0:
                pattern.add(ip * size + br)
                pattern.add(br * size + ip)
            if in_ >= 0:
                pattern.add(in_ * size + br)
                pattern.add(br * size + in_)
        # Every node diagonal: extra_gmin (the gmin-stepping rung)
        # writes them all, so they must be structural even when no
        # element stamps one.
        pattern.update(int(flat) for flat in self._diag_flat)
        flat = np.array(sorted(pattern), dtype=np.intp)
        self._sparse = SparseContext(size, flat)
        pos_of = {int(f): pos for pos, f in enumerate(flat)}
        self._sp_m_pos = np.array([pos_of[int(i)] for i in self._m_idx],
                                  dtype=np.intp)
        self._sp_diag_pos = np.array(
            [pos_of[int(i)] for i in self._diag_flat], dtype=np.intp)
        # Linear base gathered into pattern order, cached per base key
        # alongside _bases.
        self._sp_bases: Dict[Tuple[Optional[float], str, float],
                             np.ndarray] = {}

    # -- compilation -----------------------------------------------------------

    def _idx(self, node: str) -> int:
        return self.system.index(node)

    def _compile_fill(self, element: CircuitElement, slot: int
                      ) -> Tuple[Callable, int,
                                 List[Tuple[int, int, float]],
                                 List[Tuple[int, int, float]]]:
        """Compile one nonlinear element to its value filler.

        Returns ``(fill, n_slots, matrix_writes, rhs_writes)`` where
        ``fill(x, vals, gmin)`` stores the element's companion
        values into ``vals[slot:slot + n_slots]`` and each write tuple
        ``(flat_index, value_slot, sign)`` replays one legacy
        ``+=``/``-=`` in its original order (``a -= v`` is exactly
        ``a += (-1.0 * v)`` in IEEE arithmetic).
        """
        kind = type(element)
        if kind is Diode:
            return self._compile_diode(element, slot)
        if kind is Switch:
            return self._compile_switch(element, slot)
        return self._compile_mosfet(element, slot)

    def _compile(self, element: CircuitElement) -> _Stamper:
        """Direct-write stamper for plans with generic-fallback elements."""
        if type(element) in DEVICE_TYPES:
            fill, n_slots, m_writes, r_writes = self._compile_fill(element, 0)
            return _direct_adapter(fill, n_slots, m_writes, r_writes)
        return self._compile_generic(element)

    def _compile_diode(self, element: Diode, slot: int):
        a, c = self._idx(element.anode), self._idx(element.cathode)
        i_sat, v_t, v_clip = element.i_sat, element.v_t, element.v_clip
        exp = math.exp
        size = self.size
        has_a, has_c = a >= 0, c >= 0
        s_g, s_res = slot, slot + 1

        def fill(x, vals, gmin):
            va = x.item(a) if has_a else 0.0
            vc = x.item(c) if has_c else 0.0
            v = va - vc
            # Inlined Diode.current_and_conductance (overflow clamp).
            if v <= v_clip:
                e = exp(v / v_t)
                i = i_sat * (e - 1.0)
                g = i_sat * e / v_t
            else:
                e = exp(v_clip / v_t)
                g = i_sat * e / v_t
                i = i_sat * (e - 1.0) + g * (v - v_clip)
            vals[s_g] = g
            vals[s_res] = i - g * v

        # stamp_conductance(anode, cathode, g) then
        # stamp_current(anode, cathode, residue).
        m_writes = []
        if has_a:
            m_writes.append((a * size + a, s_g, 1.0))
        if has_c:
            m_writes.append((c * size + c, s_g, 1.0))
        if has_a and has_c:
            m_writes.append((a * size + c, s_g, -1.0))
            m_writes.append((c * size + a, s_g, -1.0))
        r_writes = []
        if has_a:
            r_writes.append((a, s_res, -1.0))
        if has_c:
            r_writes.append((c, s_res, 1.0))
        return fill, 2, m_writes, r_writes

    def _compile_switch(self, element: Switch, slot: int):
        a, b = self._idx(element.node_a), self._idx(element.node_b)
        cp, cn = self._idx(element.ctrl_p), self._idx(element.ctrl_n)
        threshold, transition = element.threshold, element.transition
        g_off = element.g_off
        g_span = element.g_on - g_off
        exp = math.exp
        size = self.size
        has_a, has_b = a >= 0, b >= 0
        has_cp, has_cn = cp >= 0, cn >= 0
        s_g = slot

        def fill(x, vals, gmin):
            vp = x.item(cp) if has_cp else 0.0
            vn = x.item(cn) if has_cn else 0.0
            # Inlined Switch.conductance (clamped logistic).  The full
            # g_off + span*frac expression runs in every branch because
            # g_off + span*1.0 need not round back to g_on exactly.
            arg = ((vp - vn) - threshold) / transition
            if arg > 40:
                frac = 1.0
            elif arg < -40:
                frac = 0.0
            else:
                frac = 1.0 / (1.0 + exp(-arg))
            vals[s_g] = g_off + g_span * frac

        m_writes = []  # stamp_conductance(node_a, node_b, g)
        if has_a:
            m_writes.append((a * size + a, s_g, 1.0))
        if has_b:
            m_writes.append((b * size + b, s_g, 1.0))
        if has_a and has_b:
            m_writes.append((a * size + b, s_g, -1.0))
            m_writes.append((b * size + a, s_g, -1.0))
        return fill, 1, m_writes, []

    def _compile_mosfet(self, element: MosfetElement, slot: int):
        d = self._idx(element.drain)
        g_ = self._idx(element.gate)
        s = self._idx(element.source)
        nmos = element.device.polarity is Polarity.NMOS
        (vth0, dibl, alpha, swing, vt_thermal, five_vt,
         vth_at_ioff, sub_scale, drive_width) = _mosfet_constants(element)
        exp = math.exp
        fd = _FD_STEP
        size = self.size
        has_d, has_g, has_s = d >= 0, g_ >= 0, s >= 0
        s_gd, s_gm, s_res = slot, slot + 1, slot + 2

        def fill(x, vals, gmin):
            vd = x.item(d) if has_d else 0.0
            vg = x.item(g_) if has_g else 0.0
            vs = x.item(s) if has_s else 0.0
            # Direction dispatch of MosfetElement.current for the
            # operating point and the two finite-difference probes.
            # The gate probe shares the operating point's branch and
            # vds (same drain/source terminals, so the same expression
            # with the same operands).
            vdf = vd + fd
            vgf = vg + fd
            if nmos:
                if vd >= vs:
                    vgs0 = vg - vs; vds0 = vd - vs; neg0 = False
                    vgs2 = vgf - vs
                else:
                    vgs0 = vg - vd; vds0 = vs - vd; neg0 = True
                    vgs2 = vgf - vd
                if vdf >= vs:
                    vgs1 = vg - vs; vds1 = vdf - vs; neg1 = False
                else:
                    vgs1 = vg - vdf; vds1 = vs - vdf; neg1 = True
            else:
                if vs >= vd:
                    vgs0 = vs - vg; vds0 = vs - vd; neg0 = True
                    vgs2 = vs - vgf
                else:
                    vgs0 = vd - vg; vds0 = vd - vs; neg0 = False
                    vgs2 = vd - vgf
                if vs >= vdf:
                    vgs1 = vs - vg; vds1 = vs - vdf; neg1 = True
                else:
                    vgs1 = vdf - vg; vds1 = vdf - vs; neg1 = False
            # --- three inlined copies of _compile_mosfet_magnitude's
            # body (its vds<0 guard is dead here: the dispatch above
            # always yields vds >= 0, or NaN on divergent iterates,
            # which follows the same branches as the legacy builtins).
            vth = vth0 - dibl * abs(vds0)
            vth = vth if vth > 0.05 else 0.05
            vod = vgs0 - vth
            vgs_c = vth if vth < vgs0 else vgs0
            exponent = (vgs_c - (vth - vth_at_ioff)) / swing
            i_sub = sub_scale * 10.0 ** exponent
            if vds0 < five_vt:
                i_sub *= 1.0 - exp(-vds0 / vt_thermal)
            if vod <= 0:
                m = i_sub
            else:
                i_dsat = drive_width * vod ** alpha
                vdsat = 0.5 * vod
                vdsat = vdsat if vdsat > 0.05 else 0.05
                if vds0 >= vdsat:
                    m = i_dsat * (1.0 + 0.05 * (vds0 - vdsat)) + i_sub
                else:
                    ratio = vds0 / vdsat
                    m = i_dsat * ratio * (2.0 - ratio) + i_sub
            i0 = -m if neg0 else m

            vth = vth0 - dibl * abs(vds1)
            vth = vth if vth > 0.05 else 0.05
            vod = vgs1 - vth
            vgs_c = vth if vth < vgs1 else vgs1
            exponent = (vgs_c - (vth - vth_at_ioff)) / swing
            i_sub = sub_scale * 10.0 ** exponent
            if vds1 < five_vt:
                i_sub *= 1.0 - exp(-vds1 / vt_thermal)
            if vod <= 0:
                m = i_sub
            else:
                i_dsat = drive_width * vod ** alpha
                vdsat = 0.5 * vod
                vdsat = vdsat if vdsat > 0.05 else 0.05
                if vds1 >= vdsat:
                    m = i_dsat * (1.0 + 0.05 * (vds1 - vdsat)) + i_sub
                else:
                    ratio = vds1 / vdsat
                    m = i_dsat * ratio * (2.0 - ratio) + i_sub
            i1 = -m if neg1 else m

            vth = vth0 - dibl * abs(vds0)
            vth = vth if vth > 0.05 else 0.05
            vod = vgs2 - vth
            vgs_c = vth if vth < vgs2 else vgs2
            exponent = (vgs_c - (vth - vth_at_ioff)) / swing
            i_sub = sub_scale * 10.0 ** exponent
            if vds0 < five_vt:
                i_sub *= 1.0 - exp(-vds0 / vt_thermal)
            if vod <= 0:
                m = i_sub
            else:
                i_dsat = drive_width * vod ** alpha
                vdsat = 0.5 * vod
                vdsat = vdsat if vdsat > 0.05 else 0.05
                if vds0 >= vdsat:
                    m = i_dsat * (1.0 + 0.05 * (vds0 - vdsat)) + i_sub
                else:
                    ratio = vds0 / vdsat
                    m = i_dsat * ratio * (2.0 - ratio) + i_sub
            i2 = -m if neg0 else m

            gd = (i1 - i0) / fd
            gm = (i2 - i0) / fd
            # max(gd, 0.0) + gmin, with max() as its exact branch form
            # ("b if b > a else a", NaN included).
            gd = (0.0 if 0.0 > gd else gd) + gmin
            vals[s_gd] = gd
            vals[s_gm] = gm
            i_lin = gd * (vd - vs) + gm * (vg - vs)
            vals[s_res] = i0 - i_lin

        # stamp_conductance(drain, source, gd), then
        # stamp_transconductance(drain, source, gate, source, gm)
        # unrolled in the legacy (out, in) loop order, then
        # stamp_current(drain, source, residue).
        dd, ss = d * size + d, s * size + s
        ds, sd = d * size + s, s * size + d
        dg, sg = d * size + g_, s * size + g_
        m_writes = []
        if has_d:
            m_writes.append((dd, s_gd, 1.0))
        if has_s:
            m_writes.append((ss, s_gd, 1.0))
        if has_d and has_s:
            m_writes.append((ds, s_gd, -1.0))
            m_writes.append((sd, s_gd, -1.0))
        if has_d:
            if has_g:
                m_writes.append((dg, s_gm, 1.0))
            if has_s:
                m_writes.append((ds, s_gm, -1.0))
        if has_s:
            if has_g:
                m_writes.append((sg, s_gm, -1.0))
            m_writes.append((ss, s_gm, 1.0))
        r_writes = []
        if has_d:
            r_writes.append((d, s_res, -1.0))
        if has_s:
            r_writes.append((s, s_res, 1.0))
        return fill, 3, m_writes, r_writes

    def _compile_generic(self, element: CircuitElement) -> _Stamper:
        view = self._view

        def stamp(x, mf, rhs, gmin, point):
            ctx = StampContext(
                system=view, x=x, x_prev=point.x_prev, dt=point.dt,
                time=point.t, integrator=point.integrator,
                cap_state=point.cap_state, gmin=gmin,
                source_scale=point.source_scale)
            element.stamp(ctx)

        return stamp

    # -- linear base -----------------------------------------------------------

    def _base(self, dt: Optional[float], integrator: str,
              gmin: float) -> np.ndarray:
        key = (dt, integrator, gmin)
        base = self._bases.get(key)
        if base is None:
            if len(self._bases) >= _MAX_BASES:
                self._bases.pop(next(iter(self._bases)))
            base = self._build_base(dt, integrator, gmin)
            self._bases[key] = base
        return base

    def _build_base(self, dt: Optional[float], integrator: str,
                    gmin: float) -> np.ndarray:
        """Sequentially stamp the linear matrix part, in canonical order.

        Built once per key then block-copied per iterate, so the Python
        loop here replays the legacy accumulation order bit-for-bit at
        compile time, not in the hot path.
        """
        m = np.zeros((self.size, self.size))
        for ia, ib, g in self._resistors:
            _add_conductance(m, ia, ib, g)
        for ia, ib, c in self._cap_entries:
            if dt is None:
                g = gmin
            elif integrator == "trap":
                g = 2.0 * c / dt
            else:
                g = c / dt
            _add_conductance(m, ia, ib, g)
        for _element, br, ip, in_ in self._vsources:
            if ip >= 0:
                m[ip, br] += 1.0
                m[br, ip] += 1.0
            if in_ >= 0:
                m[in_, br] -= 1.0
                m[br, in_] -= 1.0
        return m

    def _point_rhs(self, t: float, dt: Optional[float], integrator: str,
                   source_scale: float,
                   x_history: Optional[np.ndarray],
                   cap_state: Optional[Dict[str, float]]) -> np.ndarray:
        """Linear RHS of one solve point (canonical order: C, V, I)."""
        rhs = np.zeros(self.size + 1)  # final slot absorbs ground writes
        if dt is not None and len(self._cap_c):
            xg = self._xg_pad  # trailing pad slot stays 0.0 (= ground)
            xg[:-1] = x_history
            v_prev = xg[self._cap_ia] - xg[self._cap_ib]
            if integrator == "trap":
                geq = 2.0 * self._cap_c / dt
                i_prev = np.array([
                    0.0 if cap_state is None else cap_state.get(name, 0.0)
                    for name in self._cap_names])
                ieq = geq * v_prev + i_prev
            else:
                geq = self._cap_c / dt
                ieq = geq * v_prev
            vals = self._cap_vals
            vals[0::2] = -ieq
            vals[1::2] = ieq
            np.add.at(rhs, self._cap_rhs_idx, vals)
        rhs = rhs[:-1]
        for element, br, _ip, _in in self._vsources:
            rhs[br] += element.waveform(t) * source_scale
        for element, i_from, i_to in self._isources:
            current = element.waveform(t) * source_scale
            if i_from >= 0:
                rhs[i_from] -= current
            if i_to >= 0:
                rhs[i_to] += current
        return rhs

    # -- the per-point / per-iterate API --------------------------------------

    def begin_point(self, *, t: float, dt: Optional[float] = None,
                    integrator: str = "be",
                    cap_state: Optional[Dict[str, float]] = None,
                    x_history: Optional[np.ndarray] = None,
                    gmin: float = 1e-12, extra_gmin: float = 0.0,
                    source_scale: float = 1.0) -> _SolvePoint:
        """Precompute everything fixed across one point's Newton iterates."""
        return _SolvePoint(
            base=self._base(dt, integrator, gmin),
            rhs_point=self._point_rhs(t, dt, integrator, source_scale,
                                      x_history, cap_state),
            gmin=gmin, extra_gmin=extra_gmin, t=t, dt=dt,
            integrator=integrator, cap_state=cap_state, x_prev=x_history,
            source_scale=source_scale, base_key=(dt, integrator, gmin))

    def solve_iterate(self, point: _SolvePoint, x: np.ndarray) -> np.ndarray:
        """Assemble and solve one Newton iterate at ``x``."""
        if self._sparse is not None:
            return self._solve_iterate_sparse(point, x)
        matrix, rhs = self._matrix, self._rhs
        np.copyto(matrix, point.base)
        np.copyto(rhs, point.rhs_point)
        gmin = point.gmin
        mf = self._matrix_flat
        key: Optional[object] = None
        if self._batched:
            nl_key = b""
            if self.n_slots:
                v = self.device_values(x, gmin)
                np.add.at(mf, self._m_idx, v[self._m_slot] * self._m_sign)
                np.add.at(rhs, self._r_idx, v[self._r_slot] * self._r_sign)
                nl_key = v.tobytes()
            if self._lu_inputs_key:
                key = (point.base_key, point.extra_gmin, nl_key)
        else:
            for stamp in self._stampers:
                stamp(x, mf, rhs, gmin, point)
        if point.extra_gmin > 0.0:
            mf[self._diag_flat] += point.extra_gmin
        return self._solve(matrix, rhs, key)

    def device_values(self, x: np.ndarray, gmin: float) -> np.ndarray:
        """Companion values of every compiled device at iterate ``x``.

        Slot layout is the compile-time one (``_nl_slots``); the result
        is only valid until the next call.  Closures and grouped kernels
        return the same bits.
        """
        groups = self._groups
        if groups is not None:
            xpad = self._xpad
            xpad[0, :-1] = x
            row = self._nl_row
            # A diverging iterate (inf/NaN voltages) evaluates silently
            # on the closures; keep NumPy's warnings out of it too.
            with np.errstate(all="ignore"):
                for group in groups:
                    group.fill(xpad, row, group.consts, gmin)
            return row[0]
        vals = self._nl_vals
        for fill in self._fillers:
            fill(x, vals, gmin)
        return np.array(vals)

    def _solve_iterate_sparse(self, point: _SolvePoint,
                              x: np.ndarray) -> np.ndarray:
        """Sparse twin of :meth:`solve_iterate`.

        Assembly scatters straight into the frozen pattern-value array
        (a copy of the gathered linear base, nnz-sized — no O(n²)
        matrix copy anywhere on this path).  Sparse plans are always
        fully compiled, so the LU content key is always inputs-mode.
        """
        vals = self._sparse_base(point).copy()
        rhs = self._rhs
        np.copyto(rhs, point.rhs_point)
        nl_key = b""
        if self.n_slots:
            v = self.device_values(x, point.gmin)
            np.add.at(vals, self._sp_m_pos, v[self._m_slot] * self._m_sign)
            np.add.at(rhs, self._r_idx, v[self._r_slot] * self._r_sign)
            nl_key = v.tobytes()
        if point.extra_gmin > 0.0:
            vals[self._sp_diag_pos] += point.extra_gmin
        key = (point.base_key, point.extra_gmin, nl_key)
        sparse = self._sparse
        factors = self._reuse(key)
        if factors is None:
            try:
                factors = sparse.factorize(vals)
            except np.linalg.LinAlgError as exc:
                raise self.system.singular_error() from exc
            self._keep(key, factors)
        return sparse.solve(factors, rhs)

    def _sparse_base(self, point: _SolvePoint) -> np.ndarray:
        """The linear base gathered into pattern order, cached per key."""
        vals = self._sp_bases.get(point.base_key)
        if vals is None:
            if len(self._sp_bases) >= _MAX_BASES:
                self._sp_bases.pop(next(iter(self._sp_bases)))
            vals = point.base.ravel()[self._sparse.flat]
            self._sp_bases[point.base_key] = vals
        return vals

    def _solve(self, matrix: np.ndarray, rhs: np.ndarray,
               key: Optional[object] = None) -> np.ndarray:
        # Inputs-mode keys (base key, extra_gmin, nonlinear-value bytes)
        # arrive from solve_iterate; without one, key on the full
        # matrix content.
        if key is None:
            key = matrix.tobytes()
        factors = self._reuse(key)
        if factors is None:
            try:
                factors = linalg.lu_factorize(matrix)
            except np.linalg.LinAlgError as exc:
                raise self.system.singular_error() from exc
            self._keep(key, factors)
        return linalg.lu_backsolve(factors, rhs)

    def _reuse(self, key: object) -> Optional[object]:
        """The last factorisation if ``key`` matches its content key.

        Content keying is stricter than element-wise equality (-0.0 and
        +0.0 bytes differ, so a reuse can never shift even the sign of
        a zero in the solution), and sound because assembly is
        deterministic: equal inputs produce a byte-equal matrix.  One
        entry is enough: a Newton iterate only repeats the matrix of
        the solve just before it (a linear circuit, or a converged
        fixed point), and a refactorisation of an equal matrix returns
        the identical factors, so a miss costs time, never bits.
        """
        if key == self._lu_key:
            self._note_solve(reused=True)
            return self._lu_factors
        return None

    def _keep(self, key: object, factors: object) -> None:
        """Remember a fresh factorisation as the reuse candidate."""
        self._lu_key = key
        self._lu_factors = factors
        self._note_solve(reused=False)

    def _note_solve(self, reused: bool) -> None:
        """Count one solve in the reuse/refactor split and the window."""
        if reused:
            obs.metrics().counter("spice.lu.reuse").inc()
            self._lu_window_reuses += 1
        else:
            obs.metrics().counter("spice.lu.refactor").inc()
        self._lu_solves += 1
        self._lu_window_solves += 1
        if self._lu_window_solves >= _LU_SAMPLE_WINDOW:
            if obs.is_enabled():
                obs.timeseries().series("spice.lu.reuse_ratio").sample(
                    self._lu_solves,
                    self._lu_window_reuses / self._lu_window_solves)
            self._lu_window_solves = 0
            self._lu_window_reuses = 0


def _direct_adapter(fill: Callable, n_slots: int,
                    m_writes: List[Tuple[int, int, float]],
                    r_writes: List[Tuple[int, int, float]]) -> _Stamper:
    """Wrap a value filler as a direct-write stamper.

    Used only on plans that also carry generic-fallback elements, where
    writes must interleave per element in canonical order instead of
    scattering once per iterate.
    """
    tmp = [0.0] * n_slots

    def stamp(x, mf, rhs, gmin, point):
        fill(x, tmp, gmin)
        for flat, slot, sign in m_writes:
            mf[flat] += sign * tmp[slot]
        for idx, slot, sign in r_writes:
            rhs[idx] += sign * tmp[slot]

    return stamp


def _pattern_couple(pattern: set, ia: int, ib: int, size: int) -> None:
    """Add the positions :func:`_add_conductance` writes to ``pattern``."""
    if ia >= 0:
        pattern.add(ia * size + ia)
    if ib >= 0:
        pattern.add(ib * size + ib)
    if ia >= 0 and ib >= 0:
        pattern.add(ia * size + ib)
        pattern.add(ib * size + ia)


def _add_conductance(m: np.ndarray, ia: int, ib: int, g: float) -> None:
    """Replay of :meth:`MnaSystem.stamp_conductance` on a raw matrix."""
    if ia >= 0:
        m[ia, ia] += g
    if ib >= 0:
        m[ib, ib] += g
    if ia >= 0 and ib >= 0:
        m[ia, ib] -= g
        m[ib, ia] -= g


def _compile_mosfet_magnitude(element: MosfetElement
                              ) -> Callable[[float, float], float]:
    """Specialised twin of :meth:`repro.tech.transistor.Mosfet.drain_current`.

    Keeps the *same expression trees and evaluation order* as the
    original, so the returned values are bit-identical.  The
    ``max``/``min`` builtin calls become branches that select the
    identical float (including the builtins' first-argument NaN
    behaviour); the body-effect term is dropped because the element
    always passes vsb=0, where it is exactly zero.
    ``tests/spice/test_stampplan.py`` sweeps the terminal space to hold
    this twin to the element's own ``current()``.
    """
    (vth0, dibl, alpha, swing, vt_thermal, five_vt,
     vth_at_ioff, sub_scale, drive_width) = _mosfet_constants(element)
    exp = math.exp

    def magnitude(vgs: float, vds: float) -> float:
        if vds < 0:
            raise ConfigurationError("drain_current expects vds magnitude >= 0")
        # The branches replicate builtin max()/min() exactly, including
        # their first-argument NaN behaviour (max(a, b) is "b if b > a
        # else a"), so divergent NaN iterates follow the legacy path.
        vth = vth0 - dibl * abs(vds)
        vth = vth if vth > 0.05 else 0.05  # max(0.05, vth)
        vod = vgs - vth
        vgs_c = vth if vth < vgs else vgs  # min(vgs, vth)
        exponent = (vgs_c - (vth - vth_at_ioff)) / swing
        i_sub = sub_scale * 10.0 ** exponent
        if vds < five_vt:
            i_sub *= 1.0 - exp(-vds / vt_thermal)
        if vod <= 0:
            return i_sub
        i_dsat = drive_width * vod ** alpha
        vdsat = 0.5 * vod
        vdsat = vdsat if vdsat > 0.05 else 0.05  # max(0.05, vdsat)
        if vds >= vdsat:
            i_strong = i_dsat * (1.0 + 0.05 * (vds - vdsat))
        else:
            ratio = vds / vdsat
            i_strong = i_dsat * ratio * (2.0 - ratio)
        return i_strong + i_sub

    return magnitude


def _compile_mosfet_current(element: MosfetElement
                            ) -> Callable[[float, float, float], float]:
    """Specialised twin of :meth:`MosfetElement.current`.

    The compiled stamper inlines this direction dispatch at each of its
    three drain-current evaluations; this wrapper exists for DC-sweep
    equivalence tests against the element's own ``current()``.
    """
    magnitude = _compile_mosfet_magnitude(element)

    if element.device.polarity is Polarity.NMOS:
        def current(v_d: float, v_g: float, v_s: float) -> float:
            if v_d >= v_s:
                return magnitude(v_g - v_s, v_d - v_s)
            return -magnitude(v_g - v_d, v_s - v_d)
    else:
        def current(v_d: float, v_g: float, v_s: float) -> float:
            if v_s >= v_d:
                return -magnitude(v_s - v_g, v_s - v_d)
            return magnitude(v_d - v_g, v_d - v_s)

    return current
