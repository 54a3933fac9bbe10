"""Grouped device kernels: one vectorised evaluator per element class.

The nonlinear companion values of diodes, switches and MOSFETs can be
computed two ways: per element, by the Python closures
:class:`~repro.spice.stampplan.StampPlan` compiles for small circuits,
or per *class*, by the group kernels in this module, which evaluate
every element of one class over an ``(L, E)`` array (``L`` stacked
samples, ``E`` elements) in one pass of NumPy operations.  The batched
sample-axis solver (:mod:`repro.spice.batch`) runs them at ``L = B``;
the scalar plan runs them at ``L = 1`` once a circuit carries enough
devices to amortise their fixed per-call cost
(:data:`~repro.spice.stampplan.DEVICE_GROUP_THRESHOLD`).
:func:`build_device_groups` is the one grouping step both callers use.

**Bit-identity contract.**  Every kernel writes the same value-slot
bits as the closure it replaces, for every input the closures accept —
including ``±0.0`` terminals, ``vd == vs`` and NaN voltages.
Every elementwise IEEE operation (add, subtract, multiply, divide,
compare, select) is applied to the same operand pairs in the same
order as the closure, and transcendentals (``exp``, ``10**x``,
``x**a``) are routed through the *same libm calls* via per-element
loops — NumPy's SIMD ``np.exp``/``np.power`` differ from libm in the
last ulp, so they are never used on the value path.  Branches become
either selections whose NaN handling follows the closure's branch form
(``a if a > b else b`` is ``np.fmax``, the NaN-dropping maximum, when
``b`` is a constant) or mask partitions (``np.nonzero`` gather /
compute / scatter) where one arm must not be evaluated out of domain.
``tests/spice/test_devices.py`` holds the kernels to the closures over
the terminal-voltage space.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np
from scipy.special import expit as _expit

from repro.spice.elements import Diode, Switch
from repro.spice.mosfet import _FD_STEP, MosfetElement
from repro.spice.netlist import CircuitElement
from repro.tech.node import Polarity

#: Element classes with a grouped kernel (exact types: a subclass may
#: override ``stamp()``).
DEVICE_TYPES = (Diode, Switch, MosfetElement)


# -- libm routing --------------------------------------------------------------
#
# The closures call math.exp and float.__pow__, i.e. libm exp and pow.
# map() at C speed over tolist() floats reproduces them exactly and
# beats a Python-level comprehension by ~30%, but still costs ~0.1 us
# per element.  NumPy's contiguous exp/power loops are SIMD kernels
# that differ from libm in the last ulp; its generic strided loop,
# though, calls libm once per element, and a reversed (negative-stride)
# input with a fresh output selects that loop.  _NUMPY_LIBM records
# whether this NumPy build really returns libm's bits that way, over
# the same call forms the kernels use; if not, every call falls back
# to map().  Only arguments that cannot overflow take the NumPy route:
# on overflow float.__pow__ and math.exp raise OverflowError where
# NumPy returns inf.

def _libm_exp(values: np.ndarray) -> np.ndarray:
    lst = values.tolist()
    return np.fromiter(map(math.exp, lst), dtype=float, count=len(lst))


def _libm_pow10(values: np.ndarray) -> np.ndarray:
    lst = values.tolist()
    return np.fromiter(map(math.pow, itertools.repeat(10.0), lst),
                       dtype=float, count=len(lst))


def _libm_pow(bases: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    lst = bases.tolist()
    return np.fromiter(map(math.pow, lst, exponents.tolist()),
                       dtype=float, count=len(lst))


def _strided_exp(values: np.ndarray) -> np.ndarray:
    return np.exp(values[::-1])[::-1]


def _strided_pow10(values: np.ndarray) -> np.ndarray:
    return np.power(10.0, values[::-1])[::-1]


def _numpy_calls_libm() -> bool:
    """Do the strided NumPy forms return libm's bits on this build?

    Checked over a dense sweep of the argument ranges the MOSFET model
    produces, at several lengths (NumPy dispatches on layout, and a
    SIMD kernel would miss libm on a few percent of these points).
    """
    probe = np.linspace(-47.3, 0.0, 4099)
    with np.errstate(all="ignore"):
        for n in (2, 3, 8, 33, probe.size):
            args = probe[-n:]
            if (_strided_exp(args).tobytes()
                    != _libm_exp(args).tobytes()):
                return False
            if (_strided_pow10(args / 3.0).tobytes()
                    != _libm_pow10(args / 3.0).tobytes()):
                return False
    return True


#: Whether :func:`_exp_into` / :func:`_pow10_into` may use NumPy.
_NUMPY_LIBM = _numpy_calls_libm()


def _exp_into(values: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = exp(values)`` through libm, for 1-D ``values`` that
    are <= 0 or NaN (so the exp cannot overflow)."""
    if _NUMPY_LIBM and values.size > 1:
        out[...] = _strided_exp(values)
    else:
        out[...] = _libm_exp(values)


def _pow10_into(values: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = 10.0 ** values`` through libm, for 1-D ``values``
    bounded above well inside the float range."""
    if _NUMPY_LIBM and values.size > 1:
        out[...] = _strided_pow10(values)
    else:
        out[...] = _libm_pow10(values)


def _mosfet_constants(element: MosfetElement) -> Tuple[float, ...]:
    """Hoist every process constant a mosfet evaluation needs.

    The ``params`` property chain costs two dict lookups per call on
    the legacy path; here it is paid once at compile time.  Shared by
    the MOSFET closures of :mod:`repro.spice.stampplan` and
    :class:`_MosfetGroup`.
    """
    device = element.device
    p = device.params
    vt_thermal = device.node.thermal_voltage
    return (p.vth, p.dibl, p.alpha, p.subthreshold_swing,
            vt_thermal, 5 * vt_thermal,
            max(0.05, p.vth - p.dibl * device.node.vdd),
            p.i_off * device.width / device.length_factor,
            (p.k_sat / device.length_factor) * device.width)


def _gather_cols(names: Sequence[str], index: Callable[[str], int],
                 pad: int) -> np.ndarray:
    """Column gather indices for one terminal across a group (ground
    maps to the pad column, which is pinned to 0.0)."""
    cols = np.empty(len(names), dtype=np.intp)
    for j, node in enumerate(names):
        idx = index(node)
        cols[j] = idx if idx >= 0 else pad
    return cols


def _const_stack(grids: List[List[List[float]]]) -> np.ndarray:
    """A (K, L, E) constant stack from per-constant per-sample grids."""
    return np.array(grids, dtype=float)


class _DiodeGroup:
    """Vectorised twin of StampPlan._compile_diode across (L, E)."""

    def __init__(self, grid: List[List[Diode]], index, pad: int,
                 slots: List[int]) -> None:
        row0 = grid[0]
        self.a_cols = _gather_cols([e.anode for e in row0], index, pad)
        self.c_cols = _gather_cols([e.cathode for e in row0], index, pad)
        self.s_g = np.array(slots, dtype=np.intp)
        self.s_res = self.s_g + 1
        # The clamp branch recomputes exp(v_clip/v_t) from constants
        # every scalar call; hoisting it is bit-safe (same libm call,
        # same argument, every time).
        self.consts = _const_stack([
            [[e.i_sat for e in row] for row in grid],
            [[e.v_t for e in row] for row in grid],
            [[e.v_clip for e in row] for row in grid],
            [[e.i_sat * math.exp(e.v_clip / e.v_t) / e.v_t for e in row]
             for row in grid],                               # g_clip
            [[e.i_sat * (math.exp(e.v_clip / e.v_t) - 1.0) for e in row]
             for row in grid]])                              # i_clip

    def fill(self, xpad: np.ndarray, vals: np.ndarray, c: np.ndarray,
             gmin: float) -> None:
        i_sat, v_t, v_clip, g_clip, i_clip = c
        v = xpad[:, self.a_cols] - xpad[:, self.c_cols]
        g = np.empty_like(v)
        i = np.empty_like(v)
        vr, gr, ir = v.ravel(), g.ravel(), i.ravel()
        # `v <= v_clip` is the closure's branch test; NaN takes the
        # clamp branch in both.
        clip = (v <= v_clip).ravel()
        lo = np.nonzero(clip)[0]
        if lo.size:
            vtf = v_t.reshape(-1)[lo]
            isf = i_sat.reshape(-1)[lo]
            e = _libm_exp(vr[lo] / vtf)
            ir[lo] = isf * (e - 1.0)
            gr[lo] = isf * e / vtf
        hi = np.nonzero(~clip)[0]
        if hi.size:
            gc = g_clip.reshape(-1)[hi]
            gr[hi] = gc
            ir[hi] = (i_clip.reshape(-1)[hi]
                      + gc * (vr[hi] - v_clip.reshape(-1)[hi]))
        vals[:, self.s_g] = g
        vals[:, self.s_res] = i - g * v


class _SwitchGroup:
    """Vectorised twin of StampPlan._compile_switch across (L, E)."""

    def __init__(self, grid: List[List[Switch]], index, pad: int,
                 slots: List[int]) -> None:
        row0 = grid[0]
        self.cp_cols = _gather_cols([e.ctrl_p for e in row0], index, pad)
        self.cn_cols = _gather_cols([e.ctrl_n for e in row0], index, pad)
        self.s_g = np.array(slots, dtype=np.intp)
        self.consts = _const_stack([
            [[e.threshold for e in row] for row in grid],
            [[e.transition for e in row] for row in grid],
            [[e.g_off for e in row] for row in grid],
            [[e.g_on - e.g_off for e in row] for row in grid]])  # g_span
        self._scratch: Dict[int, Tuple[np.ndarray, ...]] = {}

    def fill(self, xpad: np.ndarray, vals: np.ndarray, c: np.ndarray,
             gmin: float) -> None:
        threshold, transition, g_off, g_span = c
        live = xpad.shape[0]
        s = self._scratch.get(live)
        if s is None:
            d2 = (live, self.cp_cols.shape[0])
            s = self._scratch[live] = (np.empty(d2), np.empty(d2),
                                       np.empty(d2, dtype=bool))
        arg, cn, lo = s
        xpad.take(self.cp_cols, axis=1, out=arg)
        xpad.take(self.cn_cols, axis=1, out=cn)
        np.subtract(arg, cn, out=arg)
        np.subtract(arg, threshold, out=arg)
        np.divide(arg, transition, out=arg)
        # The closure's three branches in one pass: scipy's expit is
        # 1/(1+exp(-x)) through the same libm exp as the closure's
        # sigmoid (NaN included), and for x > 40 it rounds to exactly
        # the closure's 1.0 (exp(-x) < 2**-57, below half an ulp of
        # 1.0).  Only the x < -40 branch needs its 0.0 written back.
        np.less(arg, -40, out=lo)
        frac = _expit(arg, out=cn)
        np.copyto(frac, 0.0, where=lo)
        np.multiply(g_span, frac, out=frac)
        np.add(g_off, frac, out=frac)
        vals[:, self.s_g] = frac


class _MosfetScratch:
    """Per-live-count buffers of :meth:`_MosfetGroup.fill`.

    The fill runs once per Newton iterate, so its intermediates live in
    preallocated buffers written through ufunc ``out=`` forms (which
    compute the identical values), and the polarity slices and flat
    views it needs are taken once here instead of once per call.
    """

    def __init__(self, live: int, e_all: int, kn: int) -> None:
        d2, d3 = (live, e_all), (3, live, e_all)
        lf = live * e_all
        self.vs = np.empty(d2)
        self.vs3 = self.vs[None]             # broadcasts over probes
        self.vs_n = self.vs3[:, :, :kn]
        self.vs_p = self.vs3[:, :, kn:]
        self.tb = np.empty(d2)
        self.dd = np.empty(d3)               # drain voltage per probe
        self.gg = np.empty(d3)               # gate voltage per probe
        self.w = np.empty(d3)                # gate reference per probe
        self.ds = np.empty(d3)               # drain - source per probe
        self.vds = np.empty(d3)
        self.vgs = np.empty(d3)
        self.cond = np.empty(d3, dtype=bool)
        self.fwd = np.empty(d3, dtype=bool)
        self.neg = np.empty(d3, dtype=bool)
        self.dd_n, self.dd_p = self.dd[:, :, :kn], self.dd[:, :, kn:]
        self.gg_n, self.gg_p = self.gg[:, :, :kn], self.gg[:, :, kn:]
        self.w_n, self.w_p = self.w[:, :, :kn], self.w[:, :, kn:]
        self.vgs_n, self.vgs_p = self.vgs[:, :, :kn], self.vgs[:, :, kn:]
        self.cond_n = self.cond[:, :, :kn]
        self.cond_p = self.cond[:, :, kn:]
        # Flat (3, L*E) views for the elementwise magnitude model.
        self.vds_f = self.vds.reshape(3, lf)
        self.vgs_f = self.vgs.reshape(3, lf)
        self.neg_f = self.neg.reshape(3, lf)
        self.vth = np.empty((3, lf))
        self.vod = np.empty((3, lf))
        self.expo = np.empty((3, lf))
        self.tmp = np.empty((3, lf))
        self.weak = np.empty((3, lf), dtype=bool)
        self.short = np.empty((2, lf), dtype=bool)
        self.arg = np.empty((2, lf))
        self.fac = np.empty((2, lf))
        self.i_sub = np.empty((3, lf))
        # Outputs in slot order gd, gm, residue.
        self.out = np.empty(d3)
        self.out_t = self.out.transpose(1, 0, 2)


class _MosfetGroup:
    """Vectorised twin of StampPlan._compile_mosfet across (L, E).

    Both polarities share one group: columns are ordered NMOS-first,
    so each polarity's direction test and gate-source subtraction is
    one operation over a contiguous column slice.  The three probe
    evaluations (operating point, drain probe, gate probe) are stacked
    on a leading axis so the magnitude model runs *once* per call over
    a (3, L*E) view.  Stacking is bit-safe because the magnitude model
    is elementwise: the vds-derived subterms the closure shares between
    the operating point and the gate probe (both use the
    operating-point vds) are recomputed from identical inputs, which
    yields identical bits.
    """

    def __init__(self, grid: List[List[MosfetElement]], index, pad: int,
                 slots: List[int], nmos_flags: List[bool]) -> None:
        order = ([j for j, f in enumerate(nmos_flags) if f]
                 + [j for j, f in enumerate(nmos_flags) if not f])
        self.kn = sum(nmos_flags)
        row0 = [grid[0][j] for j in order]
        self.d_cols = _gather_cols([e.drain for e in row0], index, pad)
        self.g_cols = _gather_cols([e.gate for e in row0], index, pad)
        self.s_cols = _gather_cols([e.source for e in row0], index, pad)
        # Output slots in the (gd, gm, residue) x column order of the
        # scratch ``out_t`` rows.
        s = np.array([slots[j] for j in order], dtype=np.intp)
        self.s_out = np.concatenate([s, s + 1, s + 2])
        # PMOS columns: the closure computes ``vd - vs`` as vds when
        # the source is *not* the gate reference (~cond), NMOS when it
        # is (cond), so fwd = cond XOR (column is PMOS).
        self._pmos = np.zeros(len(order), dtype=bool)
        self._pmos[self.kn:] = True
        # Constant order mirrors _mosfet_constants: vth0, dibl, alpha,
        # swing, vt_thermal, five_vt, vth_at_ioff, sub_scale,
        # drive_width.
        per_sample = [[_mosfet_constants(row[j]) for j in order]
                      for row in grid]
        self.consts = _const_stack([
            [[consts[k] for consts in row] for row in per_sample]
            for k in range(9)])
        self._scratch: Dict[int, _MosfetScratch] = {}

    def _magnitude(self, s: _MosfetScratch, c: np.ndarray) -> np.ndarray:
        """Channel-current magnitude over the (3, L*E) probe stack.

        ``c`` rows are flat (L*E,) constants that broadcast over the
        probe axis; partition gathers recover the element column of a
        flat index with ``% lf``.  Every rewritten expression performs
        the closure's sequence of IEEE operations on the same operands.
        """
        (vth0, dibl, alpha, swing, vt_thermal, five_vt, vth_at_ioff,
         sub_scale, drive_width) = c
        vds, vgs = s.vds_f, s.vgs_f
        lf = vds.shape[1]
        # The closure's abs(vds) is skipped: vds is +0.0, positive or
        # NaN here, and for -0.0 (vd = -0.0, vs = +0.0) or a NaN of
        # either sign the clamp below returns the same vth.
        vth = np.multiply(dibl, vds, out=s.vth)
        np.subtract(vth0, vth, out=vth)
        # "vth if vth > 0.05 else 0.05": fmax returns the non-NaN
        # operand, which is the closure's NaN -> 0.05 branch.
        np.fmax(vth, 0.05, out=vth)
        vod = np.subtract(vgs, vth, out=s.vod)
        # "vth if vth < vgs else vgs": vth is never NaN after the
        # clamp, and minimum propagates a NaN vgs like the branch does.
        exponent = np.minimum(vth, vgs, out=s.expo)
        np.subtract(exponent, np.subtract(vth, vth_at_ioff, out=s.tmp),
                    out=exponent)
        np.divide(exponent, swing, out=exponent)
        # exponent <= vth_at_ioff / swing: 10**x cannot overflow.
        i_sub = s.i_sub
        _pow10_into(exponent.ravel(), i_sub.ravel())
        np.multiply(sub_scale, i_sub, out=i_sub)
        # Short-channel factor "if vds < five_vt: i_sub *= 1 - exp(-vds
        # / vt)", applied through ufunc ``where=`` so unflagged cells
        # (NaN included) keep i_sub untouched.  Probe 2 bumps the gate
        # only, so its vds, flag and factor are probe 0's bit for bit.
        # The exp runs on every probe-0/1 cell: its argument is <= 0 or
        # NaN, so unflagged cells cannot raise, and in the device mixes
        # of the read circuits most cells are flagged anyway.
        short = np.less(vds[:2], five_vt, out=s.short)
        arg = np.negative(vds[:2], out=s.arg)
        np.divide(arg, vt_thermal, out=arg)
        fac = s.fac
        _exp_into(arg.ravel(), fac.ravel())
        np.subtract(1.0, fac, out=fac)
        np.multiply(i_sub[:2], fac, out=i_sub[:2], where=short)
        np.multiply(i_sub[2], fac[0], out=i_sub[2], where=short[0])
        # Strong inversion is the closure's else branch of
        # ``vod <= 0`` (so NaN is strong); weak-inversion cells carry
        # i_sub through unchanged, so ``m`` aliases ``i_sub`` and the
        # strong cells' leak is gathered before the rewrite.
        m = i_sub
        mr = m.ravel()
        weak = np.less_equal(vod, 0, out=s.weak)
        st = np.logical_not(weak, out=weak).ravel().nonzero()[0]
        if st.size:
            col = st % lf
            vod_s = vod.ravel()[st]
            vds_s = vds.ravel()[st]
            i_sub_s = mr[st]
            i_dsat = drive_width[col] * _libm_pow(vod_s, alpha[col])
            vdsat = np.fmax(0.5 * vod_s, 0.05)
            sat = vds_s >= vdsat
            ratio = vds_s / vdsat
            mr[st] = np.where(
                sat,
                i_dsat * (1.0 + 0.05 * (vds_s - vdsat)) + i_sub_s,
                i_dsat * ratio * (2.0 - ratio) + i_sub_s)
        return m

    def fill(self, xpad: np.ndarray, vals: np.ndarray, c: np.ndarray,
             gmin: float) -> None:
        fd = _FD_STEP
        live = xpad.shape[0]
        s = self._scratch.get(live)
        if s is None:
            s = self._scratch[live] = _MosfetScratch(
                live, self.d_cols.shape[0], self.kn)
        # Probe stacks: probe 0 is the operating point, probe 1 bumps
        # the drain, probe 2 bumps the gate (the closure's probe
        # order).  The source is shared and broadcasts over probes.
        dd, gg, vs3 = s.dd, s.gg, s.vs3
        xpad.take(self.d_cols, axis=1, out=dd[0])
        np.add(dd[0], fd, out=dd[1])
        dd[2] = dd[0]
        xpad.take(self.g_cols, axis=1, out=gg[0])
        gg[1] = gg[0]
        np.add(gg[0], fd, out=gg[2])
        xpad.take(self.s_cols, axis=1, out=s.vs)
        # cond: the source is the gate reference — the closure's NMOS
        # ``vd >= vs`` and PMOS ``vs >= vd`` tests, evaluated as
        # written, so NaN takes the closure's branch.
        cond = s.cond
        np.greater_equal(s.dd_n, s.vs_n, out=s.cond_n)
        np.greater_equal(s.vs_p, s.dd_p, out=s.cond_p)
        fwd = np.not_equal(cond, self._pmos, out=s.fwd)
        neg = np.logical_not(fwd, out=s.neg)
        # vds is ``drain - source`` on fwd cells and ``source - drain``
        # elsewhere: both subtractions as written, then a select.
        ds = np.subtract(dd, vs3, out=s.ds)
        vds = np.subtract(vs3, dd, out=s.vds)
        np.copyto(vds, ds, where=fwd)
        # Gate reference: the source when cond holds, else the probe's
        # drain.  NMOS vgs is gate - reference, PMOS reference - gate.
        w = s.w
        np.copyto(w, dd)
        np.copyto(w, vs3, where=cond)
        np.subtract(s.gg_n, s.w_n, out=s.vgs_n)
        np.subtract(s.w_p, s.gg_p, out=s.vgs_p)
        m = self._magnitude(s, c.reshape(9, -1))
        # "-m if neg else m": negation in place is exact.
        np.negative(m, out=m, where=s.neg_f)
        cur = m.reshape(3, live, -1)
        out = s.out
        gd, gm, res = out[0], out[1], out[2]
        np.subtract(cur[1:], cur[0], out=out[:2])
        np.divide(out[:2], fd, out=out[:2])
        # "(0.0 if 0.0 > gd else gd) + gmin": maximum keeps a NaN gd
        # like the branch does, and a -0.0/+0.0 split is erased by the
        # add (gmin >= 0).
        np.maximum(gd, 0.0, out=gd)
        np.add(gd, gmin, out=gd)
        # residue = i0 - (gd * (vd - vs) + gm * (vg - vs))
        np.multiply(gd, ds[0], out=res)
        tb = np.subtract(gg[0], s.vs, out=s.tb)
        np.multiply(gm, tb, out=tb)
        np.add(res, tb, out=res)
        np.subtract(cur[0], res, out=res)
        vals[:, self.s_out] = s.out_t.reshape(live, -1)


#: A compiled device group: ``fill(xpad, vals, consts, gmin)``.
DeviceGroup = Union[_DiodeGroup, _SwitchGroup, _MosfetGroup]


def build_device_groups(grid: Sequence[Sequence[CircuitElement]],
                        slots: Sequence[int],
                        index: Callable[[str], int],
                        pad: int) -> List[DeviceGroup]:
    """Group a nonlinear element grid by class (one MOSFET group).

    ``grid`` holds one row per stacked sample, each row the circuit's
    nonlinear elements in canonical stamping order (every row shares
    the column types and terminals; only device parameters differ).
    ``slots`` is each column's first value slot, ``index`` maps a node
    to its MNA index (negative for ground) and ``pad`` is the gather
    column that stands for ground.  Each group's ``fill(xpad, vals,
    group.consts, gmin)`` writes its columns' companion values into
    ``vals`` (``(L, n_slots)``) from the padded iterate ``xpad``
    (``(L, n + 1)``, pad column 0.0).  Groups write disjoint slot
    columns, so their evaluation order does not matter.
    """
    buckets: Dict[type, List[int]] = {}
    for j, element in enumerate(grid[0]):
        buckets.setdefault(type(element), []).append(j)
    groups: List[DeviceGroup] = []
    for kind, positions in buckets.items():
        sub = [[row[j] for j in positions] for row in grid]
        group_slots = [slots[j] for j in positions]
        if kind is Diode:
            groups.append(_DiodeGroup(sub, index, pad, group_slots))
        elif kind is Switch:
            groups.append(_SwitchGroup(sub, index, pad, group_slots))
        elif kind is MosfetElement:
            flags = [el.device.polarity is Polarity.NMOS for el in sub[0]]
            groups.append(_MosfetGroup(sub, index, pad, group_slots, flags))
        else:
            raise TypeError(f"no device group for {kind.__name__}")
    return groups
