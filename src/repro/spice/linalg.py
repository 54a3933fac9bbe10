"""Shared dense LU factorisation for the MNA solvers.

Every dense solve in :mod:`repro.spice` — the legacy per-iterate path,
the compiled :class:`~repro.spice.stampplan.StampPlan` fast path, DC
and transient alike, and the batched sample-axis solver — routes
through this module.  That single-kernel rule is what makes the fast
paths *bit-identical* to the legacy path: an identical matrix
factorised by the same routine yields the identical solution, so
reusing a factorisation can never change a waveform.

The kernels are LAPACK's ``dgetrf``/``dgetrs``/``dgesv`` through
SciPy's raw bindings.  Exact zero pivots raise
:class:`numpy.linalg.LinAlgError` (matching the historic
``np.linalg.solve`` behaviour on singular systems); the structural
diagnosis belongs to the caller
(:meth:`repro.spice.mna.MnaSystem.solve`).

:func:`solve_fresh_row_t`, :func:`solve_rows_t_into` and
:func:`lu_backsolve_into` are the batched solver's hot-loop variants: a
fused factor+solve for rows whose matrix changed, and an in-place
substitution for rows whose cached factors still apply.  A singular
row yields ``None`` (or its index) instead of raising, because the
batched Newton driver must eject that one sample, not kill the whole
stack.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
# The raw LAPACK bindings skip scipy.linalg.lu_factor's per-call
# validation wrappers (~half the solve cost at MNA sizes) while running
# the exact same dgetrf/dgetrs kernels underneath.
from scipy.linalg.lapack import (dgesv as _dgesv, dgetrf as _dgetrf,
                                 dgetrs as _dgetrs)

#: Opaque factorisation handle: ("lapack", lu, piv).
LuFactors = Tuple[str, np.ndarray, np.ndarray]


def lu_factorize(matrix: np.ndarray) -> LuFactors:
    """LU-factorise ``matrix`` with partial pivoting.

    Raises :class:`numpy.linalg.LinAlgError` on an exactly singular
    matrix (zero pivot), like ``np.linalg.solve`` used to.
    """
    lu, piv, info = _dgetrf(matrix)
    if info != 0:
        raise np.linalg.LinAlgError(
            "singular matrix (zero pivot)" if info > 0
            else f"illegal dgetrf argument {-info}")
    return ("lapack", lu, piv)


def lu_backsolve(factors: LuFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A x = rhs`` given :func:`lu_factorize` output."""
    _kind, lu, piv = factors
    x, info = _dgetrs(lu, piv, rhs)
    if info != 0:  # pragma: no cover - factors are always consistent
        raise np.linalg.LinAlgError(f"illegal dgetrs argument {-info}")
    return x


def lu_solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """One-shot factorise + solve (the uncached legacy entry point)."""
    return lu_backsolve(lu_factorize(matrix), rhs)


def solve_fresh_row_t(matrix_t: np.ndarray,
                      rhs_row: np.ndarray) -> Optional[LuFactors]:
    """Factorise + solve in one LAPACK call, in place.

    ``matrix_t`` holds ``A.T`` C-contiguously, so ``matrix_t.T`` is
    ``A`` in Fortran order — exactly LAPACK's native layout — and
    ``overwrite_a=1`` lets dgetrf factor in place with no copy.
    ``dgesv`` runs dgetrf followed by dgetrs internally, so both the
    returned factors and the solution written into ``rhs_row`` are
    bit-identical to separate :func:`lu_factorize` /
    :func:`lu_backsolve` calls on ``A`` (verified on this platform) at
    one f2py round-trip instead of two.  The caller must own
    ``matrix_t`` (its buffer becomes the factors).  Returns reusable
    factors, or ``None`` on a singular matrix (``rhs_row`` is garbage
    in that case; the caller ejects the sample).
    """
    lu, piv, x, info = _dgesv(matrix_t.T, rhs_row,
                              overwrite_a=1, overwrite_b=1)
    if info != 0:
        if info < 0:  # pragma: no cover - arguments are consistent
            raise np.linalg.LinAlgError(
                f"illegal dgesv argument {-info}")
        return None
    if x is not rhs_row:  # pragma: no cover - non-contiguous input
        rhs_row[:] = x
    return ("lapack", lu, piv)


def solve_rows_t_into(matrices_t: np.ndarray,
                      rhs: np.ndarray) -> List[int]:
    """Fused factor+solve for every row of a transposed stack.

    Runs the exact :func:`solve_fresh_row_t` kernel on each
    ``(matrices_t[i], rhs[i])`` pair — same calls, same bits — in
    one Python frame instead of one per row, which is the dominant
    non-LAPACK cost at batched-Newton call rates (every live row
    refactors nearly every iterate once the reuse probation in the
    batch solver expires).  Solutions land in ``rhs`` rows in
    place; the factors are discarded, so ``matrices_t`` is consumed
    as scratch.  Returns the singular row indices (their ``rhs``
    rows are garbage; the caller ejects those samples).
    """
    bad: List[int] = []
    # zip iteration yields the row views without per-row integer
    # indexing, which is measurable at ~50k rows per run.
    for i, (mat_t, row) in enumerate(zip(matrices_t, rhs)):
        lu, piv, x, info = _dgesv(mat_t.T, row,
                                  overwrite_a=1, overwrite_b=1)
        if info != 0:
            if info < 0:  # pragma: no cover - args are consistent
                raise np.linalg.LinAlgError(
                    f"illegal dgesv argument {-info}")
            bad.append(i)
        elif x is not row:  # pragma: no cover - non-contiguous input
            row[:] = x
    return bad


def lu_backsolve_into(factors: LuFactors, rhs_row: np.ndarray) -> None:
    """Solve ``A x = rhs_row`` in place into contiguous 1-D ``rhs_row``.

    Runs the exact kernel of :func:`lu_backsolve`; LAPACK's in-place
    path (``overwrite_b``) writes the identical solution bits without
    allocating an output vector, which matters at batched-Newton call
    rates (one backsolve per live sample per iterate).
    """
    _kind, lu, piv = factors
    x, info = _dgetrs(lu, piv, rhs_row, overwrite_b=1)
    if info != 0:  # pragma: no cover - factors are always consistent
        raise np.linalg.LinAlgError(f"illegal dgetrs argument {-info}")
    if x is not rhs_row:  # pragma: no cover - non-contiguous input
        rhs_row[:] = x
