"""The one-column Z-bus fixed point: the block kernel's column-by-column oracle.

:func:`_fixed_point` runs one column at a time with plain matrix-vector
products and reports a failure by raising, with a message that names it.
``pevplan.powerflow._fixed_point_block`` must end every column as this
function does: the same verdict, the same iteration count, and voltages
within rounding (``test_powerflow.block_matches_columns``).
"""

from __future__ import annotations

import math

import numpy as np

from pevplan.powerflow import (
    _DIVERGENCE_MISMATCH,
    _FIXED_POINT_MARGIN,
    DEFAULT_MAX_ITER,
    PowerFlowError,
)


def _fixed_point(
    factor: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    s_pq: np.ndarray,
    v: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, int, float]:
    """The Z-bus fixed point from ``v``: ``(v, iterations, max mismatch)``.

    ``factor`` is ``(pq, Y[pq, :], Z, w)`` of :class:`_SolverArrays`,
    ``s_pq`` the non-slack injections and ``v`` a full start vector holding
    1.0 pu at the slack; ``v`` is updated in place.  After a step
    ``V' = w + Z·conj(S/V)`` the identity ``Y[pq, :]·V' = conj(S/V)`` holds,
    so the mismatch at ``V'`` is ``S·(V' − V)/V`` and the loop needs no
    ``Y·V`` product.  The true ``Y·V`` mismatch is computed at the start,
    which is returned unchanged if it already meets ``tol / 100``, and once
    more before convergence is reported: that is Newton's test, ≤ ``tol``.
    The iteration normally runs on to ``tol / 100``; it stops short of that
    when the step residual no longer falls or the iterations run out.
    Otherwise raises :class:`PowerFlowError`, whose message names the
    failure: a stalled residual above ``tol``, divergence, or iterations
    exhausted.
    """
    pq, y_pq, z, w = factor
    target = tol * _FIXED_POINT_MARGIN
    vp = v[pq]

    def true_mismatch() -> float:
        v[pq] = vp
        ds = vp * np.conj(y_pq @ v) - s_pq
        # the float view interleaves ΔP and ΔQ
        return float(np.abs(ds.view(float)).max(initial=0.0))

    # a zero or overflowing voltage shows up as a non-finite residual
    with np.errstate(all="ignore"):
        # a start that already meets the target is returned as it is, so a
        # trial that lands on the current setpoint scores the current state
        prev = true_mismatch()
        if prev <= target:
            return v, 0, prev
        for it in range(1, DEFAULT_MAX_ITER + 1):
            ratio = s_pq / vp
            v_next = w + z @ np.conj(ratio)
            res = float(np.abs(((v_next - vp) * ratio).view(float)).max(initial=0.0))
            vp = v_next
            if res <= target or (res <= tol and (res >= prev or it == DEFAULT_MAX_ITER)):
                mis = true_mismatch()
                if mis <= tol:
                    return v, it, mis
                raise PowerFlowError(
                    f"fixed point stopped at step residual {res:.3e} with "
                    f"mismatch {mis:.3e} above {tol:.1e} after {it} iterations"
                )
            if not math.isfinite(res) or res > _DIVERGENCE_MISMATCH:
                raise PowerFlowError(
                    f"fixed point diverged at iteration {it} (residual {res:.3e})"
                )
            prev = res
        mis = true_mismatch()
    raise PowerFlowError(
        f"fixed point above mismatch {tol:.1e} after {it} iterations "
        f"(mismatch {mis:.3e})"
    )
