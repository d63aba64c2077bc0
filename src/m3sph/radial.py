"""The radial kernel family f_j and its rescalings f_j^s.

f_j(r) is the bounded solution of  f'' + ((2+2j)/r) f' + f = 0  with
f_j(0) = 1; in closed form f_j(r) = (2j+1)!! j_j(r) / r^j with j_j the
order-j spherical Bessel function (f_0(r) = sin r / r).  f_j^s(r) = f_j(sr)
solves the same ODE with s^2 in place of the zeroth-order 1.

Evaluation runs f_j's own three-term recurrence,
f_{j-1} = f_j - r^2 f_{j+1} / ((2j+1)(2j+3)), which is exact at r = 0:
downward from a high order (Miller's algorithm), normalized once on the
closed form of f_0 or f_1, while the argument is below jmax + 2, and
upward from f_0 and f_1 beyond it, where the upward direction is stable.
The kernel is ``_kernels.f_table``; it serves orders up to
``_kernels.F_TABLE_JMAX`` and refuses higher ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import f_table
from .errors import CapabilityError


def double_factorial_odd(j: int) -> float:
    """(2j+1)!! as a float: one exact integer product, rounded once."""
    if j < 0:
        raise ValueError("order must be non-negative")
    return float(math.prod(range(1, 2 * j + 2, 2)))


def f_upto(jmax: int, r) -> np.ndarray:
    """f_0(r)..f_jmax(r) for scalar or array r >= 0, from one kernel call;
    shape (jmax+1,) + r.shape.  A negative, NaN or infinite r raises
    ValueError."""
    if jmax < 0:
        raise ValueError("order must be non-negative")
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise ValueError("radius must be non-negative")
    if not np.isfinite(r).all():
        raise ValueError("radius must be finite")
    return f_table(jmax, r)


def f(j: int, r):
    """f_j(r) for scalar or array r >= 0."""
    out = f_upto(j, r)[j]
    return float(out) if out.ndim == 0 else out


def _check_scale(s: float):
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"scale s must be finite and positive, got {s}")


def f_scaled(j: int, s: float, r):
    """f_j^s(r) = f_j(s r) for finite s > 0."""
    _check_scale(s)
    return f(j, s * np.asarray(r, dtype=np.float64))


def check_ode(j: int, s: float, r: float, h: float) -> float:
    """Five-point central-difference residual of f'' + ((2+2j)/r) f' + s^2 f
    at r > 2h.

    The residual is O(h^4) for the true solution plus rounding of order
    eps/h^2, so h = 1e-2 measures the ODE rather than the rounding.
    """
    if r <= 2 * h:
        raise ValueError("the ODE residual is defined away from r = 0 (r > 2h)")
    fm2, fm, f0, fp, fp2 = f_scaled(j, s, r + h * np.arange(-2.0, 3.0))
    d2 = (-fp2 + 16.0 * fp - 30.0 * f0 + 16.0 * fm - fm2) / (12.0 * h * h)
    d1 = (-fp2 + 8.0 * fp - 8.0 * fm + fm2) / (12.0 * h)
    return float(d2 + (2.0 + 2.0 * j) / r * d1 + s * s * f0)


@dataclass(frozen=True)
class RadialProfile:
    """A function of r >= 0: radii of shape S map to values of shape
    S + V, with V = () for a scalar profile and V = (2m+1,) for the
    coefficients g_0..g_{2m} of a radial-form field.

    ``decays`` says whether it decays at infinity; transforms consult it
    before integrating.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    decays: bool = False

    def __call__(self, r):
        return self.evaluator(np.asarray(r, dtype=np.float64))


def _spline_profile(grid: np.ndarray, samples: np.ndarray) -> RadialProfile:
    """Decaying cubic-spline profile through complex ``samples`` of shape
    (grid.size,) + V on ``grid``; zero outside the grid.  One real spline
    runs through the real parts and then the imaginary parts of every
    column.  Samples whose spline coefficients (slopes over the grid
    spacing and their differences) leave float range raise CapabilityError."""
    from scipy.interpolate import CubicSpline

    flat = samples.reshape(grid.size, -1)
    n = flat.shape[1]
    with np.errstate(all="ignore"):
        spline = CubicSpline(grid, np.concatenate([flat.real, flat.imag], axis=1))
    if not np.isfinite(spline.c).all():
        raise CapabilityError(
            "the radial samples change too fast for their grid: their cubic spline's "
            "coefficients are out of float range"
        )
    lo, hi = float(grid[0]), float(grid[-1])

    def ev(r):
        v = spline(r)
        out = np.where(((r >= lo) & (r <= hi))[..., None], v[..., :n] + 1j * v[..., n:], 0.0 + 0.0j)
        return out.reshape(r.shape + samples.shape[1:])

    return RadialProfile(evaluator=ev, decays=True)
