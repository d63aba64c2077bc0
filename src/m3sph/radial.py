"""The radial kernel family f_j and its rescalings f_j^s.

f_j(r) is the bounded solution of  f'' + ((2+2j)/r) f' + f = 0  with
f_j(0) = 1; in closed form f_j(r) = (2j+1)!! j_j(r) / r^j with j_j the
order-j spherical Bessel function (f_0(r) = sin r / r).  f_j^s(r) = f_j(sr)
solves the same ODE with s^2 in place of the zeroth-order 1.

Evaluation switches between a short Taylor series (small argument) and the
trig closed forms with a downward Miller recurrence (large argument); the
upward trig recurrence alone is unstable once the order passes the
argument.  The heavy lifting lives in ``_kernels.f_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._kernels import f_table


def double_factorial_odd(j: int) -> float:
    """(2j+1)!! as a float; exact integer arithmetic up to j = 20,
    lgamma beyond that for overflow safety."""
    if j < 0:
        raise ValueError("order must be non-negative")
    if j <= 20:
        out = 1
        for i in range(1, 2 * j + 2, 2):
            out *= i
        return float(out)
    # (2j+1)!! = (2j+1)! / (2^j j!)
    return math.exp(
        math.lgamma(2 * j + 2) - math.lgamma(j + 1) - j * math.log(2.0)
    )


def f(j: int, r):
    """f_j(r) for scalar or array r >= 0."""
    if j < 0:
        raise ValueError("order must be non-negative")
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0):
        raise ValueError("radius must be non-negative")
    out = f_table(j, r)[j]
    return float(out) if out.ndim == 0 else out


def f_scaled(j: int, s: float, r):
    """f_j^s(r) = f_j(s r) for s > 0."""
    if s <= 0:
        raise ValueError("scale s must be positive")
    return f(j, s * np.asarray(r, dtype=np.float64))


def f_derivative(j: int, r):
    """d/dr f_j(r) via the lowering relation f_j'(r) = -r f_{j+1}(r)/(2j+3)."""
    r = np.asarray(r, dtype=np.float64)
    return -r * f(j + 1, r) / (2 * j + 3)


def f_scaled_derivative(j: int, s: float, r):
    """d/dr f_j^s(r) = -s^2 r f_{j+1}^s(r) / (2j+3)."""
    r = np.asarray(r, dtype=np.float64)
    return -(s * s) * r * f_scaled(j + 1, s, r) / (2 * j + 3)


def check_ode(j: int, s: float, r: float, h: float) -> float:
    """Central-difference residual of f'' + ((2+2j)/r) f' + s^2 f at r > 0.

    The step h should be small against r; the residual is O(h^2) for the
    true solution.
    """
    if r <= 0:
        raise ValueError("the ODE residual is defined away from r = 0")
    fm, f0, fp = (float(f_scaled(j, s, rr)) for rr in (r - h, r, r + h))
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    return d2 + (2.0 + 2.0 * j) / r * d1 + s * s * f0


@dataclass(frozen=True)
class RadialProfile:
    """A scalar function of r >= 0 with metadata.

    ``label`` records what the profile is (kind, indices, scale) and
    whether it decays at infinity; transforms consult the ``decays`` flag
    before integrating.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    label: dict = field(default_factory=dict)

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        out = self.evaluator(r)
        return out

    @property
    def decays(self) -> bool:
        return bool(self.label.get("decays", False))


def _spline_profile(grid: np.ndarray, samples: np.ndarray, label: dict) -> RadialProfile:
    """Cubic-spline profile through complex ``samples`` on ``grid``; zero
    outside the grid."""
    from scipy.interpolate import CubicSpline

    spline_re = CubicSpline(grid, samples.real)
    spline_im = CubicSpline(grid, samples.imag)
    lo, hi = float(grid[0]), float(grid[-1])

    def ev(r):
        r = np.asarray(r, dtype=np.float64)
        inside = (r >= lo) & (r <= hi)
        return np.where(inside, spline_re(r) + 1j * spline_im(r), 0.0 + 0.0j)

    return RadialProfile(evaluator=ev, label=label)


def kernel_profile(j: int, s: float) -> RadialProfile:
    """The profile r -> f_j^s(r); value 1 at r = 0, bounded by 1."""
    return RadialProfile(
        evaluator=lambda r: f_scaled(j, s, r),
        label={"kind": "kernel", "j": j, "s": s, "decays": False},
    )
