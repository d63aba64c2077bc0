import mpmath as mp
import numpy as np
import pytest

from m3sph import _kernels
from m3sph.polyalg import e1_diagonals, unit_eigvec


def _axis_kernel(l: int, t):
    """T_l(t) = t^l f_l(t) = (2l+1)!! j_l(t) in mpmath, from the Bessel
    function of half-integer order."""
    if t == 0:
        return mp.mpf(l == 0)
    return mp.fac2(2 * l + 1) * mp.sqrt(mp.pi / (2 * t)) * mp.besselj(l + mp.mpf(1) / 2, t)


@pytest.fixture(scope="session")
def axis_kernel():
    """(l, t) -> T_l(t) in mpmath at the working precision."""
    return _axis_kernel


@pytest.fixture(scope="session")
def phi_oracle():
    """(m, s, j, x) -> Phi_{s,j}(x), (d, d).  Its e_1 diagonal at the float
    t = fl(s |x|) is sum_l u_l T_l(t) Q_l(e_1) in 60-digit mpmath, from the
    exact s = 1 vector u (polyalg.unit_eigvec) and the exact rationals of
    Q_l(e_1) = i^l diag(r_l) (polyalg.e1_diagonals), rounded once and moved
    to x by the frame (_kernels.axis_transport)."""

    def oracle(m: int, s: float, j: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)[None, :]
        radius = _kernels.radii(x)
        with mp.workdps(60):
            t = mp.mpf(float(s * radius[0]))
            lam = [mp.mpc(0)] * (2 * m + 1)
            for l, (u, r) in enumerate(zip(unit_eigvec(m, j), e1_diagonals(m))):
                w = mp.mpf(u.numerator) / u.denominator * _axis_kernel(l, t) * mp.mpc(0, 1) ** l
                lam = [z + w * mp.mpf(q.numerator) / q.denominator for z, q in zip(lam, r)]
            diag = np.array([complex(z) for z in lam])
        return _kernels.axis_transport(diag[None, :], x, radius)[0]

    return oracle
