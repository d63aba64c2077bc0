"""Irreducible representations of SO(3) and their Lie-algebra generators.

The type-m representation acts on a (2m+1)-dimensional space.  We work in
the weight basis in which the generator of rotations about the e_1 axis is
diagonal with entries i*j, j = -m..m (ascending).  e_1 is the distinguished
axis throughout: spectral projections and the radial Fourier reductions are
all evaluated there, so diagonality keeps those formulas trivial.

Generator convention: A_k = i * J_k where (J_1, J_2, J_3) are the standard
Hermitian spin-m matrices in cyclic (z, x, y) order.  This realizes the
brackets [A_1, A_2] = -A_3 (cyclically), matching the real 3x3 matrices
that generate rotations of coordinates, and gives the Casimir identity
A_1^2 + A_2^2 + A_3^2 = -m(m+1) I.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# real 3x3 generators of coordinate rotations about e_1, e_2, e_3;
# the vector-field identity [A_i, P(x)] = dP(x)[Y_i x] is pinned to these
SO3_GENERATORS = np.array(
    [
        [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    ],
    dtype=np.float64,
)


@dataclass(frozen=True)
class Irrep:
    """Generator data of the type-m irreducible representation of SO(3).

    Attributes:
        m: type index (non-negative integer).
        dim: 2m+1.
        generators: stack of the three skew-Hermitian matrices A_1, A_2, A_3,
            shape (3, dim, dim); A_1 is diagonal with entries i*(-m..m).
        basis_tag: label of the chosen weight basis.
    """

    m: int
    dim: int
    generators: np.ndarray
    basis_tag: str = "weight-e1"

    def __post_init__(self):
        self.generators.setflags(write=False)

    def to_json(self) -> str:
        """Serialize to a JSON string (complex entries as [re, im] pairs)."""
        gens = [
            [[[z.real, z.imag] for z in row] for row in g] for g in self.generators
        ]
        return json.dumps(
            {"m": self.m, "dim": self.dim, "basis_tag": self.basis_tag, "generators": gens},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Irrep":
        data = json.loads(text)
        gens = np.array(
            [[[complex(re, im) for re, im in row] for row in g] for g in data["generators"]]
        )
        return Irrep(m=data["m"], dim=data["dim"], generators=gens, basis_tag=data["basis_tag"])


def _is_integer(v) -> bool:
    """Whether v is an int or a numpy integer: an integral float or a bool is not."""
    return isinstance(v, numbers.Integral) and not isinstance(v, (bool, np.bool_))


def check_type_index(m: int):
    """Raise ValueError unless the type index m is a non-negative integer:
    the one check of m."""
    if not _is_integer(m) or m < 0:
        raise ValueError(f"m must be a non-negative integer, got {m}")


def check_weight_index(m: int, j: int):
    """Raise ValueError unless j is an integer with -m <= j <= m: the one
    check of the weight index j of type m."""
    if not _is_integer(j):
        raise ValueError(f"index j must be an integer, got {j}")
    if not -m <= j <= m:
        raise ValueError(f"index j={j} out of range for m={m}: need -m <= j <= m")


@lru_cache(maxsize=None, typed=True)
def build_irrep(m: int) -> Irrep:
    """Construct the type-m irrep in the weight basis.

    m = 0 gives the trivial representation (1x1 zero generators).  Cached
    per m and its type, so a bool or a float m is refused on every call.
    """
    check_type_index(m)
    m = int(m)
    d = 2 * m + 1
    mu = np.arange(-m, m + 1, dtype=np.float64)
    # ladder amplitudes sqrt((m - mu)(m + mu + 1)) connect mu -> mu + 1
    lad = np.sqrt((m - mu[:-1]) * (m + mu[:-1] + 1))
    jz = np.diag(mu).astype(np.complex128)
    # J+ raises mu: nonzero entries at [p+1, p]
    jplus = np.zeros((d, d), dtype=np.complex128)
    jplus[np.arange(1, d), np.arange(0, d - 1)] = lad
    jminus = jplus.conj().T
    jx = 0.5 * (jplus + jminus)
    jy = -0.5j * (jplus - jminus)
    gens = np.stack([1j * jz, 1j * jx, 1j * jy])
    return Irrep(m=m, dim=d, generators=gens)


def dtau(rep: Irrep, x) -> np.ndarray:
    """The axis matrix sum_i x_i A_i; skew-Hermitian for real x.

    Its eigenvalues are i*j*|x| for j = -m..m.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.tensordot(x, rep.generators, axes=([0], [0]))


@dataclass(frozen=True)
class Rotation:
    """A rotation given by a unit axis and an angle in radians.

    The parametrization follows the so(3) basis fixed above: the matrix is
    exp(angle * Y_axis) with Y_axis = sum_i axis_i Y_i, which keeps
    tau(k) = exp(angle * dtau(axis)) a representation without sign
    gymnastics.  (Relative to the right-hand-rule convention this is the
    rotation by -angle about the axis.)
    """

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        a = np.asarray(self.axis, dtype=np.float64)
        n = np.linalg.norm(a)
        if not n > 0:
            raise ValueError("rotation axis must be nonzero")
        object.__setattr__(self, "axis", a / n)
        object.__setattr__(self, "angle", float(self.angle))

    @property
    def matrix(self) -> np.ndarray:
        """The 3x3 orthogonal matrix exp(angle * Y_axis) (Rodrigues form)."""
        ky = np.tensordot(self.axis, SO3_GENERATORS, axes=([0], [0]))
        return np.eye(3) + np.sin(self.angle) * ky + (1 - np.cos(self.angle)) * (ky @ ky)

    def apply(self, x) -> np.ndarray:
        """Rotate a 3-vector (the action k . x)."""
        return self.matrix @ np.asarray(x, dtype=np.float64)

    def inverse(self) -> "Rotation":
        return Rotation(axis=self.axis, angle=-self.angle)

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(axis=np.array([1.0, 0.0, 0.0]), angle=0.0)

    @staticmethod
    def from_matrix(r) -> "Rotation":
        """Recover axis and angle from a proper orthogonal 3x3 matrix."""
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-10) or np.linalg.det(r) < 0:
            raise ValueError("matrix is not a rotation (orthogonal, det +1)")
        cos_t = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
        angle = np.arccos(cos_t)
        if angle < 1e-12:
            return Rotation.identity()
        # skew part of exp(angle * Y_axis) is sin(angle) * Y_axis
        skew = np.array([r[1, 2] - r[2, 1], r[2, 0] - r[0, 2], r[0, 1] - r[1, 0]])
        if np.pi - angle >= 1e-3:
            return Rotation(axis=skew / (2.0 * np.sin(angle)), angle=angle)
        # near pi, dividing by sin(angle) loses the axis; the symmetric part
        # (R + R^T)/2 - cos(angle) I = (1 - cos(angle)) a a^T does not
        sym = (r + r.T) / 2.0 - cos_t * np.eye(3)
        i = int(np.argmax(np.diag(sym)))
        axis = sym[:, i] if sym[:, i] @ skew >= 0 else -sym[:, i]
        return Rotation(axis=axis, angle=np.arctan2(np.linalg.norm(skew) / 2.0, cos_t))

    @staticmethod
    def random(rng: np.random.Generator) -> "Rotation":
        """A random rotation (uniform axis, angle uniform on [0, pi])."""
        v = rng.normal(size=3)
        while np.linalg.norm(v) < 1e-8:
            v = rng.normal(size=3)
        return Rotation(axis=v, angle=float(rng.uniform(0.0, np.pi)))


def tau(rep: Irrep, k: Rotation) -> np.ndarray:
    """The unitary matrix of the rotation k in the type-m representation.

    Computed as exp(angle * dtau(axis)) through the spectral decomposition
    of the skew-Hermitian argument (eigenvalues are exactly i*j), so no
    series truncation is involved.
    """
    h = -1j * dtau(rep, k.axis)  # Hermitian
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * k.angle * w)) @ v.conj().T
