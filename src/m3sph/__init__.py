"""Matrix spherical analysis on the 3-D Euclidean motion group.

For every irreducible rotation type the package builds the invariant
matrix polynomials, computes the matrix spherical functions by three
independent constructions, and applies the associated Fourier transform
(with inversion) to sampled matrix-valued fields.
"""

from .errors import (
    CapabilityError,
    ChecksumMismatchError,
    ConsistencyError,
    DecompositionError,
    FieldFormatError,
    M3sphError,
    MalformedCoefficientsError,
    MalformedHeaderError,
    MalformedMultiplierError,
    NonFinitePayloadError,
    PayloadLengthError,
    UnsupportedVersionError,
)
from .fieldio import Config, read_field, synthesize, write_field
from .polyalg import CoeffTable, MatPoly, build_Q, coeff_table, exact_generators
from .radial import RadialProfile, f, f_scaled
from .so3rep import Irrep, Rotation, build_irrep, dtau, tau
from .spherical import (
    ProjectionFamily,
    SphereRule,
    SphericalFunctionSpec,
    TridiagonalOperator,
    build_tridiagonal,
    check_positive_type,
    eval_phi,
    eval_phi_batch,
    phi_method1,
    phi_method2,
    phi_method3,
    projections,
    sphere_rule,
)
from .transform import (
    MatrixField,
    SphericalCoefficients,
    apply_multiplier,
    classical_ft,
    convolve,
    forward,
    h_decompose,
    inverse,
    inversion_constant,
    schwartz_decompose,
    spherical_ft,
)

__version__ = "0.1.0"

__all__ = [
    "build_irrep",
    "dtau",
    "tau",
    "Irrep",
    "Rotation",
    "MatPoly",
    "CoeffTable",
    "build_Q",
    "coeff_table",
    "exact_generators",
    "RadialProfile",
    "f",
    "f_scaled",
    "TridiagonalOperator",
    "SphericalFunctionSpec",
    "ProjectionFamily",
    "SphereRule",
    "build_tridiagonal",
    "phi_method1",
    "phi_method2",
    "phi_method3",
    "eval_phi",
    "eval_phi_batch",
    "projections",
    "sphere_rule",
    "check_positive_type",
    "MatrixField",
    "SphericalCoefficients",
    "classical_ft",
    "h_decompose",
    "spherical_ft",
    "forward",
    "inverse",
    "inversion_constant",
    "apply_multiplier",
    "schwartz_decompose",
    "convolve",
    "Config",
    "read_field",
    "write_field",
    "synthesize",
    "M3sphError",
    "CapabilityError",
    "ConsistencyError",
    "FieldFormatError",
    "MalformedHeaderError",
    "MalformedCoefficientsError",
    "MalformedMultiplierError",
    "UnsupportedVersionError",
    "ChecksumMismatchError",
    "PayloadLengthError",
    "NonFinitePayloadError",
    "DecompositionError",
]
