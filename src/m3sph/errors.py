"""Exception types shared across the package."""


class M3sphError(Exception):
    """Base class for all package-specific errors."""


class CapabilityError(M3sphError):
    """Requested parameters exceed what the package can compute: the exact
    layer's m, the numeric spherical functions' m, the kernel orders, a
    point whose |x| or s|x| leaves float range, an s|x| whose sphere rule
    would need more than 2048 polar nodes (construction 2), a composite
    Gauss-Legendre rule of more than 2048 nodes per panel or 2^20 in all
    (transform.gl_panels; the radial transform's r-rule passes 2048 per
    panel at |y| or s_max = 1595.9), or a radial kernel sum of more than
    2^27 evaluations (transform._direct_sums; a radial forward transform
    is refused by that count before either rule is built)."""


class ConsistencyError(M3sphError):
    """An internal identity that must hold numerically failed to hold."""


class FieldFormatError(M3sphError):
    """Base class for M3SF file-format problems."""


class MalformedHeaderError(FieldFormatError):
    pass


class UnsupportedVersionError(FieldFormatError):
    pass


class ChecksumMismatchError(FieldFormatError):
    pass


class PayloadLengthError(FieldFormatError):
    pass


class NonFinitePayloadError(FieldFormatError):
    """An M3SF payload holds a NaN or infinite value."""


class MalformedCoefficientsError(FieldFormatError):
    """A spherical-coefficient JSON document lacks a key or has inconsistent shapes."""


class MalformedMultiplierError(FieldFormatError):
    """A multiplier table is not keyed by j in -m..m or holds a bad curve."""


class DecompositionError(M3sphError):
    """Field could not be decomposed into radial coefficients.

    Carries the reconstruction residual that triggered the failure.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual
