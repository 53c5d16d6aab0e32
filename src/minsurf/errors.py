"""Exception hierarchy shared across the package."""


class MinsurfError(Exception):
    """Base class for all package errors."""


class SignatureError(MinsurfError):
    """Operands carry incompatible signature indices or scalar types."""


class UnsupportedSignature(MinsurfError):
    """Requested signature index has no implemented convention."""


class DegenerateMetric(MinsurfError):
    """Pulled-back metric is (numerically) degenerate at the point."""


class EmptyInterior(MinsurfError):
    """No valid interior points remain after masking."""


class CFLViolation(MinsurfError):
    """Hyperbolic step sizes violate the CFL bound hy <= hx."""


class BranchMismatch(MinsurfError):
    """Kahler function values incompatible with the requested branch."""


class DomainViolation(MinsurfError):
    """Grid point violates the admissible-region inequalities."""


class EmptyMask(DomainViolation):
    """No grid point satisfies the admissible-region inequalities."""


class FrameConstructionError(MinsurfError):
    """Could not build a well-conditioned normal frame / initial frame."""
