"""Exception hierarchy shared by all helikon modules."""


class HelikonError(Exception):
    """Base class for all errors raised by helikon."""


class InvalidModulus(HelikonError):
    """Torus modulus tau not finite, not in the upper half-plane, or of a
    lattice too thin for the kernels (lattice.MAX_IM_TAU_R)."""


class PoleAt(HelikonError):
    """Evaluation requested at (or too close to) a pole."""

    def __init__(self, point, message=None):
        self.point = point
        super().__init__(message or f"evaluation at pole near u = {point}")


class NonFiniteSample(HelikonError):
    """A value that must be finite (an integrand's, g(p0)) is not."""


class NoConvergence(HelikonError):
    """Adaptive quadrature exhausted its subdivision budget."""


class ExprSyntaxError(HelikonError):
    """Expression text does not conform to the grammar."""

    def __init__(self, position, message):
        self.position = position
        super().__init__(f"at position {position}: {message}")


class DomainError(HelikonError):
    """Expression uses blocks not available on its declared domain."""


class DomainViolation(HelikonError):
    """Evaluation at a declared puncture."""


class ZeroOnContour(HelikonError):
    """A counting-contour passed through (or too near) a zero or pole."""


class ClusteredDivisor(HelikonError):
    """Distinct zeros or poles too close together for the divisor grid."""


class AuditFailed(HelikonError):
    """Divisor audit found counts inconsistent with an elliptic object."""


class NonpositiveLambda(HelikonError):
    """Lopez-Ros parameter must be a positive real."""


class NotUnitModulusC(HelikonError):
    """Symmetry check requested but |g(p0)^2| != 1; vertical-flux branch applies."""

    def __init__(self, C, message=None):
        self.C = C
        super().__init__(
            message
            or f"|C| = {abs(C):.6g} != 1: use the vertical-flux check instead"
        )


class SampleAtPole(HelikonError):
    """Random sample landed on a pole and resampling failed repeatedly."""


class AbelViolation(HelikonError):
    """Prescribed zeros/poles admit no single-valued function on the torus."""


class CoincidentPoints(HelikonError):
    """Two points required to be distinct coincide modulo the lattice."""


class SingularJacobian(HelikonError):
    """Damped Newton met a non-finite Jacobian or no norm-lowering step."""


class PathThroughPole(HelikonError):
    """Integration route passes through a pole of the integrand forms."""


class DisconnectedSampling(HelikonError):
    """Exclusion disks disconnect the sampled region."""


class ThresholdOrder(HelikonError):
    """Probe thresholds that are not finite positive lengths, or that are
    incompatible with the mesh resolution."""


class NotVerticalFlux(HelikonError):
    """Lambda sweep requires data with vertical flux."""


class SceneParseError(HelikonError):
    """Scene file is not well-formed."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SceneValidationError(HelikonError):
    """Scene file parsed but failed semantic validation; line is None where
    no one line is at fault."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnresolvedReference(HelikonError):
    """Scene refers to an undefined named object."""
