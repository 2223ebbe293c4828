"""Exception types shared across the package."""


class GelfandError(Exception):
    """Base class for all package-specific errors."""


class ParseError(GelfandError):
    """A text form could not be parsed; carries position and expectation."""

    def __init__(self, text, pos, expected):
        self.text = text
        self.pos = pos
        self.expected = expected
        super().__init__(f"parse error at position {pos}: expected {expected} "
                         f"(input: {text!r})")


class MixedFields(GelfandError):
    """Operands belong to different field descriptors."""


class DivisionByZero(GelfandError):
    """Inverse or division of the zero element."""


class WrongKind(GelfandError):
    """Operation requires a different field kind."""


class InfiniteField(GelfandError):
    """Operation requires a finite field."""


class NoneFound(GelfandError):
    """Exhaustive search completed without a result."""


class TooLarge(GelfandError):
    """A guard would be exceeded; names the guard, its limit and the
    size that was requested. Every guard refuses through `check`, the
    one place that reads the rule for a power: its size is None when its
    exponent alone puts it past the limit (`power_within`), as it is
    then never formed, and the message still names it as base^exponent."""

    def __init__(self, message, *, guard, limit, requested):
        self.guard = guard
        self.limit = limit
        self.requested = requested
        super().__init__(message)

    @staticmethod
    def check(guard, limit, requested, message):
        """requested, when it is at most limit; else, or when it is None,
        the refusal, whose text message() forms only then."""
        if requested is None or requested > limit:
            raise TooLarge(message(), guard=guard, limit=limit,
                           requested=requested)
        return requested


class ArityMismatch(GelfandError):
    """Polynomial arity does not match the given point or operation."""


class NotMonic(GelfandError):
    """Polynomial is required to be monic."""


class ZeroPolynomial(GelfandError):
    """The zero polynomial is not allowed here."""


class HasRoot(GelfandError):
    """A supposedly root-free polynomial has a root."""

    def __init__(self, root):
        self.root = root
        super().__init__(f"polynomial has root {root}")


class PointOutOfRange(GelfandError):
    """Point index outside the finite space."""


class CommonZero(GelfandError):
    """Functions share a common zero, so they do not form a cover."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"functions share a common zero at point {point}")


class OriginInJ(GelfandError):
    """Interpolation target set contains the origin."""


class AvoidanceExhausted(GelfandError):
    """No affine projective point is available to avoid."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"every [a,1] is hit at step {step}; "
                         f"consider the interpolation route instead")


class ConfigError(GelfandError):
    """Invalid CLI configuration; names the violated guard."""
