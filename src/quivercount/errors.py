"""Exception types shared across the package."""


class QuivercountError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedParameter(QuivercountError, ValueError):
    """A field size or truncation order outside the supported range."""


class PoleAtEvaluationPoint(QuivercountError):
    pass


class NonzeroConstantTerm(QuivercountError):
    pass


class ConstantTermNotOne(QuivercountError):
    pass


class DimensionMismatch(QuivercountError):
    pass


class NotConnected(QuivercountError):
    pass


class Not2Connected(QuivercountError):
    pass


class InvalidType(QuivercountError):
    pass


class CapExceeded(QuivercountError):
    pass


class NonGenericLambda(QuivercountError):
    pass


class CharacteristicTooSmall(QuivercountError):
    pass
