"""Exception hierarchy for the toolkit.

All errors derive from RubymagError so callers can catch one base class.
Most also derive from ValueError since they signal invalid inputs.
"""


class RubymagError(Exception):
    """Base class for all toolkit errors."""


class NonHermitianInput(RubymagError, ValueError):
    pass


class IndexOutOfRange(RubymagError, IndexError):
    pass


class EmptyRange(RubymagError, ValueError):
    pass


class NonPositiveTemperature(RubymagError, ValueError):
    pass


class ZeroLinewidth(RubymagError, ValueError):
    pass


class ZeroSpinLinewidth(RubymagError, ValueError):
    pass


class ZeroKappaTh(RubymagError, ValueError):
    pass


class ZeroCoupling(RubymagError, ValueError):
    pass


class AllZeroBorder(RubymagError, ValueError):
    pass


class ZeroRate(RubymagError, ValueError):
    pass


class AsymmetricGrid(RubymagError, ValueError):
    pass


class TooFewPoints(RubymagError, ValueError):
    pass


class TooFewSamples(RubymagError, ValueError):
    pass


class ZeroSignal(RubymagError, ValueError):
    pass


class ZeroSlope(RubymagError, ValueError):
    pass


class NegativeRadicand(RubymagError, ValueError):
    pass


class EmptyTable(RubymagError, ValueError):
    pass


class UndersampledTestTone(RubymagError, ValueError):
    pass


class DegenerateAbscissa(RubymagError, ValueError):
    pass


class NonFiniteOutput(RubymagError, ValueError):
    """A result to be written as CSV or strict JSON holds NaN or infinity."""


class ConfigError(RubymagError, ValueError):
    """Base for configuration problems (maps to CLI exit code 2)."""


class ParseError(ConfigError):
    pass


class InvalidBounds(ConfigError):
    """The fit's guess leaves no valid bounds (a rate that is not > 0)."""


class UnknownKey(ConfigError):
    pass


class UnitMismatch(ConfigError):
    pass
