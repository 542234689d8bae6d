"""The toolkit's error classes: each is a name an ERROR line can print.

A class is kept only if cli.main tells it apart from ValueError (the
ConfigError family, exit 2) or some command can end in it (exit 1).  Every
other check raises the builtin it would subclass, ValueError or IndexError,
with a message that says what failed.
"""


class ZeroLinewidth(ValueError):
    pass


class ZeroCoupling(ValueError):
    pass


class ZeroSignal(ValueError):
    pass


class NonFiniteOutput(ValueError):
    """A result to be written as CSV or strict JSON holds NaN or infinity."""


class ConfigError(ValueError):
    """Base for configuration problems (maps to CLI exit code 2)."""


class ParseError(ConfigError):
    pass


class InvalidBounds(ConfigError):
    """The fit's guess leaves no valid bounds (a rate that is not > 0)."""


class UnknownKey(ConfigError):
    pass


class UnitMismatch(ConfigError):
    pass
