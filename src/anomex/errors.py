"""Exception taxonomy shared across the package.

The CLI maps these to exit codes: DataError -> 2, ModelError -> 3,
NumericError -> 4. A ValueError is a parameter out of range; the CLI
maps it to 1 (usage) only where it checks a flag's value.
"""


class AnomexError(Exception):
    """Base class for all package-specific failures."""


class DataError(AnomexError):
    """Malformed, missing, or unusable input data."""


class ModelError(AnomexError):
    """Model construction, persistence, or compatibility failure."""


class NumericError(AnomexError):
    """Non-finite or numerically unstable computation."""
