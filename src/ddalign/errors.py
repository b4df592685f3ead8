"""Exception types shared across the package, and the config finiteness check."""

import math
from dataclasses import fields


class ValidationError(ValueError):
    """Bad input: shape mismatch, out-of-range value, malformed file."""


class DataFormatError(ValidationError):
    """A dataset, manifest, or checkpoint file failed to parse."""


class NumericsError(RuntimeError):
    """A computation produced non-finite values."""


def require_finite(config) -> None:
    """Raise a ValidationError naming the first float field of the dataclass
    instance ``config`` that holds nan or an infinity."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value}")
