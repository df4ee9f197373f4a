"""Exception types shared across the library."""


class SkinlinkError(ValueError):
    """Base class for all library errors."""


class DomainError(SkinlinkError):
    """A numeric argument is outside the mathematical domain of an operation."""


class GeometryError(SkinlinkError):
    """Singular or degenerate geometry (zero distance, panel smaller than a cell, ...)."""


class LayoutError(SkinlinkError):
    """Descriptor/grid/table inconsistency, or a cell geometry outside table coverage."""


class ConfigError(SkinlinkError):
    """Malformed configuration input (files, cut definitions, table parameters)."""


class FresnelValidityError(SkinlinkError):
    """Observation geometry violates the Fresnel validity condition in strict mode."""
