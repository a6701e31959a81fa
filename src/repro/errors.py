"""Exception hierarchy for the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can catch
library failures without also catching programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DFGError(ReproError):
    """Malformed dataflow graph (bad edge, cycle without distance, ...)."""


class FrontendError(ReproError):
    """Lexing, parsing, or lowering of an annotated-C kernel failed."""


class TransformError(FrontendError):
    """An AST loop transform (unroll, tile, interchange, ...) or recipe is
    malformed or not applicable to the kernel's loop nest."""


class MotifError(ReproError):
    """Motif identification or hierarchical-DFG construction failed."""


class ArchitectureError(ReproError):
    """Inconsistent architecture description or resource query."""


class MappingError(ReproError):
    """The mapper could not produce a valid mapping."""


class SimulationError(ReproError):
    """The cycle-accurate simulator detected an inconsistency."""


class ConfigError(ReproError):
    """Configuration bitstream encoding/decoding failed."""


class PowerModelError(ReproError):
    """Power/area model queried with an unknown module or architecture."""


class WorkloadError(ReproError):
    """Unknown workload or ill-formed workload definition."""
