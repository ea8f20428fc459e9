"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class AssemblyError(ReproError):
    """Raised for malformed programs: undefined labels, bad operands, etc."""


class ExecutionError(ReproError):
    """Raised when the functional interpreter cannot make progress.

    Examples: executing past the end of the text segment, exceeding the
    instruction budget, or dereferencing an address outside the simulated
    address space.
    """


class ConfigError(ReproError):
    """Raised for inconsistent machine or prefetcher configurations."""


class WorkloadError(ReproError):
    """Raised when a workload is asked for a variant or a parameter it
    does not support."""
