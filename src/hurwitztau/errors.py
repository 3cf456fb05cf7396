"""Exception taxonomy shared by every module.

Errors are deliberately fine-grained so callers (and the CLI) can map them to
exit codes: configuration problems are caller mistakes, resource errors are
budget overruns or work refused before it starts because it cannot finish,
out-of-window errors mean a truncated object was asked for a coefficient it
does not reliably hold (distinct from a true zero).
"""


class HurwitzTauError(Exception):
    """Base class for all library errors."""


class ConfigurationError(HurwitzTauError):
    """Invalid or mutually inconsistent options (mismatched truncations, bad family)."""


class DomainError(HurwitzTauError):
    """Operation applied outside its mathematical domain (e.g. log of series with constant term != 1)."""


class NonInvertibleError(DomainError):
    """Series inversion requested for a series with vanishing constant term."""


class OutOfWindowError(HurwitzTauError):
    """A coefficient outside the guaranteed-valid truncation window was requested."""


class SingularParameterError(HurwitzTauError):
    """A rational parameter choice makes a required quantity undefined (division by a vanishing G-factor)."""


class ResourceError(HurwitzTauError):
    """An enumeration exceeded its configured budget (oracle routes, character-table
    cap), or a run was refused because it could not finish (the CLI caps)."""
