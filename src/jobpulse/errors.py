"""Exception hierarchy shared across the pipeline.

Two failure classes matter operationally: problems with inputs or
configuration (bad files, bad flags, malformed taxonomy rows), and
violations of internal data contracts (duplicate demand units, unmapped
employers). The CLI maps them to exit codes 1 and 2 respectively.

A problem the run survives is a warning: one line on standard error.
"""

import sys


def warn(source: str, message: str) -> None:
    """Print ``WARNING jobpulse.<source>: <message>`` on standard error."""
    print(f"WARNING jobpulse.{source}: {message}", file=sys.stderr)


class JobPulseError(Exception):
    """Base class for all pipeline errors."""


class InputError(JobPulseError):
    """Invalid input data or configuration. CLI exit code 1."""


class ContractError(JobPulseError):
    """A data contract between pipeline stages was violated. CLI exit code 2."""
