"""Exception hierarchy shared by every module.

The CLI maps these onto process exit codes: parse and usage problems exit
with 2, resource guards with 3, internal faults (InternalError) with 4, and
ordinary suite failures and every other error with 1.  A reader that closes
standard output early (`ixm ... | head`) ends the run quietly with
BROKEN_PIPE_EXIT, 128 + SIGPIPE, the status a shell reports for a process
that SIGPIPE killed, so it reads as neither success nor a suite failure.
"""

BROKEN_PIPE_EXIT = 141


class IxmError(Exception):
    """Base class for all workbench errors."""


class ParameterError(IxmError):
    """An argument violates a documented precondition."""


class ParseError(IxmError):
    """A textual representation could not be decoded."""


class InjectivityError(IxmError):
    """A requested chart would not be a partial bijection."""


class ResourceGuardError(IxmError):
    """A size or wall-clock guard refused to run the computation."""


class InternalError(IxmError):
    """A result failed the workbench's own postcondition: a fault in ixm,
    not in its input.  It deliberately is not a ParameterError."""


class UnsupportedWitnessError(IxmError):
    """No separating-witness recipe is registered for a class pair.  The
    message is a callable, so a refusal that is caught and dropped never
    renders its classes."""

    def __str__(self):
        return self.args[0]()
