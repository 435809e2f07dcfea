"""The package's two exception types, sorted by cause.

``InputError`` is invalid input from outside the program; it is raised only
where the command line reaches the package (``HarmonicTriple`` and ``cli``),
and the CLI maps it to exit 2.  A library function called outside its
contract raises a plain ``ValueError``; ``InternalError`` marks a state that
a correct build can never reach.  A ``ValueError`` that escapes a command
means the toolkit called itself wrongly, so the CLI maps both to exit 3.
"""


class InputError(ValueError):
    """Invalid input from outside the program: a bad triple, fraction or
    output path."""


class InternalError(RuntimeError):
    """A toolkit invariant failed; indicates a bug, not bad input."""
