"""Exception types shared across the solver."""


class TfcSolveError(Exception):
    """Base class for all solver errors."""


class DomainError(TfcSolveError):
    """Basis evaluation requested outside [-1, 1] (beyond roundoff tolerance)."""


class SingularConstraintSet(TfcSolveError):
    """Constraint rows of rank below their number, or a repeated constraint."""


class NodeSingularity(TfcSolveError):
    """A coefficient function evaluated non-finite at a collocation node."""

    def __init__(self, name, node_index, t):
        self.name = name
        self.node_index = node_index
        self.t = t
        super().__init__(f"{name} is non-finite at node {node_index} (t={t!r})")


class DivisorZero(TfcSolveError):
    """The coefficient that must be inverted for an implied value vanishes."""

    def __init__(self, coefficient_name):
        self.coefficient_name = coefficient_name
        super().__init__(f"cannot solve for implied value: {coefficient_name} = 0 at t1")


class NoSignChange(TfcSolveError):
    """Shooting bracket does not straddle the target boundary value."""


class ProblemFileError(TfcSolveError):
    """A problem file, or a catalog entry's, that does not describe a problem."""


class ParseError(TfcSolveError):
    """Expression syntax error, with byte offset and the expected token set."""

    def __init__(self, offset, expected, found=None):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        what = found if found is not None else "end of input"
        super().__init__(
            f"parse error at offset {offset}: found {what}, expected one of "
            + ", ".join(self.expected)
        )
