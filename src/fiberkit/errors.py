"""Exception classes shared across the toolkit.

The command line maps these onto exit codes: parse errors give 1,
hypothesis violations give 2, inference contradictions give 3.
"""


class FiberkitError(ValueError):
    """Base class for all toolkit errors."""


class ParseError(FiberkitError):
    """Malformed input file or word expression."""


class HypothesisError(FiberkitError):
    """A computation was invoked outside the hypotheses that make it valid.

    Examples: asking for a torsion number when both exponent sums vanish,
    requesting a coset graph when an index is infinite, or a cable with
    non-coprime framing.
    """


class HintError(HypothesisError):
    """A user-supplied Nielsen hint is not an automorphism of the free
    group on the relator's generators."""


class ContradictionError(FiberkitError):
    """The inference engine derived a flag value clashing with a known one."""

    def __init__(self, message: str, rule: str = ""):
        super().__init__(message)
        self.rule = rule
