"""Exception types raised by the fosg package.

Model violations discovered by ``validate`` are returned as data, not raised;
the exceptions below cover contract breaches at call sites.
"""


class FosgError(Exception):
    """Base class for all fosg errors."""


class InvalidArgument(FosgError, ValueError):
    """An argument lies outside the values the function accepts."""


# --- game model ---

class StepAtTerminal(FosgError):
    """step() was called on a terminal world state."""


class IllegalAction(FosgError):
    """A joint action contains a component outside the legal action sets."""


class MissingChancePolicy(FosgError):
    """The chance actor is active at a state without a chance policy entry."""


# --- unrolling / representations ---

class NotSerial(FosgError):
    """An operation requiring a serial game received a simultaneous-move one."""


class DepthExceeded(FosgError):
    """A non-terminal state was reached at the configured depth bound, or a tree
    is deeper than the recursive CFR walk can descend."""


class ThickPublicSets(FosgError):
    """A public set contains a history together with a strict descendant."""


class ImperfectRecall(FosgError):
    """An information partition does not satisfy perfect recall."""


class NotOneTimeable(FosgError):
    """A classical game cannot be timed with unit-length transitions."""


class OutcomeDependentReward(FosgError):
    """A chance node pays different rewards on different outcomes.

    A tabular game pays one reward per (state, joint action), so such a node
    has no lifted form.
    """


# --- timeability ---

class InvalidTiming(FosgError):
    """A supplied timing violates the timing constraints."""


# --- solving ---

class MissingPolicy(FosgError):
    """A policy profile lacks a distribution at an acting information state."""


class NotZeroSum(FosgError):
    """A two-player zero-sum operation received a non-zero-sum game."""


# --- decomposition ---

class UnknownPublicState(FosgError):
    """The requested public state does not occur in the representation."""


class InconsistentPBS(FosgError):
    """A public belief state is inconsistent with the game it refers to."""


# --- linear programming ---

class Infeasible(FosgError):
    """The linear program has no feasible point."""


class Unbounded(FosgError):
    """The linear program is unbounded below."""


class PivotLimit(FosgError):
    """The simplex used up its pivot budget without reaching an optimal basis."""


class InvalidPlan(FosgError):
    """A vector violates the realization-plan constraints."""
