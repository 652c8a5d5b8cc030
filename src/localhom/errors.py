"""Exception types shared across the package.

Reductions run on ints and Fractions (`linalg`), so no arithmetic error
type exists: a computation fails only on a broken contract.
"""


class ConfigError(ValueError):
    """Invalid run configuration or unparseable input file."""


class ContractError(ValueError):
    """A documented precondition or invariant of an operation was violated."""


class BudgetExceededError(ContractError):
    """Clique enumeration would exceed the configured simplex budget."""


class UnknownSimplexError(ContractError, KeyError):
    """A simplex lookup failed (not present in the filtration)."""
