"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid run configuration or unparseable input file."""


class ContractError(ValueError):
    """A documented precondition or invariant of an operation was violated."""


class BudgetExceededError(ContractError):
    """Clique enumeration would exceed the configured simplex budget."""


class UnknownSimplexError(ContractError, KeyError):
    """A simplex lookup failed (not present in the filtration)."""


class IllConditionedError(ArithmeticError):
    """Float-carrier elimination produced entries larger than 1/eps.

    Nothing retries: the CLI exits 3, and the run can be repeated with
    `--field exact`.
    """
