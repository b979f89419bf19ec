"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input in the word/law language."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SpecError(ValueError):
    """Malformed group/ring/law specification string."""


class UnboundVariableError(ValueError):
    """A term was evaluated with a variable missing from the assignment."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class BudgetExceededError(RuntimeError):
    """An exhaustive scan would exceed the evaluation budget."""
