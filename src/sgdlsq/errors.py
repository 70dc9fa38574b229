"""Exception types raised across the package."""


class DimensionMismatch(ValueError):
    """Two containers that must agree in length do not.

    Carries both lengths so callers can report them without parsing the
    message.
    """

    def __init__(self, what, expected, got):
        self.expected = int(expected)
        self.got = int(got)
        super().__init__(f"{what}: expected length {expected}, got {got}")


class KernelDomainError(ValueError):
    """Kernel input outside the kernel's domain of definition."""


class DivergenceError(RuntimeError):
    """An iterate left the admissible range: non-finite, or above 1e12
    (kernel coefficients times the Gram's largest diagonal)."""

    def __init__(self, iteration, detail=""):
        self.iteration = int(iteration)
        msg = f"iterate diverged at iteration {iteration}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DataFormatError(ValueError):
    """Malformed tabular input. ``line_no`` is 1-based; ``path`` names
    the file read, if any."""

    def __init__(self, message, line_no, path=None):
        self.line_no = int(line_no)
        self.path = path
        where = f"line {line_no}" if path is None else f"{path}, line {line_no}"
        super().__init__(f"{where}: {message}")


class EmptyDataError(DataFormatError):
    pass


class RaggedRowError(DataFormatError):
    pass


class NonNumericError(DataFormatError):
    pass
