"""Exception types shared across the toolkit."""


class CapacityError(Exception):
    """A configured size/cap limit would be exceeded."""


class SieveRangeError(ValueError):
    """An argument falls outside the range covered by the sieve."""


class GcdMismatchError(Exception):
    """A gcd precondition of a Bezout identity failed on realized data.

    This is a reportable finding, not a usage error: it would mean one of
    the audited divisibility facts is false for the offending input.
    """

    def __init__(self, message: str, a: int, detail: dict):
        super().__init__(message, a, detail)   # every argument, so the error pickles
        self.a = a
        self.detail = detail

    def __str__(self) -> str:
        return self.args[0]


class NoDecompositionError(Exception):
    """No decomposition of the requested form exists (reportable finding)."""

    def __init__(self, message: str, n: int):
        super().__init__(message, n)
        self.n = n

    def __str__(self) -> str:
        return self.args[0]


class ClaimCheckError(RuntimeError):
    """A claim's check raised an exception while checking one a.

    Carries the claim code, the a and the original error as text, so the
    context survives the trip back from a pool worker.
    """

    def __init__(self, claim: str, a: int, cause: str):
        super().__init__(claim, a, cause)
        self.claim = claim
        self.a = a
        self.cause = cause

    def __str__(self) -> str:
        return f"claim {self.claim} raised at a = {self.a}: {self.cause}"
