"""Exception types shared across the package."""


class DomainError(ValueError):
    """A mathematically ill-posed request: parameters or arguments outside
    the region where the requested object exists.  The message names the
    violated condition; no operation returns NaN or garbage instead."""
