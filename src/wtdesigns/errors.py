"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid mathematical input: bad level count, malformed generators,
    out-of-range arguments, and similar caller mistakes."""


class CapExceededError(InputError):
    """A run-count or search-size guard would be exceeded.

    Raised instead of silently attempting a huge computation. The guards
    are designs.RUN_CAP, optimal.SEARCH_CAP and aberration.PAIR_WORK_CAP;
    the CLI --force flag lifts only the CLI's own shift-scan limit.
    """
