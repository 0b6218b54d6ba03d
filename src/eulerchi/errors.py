"""Exception hierarchy shared by all modules.

The CLI maps these onto its exit-code contract: validation failures exit 1,
unsupported (model, group) combinations exit 2, and cross-check
disagreements between independently computed quantities exit 3.
"""


class EulerchiError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(EulerchiError):
    """Malformed input: bad cell space, group table, presentation, or JSON."""


class UnsupportedCombination(EulerchiError):
    """A catalog entry has no value for the requested presentation class.

    This is a refusal, never a guess: the catalog only answers where an
    exact value is known.  ``model`` and ``presentation`` describe the
    offending pair; ``cell_id`` is filled in when the error surfaces while
    integrating over a labeled cell space.
    """

    def __init__(self, model, presentation, cell_id: str | None = None):
        self.model = model
        self.presentation = presentation
        self.cell_id = cell_id
        at = f" at {cell_id!r}" if cell_id is not None else ""
        super().__init__(
            f"no exact value for isotropy model {model!r} with group {presentation!r}{at}"
        )

    def with_cell(self, cell_id: str) -> "UnsupportedCombination":
        return UnsupportedCombination(self.model, self.presentation, cell_id)


class RecursionCapExceeded(UnsupportedCombination):
    """Requested order exceeds the configured recursion cap; the offending
    pair is the order-ell recursion and Z^ell."""

    def __init__(self, ell: int, cap: int, cell_id: str | None = None):
        self.ell = ell
        self.cap = cap
        self.model = "order-ell recursion"
        self.presentation = f"free_abelian({ell})"
        self.cell_id = cell_id
        at = f" at {cell_id!r}" if cell_id is not None else ""
        EulerchiError.__init__(self, f"order {ell} exceeds the recursion cap {cap}{at}")

    def with_cell(self, cell_id: str) -> "RecursionCapExceeded":
        return RecursionCapExceeded(self.ell, self.cap, cell_id)


class ResourceLimitExceeded(UnsupportedCombination):
    """A computation ran past a resource limit, such as the depth of the
    interpreter's stack; ``stage`` names the computation and ``reason``
    the limit it met."""

    def __init__(self, stage: str, reason: str, cell_id: str | None = None):
        self.stage = stage
        self.reason = reason
        self.model = stage
        self.presentation = None
        self.cell_id = cell_id
        at = f" at {cell_id!r}" if cell_id is not None else ""
        EulerchiError.__init__(self, f"{stage}: {reason}{at}")

    def with_cell(self, cell_id: str) -> "ResourceLimitExceeded":
        return ResourceLimitExceeded(self.stage, self.reason, cell_id)


class CrossCheckError(EulerchiError):
    """Two routes that must agree exactly produced different integers.

    Raised only by internal consistency assertions; seeing it means the
    implementation is wrong, not the input.
    """
