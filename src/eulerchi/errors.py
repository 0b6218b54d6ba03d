"""Exception hierarchy shared by all modules, and the CLI's exit codes.

Each class carries the exit code the CLI returns for it and the prefix of
its one-line message on stderr: 1 for invalid input and for any other
error of this package, 2 for an unsupported (model, group) combination,
and 3 for a disagreement between routes that must agree.
"""


class EulerchiError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1
    prefix = ""


class ValidationError(EulerchiError):
    """Malformed input: bad cell space, group table, presentation, or JSON."""

    prefix = "invalid input: "


class UnsupportedCombination(EulerchiError):
    """A catalog entry has no value for the requested presentation class.

    This is a refusal, never a guess: the catalog only answers where an
    exact value is known.  ``model`` and ``presentation`` describe the
    offending pair; ``cell_id`` is filled in when the error surfaces while
    integrating over a labeled cell space.  A subclass lists its arguments
    before ``cell_id`` in ``_fields`` and words its message in ``_refusal``.
    """

    exit_code = 2
    prefix = "unsupported: "
    _fields = ("model", "presentation")
    _refusal = "no exact value for isotropy model {model!r} with group {presentation!r}"

    def __init__(self, model, presentation, cell_id: str | None = None):
        self.model = model
        self.presentation = presentation
        self.cell_id = cell_id
        at = f" at {cell_id!r}" if cell_id is not None else ""
        super().__init__(self._refusal.format_map(vars(self)) + at)

    def with_cell(self, cell_id: str) -> "UnsupportedCombination":
        """The same refusal, located at ``cell_id``."""
        return type(self)(*(getattr(self, name) for name in self._fields), cell_id)


class RecursionCapExceeded(UnsupportedCombination):
    """Requested order exceeds the configured recursion cap; the offending
    pair is the order-ell recursion and Z^ell."""

    _fields = ("ell", "cap")
    _refusal = "order {ell} exceeds the recursion cap {cap}"

    def __init__(self, ell: int, cap: int, cell_id: str | None = None):
        self.ell = ell
        self.cap = cap
        super().__init__("order-ell recursion", f"free_abelian({ell})", cell_id)


class ResourceLimitExceeded(UnsupportedCombination):
    """A computation ran past a resource limit, such as the depth of the
    interpreter's stack; ``stage`` names the computation and ``reason``
    the limit it met."""

    _fields = ("stage", "reason")
    _refusal = "{stage}: {reason}"

    def __init__(self, stage: str, reason: str, cell_id: str | None = None):
        self.stage = stage
        self.reason = reason
        super().__init__(stage, None, cell_id)


class CrossCheckError(EulerchiError):
    """Two routes that must agree exactly produced different integers.

    Raised only by internal consistency assertions; seeing it means the
    implementation is wrong, not the input.
    """

    exit_code = 3
    prefix = "cross-check failure: "
