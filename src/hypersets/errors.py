"""Exception types shared across the package."""


class HypersetError(Exception):
    """Base class for all errors raised by this package."""


class NotWellFounded(HypersetError):
    """Raised when an operation requires an acyclic membership graph."""


class SizeLimitExceeded(HypersetError):
    """Raised when an input exceeds a configured size cap."""


class NotExtensional(HypersetError):
    """Two distinct nodes of an input graph have identical child sets."""


class NotEndExtension(HypersetError):
    """An extension graph adds or removes members of an old set."""


class NotInjective(HypersetError):
    """An atom map is not injective."""


class HslSyntaxError(HypersetError):
    """Parse error in an .hs-set program, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class DuplicateDefinition(HypersetError):
    """A name is defined or declared more than once."""


class UndefinedName(HypersetError):
    """A referenced name has no definition or atom declaration."""


class AtomOutsideBoffa(HypersetError):
    """`atom` declarations are only meaningful under Boffa semantics."""


class GroupTooLarge(SizeLimitExceeded):
    """Group order exceeds `group --group-cap`."""


class OrderTooLarge(SizeLimitExceeded):
    """Group order exceeds the isomorphism-search cap."""
