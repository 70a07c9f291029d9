"""Shared pieces of the immutable records.

Every public record is a ``typing.NamedTuple``: fields are read-only, and
``==`` and ``hash`` go by the field values.  A record that checks its fields
keeps them in a NamedTuple base and mixes in :class:`Checked`, which runs the
record's ``__post_init__`` whenever one is made.
"""


class Checked:
    """Mixin placed before a NamedTuple field base: the constructor,
    ``_make`` and ``_replace`` all run ``__post_init__`` on the new record."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def unsupported(self, other):
    """Stands in for tuple concatenation and repetition on records where
    those would read as arithmetic, so the operator raises TypeError."""
    return NotImplemented
