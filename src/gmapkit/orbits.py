"""Orbit types, generalized orbit types, and relabeling functions.

An orbit type is an ordered set of dimensions; it parameterizes graph
traversal (which link labels to follow).  A generalized orbit type may
additionally contain the removing symbol ``REMOVE`` (printed ``_``),
which marks link labels for deletion when the type is used as the
target of a relabeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .errors import RelabelingError


class _Remove:
    __slots__ = ()

    def __repr__(self) -> str:
        return "_"


#: The removing symbol: a relabeling target meaning "delete these links".
REMOVE = _Remove()

Entry = Union[int, _Remove]


@dataclass(frozen=True)
class OrbitType:
    """Strictly increasing tuple of dimensions, e.g. ``<0,2>``."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        for d in dims:
            if not isinstance(d, int) or d < 0:
                raise RelabelingError(f"orbit type dimension must be a natural, got {d!r}")
        if any(a >= b for a, b in zip(dims, dims[1:])):
            raise RelabelingError(f"orbit type must be strictly increasing, got {dims}")

    def __iter__(self) -> Iterator[int]:
        return iter(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __contains__(self, dim: int) -> bool:
        return dim in self.dims

    def __repr__(self) -> str:
        return "<" + ",".join(str(d) for d in self.dims) + ">"


@dataclass(frozen=True)
class GeneralizedOrbitType:
    """Sequence over dimensions and ``REMOVE``; dimensions pairwise distinct."""

    entries: tuple[Entry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        dims = [e for e in entries if not isinstance(e, _Remove)]
        for d in dims:
            if not isinstance(d, int) or d < 0:
                raise RelabelingError(f"bad generalized orbit entry {d!r}")
        if len(set(dims)) != len(dims):
            raise RelabelingError(f"duplicate dimension in generalized orbit type {entries}")

    @property
    def has_remove(self) -> bool:
        return any(isinstance(e, _Remove) for e in self.entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return "<" + ",".join(repr(e) if isinstance(e, _Remove) else str(e) for e in self.entries) + ">"


@dataclass(frozen=True)
class RelabelingFunction:
    """Positional dimension map reconstructed from source and target types.

    ``source`` is a plain orbit type and ``target`` a generalized orbit
    type of the same length: position ``i`` maps ``source[i]`` to
    ``target[i]``.  Targets are injective on dimensions; ``REMOVE``
    marks labels for deletion.
    """

    source: OrbitType
    target: GeneralizedOrbitType

    def __post_init__(self):
        if len(self.source) != len(self.target):
            raise RelabelingError(
                f"length mismatch: {self.source} has {len(self.source)} entries, "
                f"{self.target} has {len(self.target)}"
            )

    @property
    def mapping(self) -> dict[int, Entry]:
        return dict(zip(self.source, self.target))

    def __repr__(self) -> str:
        return f"{self.source!r}->{self.target!r}"
