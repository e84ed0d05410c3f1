"""Compressor interface and registry."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ConfigError


class Compressor(ABC):
    """A lossless block codec.

    Implementations must satisfy ``decompress(compress(b), len(b)) == b``
    for every ``bytes`` input; the storage layout relies on exact
    round-trips and on ``len(compress(b))`` being stable for equal input.
    """

    #: Registry key; subclasses override.
    name: str = ""

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress *data* into a self-contained blob."""

    @abstractmethod
    def decompress(self, blob: bytes, original_size: int) -> bytes:
        """Restore the original bytes; *original_size* is ``len(data)``."""

    def set_leaf_columns(self, arity: int) -> None:
        """Leaf L-blocks hold *arity* attribute columns (format v3).

        Codecs that lay leaves out column by column override this; the
        rest compress every block whole.
        """

    def decompress_prefix(self, blob: bytes, original_size: int, size: int) -> bytes:
        """The first *size* bytes of the original (fewer if it is shorter).

        Codecs that can stop early override this; the default restores
        everything and cuts.
        """
        return self.decompress(blob, original_size)[:size]


_REGISTRY: dict[str, type] = {}


def register(cls: type) -> type:
    """Class decorator adding a codec to the registry under ``cls.name``."""
    if not getattr(cls, "name", ""):
        raise ConfigError(f"codec {cls!r} has no name")
    _REGISTRY[cls.name] = cls
    return cls


def get_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a registered codec by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def available_codecs() -> list[str]:
    """Names of all registered codecs."""
    return sorted(_REGISTRY)
