"""Domain names as immutable label tuples (A-label form).

All comparisons are case-insensitive by construction: labels are normalised
to lower-case A-labels on creation.  The paper's TLD analyses (``.ru``,
``.рф``/``xn--p1ai``, the name-server TLD dependency study) all reduce to
operations on these label tuples.
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Tuple

from ..errors import InvalidDomainName, PunycodeError
from .idna import decode_label, encode_label

__all__ = ["DomainName", "ROOT", "check_length", "checked_alabel"]

_ALLOWED = set("abcdefghijklmnopqrstuvwxyz0123456789-_")
#: Only labels the checks in :func:`_validate_alabel` accept: 1-63 allowed
#: characters, no leading or trailing hyphen.  A match skips the checks.
_VALID_ALABEL = re.compile(r"[a-z0-9_](?:[a-z0-9_-]{0,61}[a-z0-9_])?")


def _validate_alabel(label: str) -> str:
    """Validate one already-encoded A-label."""
    if _VALID_ALABEL.fullmatch(label):
        return label
    if not label:
        raise InvalidDomainName("empty label")
    if len(label) > 63:
        raise InvalidDomainName(f"label longer than 63 octets: {label!r}")
    if not set(label) <= _ALLOWED:
        raise InvalidDomainName(f"illegal character in label: {label!r}")
    if label.startswith("-") or label.endswith("-"):
        raise InvalidDomainName(f"label may not start or end with '-': {label!r}")
    return label


def checked_alabel(label: str) -> str:
    """``label`` as a validated A-label, checked as :class:`DomainName` checks it.

    IDNA-encodes (a :class:`PunycodeError` becomes
    :class:`InvalidDomainName`), then applies the A-label rules.
    """
    try:
        return _validate_alabel(encode_label(label))
    except PunycodeError as exc:
        raise InvalidDomainName(str(exc)) from exc


def check_length(labels: Tuple[str, ...]) -> None:
    """Refuse encoded ``labels`` longer than 253 octets as a dotted name."""
    if sum(len(lbl) + 1 for lbl in labels) > 254:  # 253 visible + trailing dot
        raise InvalidDomainName(f"name longer than 253 octets: {labels!r}")


class DomainName:
    """A fully-qualified domain name, stored as lower-case A-labels.

    ``DomainName.parse("Пример.рф")`` and
    ``DomainName.parse("xn--e1afmkfd.xn--p1ai")`` compare equal.
    """

    __slots__ = ("_labels",)

    def __init__(self, labels: Iterable[str]) -> None:
        encoded = tuple(map(checked_alabel, labels))
        check_length(encoded)
        object.__setattr__(self, "_labels", encoded)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DomainName is immutable")

    @classmethod
    def parse(cls, text: str) -> "DomainName":
        """Parse dotted text (Unicode or A-label, trailing dot optional)."""
        if text in (".", ""):
            return ROOT
        body = text[:-1] if text.endswith(".") else text
        return cls(body.split("."))

    @property
    def labels(self) -> Tuple[str, ...]:
        """Labels from leftmost (host) to rightmost (TLD)."""
        return self._labels

    @property
    def is_root(self) -> bool:
        """True for the DNS root name."""
        return not self._labels

    @property
    def tld(self) -> Optional[str]:
        """The rightmost label (A-label form), or None for the root."""
        return self._labels[-1] if self._labels else None

    @property
    def parent(self) -> "DomainName":
        """The name with its leftmost label removed."""
        if not self._labels:
            raise InvalidDomainName("the root has no parent")
        return DomainName(self._labels[1:])

    def child(self, label: str) -> "DomainName":
        """Prepend ``label``."""
        return DomainName((label,) + self._labels)

    def is_subdomain_of(self, other: "DomainName") -> bool:
        """True when ``self`` equals or ends with ``other``."""
        if len(other._labels) > len(self._labels):
            return False
        if not other._labels:
            return True
        return self._labels[-len(other._labels) :] == other._labels

    def relativize(self, origin: "DomainName") -> Tuple[str, ...]:
        """Labels of ``self`` below ``origin``; errors if not a subdomain."""
        if not self.is_subdomain_of(origin):
            raise InvalidDomainName(f"{self} is not under {origin}")
        count = len(self._labels) - len(origin._labels)
        return self._labels[:count]

    def ancestors(self) -> Iterable["DomainName"]:
        """Yield self, parent, ..., down to (and including) the root."""
        labels = self._labels
        for start in range(len(labels) + 1):
            yield DomainName(labels[start:])

    def to_unicode(self) -> str:
        """Dotted U-label form (no trailing dot; '.' for the root)."""
        if not self._labels:
            return "."
        return ".".join(decode_label(lbl) for lbl in self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DomainName):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __lt__(self, other: "DomainName") -> bool:
        # Canonical DNS ordering: compare reversed label sequences.
        return tuple(reversed(self._labels)) < tuple(reversed(other._labels))

    def __len__(self) -> int:
        return len(self._labels)

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"

    def __str__(self) -> str:
        """Dotted A-label form without trailing dot ('.' for the root)."""
        return ".".join(self._labels) if self._labels else "."


#: The DNS root name.
ROOT = DomainName(())
