"""Measurements and probe data dictionaries.

§5.2.4: "The actual measurements that get sent from a probe will contain the
attribute-value fields together with a type and a timestamp, plus some
identification fields ... the consumer of the data must be able to
differentiate the arriving data into the relevant streams" — identification
relies on the qualified names of §4.2.1 (e.g.
``uk.ucl.condor.schedd.queuesize``) plus a service identifier.

§5.2.3: "The Data Dictionary defines the attributes as the names, the types
and the units of the measurements that the probe will be sending out", and
measurements carry *values only* — the meta-data lives in the information
model (§5.2.7), so the wire encoding stays small.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Any, Sequence

__all__ = [
    "AttributeType",
    "ProbeAttribute",
    "DataDictionary",
    "Measurement",
    "QualifiedName",
    "validate_qualified_name",
]

#: Qualified names are dotted identifiers: letters/digits/underscore/hyphen
#: segments separated by dots, at least two segments.
_QNAME_RE = re.compile(r"^[A-Za-z0-9_\-]+(\.[A-Za-z0-9_\-]+)+$")

QualifiedName = str

#: names that have passed :data:`_QNAME_RE` — the KPI names probes and
#: manifests declare, a handful per federation
_VALID_NAMES: set[str] = set()


def validate_qualified_name(name: str) -> str:
    """Validate and return a KPI qualified name.

    Raises ``ValueError`` for malformed names — catching these at manifest
    parse time, not when the first measurement arrives.
    """
    if not isinstance(name, str) or not _QNAME_RE.match(name):
        raise ValueError(f"malformed qualified name {name!r}")
    if type(name) is str:
        _VALID_NAMES.add(name)
    return name


class AttributeType(enum.Enum):
    """Wire types for probe values, mirroring the XDR subset used (§5.2.6)."""

    INTEGER = "integer"      # XDR 32-bit signed
    LONG = "long"            # XDR 64-bit signed (hyper)
    FLOAT = "float"          # XDR single-precision
    DOUBLE = "double"        # XDR double-precision
    BOOLEAN = "boolean"      # XDR bool (int 0/1)
    STRING = "string"        # XDR variable-length opaque/ascii

    @classmethod
    def for_python_value(cls, value: Any) -> "AttributeType":
        """The natural wire type for a Python value."""
        # bool is a subclass of int — test it first.
        if isinstance(value, bool):
            return cls.BOOLEAN
        if isinstance(value, int):
            return cls.LONG if abs(value) > 2**31 - 1 else cls.INTEGER
        if isinstance(value, float):
            return cls.DOUBLE
        if isinstance(value, str):
            return cls.STRING
        raise TypeError(f"unsupported probe value type {type(value).__name__}")

    def accepts(self, value: Any) -> bool:
        """Whether a Python value can be carried as this wire type."""
        if self is AttributeType.BOOLEAN:
            return isinstance(value, bool)
        if self in (AttributeType.INTEGER, AttributeType.LONG):
            return isinstance(value, int) and not isinstance(value, bool)
        if self in (AttributeType.FLOAT, AttributeType.DOUBLE):
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is AttributeType.STRING:
            return isinstance(value, str)
        return False


#: wire type -> the exact Python types it accepts (see
#: ``AttributeType.accepts``, which also admits subclasses)
_EXACT_TYPES = {
    AttributeType.INTEGER: frozenset((int,)),
    AttributeType.LONG: frozenset((int,)),
    AttributeType.FLOAT: frozenset((int, float)),
    AttributeType.DOUBLE: frozenset((int, float)),
    AttributeType.BOOLEAN: frozenset((bool,)),
    AttributeType.STRING: frozenset((str,)),
}


@dataclass(frozen=True)
class ProbeAttribute:
    """One field a probe reports: name, wire type and units (§5.2.6)."""

    name: str
    type: AttributeType
    units: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")


@dataclass(frozen=True)
class DataDictionary:
    """The ordered attribute schema of a probe.

    "The consumers of the data can collect this information in order to
    determine what will be received" (§5.2.3). Field order matters: the wire
    format sends positional values that are re-associated via this schema.
    """

    attributes: tuple[ProbeAttribute, ...]

    def __post_init__(self) -> None:
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in {names}")
        # Per attribute, the exact value types that ``accepts`` admits
        # without a subclass walk: the common case of every probe tick.
        object.__setattr__(self, "_exact_types", tuple(
            _EXACT_TYPES.get(a.type, frozenset()) for a in self.attributes))

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def index_of(self, name: str) -> int:
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                return i
        raise KeyError(f"no attribute {name!r} in data dictionary")

    def validate_values(self, values: Sequence[Any]) -> None:
        """Check a value tuple against the schema; raises on mismatch."""
        exact = self._exact_types
        if len(values) == len(exact):
            for types, value in zip(exact, values):
                if type(value) not in types:
                    break
            else:
                return
        if len(values) != len(self.attributes):
            raise ValueError(
                f"expected {len(self.attributes)} values, got {len(values)}"
            )
        for attr, value in zip(self.attributes, values):
            if not attr.type.accepts(value):
                raise TypeError(
                    f"attribute {attr.name!r}: {value!r} is not a valid "
                    f"{attr.type.value}"
                )


@dataclass(frozen=True, slots=True)
class Measurement:
    """One monitoring event: identification + timestamp + positional values.

    ``qualified_name`` identifies the KPI stream; ``service_id`` scopes it to
    one service instance ("KPIs published within a network are tagged with a
    particular service identifier", §4.2.1); ``probe_id`` says which probe
    produced it. ``values`` align positionally with the probe's data
    dictionary.
    """

    qualified_name: QualifiedName
    service_id: str
    probe_id: str
    timestamp: float
    values: tuple[Any, ...]
    #: sequence number within the probe, for loss/ordering diagnostics
    seqno: int = 0

    def __post_init__(self) -> None:
        # Each name runs the regex once; probes validated theirs already.
        name = self.qualified_name
        if type(name) is not str or name not in _VALID_NAMES:
            validate_qualified_name(name)
        if not self.service_id:
            raise ValueError("service_id must be non-empty")
        if not self.probe_id:
            raise ValueError("probe_id must be non-empty")

    @property
    def value(self) -> Any:
        """The first (often only) value — the common single-KPI case."""
        if not self.values:
            raise ValueError("measurement carries no values")
        return self.values[0]
