"""Concrete QoS values and vectors.

A :class:`QoSValue` is one measured/advertised quantity for one property;
a :class:`QoSVector` bundles the values a service advertises (or a monitor
observed) over a property set.  Vectors support unit-normalised access,
Pareto-dominance tests (used by QASSA's local selection pruning) and the
N-dimensional Euclidean distance ``D`` used by the clustering phase.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import QoSModelError, UnitError
from repro.qos.properties import Direction, QoSProperty
from repro.qos.units import Unit, convert


@dataclass(frozen=True)
class QoSValue:
    """A raw quantity for one QoS property, in an explicit unit."""

    property: QoSProperty
    value: float
    unit: Optional[Unit] = None

    def __post_init__(self) -> None:
        if self.unit is None:
            object.__setattr__(self, "unit", self.property.unit)

    def in_canonical_unit(self) -> float:
        """The value converted to the property's declared unit."""
        assert self.unit is not None
        return convert(self.value, self.unit, self.property.unit)

    def better_than(self, other: "QoSValue") -> bool:
        """Strict preference under the property's direction (unit-aware)."""
        if other.property != self.property:
            raise QoSModelError(
                f"cannot compare {self.property.name} with {other.property.name}"
            )
        return self.property.better(
            self.in_canonical_unit(), other.in_canonical_unit()
        )


class QoSVector:
    """An immutable mapping ``property name -> value`` in canonical units.

    This is the ``QoS_s`` vector of the paper's composition model (§IV.2.1):
    the QoS advertised by one service, or aggregated over one composition.
    """

    __slots__ = ("_values", "_properties")

    def __init__(
        self,
        values: Mapping[str, float],
        properties: Mapping[str, QoSProperty],
    ) -> None:
        unknown = set(values) - set(properties)
        if unknown:
            raise QoSModelError(f"values for undeclared properties: {sorted(unknown)}")
        self._values: Dict[str, float] = dict(values)
        self._properties: Dict[str, QoSProperty] = {
            name: properties[name] for name in values
        }

    @classmethod
    def from_values(cls, values: Iterable[QoSValue]) -> "QoSVector":
        """Build a vector from raw :class:`QoSValue` items, converting units."""
        mapping: Dict[str, float] = {}
        props: Dict[str, QoSProperty] = {}
        for v in values:
            if v.property.name in mapping:
                raise QoSModelError(f"duplicate value for {v.property.name!r}")
            mapping[v.property.name] = v.in_canonical_unit()
            props[v.property.name] = v.property
        return cls(mapping, props)

    # -- mapping protocol ----------------------------------------------------
    def __getitem__(self, name: str) -> float:
        return self._values[name]

    def get(self, name: str, default: Optional[float] = None) -> Optional[float]:
        return self._values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[Tuple[str, float]]:
        return iter(self._values.items())

    def property(self, name: str) -> QoSProperty:
        return self._properties[name]

    def properties(self) -> Dict[str, QoSProperty]:
        return dict(self._properties)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QoSVector):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._values.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._values.items()))
        return f"QoSVector({inner})"

    # -- algebra ---------------------------------------------------------------
    def restrict(self, names: Iterable[str]) -> "QoSVector":
        """Project onto a subset of properties (missing names are ignored)."""
        keep = [n for n in names if n in self._values]
        return QoSVector(
            {n: self._values[n] for n in keep},
            {n: self._properties[n] for n in keep},
        )

    def replace(self, name: str, value: float) -> "QoSVector":
        """A copy with one property's value changed."""
        if name not in self._values:
            raise QoSModelError(f"property {name!r} not in vector")
        values = dict(self._values)
        values[name] = value
        return QoSVector(values, self._properties)

    def dominates(self, other: "QoSVector") -> bool:
        """Pareto dominance over the *common* property set.

        ``self`` dominates ``other`` when it is at least as good on every
        shared property and strictly better on at least one.  Used to prune
        dominated candidates before clustering in QASSA's local phase.
        """
        shared = [n for n in self._values if n in other]
        if not shared:
            return False
        strictly_better = False
        for name in shared:
            prop = self._properties[name]
            a, b = self._values[name], other[name]
            if prop.better(b, a):
                return False
            if prop.better(a, b):
                strictly_better = True
        return strictly_better

    def distance(self, other: "QoSVector", scales: Mapping[str, float]) -> float:
        """The N-dimensional Euclidean distance ``D`` of §IV.3.2.

        ``scales`` maps property names to the (max - min) span observed in
        the candidate population, so each dimension contributes comparably
        regardless of unit magnitude.
        """
        total = 0.0
        for name, value in self._values.items():
            if name not in other:
                continue
            span = scales.get(name, 1.0) or 1.0
            delta = (value - other[name]) / span
            total += delta * delta
        return math.sqrt(total)


def non_dominated_indexes(vectors: Sequence[QoSVector]) -> List[int]:
    """Indexes, in input order, of the vectors no other vector dominates.

    Returns exactly what comparing every pair with
    :meth:`QoSVector.dominates` returns.  When that would keep nothing
    (possible only where dominance is cyclic), every index is kept.

    A sort-filter skyline: each vector becomes a tuple of direction-signed
    values (lower is better everywhere), the tuples are sorted
    lexicographically, so a dominator always precedes what it dominates,
    and each row is compared only against the front kept so far.  Cost
    O(n log n + n·h), where h is the front size.

    It falls back to the O(n²) pairwise comparison when the skyline's
    premises fail: when the vectors do not all share one property set
    with one direction per property (dominance over *shared* properties
    is not transitive), or when a value is not finite (NaN has no place
    in the sort order).
    """
    rows = _signed_rows(vectors)
    if rows is None:
        keep = [
            i for i, v in enumerate(vectors)
            if not any(j != i and w.dominates(v) for j, w in enumerate(vectors))
        ]
        return keep or list(range(len(vectors)))
    # A dominator's signed tuple is no larger anywhere and smaller somewhere,
    # so it is lexicographically smaller and sorts strictly first.
    order = sorted(range(len(rows)), key=rows.__getitem__)
    front: List[Tuple[float, ...]] = []
    keep = []
    for i in order:
        row = rows[i]
        for kept in front:
            if kept != row and all(map(operator.le, kept, row)):
                break
        else:
            front.append(row)
            keep.append(i)
    keep.sort()
    return keep


def _signed_rows(
    vectors: Sequence[QoSVector],
) -> Optional[List[Tuple[float, ...]]]:
    """Each vector as a lower-is-better tuple, or None where the skyline
    does not apply (property sets or directions differ, or a value is not
    finite)."""
    if not vectors:
        return []
    first = vectors[0]
    names = list(first._values)
    directions = [first._properties[n].direction for n in names]
    signs = [1.0 if d is Direction.NEGATIVE else -1.0 for d in directions]
    rows = []
    for v in vectors:
        if v._values.keys() != first._values.keys() or any(
            v._properties[n].direction is not d
            for n, d in zip(names, directions)
        ):
            return None
        row = tuple([s * v._values[n] for n, s in zip(names, signs)])
        if not all(map(math.isfinite, row)):
            return None
        rows.append(row)
    return rows
