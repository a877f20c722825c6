"""Switch-matrix allocation over a sized generator array.

The matrix's columns are the logic inputs, numbered 0 .. N'-1: column j
requests probability level levels[j], and a conflict set holds the column
indices that must come from independent generators.  The switch controller
walks the conflict sets in order, each set's columns in ascending order, and
hands every column the first free generator row of its level, re-using rows
across non-conflicting columns.  Row choices avoid all conflict-graph
neighbors of a column, so a produced matrix is legal by construction; a
conflict set that needs more rows of one level than the array provides
raises CapacityExceeded.

A standalone verifier re-checks the three legality conditions (one row per
column, no conflicting pair on a shared row, level match) from the matrix
alone, independent of how it was built.  The K_energy / K_cmos scale
metrics of an allocation are cost.cost_metrics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Collection, Sequence

import numpy as np

from .logic import first_fit
from .sbg import SbgArraySpec, SbgMode


class CapacityExceeded(RuntimeError):
    """A conflict set demands more rows of one level than the array holds."""

    def __init__(self, level: float, message: str) -> None:
        super().__init__(message)
        self.level = level


class UnknownLevel(KeyError):
    """A requested level is not one of the array's probability levels."""


@dataclass(frozen=True)
class SwitchMatrix:
    """M x N' binary control matrix: rows are generators, columns logic inputs.

    Row i corresponds to the i-th unit of the array built from the same
    SbgArraySpec (level-major order, the order build_array emits).
    """

    control: np.ndarray          # uint8, shape (M, N')
    row_levels: tuple[float, ...]

    @property
    def num_rows(self) -> int:
        return int(self.control.shape[0])


def size_array(levels: Sequence[float], mode: SbgMode) -> SbgArraySpec:
    """The array for clustered columns, column j of level levels[j]: one row per cluster, levels
    ascending.  This is exact: a cluster opens only for a terminal that conflicts with a member
    of every earlier cluster of its level, so they conflict pairwise and each takes its own row."""
    per_level = sorted(Counter(levels).items())
    if not per_level:
        raise ValueError("at least one level is required")
    return SbgArraySpec(*map(tuple, zip(*per_level)), mode)


def allocate(levels: Sequence[float], spec: SbgArraySpec,
             conflict_sets: list[Collection[int]]) -> SwitchMatrix:
    """Produce the control matrix for one (already quantized) request:
    column j takes a row of level levels[j].

    Each column takes its first-fit slot within its level, conflict sets
    walked in input order and each set's columns in ascending order, so
    identical inputs always yield identical matrices.  A level's rows are
    contiguous (level-major), so slot s of a level is the row s past its
    first.  The first column, in placement order, whose slot exceeds its
    level's rows raises CapacityExceeded.
    """
    columns = len(levels)
    outside = set().union(*conflict_sets).difference(range(columns))
    if outside:
        raise ValueError(f"conflict sets name columns outside [0, {columns}): {sorted(outside)}")
    first = dict(zip(spec.levels, accumulate((0,) + spec.multiplicity)))
    rows = dict(zip(spec.levels, spec.multiplicity))
    for j, lvl in enumerate(levels):
        if lvl not in rows:
            raise UnknownLevel(f"column {j} requests {lvl}, not an array level")

    walk = chain(chain.from_iterable(map(sorted, conflict_sets)), range(columns))
    slots = first_fit(walk, conflict_sets, levels)
    for j, slot in slots.items():
        lvl = levels[j]
        if slot >= rows[lvl]:
            raise CapacityExceeded(
                lvl, f"conflict sets demand more than {rows[lvl]} rows of level {lvl}")
    control = np.zeros((spec.total_units, columns), dtype=np.uint8)
    for j, lvl in enumerate(levels):
        control[first[lvl] + slots[j], j] = 1
    control.flags.writeable = False
    return SwitchMatrix(control=control, row_levels=tuple(spec.row_levels()))


def verify_allocation(matrix: SwitchMatrix, conflict_sets: list[Collection[int]],
                      levels: Sequence[float]) -> list[str]:
    """Standalone legality check; returns human-readable violations.

    Checks, from the matrix alone: every column selects exactly one row; no
    two columns of one conflict set share a row; every column's row
    generates its requested level levels[j].
    """
    problems = [f"column {j} selects {s} rows"
                for j, s in enumerate(matrix.control.sum(axis=0).tolist()) if s != 1]
    if problems:
        return problems

    row_of = np.argmax(matrix.control, axis=0).tolist()
    for group in conflict_sets:
        seen: dict[int, int] = {}
        for j in sorted(group):
            row = row_of[j]
            if row in seen:
                problems.append(f"conflicting columns {seen[row]} and {j} share row {row}")
            else:
                seen[row] = j
    for j, (lvl, row) in enumerate(zip(levels, row_of, strict=True)):
        if matrix.row_levels[row] != lvl:
            problems.append(
                f"column {j} requests {lvl} but row {row} generates {matrix.row_levels[row]}")
    return problems
