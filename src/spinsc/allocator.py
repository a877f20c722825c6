"""Switch-matrix allocation over a sized generator array.

The switch controller walks the conflict sets in order and hands every
terminal the first free generator row of its probability level, re-using
rows across non-conflicting terminals.  Row choices avoid all conflict-graph
neighbors of a terminal, so a produced matrix is legal by construction; a
conflict set that needs more rows of one level than the array provides
raises CapacityExceeded.

A standalone verifier re-checks the three legality conditions (one row per
column, no conflicting pair on a shared row, level match) from the matrix
alone, independent of how it was built.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable

import numpy as np

from .logic import first_fit
from .sbg import SbgArraySpec


class CapacityExceeded(RuntimeError):
    """A conflict set demands more rows of one level than the array holds."""

    def __init__(self, level: float, message: str) -> None:
        super().__init__(message)
        self.level = level


class UnknownLevel(KeyError):
    """An assignment value is not one of the array's probability levels."""


@dataclass(frozen=True)
class SwitchMatrix:
    """M x N' binary control matrix: rows are generators, columns terminals.

    Row i corresponds to the i-th unit of the array built from the same
    SbgArraySpec (level-major order, the order build_array emits).
    """

    control: np.ndarray          # uint8, shape (M, N')
    row_levels: tuple[float, ...]
    col_terminals: tuple[str, ...]

    @property
    def num_rows(self) -> int:
        return int(self.control.shape[0])



def _set_walk(conflict_sets: list[frozenset[str]],
              terminal_order: list[str]) -> Iterable[str]:
    """The switch controller's visit order: each conflict set's members in
    terminal_order, set by set, then every terminal (first_fit skips the
    ones already placed)."""
    rank = {t: i for i, t in enumerate(terminal_order)}
    return chain(chain.from_iterable(sorted(group, key=rank.__getitem__)
                                     for group in conflict_sets), terminal_order)


def allocate(assignment: dict[str, float], spec: SbgArraySpec,
             conflict_sets: list[frozenset[str]],
             terminal_order: list[str]) -> SwitchMatrix:
    """Produce the control matrix for one (already quantized) assignment;
    column j is terminal_order[j].

    Each terminal takes its first-fit slot within its level, conflict sets
    walked in input order and terminals within a set in terminal order, so
    identical inputs always yield identical matrices.  A level's rows are
    contiguous (level-major), so slot s of a level is the row s past its
    first.  The first terminal, in placement order, whose slot exceeds its
    level's rows raises CapacityExceeded.
    """
    known = set(terminal_order)
    if known != set(assignment):
        raise ValueError("terminal order must cover exactly the assignment keys")
    for group in conflict_sets:
        missing = group - known
        if missing:
            raise ValueError(f"conflict set members missing from assignment: {sorted(missing)}")
    first = dict(zip(spec.levels, accumulate((0,) + spec.multiplicity)))
    rows = dict(zip(spec.levels, spec.multiplicity))
    for t, lvl in assignment.items():
        if lvl not in rows:
            raise UnknownLevel(f"terminal {t!r} requests {lvl}, not an array level")

    slots = first_fit(_set_walk(conflict_sets, terminal_order), conflict_sets, assignment)
    for t, slot in slots.items():
        lvl = assignment[t]
        if slot >= rows[lvl]:
            raise CapacityExceeded(
                lvl, f"conflict sets demand more than {rows[lvl]} rows of level {lvl}")
    control = np.zeros((spec.total_units, len(terminal_order)), dtype=np.uint8)
    for j, t in enumerate(terminal_order):
        control[first[assignment[t]] + slots[t], j] = 1
    control.flags.writeable = False
    return SwitchMatrix(control=control,
                        row_levels=tuple(spec.row_levels()),
                        col_terminals=tuple(terminal_order))


def verify_allocation(matrix: SwitchMatrix,
                      conflict_sets: list[frozenset[str]],
                      assignment: dict[str, float]) -> list[str]:
    """Standalone legality check; returns human-readable violations.

    Checks, from the matrix alone: every column selects exactly one row; no
    two members of one conflict set share a row; every terminal's row
    generates its requested probability level.
    """
    problems: list[str] = []
    col_sums = matrix.control.sum(axis=0)
    for j, s in enumerate(col_sums):
        if s != 1:
            problems.append(f"column {matrix.col_terminals[j]!r} selects {int(s)} rows")
    if problems:
        return problems

    row_of = dict(zip(matrix.col_terminals, np.argmax(matrix.control, axis=0).tolist()))
    for group in conflict_sets:
        seen: dict[int, str] = {}
        for t in sorted(group):
            row = row_of[t]
            if row in seen:
                problems.append(
                    f"conflicting terminals {seen[row]!r} and {t!r} share row {row}")
            else:
                seen[row] = t
    for t, lvl in assignment.items():
        if matrix.row_levels[row_of[t]] != lvl:
            problems.append(
                f"terminal {t!r} requests {lvl} but row {row_of[t]} generates "
                f"{matrix.row_levels[row_of[t]]}")
    return problems


def cost_metrics(t_per_sbg: int, n_terminals: int, m_units: int,
                 n_clustered: int) -> tuple[float, float]:
    """Architecture-level improvement ratios.

    K_energy = M/N compares generator-array energy against one generator per
    terminal; K_cmos = (T*M + M*N')/(T*N) compares transistor budgets
    including the switch-matrix overhead.
    """
    if t_per_sbg <= 0 or n_terminals <= 0 or m_units <= 0 or n_clustered < 0:
        raise ValueError("cost metric inputs must be positive (N' non-negative)")
    k_energy = m_units / n_terminals
    k_cmos = (t_per_sbg * m_units + m_units * n_clustered) / (t_per_sbg * n_terminals)
    return k_energy, k_cmos
