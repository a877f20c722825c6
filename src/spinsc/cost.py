"""Architecture-level energy and latency accounting.

Profiles hold per-cycle cost constants; totals and ratios are exact
arithmetic.  The two baseline platforms are stored as cited constants (they
summarize external hardware and are not simulated here).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fusion import FusionRunStats


@dataclass(frozen=True)
class CostProfile:
    label: str
    e_cyc_nj: float     # energy per cycle, nJ
    t_cyc_ns: float     # cycle time, ns
    n_cyc: int          # cycle count
    n_cmos_k: float | None = None  # transistor count, thousands

    def __post_init__(self) -> None:
        if self.e_cyc_nj <= 0 or self.t_cyc_ns <= 0 or self.n_cyc < 0:
            raise ValueError("cost profile entries must be positive (n_cyc >= 0)")


# Reference inference platforms for the 32x32 fusion workload at matched
# accuracy; constants, not simulation outputs.
FPGA_BASELINE = CostProfile("fpga", e_cyc_nj=10.3, t_cyc_ns=10.0, n_cyc=256)
MTJ_BASELINE = CostProfile("mtj-direct", e_cyc_nj=4.58, t_cyc_ns=40.0, n_cyc=256,
                           n_cmos_k=830.0)
SHARED_ARRAY_REFERENCE = CostProfile("shared-sbg", e_cyc_nj=0.78, t_cyc_ns=10.0,
                                     n_cyc=128, n_cmos_k=1200.0)

BASELINE_PROFILES = (FPGA_BASELINE, MTJ_BASELINE, SHARED_ARRAY_REFERENCE)


def totals(profile: CostProfile) -> tuple[float, float]:
    """(total energy in uJ, total time in us)."""
    e_tot_uj = profile.e_cyc_nj * profile.n_cyc * 1e-3
    t_tot_us = profile.t_cyc_ns * profile.n_cyc * 1e-3
    return e_tot_uj, t_tot_us


def compare(a: CostProfile, b: CostProfile) -> float:
    """Total-energy ratio E_tot(a) / E_tot(b)."""
    e_a, _ = totals(a)
    e_b, _ = totals(b)
    return e_a / e_b


def simulated_profile(stats: FusionRunStats) -> CostProfile:
    """Profile from a fusion run's generator-array energy accounting.

    Only the energy is simulated: the cycle time is the shared-array
    reference's cited one."""
    return CostProfile(label="simulated",
                       e_cyc_nj=stats.energy_per_cycle_nj,
                       t_cyc_ns=SHARED_ARRAY_REFERENCE.t_cyc_ns,
                       n_cyc=stats.n_cycles)


def comparison_rows() -> list[dict[str, float | str]]:
    """Table rows mirroring the platform comparison columns."""
    rows = []
    for p in BASELINE_PROFILES:
        e_tot, t_tot = totals(p)
        rows.append({
            "method": p.label,
            "e_cyc_nj": p.e_cyc_nj,
            "t_cyc_ns": p.t_cyc_ns,
            "n_cyc": p.n_cyc,
            "e_tot_uj": e_tot,
            "t_tot_us": t_tot,
            "n_cmos_k": p.n_cmos_k if p.n_cmos_k is not None else "",
        })
    return rows
