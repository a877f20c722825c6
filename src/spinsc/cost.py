"""Architecture-level energy, latency and transistor accounting: every cost
number and cost formula.  Profiles hold per-cycle cost constants; totals,
ratios and the K_energy / K_cmos scale metrics are exact arithmetic.  The
baseline platforms, the shared-array reference and the transistor count of
one generator cell are cited constants, not simulated here.
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
# Transistors per self-control generator cell, for K_cmos: cited, not simulated.
T_PER_SBG = 92


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
                       e_cyc_nj=stats.total_energy_nj / stats.n_cycles,
                       t_cyc_ns=SHARED_ARRAY_REFERENCE.t_cyc_ns,
                       n_cyc=stats.n_cycles)


def comparison_table() -> tuple[list[str], list[tuple]]:
    """(header, columns) of the platform comparison table, one row per
    profile; a profile without a transistor count leaves its cell blank."""
    header = ["method", "e_cyc_nj", "t_cyc_ns", "n_cyc", "e_tot_uj", "t_tot_us", "n_cmos_k"]
    rows = [(p.label, p.e_cyc_nj, p.t_cyc_ns, p.n_cyc, *totals(p),
             "" if p.n_cmos_k is None else p.n_cmos_k) for p in BASELINE_PROFILES]
    return header, list(zip(*rows))


def cost_metrics(n_terminals: int, m_units: int, n_clustered: int) -> tuple[float, float]:
    """Architecture-level improvement ratios: K_energy = M/N compares
    generator-array energy against one generator per terminal; K_cmos =
    (T*M + M*N')/(T*N), T = T_PER_SBG, compares transistor budgets including
    the switch-matrix overhead."""
    if n_terminals <= 0 or m_units <= 0 or n_clustered < 0:
        raise ValueError("cost metric inputs must be positive (N' non-negative)")
    k_energy = m_units / n_terminals
    k_cmos = (T_PER_SBG * m_units + m_units * n_clustered) / (T_PER_SBG * n_terminals)
    return k_energy, k_cmos
