#!/usr/bin/env python3
"""Inference accuracy of the stochastic fusion pipeline versus stream length.

Runs the target-locating problem for several stream lengths and seeds, with
and without process variation, and reports mean KL divergence against the
exact posterior.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from spinsc.config import ConfigError, RunConfig, apply, count
from spinsc.experiments import kl_by_length
from spinsc.fusion import make_problem


def _counts(flag: str, texts: list[str]) -> tuple[int, ...]:
    """The texts of one count flag, each held to the config's count rule."""
    try:
        return tuple(count(text) for text in texts)
    except ValueError as exc:
        raise ConfigError(f"{flag} = {' '.join(texts)!r}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", default="32x32")
    parser.add_argument("--target", default="40,22")
    parser.add_argument("--lengths", nargs="+", default=["64", "128", "256"])
    parser.add_argument("--seeds", default="10")
    parser.add_argument("--levels", default="64")
    parser.add_argument("--out", type=Path, default=Path("out/fusion_kl_sweep.csv"))
    args = parser.parse_args(argv)

    try:
        cfg = apply(RunConfig(), "fusion", "grid", args.grid)
        fus = apply(cfg, "fusion", "target", args.target).fusion
        lengths = _counts("--lengths", args.lengths)
        (seed_count,) = _counts("--seeds", [args.seeds])
        (levels,) = _counts("--levels", [args.levels])
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    w, h = fus.grid
    problem = make_problem(grid_w=w, grid_h=h, target_xy=fus.target)
    seeds = tuple(range(seed_count))

    plain = kl_by_length(problem, lengths, seeds, level_count=levels)
    varied = kl_by_length(problem, lengths, seeds, level_count=levels,
                          pv_sigmas=(0.05, 0.02))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["n,variation,mean_kl,min_kl,max_kl"]
    print(f"{'n':>6} {'variation':>10} {'mean KL':>10}")
    for label, table in (("off", plain), ("on", varied)):
        for n in lengths:
            vals = table[n]
            print(f"{n:>6} {label:>10} {np.mean(vals):>10.4f}")
            lines.append(f"{n},{label},{np.mean(vals):.6g},"
                         f"{min(vals):.6g},{max(vals):.6g}")
    args.out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
