"""Run configuration: plain-text key-value files plus CLI overrides.

A run is a pure function of its RunConfig; identical configs reproduce
byte-identical outputs.  The file format is INI-style sections of key=value
pairs; every key has a default, so an empty or missing file is valid.

Sections and keys:

  [run]     master_seed, out_dir, pv, pv_sigma_area, pv_sigma_tox, bitstream_len
  [device]  any MtjParams field, plus write_duration, read_energy,
            reset_voltage, reset_duration; together they make
            RunConfig.device, one sbg.SbgDevice that every command hands
            whole to the layers that build generators
  [array]   levels (comma list) or uniform_levels (count), multiplicity
            (comma list), mode (simple | self_control)
  [fusion]  grid (WxH), plane, target (one x,y pair), sensors (exactly
            three x,y pairs: x,y;x,y;x,y), sigma_b, sigma_d_base and
            sigma_d_slope (distance sigma = base + slope * reading), levels
            (count), noise_d, noise_b
  [report]  scc_pairs (count), scc_lengths, scc_probs, scc_cross (x,y
            pairs), sweep_repeats (count), sweep_lengths, sweep_probs,
            characterize_voltages, characterize_durations

A count below 1 is a ConfigError, as are an empty [report] list or [array]
levels or multiplicity, a non-positive plane, sigma_b or reset_voltage, a
negative reset_duration or read_energy and an unknown section or key.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import fusion
from .device import MtjParams
from .sbg import SbgDevice, SbgMode


class ConfigError(ValueError):
    """Unparseable or unknown configuration content."""


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError("a count must be at least 1")
    return count


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise ValueError("must be strictly positive")
    return value


def _nonempty(values: tuple) -> tuple:
    if not values:
        raise ValueError("a list needs at least one value")
    return values


def _bool(text: str) -> bool:
    norm = text.strip().lower()
    if norm in ("1", "true", "yes", "on"):
        return True
    if norm in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean {text!r}")


def _pairs(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = [float(tok) for tok in chunk.split(",")]
        if len(vals) != 2:
            raise ConfigError(f"expected x,y pair, got {chunk!r}")
        out.append((vals[0], vals[1]))
    return tuple(out)


@dataclass(frozen=True)
class ArrayConfig:
    levels: tuple[float, ...] = ()
    uniform_levels: int = 64
    multiplicity: tuple[int, ...] = ()
    mode: SbgMode = SbgMode.SELF_CONTROL

    def resolved_levels(self) -> tuple[float, ...]:
        if self.levels:
            return self.levels
        count = self.uniform_levels
        return tuple((k + 1) / count for k in range(count))


@dataclass(frozen=True)
class FusionConfig:
    grid_w: int = 32
    grid_h: int = 32
    plane: float = fusion.DEFAULT_PLANE
    target: tuple[float, float] = (40.0, 22.0)
    sensors: tuple[tuple[float, float], ...] = fusion.DEFAULT_SENSORS
    sigma_b: float = fusion.DEFAULT_SIGMA_B
    sigma_d_base: float = fusion.DEFAULT_SIGMA_D_BASE
    sigma_d_slope: float = fusion.DEFAULT_SIGMA_D_SLOPE
    level_count: int = 64
    noise_d: float = 0.0
    noise_b: float = 0.0


@dataclass(frozen=True)
class ReportConfig:
    scc_pairs: int = 20
    scc_lengths: tuple[int, ...] = (64, 128, 256, 512)
    scc_probs: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9)
    scc_cross: tuple[tuple[float, float], ...] = (
        (0.19, 0.41), (0.12, 0.48), (0.49, 0.25), (0.23, 0.44), (0.18, 0.58))
    sweep_repeats: int = 50
    sweep_lengths: tuple[int, ...] = (64, 128, 256)
    sweep_probs: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 10))
    characterize_voltages: tuple[float, ...] = tuple(0.8 + 0.05 * k for k in range(25))
    characterize_durations: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 5.0, 5.4, 6.0, 7.0, 8.0)


@dataclass(frozen=True)
class RunConfig:
    master_seed: int = 20260801
    out_dir: str = "out"
    pv: bool = False
    pv_sigma_area: float = 0.05
    pv_sigma_tox: float = 0.02
    bitstream_len: int = 128
    device: SbgDevice = field(default_factory=SbgDevice)
    array: ArrayConfig = field(default_factory=ArrayConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    report: ReportConfig = field(default_factory=ReportConfig)

    @property
    def pv_sigmas(self) -> tuple[float, float] | None:
        return (self.pv_sigma_area, self.pv_sigma_tox) if self.pv else None


_MTJ_FIELDS = {f.name for f in fields(MtjParams)}


def _apply_device(device: SbgDevice, key: str, value: str) -> SbgDevice:
    if key in _MTJ_FIELDS:
        return replace(device, params=replace(device.params, **{key: float(value)}))
    if key == "write_duration":
        return replace(device, write_duration_ns=float(value))
    if key == "read_energy":
        # SbgDevice refuses a negative read energy.
        return replace(device, read_energy_nj=float(value))
    if key == "reset_voltage":
        return replace(device, reset_pulse=replace(device.reset_pulse, voltage=_positive(value)))
    if key == "reset_duration":
        # PulseSpec refuses a negative duration.
        return replace(device, reset_pulse=replace(device.reset_pulse, duration=float(value)))
    raise ConfigError(f"unknown [device] key {key!r}")


def _apply_array(cfg: ArrayConfig, key: str, value: str) -> ArrayConfig:
    if key == "levels":
        return replace(cfg, levels=_nonempty(_floats(value)))
    if key == "uniform_levels":
        return replace(cfg, uniform_levels=_count(value))
    if key == "multiplicity":
        return replace(cfg, multiplicity=_nonempty(_ints(value)))
    if key == "mode":
        return replace(cfg, mode=SbgMode(value.strip()))
    raise ConfigError(f"unknown [array] key {key!r}")


def _apply_fusion(cfg: FusionConfig, key: str, value: str) -> FusionConfig:
    if key == "grid":
        w, _, h = value.lower().partition("x")
        return replace(cfg, grid_w=int(w), grid_h=int(h))
    if key == "target":
        pair = _pairs(value)
        if len(pair) != 1:
            raise ConfigError(f"target needs exactly one x,y pair, got {value!r}")
        return replace(cfg, target=pair[0])
    if key == "sensors":
        sensors = _pairs(value)
        if len(sensors) != 3:
            raise ConfigError(f"sensors needs exactly three x,y pairs, got {value!r}")
        return replace(cfg, sensors=sensors)
    simple = {"plane": _positive, "sigma_b": _positive, "sigma_d_base": float,
              "sigma_d_slope": float, "levels": _count, "noise_d": float,
              "noise_b": float}
    if key in simple:
        name = "level_count" if key == "levels" else key
        return replace(cfg, **{name: simple[key](value)})
    raise ConfigError(f"unknown [fusion] key {key!r}")


def _apply_report(cfg: ReportConfig, key: str, value: str) -> ReportConfig:
    if key in ("scc_pairs", "sweep_repeats"):
        return replace(cfg, **{key: _count(value)})
    if key in ("scc_lengths", "sweep_lengths"):
        values = _ints(value)
    elif key in ("scc_probs", "sweep_probs", "characterize_voltages",
                 "characterize_durations"):
        values = _floats(value)
    elif key == "scc_cross":
        values = _pairs(value)
    else:
        raise ConfigError(f"unknown [report] key {key!r}")
    return replace(cfg, **{key: _nonempty(values)})


def _apply_run(cfg: RunConfig, key: str, value: str) -> RunConfig:
    if key == "master_seed":
        return replace(cfg, master_seed=int(value))
    if key == "out_dir":
        return replace(cfg, out_dir=value.strip())
    if key == "pv":
        return replace(cfg, pv=_bool(value))
    if key in ("pv_sigma_area", "pv_sigma_tox"):
        return replace(cfg, **{key: float(value)})
    if key == "bitstream_len":
        return replace(cfg, bitstream_len=int(value))
    raise ConfigError(f"unknown [run] key {key!r}")


def load_config(path: str | Path | None = None) -> RunConfig:
    """RunConfig from a key-value file; all keys optional."""
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    appliers = {
        "run": ("_top", _apply_run),
        "device": ("device", _apply_device),
        "array": ("array", _apply_array),
        "fusion": ("fusion", _apply_fusion),
        "report": ("report", _apply_report),
    }
    for section in parser.sections():
        if section not in appliers:
            raise ConfigError(f"unknown section [{section}]")
        attr, apply = appliers[section]
        for key, value in parser.items(section):
            try:
                if attr == "_top":
                    cfg = apply(cfg, key, value)
                else:
                    cfg = replace(cfg, **{attr: apply(getattr(cfg, attr), key, value)})
            except (ValueError, KeyError) as exc:
                if isinstance(exc, ConfigError):
                    raise
                raise ConfigError(f"[{section}] {key} = {value!r}: {exc}") from exc
    return cfg
