"""Run configuration: plain-text key-value files plus CLI overrides.

A run is a pure function of its RunConfig; identical configs reproduce
byte-identical outputs.  The file format is INI-style sections of key=value
pairs; every key has a default, so an empty or missing file is valid.

KEYS is the full key list: it maps each (section, key) to the RunConfig
field it sets and the parser of its text, and `apply` sets the keys of one
section through it.  A config file and the CLI flags both go through
`apply`, so a flag and the key it overrides accept the same text and refuse
it with the same message.  The [device] keys make RunConfig.device, one
sbg.SbgDevice that every command hands whole to the layers that build
generators.

A count below 1, alone or in a list, is a ConfigError, as are [fusion]
levels above fusion.MAX_LEVEL_COUNT, a float that is not finite (nan, inf),
an empty list key, a negative master seed, a non-positive plane, sigma_b,
sigma_d_base, reset_voltage, write_duration or characterize voltage, a
negative sigma_d_slope, noise, reset_duration, read_energy,
process-variation sigma or characterize duration, a report probability
outside [0, 1], array levels outside (0, 1] or not strictly increasing, a
repeated [report] stream length, SCC probability or pair, a bad junction
value and an unknown section or key.
"""

from __future__ import annotations

import configparser
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import fusion
from .device import MtjParams
from .sbg import SbgDevice, SbgMode


class ConfigError(ValueError):
    """Unparseable or unknown configuration content."""


def _float(text: str) -> float:
    """A finite float: nan and inf are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _floats(text: str, parse: Callable[[str], float] = _float) -> tuple[float, ...]:
    return _nonempty(tuple(parse(tok) for tok in text.replace(";", ",").split(",")
                           if tok.strip()))


def count(text: str) -> int:
    """The count rule: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError("a count must be at least 1")
    return value


def _counts(text: str) -> tuple[int, ...]:
    return _nonempty(tuple(count(tok) for tok in text.split(",") if tok.strip()))


def _level_count(text: str) -> int:
    value = count(text)
    if value > fusion.MAX_LEVEL_COUNT:
        raise ValueError(f"must be at most {fusion.MAX_LEVEL_COUNT}")
    return value


def _distinct(parse: Callable[[str], tuple], what: str) -> Callable[[str], tuple]:
    """parse, refusing a repeated value: a report writes one row per value."""
    def distinct(text: str) -> tuple:
        values = parse(text)
        if len(set(values)) < len(values):
            raise ValueError(f"{what} may not repeat")
        return values
    return distinct


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError("must be at least 0")
    return value


def _probability(value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError("must lie in [0, 1]")
    return value


def _probs(text: str) -> tuple[float, ...]:
    return tuple(map(_probability, _floats(text)))


def _prob_pairs(text: str) -> tuple[tuple[float, float], ...]:
    return _nonempty(tuple((_probability(a), _probability(b)) for a, b in _pairs(text)))


def _levels(text: str) -> tuple[float, ...]:
    """Array levels: each in (0, 1], strictly increasing."""
    levels = _floats(text)
    if not all(0.0 < p <= 1.0 for p in levels):
        raise ValueError("must lie in (0, 1]")
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError("must be strictly increasing")
    return levels


def _positive(text: str) -> float:
    value = _float(text)
    if not value > 0:
        raise ValueError("must be strictly positive")
    return value


def _nonnegative(text: str) -> float:
    value = _float(text)
    if value < 0:
        raise ValueError("must be at least 0")
    return value


def _nonempty(values: tuple) -> tuple:
    if not values:
        raise ValueError("a list needs at least one value")
    return values


def _bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _grid(text: str) -> tuple[int, int]:
    w, _, h = text.lower().partition("x")
    return count(w), count(h)


def _pairs(text: str) -> tuple[tuple[float, float], ...]:
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = [_float(tok) for tok in chunk.split(",")]
        if len(vals) != 2:
            raise ValueError(f"expected x,y pair, got {chunk!r}")
        out.append((vals[0], vals[1]))
    return tuple(out)


def _target(text: str) -> tuple[float, float]:
    pairs = _pairs(text)
    if len(pairs) != 1:
        raise ValueError("needs exactly one x,y pair")
    return pairs[0]


def _sensors(text: str) -> tuple[tuple[float, float], ...]:
    pairs = _pairs(text)
    if len(pairs) != 3:
        raise ValueError("needs exactly three x,y pairs")
    return pairs


@dataclass(frozen=True)
class ArrayConfig:
    levels: tuple[float, ...] = tuple((k + 1) / 64 for k in range(64))
    multiplicity: tuple[int, ...] = ()
    mode: SbgMode = SbgMode.SELF_CONTROL


@dataclass(frozen=True)
class FusionConfig:
    grid: tuple[int, int] = (32, 32)
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


# (section, key) -> (path of the RunConfig field it sets, parser of its text).
# A parser raises ValueError with the reason it refuses a text; the
# dataclasses' own checks (MtjParams, SbgDevice, PulseSpec) run on the
# replaced value.
KEYS: dict[tuple[str, str], tuple[tuple[str, ...], Callable[[str], object]]] = {
    ("run", "master_seed"): (("master_seed",), _seed),
    ("run", "out_dir"): (("out_dir",), str.strip),
    ("run", "pv"): (("pv",), _bool),
    ("run", "pv_sigma_area"): (("pv_sigma_area",), _nonnegative),
    ("run", "pv_sigma_tox"): (("pv_sigma_tox",), _nonnegative),
    ("run", "bitstream_len"): (("bitstream_len",), count),
    **{("device", f.name): (("device", "params", f.name), _float) for f in fields(MtjParams)},
    ("device", "write_duration"): (("device", "write_duration_ns"), _float),
    ("device", "read_energy"): (("device", "read_energy_nj"), _float),
    ("device", "reset_voltage"): (("device", "reset_pulse", "voltage"), _positive),
    ("device", "reset_duration"): (("device", "reset_pulse", "duration"), _float),
    ("array", "levels"): (("array", "levels"), _levels),
    ("array", "multiplicity"): (("array", "multiplicity"), _counts),
    ("array", "mode"): (("array", "mode"), SbgMode),
    ("fusion", "grid"): (("fusion", "grid"), _grid),
    ("fusion", "plane"): (("fusion", "plane"), _positive),
    ("fusion", "target"): (("fusion", "target"), _target),
    ("fusion", "sensors"): (("fusion", "sensors"), _sensors),
    ("fusion", "sigma_b"): (("fusion", "sigma_b"), _positive),
    ("fusion", "sigma_d_base"): (("fusion", "sigma_d_base"), _positive),
    ("fusion", "sigma_d_slope"): (("fusion", "sigma_d_slope"), _nonnegative),
    ("fusion", "levels"): (("fusion", "level_count"), _level_count),
    ("fusion", "noise_d"): (("fusion", "noise_d"), _nonnegative),
    ("fusion", "noise_b"): (("fusion", "noise_b"), _nonnegative),
    ("report", "scc_pairs"): (("report", "scc_pairs"), count),
    ("report", "scc_lengths"): (("report", "scc_lengths"), _distinct(_counts, "a length")),
    ("report", "scc_probs"): (("report", "scc_probs"), _distinct(_probs, "a probability")),
    ("report", "scc_cross"): (("report", "scc_cross"), _distinct(_prob_pairs, "a pair")),
    ("report", "sweep_repeats"): (("report", "sweep_repeats"), count),
    ("report", "sweep_lengths"): (("report", "sweep_lengths"), _distinct(_counts, "a length")),
    ("report", "sweep_probs"): (("report", "sweep_probs"), _probs),
    ("report", "characterize_voltages"): (("report", "characterize_voltages"),
                                          lambda text: _floats(text, _positive)),
    ("report", "characterize_durations"): (("report", "characterize_durations"),
                                           lambda text: _floats(text, _nonnegative)),
}


def _replace_at(obj, values: dict[tuple[str, ...], object]):
    """obj with the field at each path set to its value, one replace per
    dataclass, so each checks its fields once, with all of them set."""
    nested: dict[str, dict] = {}
    for (name, *rest), value in values.items():
        nested.setdefault(name, {})[tuple(rest)] = value
    return replace(obj, **{name: sub[()] if () in sub else _replace_at(getattr(obj, name), sub)
                           for name, sub in nested.items()})


def apply(cfg: RunConfig, section: str, texts: dict[str, str]) -> RunConfig:
    """cfg with each [section] key set from its text, parsed by the key's KEYS
    entry.  The keys are set together, so a check across fields (such as the
    junction's resistances) sees their final values whatever their order."""
    values = {}
    for key, text in texts.items():
        if (section, key) not in KEYS:
            raise ConfigError(f"unknown [{section}] key {key!r}")
        path, parse = KEYS[section, key]
        try:
            values[path] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {text!r}: {exc}") from exc
    try:
        return _replace_at(cfg, values)
    except ValueError as exc:
        keys = ", ".join(f"{key} = {text!r}" for key, text in texts.items())
        raise ConfigError(f"[{section}] {keys}: {exc}") from exc


def load_config(path: str | Path | None = None) -> RunConfig:
    """RunConfig from a key-value file; all keys optional."""
    cfg = RunConfig()
    if path is None:
        return cfg
    # Values are taken as written: no % interpolation, and default_section=""
    # can name no section header, so [DEFAULT] is an ordinary (and unknown)
    # section instead of keys merged into every other.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None,
                                       default_section="")
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    sections = {section for section, _ in KEYS}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        cfg = apply(cfg, section, dict(parser.items(section)))
    return cfg
