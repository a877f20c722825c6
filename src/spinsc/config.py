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

What a key refuses is written once, in the parser KEYS names for it, each
bound on one line beside its reason.  An unknown section or key, an input
file that is not UTF-8 (read_input) and a file configparser cannot read are
refused too.
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


def _checked(parse: Callable[[str], object], ok: Callable, reason: str) -> Callable:
    """A parser of what parse makes of a text, refusing with reason a value
    that ok refuses."""
    def checked(text: str):
        value = parse(text)
        if not ok(value):
            raise ValueError(reason)
        return value
    return checked


def _nonempty(parse: Callable[[str], tuple]) -> Callable[[str], tuple]:
    return _checked(parse, len, "a list needs at least one value")


def _distinct(parse: Callable[[str], tuple], what: str) -> Callable[[str], tuple]:
    """parse, refusing a repeated value: a report writes one row per value."""
    return _checked(parse, lambda values: len(set(values)) == len(values), f"{what} may not repeat")


_float = _checked(float, math.isfinite, "must be finite")
_positive = _checked(_float, lambda value: value > 0, "must be strictly positive")
_nonnegative = _checked(_float, lambda value: value >= 0, "must be at least 0")
_seed = _checked(int, lambda value: value >= 0, "must be at least 0")
# The count rule: an integer of at least 1.
count = _checked(int, lambda value: value >= 1, "a count must be at least 1")
_level_count = _checked(count, lambda value: value <= fusion.MAX_LEVEL_COUNT,
                        f"must be at most {fusion.MAX_LEVEL_COUNT}")
_out_dir = _checked(str.strip, len, "must name a directory")


def _in_level_range(p: float) -> bool:
    return 0.0 < p <= 1.0


# A generator level: a finite probability in (0, 1].
level = _checked(_float, _in_level_range, "must lie in (0, 1]")


def _floats(parse: Callable[[str], float] = _float) -> Callable[[str], tuple[float, ...]]:
    """A parser of a list of values parse takes, split at "," or ";"."""
    return _nonempty(lambda text: tuple(parse(tok) for tok in text.replace(";", ",").split(",")
                                        if tok.strip()))


_counts = _nonempty(lambda text: tuple(count(tok) for tok in text.split(",") if tok.strip()))
# Array levels: all finite (so `1.5, nan` names the nan), then each in (0, 1],
# then strictly increasing.
_levels = _checked(_checked(_floats(), lambda levels: all(map(_in_level_range, levels)),
                            "must lie in (0, 1]"),
                   lambda levels: all(a < b for a, b in zip(levels, levels[1:])),
                   "must be strictly increasing")


def _probabilities(values) -> bool:
    return all(0.0 <= p <= 1.0 for p in values)


_probs = _checked(_floats(), _probabilities, "must lie in [0, 1]")


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


_prob_pairs = _nonempty(_checked(_pairs, lambda pairs: all(map(_probabilities, pairs)),
                                 "must lie in [0, 1]"))
_target = _checked(_pairs, lambda pairs: len(pairs) == 1, "needs exactly one x,y pair")
_sensors = _checked(_pairs, lambda pairs: len(pairs) == 3, "needs exactly three x,y pairs")


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
    ("run", "out_dir"): (("out_dir",), _out_dir),
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
    ("fusion", "target"): (("fusion", "target"), lambda text: _target(text)[0]),
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
    ("report", "characterize_voltages"): (("report", "characterize_voltages"), _floats(_positive)),
    ("report", "characterize_durations"): (("report", "characterize_durations"),
                                           _floats(_nonnegative)),
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


def read_input(path: str | Path) -> str:
    """The text of a UTF-8 input file, read past a leading byte-order mark;
    a file that is not UTF-8 is refused, naming it and the failing byte by
    its offset from the file's start, the mark included."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


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
    text = read_input(path)
    try:
        parser.read_string(text, source=str(path))
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"cannot parse {path}:{exc.lineno}: expected a [section] header, "
                          f"got {exc.line.strip()!r}") from exc
    except configparser.ParsingError as exc:
        # configparser reads on past a bad line and lists every one: name the first.
        lineno = exc.errors[0][0]
        line = text.split("\n")[lineno - 1].strip()
        raise ConfigError(f"cannot parse {path}:{lineno}: expected 'key = value', "
                          f"got {line!r}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    sections = {section for section, _ in KEYS}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]")
        cfg = apply(cfg, section, dict(parser.items(section)))
    return cfg
