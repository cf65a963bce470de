"""Config-driven command line front end.

Reads an INI-like run configuration, builds scenarios, and writes
deterministic CSV results. Every output-affecting setting comes either
from the config file or from a documented default (see SCHEMA below);
unknown sections or keys are refused at their line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import chanmodel, experiments, linksim, sigchain
from .experiments import realize_channels

__all__ = [
    "ConfigError",
    "Key",
    "RunConfig",
    "SCHEMA",
    "parse_config",
    "main",
]

SWEEP_HEADER = (
    "variable,value,link,sinr_db,signal_w,isi_w,cochannel_w,noise_w,"
    "ber,ber_ci_lo,ber_ci_hi,bits,errors"
)
FOCUSING_HEADER = "node,tr_peak_w,tr_total_w,nontr_peak_w,nontr_total_w"

# Closed ranges of the keys that set a power, a channel energy or thermal
# noise. Inside them no SINR component or focusing sum overflows and no SINR
# ratio underflows to 0; the README's config reference derives them.
_DBM = (-300.0, 300.0)
_ENERGY = (1e-50, 1e50)
# The most taps, and samples (max_delay_s / grid + 1), of a synthetic channel:
# at 16 bytes a sample its CIR takes at most 16 MB and each cached spectrum
# (up to 8 times as long) 128 MB. The README's config reference derives it.
_MAX_SAMPLES = 10**6
# The longest CIR file name gen-channel writes, in UTF-8 bytes: the 255 a file name
# holds, less the 13 its temporary file adds (".", 8 random characters, ".tmp").
_MAX_FILE_NAME = 242


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending line."""


@dataclass(frozen=True)
class _Entry:
    value: str
    lineno: int


def _parse_sections(text: str) -> dict[str, tuple[int, dict[str, _Entry]]]:
    """Raw pass: section headers and key = value lines, with line numbers."""
    sections: dict[str, tuple[int, dict[str, _Entry]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = (lineno, {})
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        body = sections[current][1]
        if key in body:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        body[key] = _Entry(value, lineno)
    return sections


# Value parsers: (text, key name) -> value. A ValueError's message gets
# the line number in front.


def _number(text: str, key: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {text!r}") from None


def _integer(text: str, key: str) -> int:
    try:
        return int(text)  # exact at any size, where a float would round
    except ValueError:
        value = _number(text, key)
    if not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {text!r}")
    return int(value)


def _bounded(value: float, key: str, low: float, high: float = math.inf) -> float:
    """``value`` when it lies in [low, high]; else a ValueError naming ``key``."""
    if not low <= value <= high:
        if high == math.inf:
            raise ValueError(f"{key} must be " + (f"at least {low}" if low else "non-negative"))
        raise ValueError(f"{key} must lie in [{low:g}, {high:g}], got {value!r}")
    return value


def _in_range(low: float, high: float = math.inf, parse=_number) -> Callable[[str, str], float]:
    """The range parser: ``parse``, then refuse a value outside [low, high]."""
    return lambda text, key: _bounded(parse(text, key), key, low, high)


# The one-sided case: an integer of at least ``low``.
_at_least = functools.partial(_in_range, parse=_integer)


def _count(text: str, key: str) -> int:
    """An integer below 2^63: every count must fit a signed 64-bit index, as the README assumes."""
    value = _integer(text, key)
    if value >= 2**63:
        raise ValueError(f"{key} must be below 2^63, got {text}")
    return value


# A count of at least ``low``.
_count_from = functools.partial(_in_range, parse=_count)


def _noise_dbm(text: str, key: str) -> float:
    """An explicit noise level in the power range, or -inf for no noise."""
    value = _number(text, key)
    return value if value == -math.inf else _bounded(value, key, *_DBM)


def _one_of(choices: tuple[str, ...], refusal: str) -> Callable[[str, str], str]:
    def parse(text: str, key: str) -> str:
        if text not in choices:
            raise ValueError(refusal.format(text))
        return text

    return parse


def _names(text: str, key: str) -> tuple[str, ...]:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise ValueError(f"[nodes] {key} is empty")
    if len(set(names)) != len(names):
        raise ValueError("duplicate node names")
    # Each name must fit a [channel "TX->RX"] section and a cir_TX_to_RX.csv file name.
    for name in names:
        if bad := re.search(r'->|["/\0]', name):
            raise ValueError(
                f"node name {name!r} contains {bad[0]!r}: no channel section or CIR file could carry it"
            )
    return names


def _numbers(text: str, key: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v.strip()) for v in text.split(",") if v.strip())
    except ValueError:
        raise ValueError(f"{key} must be comma-separated numbers") from None
    if not values:
        raise ValueError(f"{key} is empty")
    return values


@dataclass(frozen=True)
class Key:
    """One config key: its parser, what holds when it is absent, and where it goes.

    ``default`` is config text, parsed as if written; None leaves the key
    unset for the code that reads it. ``field`` names the attribute the
    value fills, when it differs from the key. A key with ``when`` set
    applies only to that kind of section (a channel's ``file`` or
    ``model``, a noise ``mode``) and must be absent from the others.
    """

    name: str
    parse: Callable[[str, str], object] = lambda text, key: text
    default: str | None = None
    required: bool = False
    when: str | None = None
    field: str | None = None


_MODES = ("thermal", "explicit")

# Each sweep command: the variable it sweeps and its grid when the config
# names none (None: every link count from 1).
_SWEEPS = {
    "sweep-power": ("tx_power_dbm", tuple(float(p) for p in range(-5, 11))),
    "sweep-rate": ("aggregate_rate_bps", (10e9, 20e9, 40e9, 80e9)),
    "sweep-links": ("n_links", None),
}
_VARIABLES = tuple(variable for variable, _ in _SWEEPS.values())

# One table per kind of section, keys in the order they are read. The
# README's config reference lists the same keys and defaults.
SCHEMA: dict[str, tuple[Key, ...]] = {
    "nodes": (Key("names", _names, required=True),),
    "channel": (
        Key("file", when="file"),
        Key("model", _one_of(("reverberant",), "unknown channel model {!r}"), when="model"),
        Key("num_taps", _count_from(1, _MAX_SAMPLES), required=True, when="model"),
        Key("rms_delay_spread_s", _number, required=True, when="model", field="rms_delay_spread_target"),
        Key("max_delay_s", _number, required=True, when="model", field="max_delay"),
        Key("total_energy", _in_range(*_ENERGY), "1", when="model"),
        Key("seed", _at_least(0), when="model"),
    ),
    "link": (
        Key("tx", required=True, field="tx_node"),
        Key("rx", required=True, field="rx_node"),
        Key("precoding", _one_of(("tr", "none"), "precoding must be 'tr' or 'none', got {!r}"), "tr"),
        Key("power_dbm", _in_range(*_DBM), "0", field="tx_power_dbm"),
    ),
    "modulation": (
        Key("bit_rate_bps", _number, "50e9", field="bit_rate"),
        Key("samples_per_symbol", _count_from(1), "4"),
    ),
    "noise": (
        Key("mode", _one_of(_MODES, "noise mode must be 'thermal' or 'explicit', got {!r}"), required=True),
        Key("temperature_k", _in_range(1e-3, 1e6), required=True, when="thermal"),
        Key("bandwidth_hz", _in_range(1.0, 1e15), required=True, when="thermal"),
        Key("power_dbm", _noise_dbm, required=True, when="explicit"),
    ),
    "sweep": (
        Key(
            "variable",
            _one_of(_VARIABLES, f"variable must be one of {_VARIABLES}, got {{!r}}"),
            field="sweep_variable",
        ),
        Key("values", _numbers, field="sweep_values"),
        Key("n_bits", _count_from(100), "1000"),
        Key("n_trials", _count_from(1)),
        Key("master_seed", _at_least(0), "0"),
    ),
    "output": (Key("dir", default="out", field="out_dir"),),
}

# What a section is called where a key with ``when`` set does not apply.
_NOT_FOR = {"file": "a file-backed channel", "thermal": "thermal noise", "explicit": "explicit noise"}

_CHANNEL_SECTION = re.compile(r'^channel\s+"([^"]+)"$')
_LINK_SECTION = re.compile(r"^link\s+(\d+)$")


def _kind(name: str) -> str | None:
    """The schema a section follows; None for an unknown section."""
    for kind, pattern in (("channel", _CHANNEL_SECTION), ("link", _LINK_SECTION)):
        if pattern.match(name):
            return kind
    return name if name in ("nodes", "modulation", "noise", "sweep", "output") else None


@contextlib.contextmanager
def _at_line(lineno: int, prefix: str = ""):
    """Raise a ValueError or OSError from the block as a ConfigError naming ``lineno``."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise ConfigError(f"line {lineno}: {prefix}{exc}") from None


def _read(
    section: str, lineno: int, body: dict[str, _Entry], keys: tuple[Key, ...], when: str | None = None
) -> dict[str, object]:
    """Each key that applies ``when``, parsed or defaulted, by its field name."""
    for key in keys:
        if key.when not in (None, when) and key.name in body:
            raise ConfigError(
                f"line {body[key.name].lineno}: {key.name!r} does not apply to {_NOT_FOR[when]}"
            )
    values = {}
    for key in (k for k in keys if k.when in (None, when)):
        entry = body.get(key.name)
        if entry is None and key.required:
            raise ConfigError(f"line {lineno}: missing required key {key.name!r} in [{section}]")
        text = key.default if entry is None else entry.value
        with _at_line(lineno if entry is None else entry.lineno):
            values[key.field or key.name] = None if text is None else key.parse(text, key.name)
    return values


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration; [nodes] names are checked on reading, not kept."""

    # A file or pinned-seed channel is realized when the config is read; a
    # fresh synthetic one keeps its parameters, for each trial to draw anew.
    channels: dict[tuple[str, str], chanmodel.Cir | chanmodel.ReverbParams]
    links: tuple[linksim.LinkSpec, ...]
    mod: sigchain.ModParams
    noise: linksim.NoiseSpec
    sweep_variable: str | None
    sweep_values: tuple[float, ...] | None
    n_bits: int
    n_trials: int
    master_seed: int
    out_dir: str


def _parse_pair(pair_text: str, nodes: tuple[str, ...], lineno: int) -> tuple[str, str]:
    parts = [p.strip() for p in pair_text.split("->")]
    if len(parts) != 2 or not all(parts):
        raise ConfigError(f'line {lineno}: channel name must look like "A->B", got {pair_text!r}')
    for node in parts:
        if node not in nodes:
            raise ConfigError(f"line {lineno}: undefined node {node!r}")
    if parts[0] == parts[1]:
        raise ConfigError(f"line {lineno}: channel endpoints must differ")
    return parts[0], parts[1]


def _grid_point(
    variable: str, value: float, links: tuple[linksim.LinkSpec, ...], mod: sigchain.ModParams
) -> tuple[tuple[linksim.LinkSpec, ...], sigchain.ModParams]:
    """The links and modulation the sweep over ``variable`` runs at ``value``.

    A value the sweep could not run is refused with a ValueError.
    ``tx_power_dbm`` is per-transmitter power, except for scatter-style
    configs (several links sharing one transmitter), where it is the total
    budget split equally across streams. ``aggregate_rate_bps`` is split
    equally across the links; each stream's rate must fit the channel grid.
    ``n_links`` keeps the first N links.
    """
    if variable == "tx_power_dbm":
        if not math.isfinite(value):
            raise ValueError(f"tx_power_dbm sweep value {value!r} must be finite")
        _bounded(value, "tx_power_dbm sweep value", *_DBM)
        if len(links) > 1 and len({link.tx_node for link in links}) == 1:
            value = experiments.split_power_dbm(value, len(links))
        return tuple(dataclasses.replace(link, tx_power_dbm=value) for link in links), mod
    if variable == "aggregate_rate_bps":
        if not value > 0.0:
            raise ValueError(f"aggregate_rate_bps sweep value {value!r} must be positive")
        return links, experiments.mod_params_for_rate(value / len(links), mod)
    if not (value.is_integer() and 1 <= value <= len(links)):
        raise ValueError(f"n_links sweep value {value!r} must be an integer in [1, {len(links)}]")
    return links[: int(value)], mod


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    """Parse and validate a run configuration.

    ``base_dir`` anchors relative channel file paths (normally the
    directory containing the config file). Channel files are read and
    pinned-seed channels drawn here, once. Semantic errors name the line
    they come from. ``SCHEMA`` parses each key; the rules that tie keys
    and sections together follow here.
    """
    sections = _parse_sections(text)

    def read(name: str, keys: tuple[Key, ...], when: str | None = None) -> dict[str, object]:
        return _read(name, *sections.get(name, (0, {})), keys, when)

    if "nodes" not in sections:
        raise ConfigError("missing required section [nodes]")
    # Names first: one that a channel section cannot carry would otherwise be refused as that section.
    nodes = read("nodes", SCHEMA["nodes"])["names"]
    for name, (lineno, body) in sections.items():
        kind = _kind(name)
        if kind is None:
            raise ConfigError(f"line {lineno}: unknown section [{name}]")
        for key, entry in body.items():
            if key not in {k.name for k in SCHEMA[kind]}:
                raise ConfigError(f"line {entry.lineno}: unknown key {key!r} in [{name}]")

    # Modulation first: synthetic channels are drawn on its sample grid.
    with _at_line(sections.get("modulation", (0,))[0], "invalid [modulation]: "):
        mod = sigchain.ModParams(**read("modulation", SCHEMA["modulation"]))

    links: list[linksim.LinkSpec] = []
    numbered: dict[int, str] = {}
    for name, (lineno, _) in sections.items():
        if m := _LINK_SECTION.match(name):
            first = numbered.setdefault(int(m.group(1)), name)
            if first != name:
                raise ConfigError(
                    f"line {lineno}: [{name}] repeats the number of [{first}] at line {sections[first][0]}"
                )
    for _, name in sorted(numbered.items()):
        lineno, body = sections[name]
        spec = read(name, SCHEMA["link"])
        for end, node in (("tx", spec["tx_node"]), ("rx", spec["rx_node"])):
            if node not in nodes:
                raise ConfigError(f"line {body[end].lineno}: undefined node {node!r}")
        with _at_line(lineno, f"invalid [{name}]: "):
            link = linksim.LinkSpec(**spec)
        if any(other.stream_id == link.stream_id for other in links):
            raise ConfigError(f"line {lineno}: duplicate link {link.stream_id}")
        # A node that transmits and receives would need a channel to itself, which no section can be.
        for other in links:
            for end, node, clash in (("tx", link.tx_node, other.rx_node), ("rx", link.rx_node, other.tx_node)):
                if node == clash:
                    raise ConfigError(
                        f"line {body[end].lineno}: node {node!r} cannot both transmit and receive "
                        f"(links {other.stream_id} and {link.stream_id})"
                    )
        links.append(link)
    if not links:
        raise ConfigError("config defines no [link N] sections")

    # Links before channels: a channel file that is a link's own must carry energy.
    own = {(link.tx_node, link.rx_node) for link in links}
    channels: dict[tuple[str, str], chanmodel.Cir | chanmodel.ReverbParams] = {}
    for name, (lineno, body) in sections.items():
        match = _CHANNEL_SECTION.match(name)
        if not match:
            continue
        pair = _parse_pair(match.group(1), nodes, lineno)
        label = f"{pair[0]}->{pair[1]}"
        file_name = _COMMANDS["gen-channel"][1].format(*pair)
        if (size := len(file_name.encode())) > _MAX_FILE_NAME:
            limit = f"over the {_MAX_FILE_NAME} gen-channel can write"
            raise ConfigError(f"line {lineno}: CIR file name {file_name} is {size} UTF-8 bytes, {limit}")
        if pair in channels:
            raise ConfigError(f"line {lineno}: duplicate channel {label}")
        if ("file" in body) == ("model" in body):
            raise ConfigError(f"line {lineno}: [{name}] needs exactly one of 'file' or 'model'")
        params = read(name, SCHEMA["channel"], "file" if "file" in body else "model")
        if "file" in body:
            path = Path(base_dir) / params["file"]
            with _at_line(body["file"].lineno):
                if not path.is_file():
                    raise ValueError(f"channel file not found: {path}")
                cir = chanmodel.read_cir_csv(path, label=label)
                if not chanmodel.same_grid(cir.sample_interval, mod.sample_interval):
                    raise ValueError(
                        f"grid mismatch: channel file {path} has sample_interval "
                        f"{cir.sample_interval!r}, modulation grid is {mod.sample_interval!r}"
                    )
                if cir.energy != 0.0:
                    _bounded(cir.energy, f"energy of channel {label} in {path}", *_ENERGY)
                elif pair in own:
                    raise ValueError(
                        f"channel {label} in {path} has zero energy; "
                        "a link's own channel must carry signal (an interference path may be silent)"
                    )
            channels[pair] = cir
            continue
        # What is left after the model and seed are ReverbParams fields, less the grid.
        del params["model"]
        seed = params.pop("seed")
        with _at_line(lineno, f"invalid [{name}]: "):
            channels[pair] = chanmodel.ReverbParams(sample_interval=mod.sample_interval, **params)
        if channels[pair].num_samples > _MAX_SAMPLES:
            entry = body["max_delay_s"]
            source = "that is the default grid"
            if "modulation" in sections:
                at = sections["modulation"][0]
                source = f"bit_rate_bps and samples_per_symbol in [modulation] at line {at} set that grid"
            raise ConfigError(
                f"line {entry.lineno}: max_delay_s = {entry.value} is {channels[pair].num_samples} samples "
                f"on the {mod.sample_interval:g} s grid, above the cap of {_MAX_SAMPLES}; {source}"
            )
        if seed is not None:
            # A pinned seed fixes the realization for every trial.
            with _at_line(lineno):
                channels[pair] = chanmodel.synth_reverberant(seed, channels[pair], label=label)

    if "noise" not in sections:
        raise ConfigError("missing required section [noise]")
    # The mode says which of the other keys apply, and names the NoiseSpec
    # constructor that takes them.
    mode = read("noise", SCHEMA["noise"][:1])["mode"]
    with _at_line(sections["noise"][0], "invalid [noise]: "):
        noise = getattr(linksim.NoiseSpec, mode)(**read("noise", SCHEMA["noise"][1:], mode))

    sweep = read("sweep", SCHEMA["sweep"])
    if sweep["sweep_values"] is not None:
        values_line = sections["sweep"][1]["values"].lineno
        if sweep["sweep_variable"] is None:
            raise ConfigError(f"line {values_line}: values requires variable to say what is swept")
        with _at_line(values_line):
            for value in sweep["sweep_values"]:
                _grid_point(sweep["sweep_variable"], value, tuple(links), mod)

    # Links must be able to reach every receiver in the full configuration.
    receivers = sorted({link.rx_node for link in links})
    for (_, name), link in zip(sorted(numbered.items()), links):
        for rx in receivers:
            if (link.tx_node, rx) not in channels:
                raise ConfigError(
                    f'line {sections[name][0]}: missing section [channel "{link.tx_node}->{rx}"] '
                    "required by the links"
                )
    if sweep["n_trials"] is None:
        fresh = any(isinstance(c, chanmodel.ReverbParams) for c in channels.values())
        sweep["n_trials"] = 10 if fresh else 1
    output = read("output", SCHEMA["output"])
    return RunConfig(channels, tuple(links), mod, noise, **sweep, **output)


def _sweep_csv(command: str, cfg: RunConfig, path: Path) -> list[Path]:
    """Sweep ``command``'s variable over the config's values, or its default grid.

    A config that names a sweep variable serves only the command sweeping it.
    Each grid value is resolved once, before any trial. The parser checked
    configured values; a default grid value the sweep cannot run is refused
    here the same way.
    """
    variable, default = _SWEEPS[command]
    if default is None:
        default = tuple(float(n) for n in range(1, len(cfg.links) + 1))
    if cfg.sweep_variable not in (None, variable):
        raise ConfigError(
            f"config sweep variable {cfg.sweep_variable!r} does not match command "
            f"{command!r} (expected {variable!r})"
        )
    points = []
    for value in cfg.sweep_values or default:
        try:
            points.append((value, *_grid_point(variable, value, cfg.links, cfg.mod)))
        except ValueError as exc:
            fix = "name a grid that fits with [sweep] variable and values"
            raise ConfigError(f"default {command} grid value {value:g}: {exc}; {fix}") from None
    counts = cfg.n_bits, cfg.n_trials, cfg.master_seed
    write_sweep_csv(experiments.sweep(variable, points, cfg.channels, cfg.noise, *counts), path)
    return [path]


def cmd_run(cfg: RunConfig, path: Path) -> list[Path]:
    """Monte Carlo over the configured links exactly as written: one row per link, labelled ``config,0``."""
    counts = cfg.n_bits, cfg.n_trials, cfg.master_seed
    rows = experiments.sweep("config", [(0.0, cfg.links, cfg.mod)], cfg.channels, cfg.noise, *counts)
    write_sweep_csv(rows, path)
    return [path]


def cmd_focusing(cfg: RunConfig, path: Path) -> list[Path]:
    """Focusing audit probed from the first configured link.

    Reports every node the probe transmitter has a configured channel to;
    nodes without such a channel (typically other transmitters) are left
    out rather than demanded.
    """
    probe = cfg.links[0]
    channels = realize_channels(cfg.channels, cfg.master_seed).items()
    node_map = {rx: cir for (tx, rx), cir in channels if tx == probe.tx_node}
    write_focusing_csv(experiments.focusing_report(node_map, probe.rx_node, probe.tx_power_dbm), path)
    return [path]


def cmd_gen_channel(cfg: RunConfig, pattern: Path) -> list[Path]:
    """Write every configured channel realization as a CIR CSV, named by its endpoints."""
    channels = realize_channels(cfg.channels, cfg.master_seed)
    written = []
    for pair in sorted(channels):
        written.append(pattern.with_name(pattern.name.format(*pair)))
        chanmodel.write_cir_csv(channels[pair], written[-1])
    return written


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def write_sweep_csv(rows: list[experiments.SweepRow], path: Path) -> None:
    lines = []
    for r in rows:
        numbers = (r.sinr_db, r.signal_w, r.isi_w, r.cochannel_w, r.noise_w, r.ber, *r.ber_ci)
        lines.append([r.variable, _fmt(r.value), r.link, *map(_fmt, numbers), str(r.bits), str(r.errors)])
    chanmodel._write_csv(path, SWEEP_HEADER, lines)


def write_focusing_csv(entries: dict[str, experiments.FocusEntry], path: Path) -> None:
    lines = []
    for node in sorted(entries):
        e = entries[node]
        lines.append([node, *map(_fmt, (e.tr_peak_w, e.tr_total_w, e.nontr_peak_w, e.nontr_total_w))])
    chanmodel._write_csv(path, FOCUSING_HEADER, lines)


# Each command: the function that writes its output, given the config and
# the output path, and the output file name (for gen-channel a pattern
# filled in with each channel's endpoints).
_COMMANDS = {
    "run": (cmd_run, "run.csv"),
    **{c: (functools.partial(_sweep_csv, c), f"{c.replace('-', '_')}.csv") for c in _SWEEPS},
    "focusing": (cmd_focusing, "focusing.csv"),
    "gen-channel": (cmd_gen_channel, "cir_{}_to_{}.csv"),
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trlinksim",
        description="Link-level simulator for time-reversal precoded on-package wireless links.",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--n-bits", type=int, default=None, help="override bits per trial")
    parser.add_argument("--trials", type=int, default=None, help="override trials per grid point")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    cfg = None
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
        cfg = parse_config(text, base_dir=str(Path(args.config).parent))
        overrides = {} if args.out is None else {"out_dir": args.out}
        # A flag that overrides a [sweep] key follows that key's rule.
        sweep_keys = {key.name: key for key in SCHEMA["sweep"]}
        for flag, name in (("--seed", "master_seed"), ("--n-bits", "n_bits"), ("--trials", "n_trials")):
            value = getattr(args, flag[2:].replace("-", "_"))
            if value is not None:
                sweep_keys[name].parse(str(value), flag)
                overrides[name] = value
        cfg = dataclasses.replace(cfg, **overrides)
        command, name = _COMMANDS[args.command]
        for path in command(cfg, Path(cfg.out_dir) / name):
            print(path)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # numpy refuses an allocation the machine cannot give before it makes it,
        # and run_trial streams of 2^63 bytes or more, which no machine can.
        what = "reading the config" if cfg is None else f"running {args.command} at n_bits = {cfg.n_bits}"
        print(f"error: out of memory {what}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
