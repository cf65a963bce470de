"""Config-driven command line front end.

Reads an INI-like run configuration, builds scenarios, and writes
deterministic CSV results. Every output-affecting setting comes either
from the config file or from a documented default (see DEFAULTS below);
unknown sections or keys are rejected unless --no-strict is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from . import chanmodel, detector, experiments, linksim, sigchain

__all__ = [
    "ConfigError",
    "ChannelSource",
    "RunConfig",
    "parse_config",
    "realize_channels",
    "main",
]

# Documented defaults for optional settings. Everything else that can
# change the numbers must appear in the config or as a CLI flag.
DEFAULTS = {
    "bit_rate_bps": 50e9,
    "samples_per_symbol": 4,
    "level_zero": 0.0,
    "level_one": 1.0,
    "carrier_hz": 140e9,
    "precoding": "tr",
    "power_dbm": 0.0,
    "rician_k": 0.0,
    "total_energy": 1.0,
    "n_bits": 1000,
    "master_seed": 0,
    "pilot_bits": 64,
    "output_dir": "out",
}

SWEEP_HEADER = (
    "variable,value,link,sinr_db,signal_w,isi_w,cochannel_w,noise_w,"
    "ber,ber_ci_lo,ber_ci_hi,bits,errors"
)
FOCUSING_HEADER = "node,tr_peak_w,tr_total_w,nontr_peak_w,nontr_total_w"

_POWER_GRID_DEFAULT = tuple(float(p) for p in range(-5, 11))
_RATE_GRID_DEFAULT = (10e9, 20e9, 40e9, 80e9)


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


def _as_float(entry: _Entry, what: str) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise ConfigError(f"line {entry.lineno}: {what} must be a number, got {entry.value!r}") from None


def _as_int(entry: _Entry, what: str) -> int:
    value = _as_float(entry, what)
    if int(value) != value:
        raise ConfigError(f"line {entry.lineno}: {what} must be an integer, got {entry.value!r}")
    return int(value)


def _check_keys(name: str, lineno: int, body: dict[str, _Entry], allowed: set[str], strict: bool) -> None:
    for key, entry in body.items():
        if key not in allowed:
            message = f"line {entry.lineno}: unknown key {key!r} in [{name}]"
            if strict:
                raise ConfigError(message)
            print(f"warning: {message}", file=sys.stderr)


@dataclass(frozen=True)
class ChannelSource:
    """Where one channel comes from: a CIR file or the reverberant model."""

    pair: tuple[str, str]
    file: str | None = None
    reverb: chanmodel.ReverbParams | None = None
    seed: int | None = None  # pins the realization across trials when set

    @property
    def fresh(self) -> bool:
        """Whether each trial draws this channel anew (synthetic, no pinned seed)."""
        return self.reverb is not None and self.seed is None


@dataclass(frozen=True)
class RunConfig:
    nodes: tuple[str, ...]
    channel_sources: dict[tuple[str, str], ChannelSource]
    links: tuple[linksim.LinkSpec, ...]
    mod: sigchain.ModParams
    noise: linksim.NoiseSpec
    sweep_variable: str | None
    sweep_values: tuple[float, ...] | None
    n_bits: int
    n_trials: int | None  # None -> 10 with fresh synthetic channels, else 1
    master_seed: int
    pilot_len: int
    out_dir: str

    @property
    def has_fresh_synthetic(self) -> bool:
        return any(src.fresh for src in self.channel_sources.values())

    @property
    def effective_trials(self) -> int:
        if self.n_trials is not None:
            return self.n_trials
        return 10 if self.has_fresh_synthetic else 1


_CHANNEL_SECTION = re.compile(r'^channel\s+"([^"]+)"$')
_LINK_SECTION = re.compile(r"^link\s+(\d+)$")

_NODE_KEYS = {"names"}
_CHANNEL_KEYS = {
    "file",
    "model",
    "num_taps",
    "rms_delay_spread_s",
    "max_delay_s",
    "rician_k",
    "total_energy",
    "sample_interval_s",
    "seed",
}
_LINK_KEYS = {"tx", "rx", "precoding", "power_dbm"}
_MOD_KEYS = {"bit_rate_bps", "samples_per_symbol", "level_zero", "level_one", "carrier_hz"}
_NOISE_KEYS = {"mode", "temperature_k", "bandwidth_hz", "power_dbm"}
_SWEEP_KEYS = {"variable", "values", "n_bits", "n_trials", "master_seed", "pilot_bits"}
_OUTPUT_KEYS = {"dir"}

_SWEEP_VARIABLE_NAMES = ("tx_power_dbm", "aggregate_rate_bps", "n_links")


def _require(body: dict[str, _Entry], key: str, section: str, lineno: int) -> _Entry:
    if key not in body:
        raise ConfigError(f"line {lineno}: missing required key {key!r} in [{section}]")
    return body[key]


def _parse_pair(pair_text: str, nodes: set[str], lineno: int) -> tuple[str, str]:
    parts = [p.strip() for p in pair_text.split("->")]
    if len(parts) != 2 or not all(parts):
        raise ConfigError(f'line {lineno}: channel name must look like "A->B", got {pair_text!r}')
    for node in parts:
        if node not in nodes:
            raise ConfigError(f"line {lineno}: undefined node {node!r}")
    if parts[0] == parts[1]:
        raise ConfigError(f"line {lineno}: channel endpoints must differ")
    return parts[0], parts[1]


def parse_config(text: str, strict: bool = True, base_dir: str = ".") -> RunConfig:
    """Parse and validate a run configuration.

    ``base_dir`` anchors relative channel file paths (normally the
    directory containing the config file). Semantic errors name the line
    they come from.
    """
    sections = _parse_sections(text)

    known_simple = {"nodes", "modulation", "noise", "sweep", "output"}
    for name, (lineno, _) in sections.items():
        if name in known_simple or _CHANNEL_SECTION.match(name) or _LINK_SECTION.match(name):
            continue
        message = f"line {lineno}: unknown section [{name}]"
        if strict:
            raise ConfigError(message)
        print(f"warning: {message}", file=sys.stderr)

    if "nodes" not in sections:
        raise ConfigError("missing required section [nodes]")
    nodes_line, nodes_body = sections["nodes"]
    _check_keys("nodes", nodes_line, nodes_body, _NODE_KEYS, strict)
    names_entry = _require(nodes_body, "names", "nodes", nodes_line)
    node_list = [n.strip() for n in names_entry.value.split(",") if n.strip()]
    if not node_list:
        raise ConfigError(f"line {names_entry.lineno}: [nodes] names is empty")
    if len(set(node_list)) != len(node_list):
        raise ConfigError(f"line {names_entry.lineno}: duplicate node names")
    node_set = set(node_list)

    # Modulation first: synthetic channels default onto its sample grid.
    mod_line, mod_body = sections.get("modulation", (0, {}))
    if "modulation" in sections:
        _check_keys("modulation", mod_line, mod_body, _MOD_KEYS, strict)
    try:
        mod = sigchain.ModParams(
            bit_rate=_as_float(mod_body["bit_rate_bps"], "bit_rate_bps")
            if "bit_rate_bps" in mod_body
            else DEFAULTS["bit_rate_bps"],
            samples_per_symbol=_as_int(mod_body["samples_per_symbol"], "samples_per_symbol")
            if "samples_per_symbol" in mod_body
            else DEFAULTS["samples_per_symbol"],
            level_zero=_as_float(mod_body["level_zero"], "level_zero")
            if "level_zero" in mod_body
            else DEFAULTS["level_zero"],
            level_one=_as_float(mod_body["level_one"], "level_one")
            if "level_one" in mod_body
            else DEFAULTS["level_one"],
            carrier_hz=_as_float(mod_body["carrier_hz"], "carrier_hz")
            if "carrier_hz" in mod_body
            else DEFAULTS["carrier_hz"],
        )
    except ValueError as exc:
        raise ConfigError(f"line {mod_line}: invalid [modulation]: {exc}") from None

    channel_sources: dict[tuple[str, str], ChannelSource] = {}
    for name, (lineno, body) in sections.items():
        match = _CHANNEL_SECTION.match(name)
        if not match:
            continue
        pair = _parse_pair(match.group(1), node_set, lineno)
        if pair in channel_sources:
            raise ConfigError(f"line {lineno}: duplicate channel {pair[0]}->{pair[1]}")
        _check_keys(name, lineno, body, _CHANNEL_KEYS, strict)
        has_file = "file" in body
        has_model = "model" in body
        if has_file == has_model:
            raise ConfigError(f"line {lineno}: [{name}] needs exactly one of 'file' or 'model'")
        if has_file:
            for key in body:
                if key not in ("file",) and key in _CHANNEL_KEYS:
                    raise ConfigError(
                        f"line {body[key].lineno}: {key!r} does not apply to a file-backed channel"
                    )
            path = Path(base_dir) / body["file"].value
            if not path.is_file():
                raise ConfigError(f"line {body['file'].lineno}: channel file not found: {path}")
            channel_sources[pair] = ChannelSource(pair, file=str(path))
            continue
        model = body["model"].value
        if model != "reverberant":
            raise ConfigError(f"line {body['model'].lineno}: unknown channel model {model!r}")
        try:
            reverb = chanmodel.ReverbParams(
                sample_interval=_as_float(body["sample_interval_s"], "sample_interval_s")
                if "sample_interval_s" in body
                else mod.sample_interval,
                num_taps=_as_int(_require(body, "num_taps", name, lineno), "num_taps"),
                rms_delay_spread_target=_as_float(
                    _require(body, "rms_delay_spread_s", name, lineno), "rms_delay_spread_s"
                ),
                max_delay=_as_float(_require(body, "max_delay_s", name, lineno), "max_delay_s"),
                rician_k=_as_float(body["rician_k"], "rician_k")
                if "rician_k" in body
                else DEFAULTS["rician_k"],
                total_energy=_as_float(body["total_energy"], "total_energy")
                if "total_energy" in body
                else DEFAULTS["total_energy"],
            )
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid [{name}]: {exc}") from None
        seed = _as_int(body["seed"], "seed") if "seed" in body else None
        if seed is not None and seed < 0:
            raise ConfigError(f"line {body['seed'].lineno}: seed must be non-negative")
        channel_sources[pair] = ChannelSource(pair, reverb=reverb, seed=seed)

    link_sections = []
    for name, (lineno, body) in sections.items():
        match = _LINK_SECTION.match(name)
        if match:
            link_sections.append((int(match.group(1)), name, lineno, body))
    link_sections.sort()
    links = []
    seen_streams = set()
    for _, name, lineno, body in link_sections:
        _check_keys(name, lineno, body, _LINK_KEYS, strict)
        tx_entry = _require(body, "tx", name, lineno)
        rx_entry = _require(body, "rx", name, lineno)
        for entry in (tx_entry, rx_entry):
            if entry.value not in node_set:
                raise ConfigError(f"line {entry.lineno}: undefined node {entry.value!r}")
        precoding = body["precoding"].value if "precoding" in body else DEFAULTS["precoding"]
        power = (
            _as_float(body["power_dbm"], "power_dbm")
            if "power_dbm" in body
            else DEFAULTS["power_dbm"]
        )
        stream_id = f"{tx_entry.value}->{rx_entry.value}"
        if stream_id in seen_streams:
            raise ConfigError(f"line {lineno}: duplicate link {stream_id}")
        seen_streams.add(stream_id)
        try:
            links.append(
                linksim.LinkSpec(tx_entry.value, rx_entry.value, stream_id, precoding, power)
            )
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid [{name}]: {exc}") from None
    if not links:
        raise ConfigError("config defines no [link N] sections")

    if "noise" not in sections:
        raise ConfigError("missing required section [noise]")
    noise_line, noise_body = sections["noise"]
    _check_keys("noise", noise_line, noise_body, _NOISE_KEYS, strict)
    mode_entry = _require(noise_body, "mode", "noise", noise_line)
    try:
        if mode_entry.value == "thermal":
            for key in ("power_dbm",):
                if key in noise_body:
                    raise ConfigError(
                        f"line {noise_body[key].lineno}: {key!r} does not apply to thermal noise"
                    )
            noise = linksim.NoiseSpec.thermal(
                _as_float(_require(noise_body, "temperature_k", "noise", noise_line), "temperature_k"),
                _as_float(_require(noise_body, "bandwidth_hz", "noise", noise_line), "bandwidth_hz"),
            )
        elif mode_entry.value == "explicit":
            for key in ("temperature_k", "bandwidth_hz"):
                if key in noise_body:
                    raise ConfigError(
                        f"line {noise_body[key].lineno}: {key!r} does not apply to explicit noise"
                    )
            noise = linksim.NoiseSpec.explicit(
                _as_float(_require(noise_body, "power_dbm", "noise", noise_line), "power_dbm")
            )
        else:
            raise ConfigError(
                f"line {mode_entry.lineno}: noise mode must be 'thermal' or 'explicit', got {mode_entry.value!r}"
            )
    except ValueError as exc:
        raise ConfigError(f"line {noise_line}: invalid [noise]: {exc}") from None

    sweep_line, sweep_body = sections.get("sweep", (0, {}))
    if "sweep" in sections:
        _check_keys("sweep", sweep_line, sweep_body, _SWEEP_KEYS, strict)
    sweep_variable = None
    if "variable" in sweep_body:
        sweep_variable = sweep_body["variable"].value
        if sweep_variable not in _SWEEP_VARIABLE_NAMES:
            raise ConfigError(
                f"line {sweep_body['variable'].lineno}: variable must be one of "
                f"{_SWEEP_VARIABLE_NAMES}, got {sweep_variable!r}"
            )
    sweep_values = None
    if "values" in sweep_body:
        entry = sweep_body["values"]
        if sweep_variable is None:
            raise ConfigError(f"line {entry.lineno}: values requires variable to say what is swept")
        try:
            sweep_values = tuple(float(v.strip()) for v in entry.value.split(",") if v.strip())
        except ValueError:
            raise ConfigError(f"line {entry.lineno}: values must be comma-separated numbers") from None
        if not sweep_values:
            raise ConfigError(f"line {entry.lineno}: values is empty")
    n_bits = _as_int(sweep_body["n_bits"], "n_bits") if "n_bits" in sweep_body else DEFAULTS["n_bits"]
    if n_bits < 100:
        raise ConfigError(f"line {sweep_body['n_bits'].lineno}: n_bits must be at least 100")
    n_trials = _as_int(sweep_body["n_trials"], "n_trials") if "n_trials" in sweep_body else None
    if n_trials is not None and n_trials < 1:
        raise ConfigError(f"line {sweep_body['n_trials'].lineno}: n_trials must be at least 1")
    master_seed = (
        _as_int(sweep_body["master_seed"], "master_seed")
        if "master_seed" in sweep_body
        else DEFAULTS["master_seed"]
    )
    if master_seed < 0:
        raise ConfigError(f"line {sweep_body['master_seed'].lineno}: master_seed must be non-negative")
    pilot_len = (
        _as_int(sweep_body["pilot_bits"], "pilot_bits")
        if "pilot_bits" in sweep_body
        else DEFAULTS["pilot_bits"]
    )
    if pilot_len < 2:
        raise ConfigError(f"line {sweep_body['pilot_bits'].lineno}: pilot_bits must be at least 2")

    out_line, out_body = sections.get("output", (0, {}))
    if "output" in sections:
        _check_keys("output", out_line, out_body, _OUTPUT_KEYS, strict)
    out_dir = out_body["dir"].value if "dir" in out_body else DEFAULTS["output_dir"]

    cfg = RunConfig(
        nodes=tuple(node_list),
        channel_sources=channel_sources,
        links=tuple(links),
        mod=mod,
        noise=noise,
        sweep_variable=sweep_variable,
        sweep_values=sweep_values,
        n_bits=n_bits,
        n_trials=n_trials,
        master_seed=master_seed,
        pilot_len=pilot_len,
        out_dir=out_dir,
    )

    # Links must be able to reach every receiver in the full configuration.
    receivers = sorted({link.rx_node for link in cfg.links})
    for link in cfg.links:
        for rx in receivers:
            if (link.tx_node, rx) not in channel_sources:
                raise ConfigError(
                    f'missing section [channel "{link.tx_node}->{rx}"] required by the links'
                )
    return cfg


def realize_channels(
    cfg: RunConfig,
    channel_seed: int | None,
    fixed: Mapping[tuple[str, str], chanmodel.Cir] | None = None,
) -> dict[tuple[str, str], chanmodel.Cir]:
    """Load or synthesize the configured channels.

    Synthetic channels without a pinned seed derive theirs from
    ``channel_seed`` and the channel's position in sorted pair order, so
    sweeps can hand each trial a fresh set. With ``channel_seed`` None
    only the channels that do not depend on it are realized: files and
    pinned synthetic channels. Pairs found in ``fixed`` are taken from
    it as they are.
    """
    out: dict[tuple[str, str], chanmodel.Cir] = {}
    for index, pair in enumerate(sorted(cfg.channel_sources)):
        source = cfg.channel_sources[pair]
        label = f"{pair[0]}->{pair[1]}"
        if fixed is not None and pair in fixed:
            cir = fixed[pair]
        elif source.file is not None:
            cir = chanmodel.read_cir_csv(source.file, label=label)
            if not chanmodel.same_grid(cir.sample_interval, cfg.mod.sample_interval):
                raise ValueError(
                    f"grid mismatch: channel file {source.file} has sample_interval "
                    f"{cir.sample_interval!r}, modulation grid is {cfg.mod.sample_interval!r}"
                )
        elif source.fresh and channel_seed is None:
            continue
        else:
            seed = source.seed if source.seed is not None else experiments.derive_seed(channel_seed, index)
            cir = chanmodel.synth_reverberant(seed, source.reverb, label=label)
        out[pair] = cir
    return out


def _is_scatter(links: tuple[linksim.LinkSpec, ...]) -> bool:
    return len(links) > 1 and len({link.tx_node for link in links}) == 1


def _build_scenario(
    cfg: RunConfig,
    channels: Mapping[tuple[str, str], chanmodel.Cir],
    links: tuple[linksim.LinkSpec, ...],
    rate_per_stream: float | None = None,
) -> linksim.Scenario:
    """Assemble a scenario from config links, with an optional per-stream rate."""
    mod = cfg.mod
    if rate_per_stream is not None:
        mod = experiments.mod_params_for_rate(
            rate_per_stream,
            cfg.mod.sample_interval,
            cfg.mod.level_zero,
            cfg.mod.level_one,
            cfg.mod.carrier_hz,
        )
    receivers = sorted({link.rx_node for link in links})
    needed = {}
    for link in links:
        for rx in receivers:
            pair = (link.tx_node, rx)
            needed[pair] = channels[pair]
    return linksim.Scenario(cfg.nodes, needed, links, cfg.noise, mod)


def _stream_powers(links: tuple[linksim.LinkSpec, ...], power_value: float) -> dict[str, float]:
    """Per-stream dBm for a swept power value.

    The value is per-transmitter power, except for scatter-style configs
    (several links sharing one transmitter) where it is the total budget
    split equally across streams.
    """
    if _is_scatter(links):
        per_stream = power_value - 10.0 * math.log10(len(links))
    else:
        per_stream = power_value
    return {link.stream_id: per_stream for link in links}


def _sweep_rows(cfg: RunConfig, variable: str, grid: tuple, links: tuple | None = None):
    links = cfg.links if links is None else links
    spec = experiments.SweepSpec(
        variable=variable,
        grid=grid,
        n_bits=cfg.n_bits,
        n_trials=cfg.effective_trials,
        master_seed=cfg.master_seed,
        pilot_len=cfg.pilot_len,
    )
    # Files and pinned channels are the same in every trial: realize them once.
    fixed = realize_channels(cfg, None)

    def at_realization(channels) -> Callable[[float], linksim.Scenario]:
        """Scenario per grid value over one channel realization."""
        if variable == "tx_power_dbm":
            # Power leaves the response table alone: every value re-powers one base.
            base = _build_scenario(cfg, channels, links)
            return lambda value: base.with_powers(_stream_powers(links, float(value)))
        if variable == "aggregate_rate_bps":
            return lambda value: _build_scenario(
                cfg, channels, links, rate_per_stream=float(value) / len(links)
            )
        if variable == "n_links":
            return lambda value: _build_scenario(cfg, channels, cfg.links[: int(value)])
        return lambda value: _build_scenario(cfg, channels, links)

    if cfg.has_fresh_synthetic:

        def template(value: float, channel_seed: int) -> linksim.Scenario:
            return at_realization(realize_channels(cfg, channel_seed, fixed))(value)

    else:
        # One realization serves every trial: one scenario per grid value.
        build = at_realization(fixed)
        scenarios: dict[float, linksim.Scenario] = {}

        def template(value: float, channel_seed: int) -> linksim.Scenario:
            if value not in scenarios:
                scenarios[value] = build(value)
            return scenarios[value]

    return experiments.sweep(spec, template)


def cmd_run(cfg: RunConfig) -> list[experiments.SweepRow]:
    """Monte Carlo over the configured links exactly as written."""
    return _sweep_rows(cfg, "config", (0.0,))


def _grid_for(cfg: RunConfig, variable: str, default: tuple[float, ...]) -> tuple[float, ...]:
    if cfg.sweep_values and cfg.sweep_variable == variable:
        return cfg.sweep_values
    return default


def cmd_sweep_power(cfg: RunConfig) -> list[experiments.SweepRow]:
    grid = _grid_for(cfg, "tx_power_dbm", _POWER_GRID_DEFAULT)
    return _sweep_rows(cfg, "tx_power_dbm", grid)


def cmd_sweep_rate(cfg: RunConfig) -> list[experiments.SweepRow]:
    grid = _grid_for(cfg, "aggregate_rate_bps", _RATE_GRID_DEFAULT)
    return _sweep_rows(cfg, "aggregate_rate_bps", grid)


def cmd_sweep_links(cfg: RunConfig) -> list[experiments.SweepRow]:
    default = tuple(float(n) for n in range(1, len(cfg.links) + 1))
    grid = _grid_for(cfg, "n_links", default)
    for value in grid:
        if int(value) != value or not 1 <= int(value) <= len(cfg.links):
            raise ConfigError(
                f"n_links sweep value {value!r} must be an integer in [1, {len(cfg.links)}]"
            )
    return _sweep_rows(cfg, "n_links", tuple(grid))


def cmd_focusing(cfg: RunConfig) -> dict[str, experiments.FocusEntry]:
    """Focusing audit probed from the first configured link.

    Reports every node the probe transmitter has a configured channel to;
    nodes without such a channel (typically other transmitters) are left
    out rather than demanded.
    """
    probe = cfg.links[0]
    channels = realize_channels(cfg, cfg.master_seed)
    node_map = {
        node: channels[(probe.tx_node, node)]
        for node in cfg.nodes
        if (probe.tx_node, node) in channels
    }
    return experiments.focusing_report(node_map, probe.rx_node, probe.tx_power_dbm)


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_sweep_csv(rows: list[experiments.SweepRow], path: Path) -> None:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row.variable,
                    _fmt(row.value),
                    row.link,
                    _fmt(row.sinr_db),
                    _fmt(row.signal_w),
                    _fmt(row.isi_w),
                    _fmt(row.cochannel_w),
                    _fmt(row.noise_w),
                    _fmt(row.ber),
                    _fmt(row.ber_ci[0]),
                    _fmt(row.ber_ci[1]),
                    str(row.bits),
                    str(row.errors),
                ]
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_focusing_csv(entries: dict[str, experiments.FocusEntry], path: Path) -> None:
    lines = [FOCUSING_HEADER]
    for node in sorted(entries):
        e = entries[node]
        lines.append(
            ",".join(
                [node, _fmt(e.tr_peak_w), _fmt(e.tr_total_w), _fmt(e.nontr_peak_w), _fmt(e.nontr_total_w)]
            )
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _safe_name(pair: tuple[str, str]) -> str:
    return f"cir_{pair[0]}_to_{pair[1]}.csv"


def cmd_gen_channel(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Write every configured channel realization as a CIR CSV."""
    channels = realize_channels(cfg, cfg.master_seed)
    written = []
    for pair in sorted(channels):
        path = out_dir / _safe_name(pair)
        cir = channels[pair]
        lines = [f"# cir {pair[0]}->{pair[1]} sample_interval_s={cir.sample_interval:.17g}"]
        for t, v in zip(cir.times, cir.samples):
            lines.append(f"{t:.17g},{v.real:.17g},{v.imag:.17g}")
        _atomic_write(path, "\n".join(lines) + "\n")
        written.append(path)
    return written


_COMMANDS = ("run", "sweep-power", "sweep-rate", "sweep-links", "focusing", "gen-channel")

_VARIABLE_OF_COMMAND = {
    "sweep-power": "tx_power_dbm",
    "sweep-rate": "aggregate_rate_bps",
    "sweep-links": "n_links",
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trlinksim",
        description="Link-level simulator for time-reversal precoded on-package wireless links.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--n-bits", type=int, default=None, help="override bits per trial")
    parser.add_argument("--trials", type=int, default=None, help="override trials per grid point")
    parser.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reject unknown config sections and keys (default on)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text, strict=args.strict, base_dir=str(Path(args.config).parent))
        overrides = {}
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            overrides["master_seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.n_bits is not None:
            if args.n_bits < 100:
                raise ConfigError("--n-bits must be at least 100")
            overrides["n_bits"] = args.n_bits
        if args.trials is not None:
            if args.trials < 1:
                raise ConfigError("--trials must be at least 1")
            overrides["n_trials"] = args.trials
        if overrides:
            cfg = dataclasses.replace(cfg, **overrides)
        expected = _VARIABLE_OF_COMMAND.get(args.command)
        if expected and cfg.sweep_variable and cfg.sweep_variable != expected:
            raise ConfigError(
                f"config sweep variable {cfg.sweep_variable!r} does not match command "
                f"{args.command!r} (expected {expected!r})"
            )
        out_dir = Path(cfg.out_dir)
        written: list[Path]
        if args.command == "run":
            rows = cmd_run(cfg)
            written = [out_dir / "run.csv"]
            write_sweep_csv(rows, written[0])
        elif args.command == "sweep-power":
            rows = cmd_sweep_power(cfg)
            written = [out_dir / "sweep_power.csv"]
            write_sweep_csv(rows, written[0])
        elif args.command == "sweep-rate":
            rows = cmd_sweep_rate(cfg)
            written = [out_dir / "sweep_rate.csv"]
            write_sweep_csv(rows, written[0])
        elif args.command == "sweep-links":
            rows = cmd_sweep_links(cfg)
            written = [out_dir / "sweep_links.csv"]
            write_sweep_csv(rows, written[0])
        elif args.command == "focusing":
            entries = cmd_focusing(cfg)
            written = [out_dir / "focusing.csv"]
            write_focusing_csv(entries, written[0])
        else:
            written = cmd_gen_channel(cfg, out_dir)
        for path in written:
            print(path)
        return 0
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
