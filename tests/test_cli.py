"""Config parsing, channel realization, and the command line front end."""

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trlinksim
from trlinksim import chanmodel, cli, detector, experiments, linksim, sigchain
from trlinksim.chanmodel import Cir, read_cir_csv, write_cir_csv
from trlinksim.cli import (
    FOCUSING_HEADER,
    SCHEMA,
    SWEEP_HEADER,
    ConfigError,
    main,
    parse_config,
)
from trlinksim.experiments import realize_channels

MINIMAL = """\
[nodes]
names = A, B

[channel "A->B"]
model = reverberant
num_taps = 8
rms_delay_spread_s = 50e-12
max_delay_s = 200e-12

[link 1]
tx = A
rx = B

[noise]
mode = explicit
power_dbm = -40
"""

TWO_LINK = """\
[nodes]
names = A, B, C, D

[channel "A->B"]
model = reverberant
num_taps = 8
rms_delay_spread_s = 50e-12
max_delay_s = 200e-12

[channel "A->D"]
model = reverberant
num_taps = 8
rms_delay_spread_s = 50e-12
max_delay_s = 200e-12

[channel "C->B"]
model = reverberant
num_taps = 8
rms_delay_spread_s = 50e-12
max_delay_s = 200e-12

[channel "C->D"]
model = reverberant
num_taps = 8
rms_delay_spread_s = 50e-12
max_delay_s = 200e-12

[link 1]
tx = A
rx = B

[link 2]
tx = C
rx = D

[noise]
mode = explicit
power_dbm = -40

[sweep]
n_bits = 100
n_trials = 1
"""


def test_package_reexports_the_working_surface():
    for name in ("Cir", "ReverbParams", "LinkSpec", "Scenario", "run_trial", "sweep"):
        assert hasattr(trlinksim, name)
    assert callable(main)


# The names the package listed one by one before it took its modules' __all__ lists,
# less SweepSpec, whose fields became sweep's arguments, noise_power, which
# only returned NoiseSpec.watts, EffectiveResponse, whose taps and offset
# the response table holds, the two scenario builders, whose scenarios are
# built as Scenario(channels, links, noise, mod), the channel-set drawer,
# whose seeding rule realize_channels now holds, and the bit-error record,
# whose bit count the caller already knows: count_errors returns the errors.
_LISTED_NAMES = """
BOLTZMANN_J_PER_K Cir FocusEntry LinkSpec ModParams NoiseSpec
ResponseTable ReverbParams Scenario SinrReport SweepRow TrFilter Waveform
channel_correlation compute_sinr count_errors
dbm_to_watts demodulate derive_seed effective_response focusing_report full_rate_response
import_frequency_response link_filter make_identity_filter make_tr_filter mod_params_for_rate
modulate_ask precode propagate read_cir_csv rms_delay_spread run_trial
scale_to_power sinr_from_powers sweep synth_correlated_pair
synth_reverberant train_threshold wilson_interval write_cir_csv
""".split()


def test_package_exports_the_union_of_its_modules_names():
    assert len(_LISTED_NAMES) == 41 and set(_LISTED_NAMES) <= set(trlinksim.__all__)
    # Besides those, two experiment names; the FFT engine's helpers stay module internals.
    assert set(trlinksim.__all__) - set(_LISTED_NAMES) == {"realize_channels", "split_power_dbm"}
    modules = (chanmodel, detector, experiments, linksim, sigchain)
    assert trlinksim.__all__ == sorted({name for m in modules for name in m.__all__})
    assert all(getattr(trlinksim, name) is getattr(m, name) for m in modules for name in m.__all__)


def test_parse_minimal_config_applies_defaults():
    cfg = parse_config(MINIMAL)
    assert (cfg.mod.bit_rate, cfg.mod.samples_per_symbol) == (50e9, 4)
    link = cfg.links[0]
    assert (link.precoding, link.tx_power_dbm) == ("tr", 0.0)
    # a fresh synthetic channel: 10 trials
    assert (cfg.n_bits, cfg.n_trials, cfg.master_seed) == (1000, 10, 0)
    assert cfg.out_dir == "out"
    assert cfg.sweep_variable is None and cfg.sweep_values is None
    # synthetic channel inherits the modulation sample grid; no pinned seed keeps it unrealized
    params = cfg.channels[("A", "B")]
    assert isinstance(params, chanmodel.ReverbParams)
    assert params.sample_interval == pytest.approx(5e-12, rel=1e-12)


def test_effective_trials_depend_on_channel_freshness(tmp_path):
    assert parse_config(MINIMAL).n_trials == 10
    pinned = MINIMAL.replace("max_delay_s = 200e-12", "max_delay_s = 200e-12\nseed = 7")
    assert parse_config(pinned).n_trials == 1
    write_cir_csv(Cir(np.array([1.0, 0.0]), 5e-12), tmp_path / "chan.csv")
    file_cfg = MINIMAL.replace(
        "model = reverberant\nnum_taps = 8\nrms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12",
        "file = chan.csv",
    )
    assert parse_config(file_cfg, base_dir=str(tmp_path)).n_trials == 1
    explicit = MINIMAL + "\n[sweep]\nn_trials = 4\n"
    assert parse_config(explicit).n_trials == 4


def test_raw_parse_errors_name_the_line():
    with pytest.raises(ConfigError, match="line 1: malformed section header"):
        parse_config("[nodes\nnames = A\n")
    with pytest.raises(ConfigError, match="line 1: key outside any section"):
        parse_config("x = 1\n")
    with pytest.raises(ConfigError, match="line 3: duplicate section"):
        parse_config("[nodes]\nnames = A\n[nodes]\n")
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        parse_config("[nodes]\nhello\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key 'names'"):
        parse_config("[nodes]\nnames = A\nnames = B\n")
    with pytest.raises(ConfigError, match="line 1: empty section name"):
        parse_config("[ ]\n")


def test_nodes_section_errors():
    with pytest.raises(ConfigError, match="missing required section"):
        parse_config("")
    with pytest.raises(ConfigError, match="names is empty"):
        parse_config("[nodes]\nnames = ,\n")
    with pytest.raises(ConfigError, match="duplicate node names"):
        parse_config("[nodes]\nnames = A, B, A\n")
    with pytest.raises(ConfigError, match="missing required key 'names'"):
        parse_config("[nodes]\n")


def test_channel_section_errors():
    with pytest.raises(ConfigError, match=r"line \d+: undefined node 'Z'"):
        parse_config(MINIMAL.replace('[channel "A->B"]', '[channel "A->Z"]'))
    with pytest.raises(ConfigError, match="channel endpoints must differ"):
        parse_config(MINIMAL.replace('[channel "A->B"]', '[channel "A->A"]'))
    with pytest.raises(ConfigError, match='channel name must look like "A->B"'):
        parse_config(MINIMAL.replace('[channel "A->B"]', '[channel "AB"]'))
    with pytest.raises(ConfigError, match="needs exactly one of 'file' or 'model'"):
        parse_config(MINIMAL.replace("model = reverberant\n", ""))
    with pytest.raises(ConfigError, match="unknown channel model 'gaussian'"):
        parse_config(MINIMAL.replace("model = reverberant", "model = gaussian"))
    with pytest.raises(ConfigError, match="missing required key 'num_taps'"):
        parse_config(MINIMAL.replace("num_taps = 8\n", ""))
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        parse_config(MINIMAL.replace("num_taps = 8", "num_taps = 8\nseed = -3"))
    with pytest.raises(ConfigError, match="must be a number"):
        parse_config(MINIMAL.replace("max_delay_s = 200e-12", "max_delay_s = wide"))
    # model parameter validation surfaces with the section's line number
    with pytest.raises(ConfigError, match="unreachable"):
        parse_config(MINIMAL.replace("rms_delay_spread_s = 50e-12", "rms_delay_spread_s = 190e-12"))
    dup = MINIMAL.replace(
        "[link 1]",
        '[channel "A ->B"]\nmodel = reverberant\nnum_taps = 8\n'
        "rms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12\n\n[link 1]",
    )
    with pytest.raises(ConfigError, match="duplicate channel A->B"):
        parse_config(dup)


def test_file_channel_rules(tmp_path):
    write_cir_csv(Cir(np.array([1.0, 0.0]), 5e-12), tmp_path / "chan.csv")
    base = MINIMAL.replace(
        "model = reverberant\nnum_taps = 8\nrms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12",
        "file = chan.csv",
    )
    cfg = parse_config(base, base_dir=str(tmp_path))
    cir = cfg.channels[("A", "B")]
    assert np.array_equal(cir.samples, [1.0, 0.0]) and cir.label == "A->B"
    with pytest.raises(ConfigError, match="does not apply to a file-backed channel"):
        parse_config(base.replace("file = chan.csv", "file = chan.csv\nnum_taps = 4"),
                     base_dir=str(tmp_path))
    with pytest.raises(ConfigError, match="channel file not found"):
        parse_config(base.replace("chan.csv", "nope.csv"), base_dir=str(tmp_path))


def test_link_sections_sort_by_number_and_reject_duplicates():
    reordered = TWO_LINK.replace("[link 1]", "[link 10]").replace("[link 2]", "[link 2]")
    cfg = parse_config(reordered)
    assert [l.stream_id for l in cfg.links] == ["C->D", "A->B"]
    with pytest.raises(ConfigError, match="duplicate link A->B"):
        parse_config(MINIMAL + "\n[link 2]\ntx = A\nrx = B\n")
    with pytest.raises(ConfigError, match="missing required key 'tx'"):
        parse_config(MINIMAL.replace("tx = A\n", ""))
    with pytest.raises(ConfigError, match="defines no"):
        parse_config(MINIMAL.replace("[link 1]\ntx = A\nrx = B\n", ""))
    with pytest.raises(ConfigError, match="precoding"):
        parse_config(MINIMAL.replace("rx = B", "rx = B\nprecoding = zf"))


def test_bad_precoding_is_refused_at_its_own_line():
    text = MINIMAL.replace("rx = B", "rx = B\nprecoding = TR")
    line = text.splitlines().index("precoding = TR") + 1
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == f"line {line}: precoding must be 'tr' or 'none', got 'TR'"


@pytest.mark.parametrize("header", ["[link 01]", "[link  1]"])
def test_a_link_number_used_twice_is_refused_at_the_later_section(header):
    # Compared as text, "link 01" would sort first and make C->D link 1.
    text = TWO_LINK.replace("[link 2]", header)
    first = text.splitlines().index("[link 1]") + 1
    later = text.splitlines().index(header) + 1
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    name = header[1:-1]
    assert str(info.value) == f"line {later}: [{name}] repeats the number of [link 1] at line {first}"


def test_links_demand_full_channel_coverage():
    # Refused at the first link, in number order, whose transmitter lacks the channel.
    for channel, link in (("A->D", 1), ("C->B", 2)):
        broken = TWO_LINK.replace(
            f'[channel "{channel}"]\nmodel = reverberant\nnum_taps = 8\n'
            "rms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12\n\n",
            "",
        )
        with pytest.raises(ConfigError, match=re.escape(f'missing section [channel "{channel}"]')) as refused:
            parse_config(broken)
        link_line = broken.splitlines().index(f"[link {link}]") + 1
        assert str(refused.value) == (
            f'line {link_line}: missing section [channel "{channel}"] required by the links'
        )


@pytest.mark.parametrize(
    "links, named, message",
    [
        # A transmits on link 1, then receives on link 2.
        (("tx = A\nrx = B", "tx = C\nrx = A"), "rx = A", "node 'A' cannot both transmit and receive (links A->B and C->A)"),
        # A receives on link 1, then transmits on link 2.
        (("tx = C\nrx = A", "tx = A\nrx = B"), "tx = A", "node 'A' cannot both transmit and receive (links C->A and A->B)"),
    ],
)
def test_a_node_that_transmits_and_receives_is_refused_at_the_later_link(tmp_path, capsys, links, named, message):
    # Its channel to itself is a section the parser refuses, so the refusal names the links.
    text = _readme_demo().replace("[link 1]\ntx = A\nrx = B", f"[link 1]\n{links[0]}")
    text = text.replace("[link 2]\ntx = C\nrx = D", f"[link 2]\n{links[1]}")
    lines = text.splitlines()
    line = lines.index(named, lines.index("[link 2]")) + 1
    cfg_path = _write(tmp_path, "self.cfg", text)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    errors = [e for e in capsys.readouterr().err.splitlines() if e.startswith("error:")]
    assert errors == [f"error: line {line}: {message}"]
    assert not (tmp_path / "out").exists()


def test_noise_section_rules():
    thermal = MINIMAL.replace(
        "mode = explicit\npower_dbm = -40",
        "mode = thermal\ntemperature_k = 300\nbandwidth_hz = 10e9",
    )
    cfg = parse_config(thermal)
    assert cfg.noise.watts == pytest.approx(4.141947e-11, rel=1e-12)
    with pytest.raises(ConfigError, match="missing required section"):
        parse_config(MINIMAL.replace("[noise]\nmode = explicit\npower_dbm = -40\n", ""))
    with pytest.raises(ConfigError, match="noise mode must be 'thermal' or 'explicit'"):
        parse_config(MINIMAL.replace("mode = explicit", "mode = pink"))
    with pytest.raises(ConfigError, match="does not apply to thermal noise"):
        parse_config(
            MINIMAL.replace(
                "mode = explicit",
                "mode = thermal\ntemperature_k = 300\nbandwidth_hz = 10e9",
            )
        )
    with pytest.raises(ConfigError, match="does not apply to explicit noise"):
        parse_config(MINIMAL.replace("power_dbm = -40", "power_dbm = -40\ntemperature_k = 300"))
    with pytest.raises(ConfigError, match="missing required key 'power_dbm'"):
        parse_config(MINIMAL.replace("power_dbm = -40\n", ""))


def test_sweep_section_rules():
    good = MINIMAL + "\n[sweep]\nvariable = tx_power_dbm\nvalues = -5, 0, 5\n"
    cfg = parse_config(good)
    assert cfg.sweep_variable == "tx_power_dbm"
    assert cfg.sweep_values == (-5.0, 0.0, 5.0)
    with pytest.raises(ConfigError, match="variable must be one of"):
        parse_config(MINIMAL + "\n[sweep]\nvariable = bandwidth\n")
    with pytest.raises(ConfigError, match="values requires variable"):
        parse_config(MINIMAL + "\n[sweep]\nvalues = 1, 2\n")
    with pytest.raises(ConfigError, match="values must be comma-separated numbers"):
        parse_config(MINIMAL + "\n[sweep]\nvariable = tx_power_dbm\nvalues = a, b\n")
    with pytest.raises(ConfigError, match="values is empty"):
        parse_config(MINIMAL + "\n[sweep]\nvariable = tx_power_dbm\nvalues = ,\n")
    with pytest.raises(ConfigError, match="n_bits must be at least 100"):
        parse_config(MINIMAL + "\n[sweep]\nn_bits = 10\n")
    with pytest.raises(ConfigError, match="n_trials must be at least 1"):
        parse_config(MINIMAL + "\n[sweep]\nn_trials = 0\n")
    with pytest.raises(ConfigError, match="master_seed must be non-negative"):
        parse_config(MINIMAL + "\n[sweep]\nmaster_seed = -1\n")


@pytest.mark.parametrize(
    "variable, values, message",
    [
        ("tx_power_dbm", "nan, 0", "tx_power_dbm sweep value nan must be finite"),
        ("aggregate_rate_bps", "3e9", "bit rate 1.5e+09 b/s does not fit the grid of 5e-12 s"),
        ("aggregate_rate_bps", "100e9, 0", "aggregate_rate_bps sweep value 0.0 must be positive"),
        ("n_links", "1.5", "n_links sweep value 1.5 must be an integer in [1, 2]"),
        ("n_links", "1, 3", "n_links sweep value 3.0 must be an integer in [1, 2]"),
        ("n_links", "0, 1", "n_links sweep value 0.0 must be an integer in [1, 2]"),
    ],
)
def test_bad_sweep_values_name_their_line(variable, values, message):
    text = TWO_LINK + f"variable = {variable}\nvalues = {values}\n"
    line = text.splitlines().index(f"values = {values}") + 1
    with pytest.raises(ConfigError, match=re.escape(f"line {line}: {message}")):
        parse_config(text)


def test_bad_sweep_values_stop_run_as_well_as_the_sweep(tmp_path, capsys):
    text = TWO_LINK + "variable = n_links\nvalues = 1.5\n"
    cfg_path = _write(tmp_path, "v.cfg", text)
    line = text.splitlines().index("values = 1.5") + 1
    for command in ("sweep-links", "run"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert f"error: line {line}: n_links sweep value 1.5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_integer_keys_refuse_non_finite_text():
    for value in ("nan", "inf"):
        text = MINIMAL + f"\n[sweep]\nn_bits = {value}\n"
        line = text.splitlines().index(f"n_bits = {value}") + 1
        with pytest.raises(ConfigError, match=f"line {line}: n_bits must be an integer, got '{value}'"):
            parse_config(text)


_SHORT_RUN = MINIMAL + "\n[sweep]\nn_bits = 100\nn_trials = 1\n"


@pytest.mark.parametrize(
    "command, old, new, named, message",
    [
        # A power, energy or noise key is refused at its own line by its range.
        pytest.param(
            "run", "rx = B", "rx = B\npower_dbm = 4000", "power_dbm = 4000",
            "power_dbm must lie in [-300, 300], got 4000.0", id="link-power",
        ),
        pytest.param(
            "sweep-power", "n_trials = 1", "n_trials = 1\nvariable = tx_power_dbm\nvalues = 10, 4000",
            "values = 10, 4000", "tx_power_dbm sweep value must lie in [-300, 300], got 4000.0", id="swept-power",
        ),
        pytest.param(
            "run", "power_dbm = -40", "power_dbm = inf", "power_dbm = inf",
            "power_dbm must lie in [-300, 300], got inf", id="explicit-noise",
        ),
        pytest.param(
            "run", "mode = explicit\npower_dbm = -40", "mode = thermal\ntemperature_k = inf\nbandwidth_hz = 50e9",
            "temperature_k = inf", "temperature_k must lie in [0.001, 1e+06], got inf", id="thermal-noise",
        ),
        pytest.param(
            "run", "max_delay_s = 200e-12", "max_delay_s = inf", '[channel "A->B"]',
            'invalid [channel "A->B"]: max_delay must be finite, got inf', id="max_delay_s",
        ),
        pytest.param(
            # ModParams checks the rate, and names its section
            "run", "[sweep]", "[modulation]\nbit_rate_bps = inf\n\n[sweep]", "[modulation]",
            "invalid [modulation]: bit_rate must be finite, got inf", id="bit_rate_bps",
        ),
        pytest.param(
            "run", "[sweep]", "[modulation]\nsamples_per_symbol = inf\n\n[sweep]", "samples_per_symbol = inf",
            "samples_per_symbol must be an integer, got 'inf'", id="samples_per_symbol",
        ),
        pytest.param(
            # not a key: synthetic channels are drawn on the modulation grid
            "run", "max_delay_s = 200e-12", "max_delay_s = 200e-12\nsample_interval_s = inf", "sample_interval_s = inf",
            'unknown key \'sample_interval_s\' in [channel "A->B"]', id="sample_interval_s",
        ),
        pytest.param(
            "run", "max_delay_s = 200e-12", "max_delay_s = 200e-12\ntotal_energy = inf", "total_energy = inf",
            "total_energy must lie in [1e-50, 1e+50], got inf", id="total_energy",
        ),
    ],
)
def test_main_refuses_non_finite_values_by_line(tmp_path, capsys, command, old, new, named, message):
    text = _SHORT_RUN.replace(old, new)
    line = text.splitlines().index(named) + 1
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, "inf.cfg", text), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"
    assert not out.exists()


def _readme_config_reference():
    """(section, key) -> (default, meaning) cells of the README's config reference table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config reference\n\n", 1)[1].split("\n\n", 1)[0]
    cells = [[c.strip() for c in row.strip("|").split("|")] for row in table.splitlines()[2:]]
    rows = {(section, key): (default, meaning) for section, key, default, meaning in cells}
    assert len(rows) == len(cells), "a (section, key) row appears twice"
    return rows


def test_readme_config_reference_equals_the_schema():
    sections = {"channel": '`[channel "A->B"]`', "link": "`[link N]`"}
    rows = {row: default for row, (default, _) in _readme_config_reference().items()}
    expected = {
        (sections.get(kind, f"`[{kind}]`"), f"`{key.name}`"): key
        for kind, keys in SCHEMA.items()
        for key in keys
    }
    assert set(rows) == set(expected)
    for row, key in expected.items():
        if key.required:
            assert rows[row] == "required", row
        elif key.default is not None:
            assert rows[row] == f"`{key.default}`", row
        else:
            # Unset by default: the cell says in words what applies instead.
            assert rows[row] and rows[row] != "required" and not rows[row].startswith("`"), row


_THERMAL = MINIMAL.replace("mode = explicit\npower_dbm = -40", "mode = thermal\ntemperature_k = 300\nbandwidth_hz = 10e9")

# Per README row with a stated range: (config, line to replace, its key).
_RANGED_ROWS = {
    ('`[channel "A->B"]`', "`num_taps`"): (MINIMAL, "num_taps = 8", "num_taps"),
    ('`[channel "A->B"]`', "`total_energy`"): (MINIMAL, "max_delay_s = 200e-12", "total_energy"),
    ("`[link N]`", "`power_dbm`"): (MINIMAL, "rx = B", "power_dbm"),
    ("`[noise]`", "`temperature_k`"): (_THERMAL, "temperature_k = 300", "temperature_k"),
    ("`[noise]`", "`bandwidth_hz`"): (_THERMAL, "bandwidth_hz = 10e9", "bandwidth_hz"),
    ("`[noise]`", "`power_dbm`"): (MINIMAL, "power_dbm = -40", "power_dbm"),
}


def test_readme_stated_ranges_match_the_parser():
    ranges = {}
    for row, (_, meaning) in _readme_config_reference().items():
        if match := re.search(r"\((\S+) to ([^;)\s]+)", meaning):
            ranges[row] = (float(match[1]), float(match[2]))
    assert set(ranges) == set(_RANGED_ROWS)
    for row, (low, high) in ranges.items():
        base, old, key = _RANGED_ROWS[row]

        def config(value):
            # keeps the old line when it is not the key's own
            keep = "" if old.startswith(key) else f"{old}\n"
            return base.replace(old, f"{keep}{key} = {float(value)!r}")

        for value in (low, high):
            parse_config(config(value))
        for value in (np.nextafter(low, -np.inf), np.nextafter(high, np.inf)):
            text = config(value)
            named = text.splitlines().index(f"{key} = {float(value)!r}") + 1
            with pytest.raises(ConfigError, match=f"^line {named}: "):
                parse_config(text)


def test_unknown_names_are_refused_at_their_line():
    unknown_section = MINIMAL + "\n[plotting]\nstyle = fancy\n"
    line = unknown_section.splitlines().index("[plotting]") + 1
    with pytest.raises(ConfigError, match=rf"^line {line}: unknown section \[plotting\]$"):
        parse_config(unknown_section)
    unknown_key = MINIMAL.replace("rx = B", "rx = B\ncolor = red")
    line = unknown_key.splitlines().index("color = red") + 1
    with pytest.raises(ConfigError, match=rf"^line {line}: unknown key 'color' in \[link 1\]$"):
        parse_config(unknown_key)
    # On-off keying at amplitudes 0 and 1 is the one modulation: no key sets a level.
    level_key = MINIMAL + "\n[modulation]\nlevel_zero = 0\n"
    line = level_key.splitlines().index("level_zero = 0") + 1
    with pytest.raises(ConfigError, match=rf"^line {line}: unknown key 'level_zero' in \[modulation\]$"):
        parse_config(level_key)


@pytest.mark.parametrize(
    "section, key",
    [
        # On-off keying at amplitudes 0 and 1 is the one modulation.
        ("modulation", "level_zero"),
        ("modulation", "level_one"),
        # The pilot is always 64 bits, and a reverberant channel has no zero-delay tap.
        ("sweep", "pilot_bits"),
        ('channel "A->B"', "rician_k"),
    ],
)
def test_main_refuses_a_removed_key_at_its_line(tmp_path, capsys, section, key):
    # A config that sets a removed key is refused at its line, not run as if the key still applied.
    text = _SHORT_RUN if f"[{section}]\n" in _SHORT_RUN else _SHORT_RUN + f"\n[{section}]\n"
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    line = text.splitlines().index(f"{key} = 1") + 1
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, "removed.cfg", text), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: line {line}: unknown key {key!r} in [{section}]\n"
    assert not out.exists()


def test_realize_channels_pins_and_refreshes(tmp_path):
    pinned_cfg = parse_config(
        MINIMAL.replace("max_delay_s = 200e-12", "max_delay_s = 200e-12\nseed = 7")
    )
    a = realize_channels(pinned_cfg.channels, 0)[("A", "B")]
    b = realize_channels(pinned_cfg.channels, 99)[("A", "B")]
    assert np.array_equal(a.samples, b.samples)
    fresh_cfg = parse_config(MINIMAL)
    c = realize_channels(fresh_cfg.channels, 0)[("A", "B")]
    d = realize_channels(fresh_cfg.channels, 99)[("A", "B")]
    assert not np.array_equal(c.samples, d.samples)
    assert c.label == "A->B"


def test_realize_channels_checks_file_grid(tmp_path):
    write_cir_csv(Cir(np.array([1.0, 0.0]), 1e-12), tmp_path / "chan.csv")
    text = MINIMAL.replace(
        "model = reverberant\nnum_taps = 8\nrms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12",
        "file = chan.csv",
    )
    line = text.splitlines().index("file = chan.csv") + 1
    with pytest.raises(ConfigError, match=f"line {line}: grid mismatch: channel file"):
        parse_config(text, base_dir=str(tmp_path))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_main_reads_a_config_saved_with_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(TWO_LINK, encoding="utf-8")
    marked.write_text(TWO_LINK, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    for cfg in (plain, marked):
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
    assert (tmp_path / "marked" / "run.csv").read_bytes() == (tmp_path / "plain" / "run.csv").read_bytes()


def test_main_run_writes_csv(tmp_path):
    cfg_path = _write(tmp_path, "run.cfg", TWO_LINK)
    out = tmp_path / "results"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = _read_rows(out / "run.csv")
    assert header == SWEEP_HEADER
    assert [r[2] for r in rows] == ["A->B", "C->D"]
    assert all(r[:2] == ["config", "0"] for r in rows)
    assert all(len(r) == len(SWEEP_HEADER.split(",")) for r in rows)
    assert all(int(r[11]) == 100 for r in rows)


def test_main_trials_override_pools_more_bits(tmp_path):
    cfg_path = _write(tmp_path, "run.cfg", TWO_LINK)
    out = tmp_path / "results"
    assert main(["run", "--config", cfg_path, "--out", str(out), "--trials", "3"]) == 0
    _, rows = _read_rows(out / "run.csv")
    assert all(int(r[11]) == 300 for r in rows)


def test_main_power_sweep_default_grid(tmp_path):
    write_cir_csv(Cir(np.array([1.0, 0.0]), 5e-12), tmp_path / "chan.csv")
    cfg_path = _write(
        tmp_path,
        "p.cfg",
        MINIMAL.replace(
            "model = reverberant\nnum_taps = 8\nrms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12",
            "file = chan.csv",
        )
        + "\n[sweep]\nn_bits = 100\n",
    )
    out = tmp_path / "results"
    assert main(["sweep-power", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = _read_rows(out / "sweep_power.csv")
    assert header == SWEEP_HEADER
    # default grid spans -5..10 dBm in 1 dB steps
    assert len(rows) == 16
    assert [float(r[1]) for r in rows] == [float(p) for p in range(-5, 11)]
    sinrs = [float(r[3]) for r in rows]
    assert all(b > a for a, b in zip(sinrs, sinrs[1:]))


def test_main_sweep_uses_config_values(tmp_path):
    cfg_path = _write(
        tmp_path,
        "v.cfg",
        TWO_LINK + "variable = tx_power_dbm\nvalues = -5, 0\n",
    )
    out = tmp_path / "results"
    assert main(["sweep-power", "--config", cfg_path, "--out", str(out)]) == 0
    _, rows = _read_rows(out / "sweep_power.csv")
    assert [(float(r[1]), r[2]) for r in rows] == [
        (-5.0, "A->B"),
        (-5.0, "C->D"),
        (0.0, "A->B"),
        (0.0, "C->D"),
    ]


def test_main_rejects_variable_command_mismatch(tmp_path, capsys):
    cfg_path = _write(
        tmp_path,
        "m.cfg",
        TWO_LINK + "variable = aggregate_rate_bps\nvalues = 50e9\n",
    )
    assert main(["sweep-power", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "does not match command" in err


def test_main_ignores_other_variable_values_for_links_sweep(tmp_path):
    cfg_path = _write(
        tmp_path,
        "l.cfg",
        TWO_LINK + "variable = n_links\nvalues = 1, 2\n",
    )
    out = tmp_path / "results"
    assert main(["sweep-links", "--config", cfg_path, "--out", str(out)]) == 0
    _, rows = _read_rows(out / "sweep_links.csv")
    assert [(float(r[1]), r[2]) for r in rows] == [
        (1.0, "A->B"),
        (2.0, "A->B"),
        (2.0, "C->D"),
    ]


def test_run_writes_the_rows_of_the_links_sweep_at_every_link(tmp_path):
    # cmd_run's contract: the link-count sweep's point at every link, relabelled.
    cfg_path = _write(tmp_path, "l.cfg", TWO_LINK + "variable = n_links\nvalues = 2\n")
    for command in ("run", "sweep-links"):
        assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    header, run_rows = _read_rows(tmp_path / "out" / "run.csv")
    _, sweep_rows = _read_rows(tmp_path / "out" / "sweep_links.csv")
    assert header == SWEEP_HEADER and len(run_rows) == 2
    assert [r[:2] for r in run_rows] == [["config", "0"]] * 2
    assert [r[:2] for r in sweep_rows] == [["n_links", "2"]] * 2
    assert [r[2:] for r in run_rows] == [r[2:] for r in sweep_rows]


def test_main_option_validation(tmp_path, capsys):
    cfg_path = _write(tmp_path, "a.cfg", TWO_LINK)
    assert main(["run", "--config", cfg_path, "--seed", "-1"]) == 1
    assert "--seed" in capsys.readouterr().err
    assert main(["run", "--config", cfg_path, "--n-bits", "10"]) == 1
    assert "--n-bits" in capsys.readouterr().err
    assert main(["run", "--config", cfg_path, "--trials", "0"]) == 1
    assert "--trials" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_outputs_are_deterministic(tmp_path):
    cfg_path = _write(
        tmp_path,
        "d.cfg",
        TWO_LINK + "variable = tx_power_dbm\nvalues = -5, 0\n",
    )
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["sweep-power", "--config", cfg_path, "--out", str(out1)]) == 0
    assert main(["sweep-power", "--config", cfg_path, "--out", str(out2)]) == 0
    assert (out1 / "sweep_power.csv").read_bytes() == (out2 / "sweep_power.csv").read_bytes()
    assert main(["sweep-power", "--config", cfg_path, "--out", str(out1), "--seed", "5"]) == 0
    assert (out1 / "sweep_power.csv").read_bytes() != (out2 / "sweep_power.csv").read_bytes()


def test_main_focusing_reports_reachable_nodes(tmp_path):
    cfg_path = _write(tmp_path, "f.cfg", TWO_LINK)
    out = tmp_path / "results"
    assert main(["focusing", "--config", cfg_path, "--out", str(out)]) == 0
    header, rows = _read_rows(out / "focusing.csv")
    assert header == FOCUSING_HEADER
    # probe transmitter A has configured channels toward B and D only
    assert [r[0] for r in rows] == ["B", "D"]
    target_row = rows[0]
    assert float(target_row[1]) > float(rows[1][1])


def test_main_gen_channel_round_trips(tmp_path):
    pinned = MINIMAL.replace("max_delay_s = 200e-12", "max_delay_s = 200e-12\nseed = 7")
    cfg_path = _write(tmp_path, "g.cfg", pinned)
    out = tmp_path / "chans"
    assert main(["gen-channel", "--config", cfg_path, "--out", str(out)]) == 0
    cir_path = out / "cir_A_to_B.csv"
    cir = read_cir_csv(cir_path)
    assert cir.sample_interval == pytest.approx(5e-12, rel=1e-9)
    assert cir.energy == pytest.approx(1.0, rel=1e-9)
    # the unpinned config keeps the channel's parameters
    reference = chanmodel.synth_reverberant(7, parse_config(MINIMAL).channels[("A", "B")])
    assert np.array_equal(cir.samples, reference.samples)
    # the generated file can feed a file-backed run unchanged
    file_cfg = pinned.replace(
        "model = reverberant\nnum_taps = 8\nrms_delay_spread_s = 50e-12\n"
        "max_delay_s = 200e-12\nseed = 7",
        f"file = {cir_path}",
    ) + "\n[sweep]\nn_bits = 100\n"
    cfg2 = _write(tmp_path, "g2.cfg", file_cfg)
    assert main(["run", "--config", cfg2, "--out", str(tmp_path / "r2")]) == 0


_CHANNEL = "model = reverberant\nnum_taps = 8\nrms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12\n"
# One transmitter, three receivers.
_SCATTER_3 = (
    "[nodes]\nnames = A, B, C, D\n\n"
    + "".join(f'[channel "A->{rx}"]\n{_CHANNEL}\n' for rx in "BCD")
    + "".join(f"[link {i}]\ntx = A\nrx = {rx}\n\n" for i, rx in enumerate("BCD", 1))
    + MINIMAL[MINIMAL.index("[noise]") :]
)


@pytest.mark.parametrize(
    "text, per_link",
    [
        # one link at 5 ps: 80 Gb/s would be 2.5 samples per symbol
        (MINIMAL, "bit rate 8e+10 b/s does not fit the grid of 5e-12 s (samples per symbol would be 2.5)"),
        # three links: 80 Gb/s split three ways would be 7.5
        (_SCATTER_3, "bit rate 2.66667e+10 b/s does not fit the grid of 5e-12 s (samples per symbol would be 7.5)"),
    ],
)
def test_rate_sweep_refuses_a_default_grid_that_does_not_fit_before_any_trial(
    tmp_path, monkeypatch, capsys, text, per_link
):
    cfg_path = _write(tmp_path, "rate.cfg", text + "\n[sweep]\nn_bits = 100\n")
    trials = _counting(monkeypatch, experiments, "run_trial", lambda *args, **kwargs: None)
    out = tmp_path / "out"
    assert main(["sweep-rate", "--config", cfg_path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: default sweep-rate grid value 8e+10: {per_link}; "
        "name a grid that fits with [sweep] variable and values\n"
    )
    assert not trials and not out.exists()
    # the same config with values that fit runs
    text += "\n[sweep]\nn_bits = 100\nvariable = aggregate_rate_bps\nvalues = 10e9, 20e9\n"
    assert main(["sweep-rate", "--config", _write(tmp_path, "fit.cfg", text), "--out", str(out)]) == 0
    assert (out / "sweep_rate.csv").is_file()


def test_power_sweep_splits_only_a_shared_transmitters_budget():
    # Three streams from A share the value; one link, or links from distinct
    # transmitters, each take all of it.
    for text, power in ((_SCATTER_3, 10.0 - 10.0 * math.log10(3)), (MINIMAL, 10.0), (TWO_LINK, 10.0)):
        cfg = parse_config(text)
        links, mod = cli._grid_point("tx_power_dbm", 10.0, cfg.links, cfg.mod)
        assert mod == cfg.mod and [link.tx_power_dbm for link in links] == [power] * len(cfg.links)
        assert [dataclasses.replace(link, tx_power_dbm=0.0) for link in links] == list(cfg.links)


def test_rate_sweep_splits_the_aggregate_rate_and_keeps_the_links():
    cfg = parse_config(TWO_LINK)
    # 50 Gb/s over the two links is 25 Gb/s a stream
    links, mod = cli._grid_point("aggregate_rate_bps", 50e9, cfg.links, cfg.mod)
    assert links == cfg.links
    assert (mod.bit_rate, mod.samples_per_symbol) == (25e9, 8)


def test_gen_channel_files_are_write_cir_csv_output(tmp_path):
    cfg_path = _write(tmp_path, "g.cfg", TWO_LINK)
    out = tmp_path / "chans"
    assert main(["gen-channel", "--config", cfg_path, "--out", str(out)]) == 0
    channels = realize_channels(parse_config(TWO_LINK).channels, 0)
    assert sorted(p.name for p in out.iterdir()) == [f"cir_{tx}_to_{rx}.csv" for tx, rx in sorted(channels)]
    for (tx, rx), cir in channels.items():
        written = (out / f"cir_{tx}_to_{rx}.csv").read_bytes()
        assert written.startswith(f"# cir {tx}->{rx} sample_interval_s=4.9999999999999997e-12\n".encode())
        write_cir_csv(cir, tmp_path / "ref.csv")
        assert written == (tmp_path / "ref.csv").read_bytes()


def _file_channel(text, pair, name):
    """``text`` with the synthetic channel ``pair`` read from the CIR file ``name`` instead."""
    section = f'[channel "{pair}"]\n'
    assert section + _CHANNEL in text
    return text.replace(section + _CHANNEL, f"{section}file = {name}\n")


_ZERO_CIR = "0,0,0\n5e-12,0,0\n1e-11,0,0\n"


@pytest.mark.parametrize("command", ["run", "focusing"])
@pytest.mark.parametrize("precoding", ["tr", "none"])
def test_main_refuses_a_silent_own_channel_by_line(tmp_path, capsys, precoding, command):
    (tmp_path / "zero.csv").write_text(_ZERO_CIR, encoding="utf-8")
    text = _file_channel(TWO_LINK, "A->B", "zero.csv").replace("rx = B", f"rx = B\nprecoding = {precoding}")
    line = text.splitlines().index("file = zero.csv") + 1
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, "z.cfg", text), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: line {line}: channel A->B in {tmp_path / 'zero.csv'} has zero energy; "
        "a link's own channel must carry signal (an interference path may be silent)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("precoding", ["tr", "none"])
def test_main_refuses_a_cir_file_whose_energy_overflows_by_line(tmp_path, capsys, precoding):
    # Finite samples whose energy is not: no traceback, no warning.
    (tmp_path / "big.csv").write_text("0,1e160,0\n5e-12,0,-1e160\n1e-11,1e160,0\n", encoding="utf-8")
    text = _file_channel(TWO_LINK, "A->B", "big.csv").replace("rx = B", f"rx = B\nprecoding = {precoding}")
    line = text.splitlines().index("file = big.csv") + 1
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, "big.cfg", text), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: line {line}: CIR energy must be finite: samples too large\n"
    assert not out.exists()


def _run_warnings_as_errors(tmp_path, text, command="run", *flags):
    """``trlinksim command`` of ``text`` at 200 bits, then ``flags``, in a child under ``-X dev -W error``."""
    args = [command, "--config", _write(tmp_path, "h.cfg", text), "--out", str(tmp_path / "out"), "--n-bits", "200"]
    args += flags
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "trlinksim.cli", *args],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )


def _flat_cir(path, energy):
    """Write a CIR file of 401 equal real samples carrying ``energy`` in all."""
    write_cir_csv(Cir(np.full(401, np.sqrt(energy / 401)), 5e-12), path)


@pytest.mark.parametrize(
    "energy, precoding, command",
    [
        (1.7e308, "tr", "run"),
        (1.7e308, "none", "run"),
        (4.4e307, "tr", "run"),
        # 401 equal taps: the ISI and focusing sums used to overflow here
        (0.999 * 2.0**1021 / 16, "tr", "run"),
        (0.999 * 2.0**1021 / 16, "tr", "focusing"),
        (0.999 * 2.0**1021 / 16, "none", "focusing"),
        (1e-60, "tr", "run"),
    ],
)
def test_main_refuses_a_cir_file_outside_the_energy_range_by_line(tmp_path, energy, precoding, command):
    path = tmp_path / "big.csv"
    if energy > 1e300:
        # 26 random samples: the energy of the file is finite.
        h = np.array([1.0, 1j]) @ np.random.default_rng(26).standard_normal((2, 26))
        write_cir_csv(Cir(h * np.sqrt(energy / np.sum(np.abs(h) ** 2)), 5e-12), path)
    else:
        _flat_cir(path, energy)
    text = _file_channel(MINIMAL, "A->B", "big.csv").replace("rx = B", f"rx = B\nprecoding = {precoding}")
    proc = _run_warnings_as_errors(tmp_path, text, command)
    assert proc.returncode == 1
    line = text.splitlines().index("file = big.csv") + 1
    got = read_cir_csv(path).energy
    assert proc.stderr == (
        f"error: line {line}: energy of channel A->B in {path} must lie in [1e-50, 1e+50], got {got!r}\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new, named, message",
    [
        # the SINR ratio used to underflow to 0 and stop with "math domain error"
        (
            "rx = B\n\n[noise]\nmode = explicit\npower_dbm = -40",
            "rx = B\npower_dbm = -3200\n\n[noise]\nmode = explicit\npower_dbm = 3000",
            "power_dbm = -3200", "power_dbm must lie in [-300, 300], got -3200.0",
        ),
        (
            "rx = B\n\n[noise]\nmode = explicit\npower_dbm = -40",
            "rx = B\npower_dbm = -1000\n\n[noise]\nmode = thermal\ntemperature_k = 1e150\nbandwidth_hz = 1e150",
            "power_dbm = -1000", "power_dbm must lie in [-300, 300], got -1000.0",
        ),
        (
            "mode = explicit\npower_dbm = -40",
            "mode = thermal\ntemperature_k = 1e150\nbandwidth_hz = 1e150",
            "temperature_k = 1e150", "temperature_k must lie in [0.001, 1e+06], got 1e+150",
        ),
    ],
)
def test_main_refuses_a_config_whose_sinr_would_underflow_by_line(tmp_path, old, new, named, message):
    text = MINIMAL.replace(old, new)
    assert text != MINIMAL
    proc = _run_warnings_as_errors(tmp_path, text)
    assert proc.returncode == 1
    assert proc.stderr == f"error: line {text.splitlines().index(named) + 1}: {message}\n"


_HUGE = "1" + "0" * 400  # 10^400, too large for a float


@pytest.mark.parametrize(
    "old, new",
    [
        # each used to stop with an OverflowError traceback from math.isfinite
        ("num_taps = 8", f"num_taps = {_HUGE}"),
        ("rx = B", f"rx = B\n\n[modulation]\nsamples_per_symbol = {_HUGE}"),
        # each used to stop with the lineless "Maximum allowed dimension exceeded"
        ("rx = B", "rx = B\n\n[modulation]\nsamples_per_symbol = 1e20"),
        ("rx = B", "rx = B\n\n[sweep]\nn_bits = 1e20"),
        ("rx = B", f"rx = B\n\n[sweep]\nn_trials = {2**63}"),
    ],
)
def test_main_refuses_a_count_of_2_to_the_63_or_more_by_line(tmp_path, old, new):
    text = MINIMAL.replace(old, new)
    named = new.splitlines()[-1]
    proc = _run_warnings_as_errors(tmp_path, text)
    assert proc.returncode == 1
    key, _, value = named.partition(" = ")
    line = text.splitlines().index(named) + 1
    assert proc.stderr == f"error: line {line}: {key} must be below 2^63, got {value}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "n_bits, message",
    [
        # numpy refuses the allocation of the bits before it makes it
        (10**17, f"out of memory running run at n_bits = {10**17}"),
        # used to stop with numpy's "array is too big", which names no key; run_trial
        # refuses streams of 2^63 bytes or more as the allocation no machine can make
        (2**63 - 1, f"out of memory running run at n_bits = {2**63 - 1}"),
    ],
    ids=["1e17", "2^63-1"],
)
@pytest.mark.parametrize("given_by", ["key", "flag"])
def test_main_refuses_a_trial_too_large_to_allocate(tmp_path, n_bits, message, given_by):
    text = MINIMAL + f"\n[sweep]\nn_bits = {n_bits}\n" if given_by == "key" else MINIMAL
    flags = [] if given_by == "key" else ["--n-bits", str(n_bits)]
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "trlinksim.cli", "run"]
        + ["--config", _write(tmp_path, "h.cfg", text), "--out", str(tmp_path / "out"), *flags],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def _channel_error(text, pinned, message):
    """The CLI's report of ``message`` about the one channel of ``text``: at its line when pinned."""
    line = text.splitlines().index('[channel "A->B"]') + 1
    return f"error: line {line}: {message}\n" if pinned else f"error: {message}\n"


@pytest.mark.parametrize("command", ["run", "gen-channel"])
@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "fresh"])
def test_main_refuses_a_tap_count_above_the_cap_by_line(tmp_path, pinned, command):
    # 10^17 taps used to reach the draw, where numpy refused 800 PB with no
    # line for a fresh channel.
    text = MINIMAL.replace("num_taps = 8", f"num_taps = {10**17}" + ("\nseed = 1" if pinned else ""))
    proc = _run_warnings_as_errors(tmp_path, text, command)
    line = text.splitlines().index(f"num_taps = {10**17}") + 1
    message = f"error: line {line}: num_taps must lie in [1, 1e+06], got {10**17}\n"
    assert (proc.returncode, proc.stderr) == (1, message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "delay, modulation, count, grid",
    [
        # 2.5 s on the 5 ps grid: 5e11 + 1 complex samples, 8 TB
        ("2.5", "", "500000000001", "5e-12"),
        # 200 ps on the grid of 1e18 b/s at 4 samples per bit: 8e8 + 1 samples, 12.8 GB
        ("200e-12", "\n[modulation]\nbit_rate_bps = 1e18\n", "800000001", "2.5e-19"),
    ],
    ids=["long-delay", "fine-grid"],
)
@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "fresh"])
def test_main_refuses_a_sample_count_above_the_cap_by_line(tmp_path, capsys, pinned, delay, modulation, count, grid):
    # Either used to reach the draw, and ran out of memory there.
    seed = "\nseed = 1" if pinned else ""
    text = MINIMAL.replace("max_delay_s = 200e-12", f"max_delay_s = {delay}{seed}") + modulation
    assert main(["run", "--config", _write(tmp_path, "m.cfg", text), "--out", str(tmp_path / "out")]) == 1
    line = text.splitlines().index(f"max_delay_s = {delay}") + 1
    source = "that is the default grid"
    if modulation:
        at = text.splitlines().index("[modulation]") + 1
        source = f"bit_rate_bps and samples_per_symbol in [modulation] at line {at} set that grid"
    assert capsys.readouterr().err == (
        f"error: line {line}: max_delay_s = {delay} is {count} samples on the {grid} s grid, "
        f"above the cap of 1000000; {source}\n"
    )
    assert not (tmp_path / "out").exists()


def test_readme_demo_with_a_grid_too_fine_names_bit_rate_bps(tmp_path, capsys):
    # 1e18 b/s puts the first channel's 500 ps on 2e9 + 1 samples: refused at
    # that max_delay_s line, naming the keys that set the grid as well.
    demo = _readme_demo()
    text = demo.replace("bit_rate_bps = 50e9", "bit_rate_bps = 1e18")
    assert text != demo
    assert main(["run", "--config", _write(tmp_path, "fine.cfg", text), "--out", str(tmp_path / "out")]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: line 8: max_delay_s = 500e-12 is 2000000001 samples"), errors
    at = text.splitlines().index("[modulation]") + 1
    assert errors[0].endswith(f"bit_rate_bps and samples_per_symbol in [modulation] at line {at} set that grid")
    assert not (tmp_path / "out").exists()


def test_the_sample_cap_admits_its_own_count():
    # On the 5 ps grid, max_delay_s / grid + 1 is the cap at 5e-6 - 5e-12 s and one more at 5e-6 s.
    at_cap = parse_config(MINIMAL.replace("max_delay_s = 200e-12", "max_delay_s = 4.999995e-6"))
    assert at_cap.channels[("A", "B")].num_samples == 10**6
    refusal = r"is 1000001 samples on the 5e-12 s grid, above the cap of 1000000; that is the default grid$"
    with pytest.raises(ConfigError, match=refusal):
        parse_config(MINIMAL.replace("max_delay_s = 200e-12", "max_delay_s = 5e-6"))


@pytest.mark.parametrize("command", ["run", "focusing"])
@pytest.mark.parametrize("section", ["A->B", "A->D", "C->B", "C->D"])
def test_main_refuses_a_spread_whose_decay_constant_underflows_by_line(tmp_path, capsys, section, command):
    # It used to escape main as a ZeroDivisionError from the decay solver.
    lines = _readme_demo().splitlines()
    at = lines.index(f'[channel "{section}"]')
    spread = lines.index("rms_delay_spread_s = 100e-12", at)
    lines[spread] = "rms_delay_spread_s = 1e-300"
    cfg_path = _write(tmp_path, "tiny.cfg", "\n".join(lines) + "\n")
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f'error: line {at + 1}: invalid [channel "{section}"]: '
        "rms_delay_spread_target 1e-300 s is too small: its decay constant underflows to 0\n"
    )


# The single-line mutation sweep over the README demo config: its non-blank
# lines (11 section headers and 31 key lines), and 15 bad values for each key.
_BAD_VALUES = ("", "abc", "nan", "inf", "-inf", "-1", "0", "1e-300", "1e400", "0x10", "1_0", "10 10", "true", "2.5", "1e18")


def _demo_lines():
    lines = _readme_demo().splitlines(keepends=True)
    return lines, [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]


def test_readme_demo_line_deletions_and_duplications_run_or_are_refused_at_a_line(tmp_path, capsys):
    lines, kept = _demo_lines()
    cfg_path = tmp_path / "mutated.cfg"
    runs = 0
    for command in ("run", "focusing"):
        for i in kept:
            for mutated in (lines[:i] + lines[i + 1 :], lines[: i + 1] + lines[i:]):
                cfg_path.write_text("".join(mutated), encoding="utf-8")
                argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
                code = main(argv + ["--n-bits", "100", "--trials", "1"])
                errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
                if code:
                    assert code == 1 and len(errors) == 1, (command, i, errors)
                    assert re.match(r"error: line \d+: ", errors[0]), (command, i, errors)
                else:
                    assert not errors, (command, i, errors)
                runs += 1
    assert runs == 168


def test_readme_demo_unknown_names_are_refused_at_the_added_line(tmp_path, capsys):
    # An unknown key appended to each section, then an unknown section appended at the end.
    lines, kept = _demo_lines()
    ends = [i for i in kept if i + 1 == len(lines) or not lines[i + 1].strip()]
    cases = [(lines[: i + 1] + ["power_dmb = 10\n"] + lines[i + 1 :], i + 2) for i in ends]
    cases.append((lines + ["\n[plotting]\n", "style = fancy\n"], len(lines) + 2))
    cfg_path = tmp_path / "mutated.cfg"
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--n-bits", "100", "--trials", "1"]
    for mutated, added in cases:
        cfg_path.write_text("".join(mutated), encoding="utf-8")
        assert main(argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith(f"error: line {added}: unknown "), (added, errors)
    assert len(cases) == 11 + 1
    assert not (tmp_path / "out").exists()
    # No flag lets an unknown name through any more.
    with pytest.raises(SystemExit) as usage:
        main(argv + ["--no-strict"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --no-strict" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, section, anchor",
    [("pilot_bits", "sweep", "[sweep]\n"), ("rician_k", 'channel "A->B"', "max_delay_s = 500e-12\n")],
    ids=["pilot_bits", "rician_k"],
)
def test_readme_demo_with_a_removed_key_is_refused_at_its_line(tmp_path, capsys, key, section, anchor):
    # The demo as written runs; with a deleted key added it used to run as before, and now
    # stops with one unknown-key error at the added line and writes nothing.
    demo = _readme_demo()
    assert anchor in demo
    text = demo.replace(anchor, f"{anchor}{key} = 1\n", 1)
    line = text.splitlines().index(f"{key} = 1") + 1
    out = tmp_path / "out"
    argv = ["run", "--config", _write(tmp_path, "removed.cfg", text), "--out", str(out)]
    assert main(argv + ["--n-bits", "100", "--trials", "1"]) == 1
    assert capsys.readouterr().err == f"error: line {line}: unknown key {key!r} in [{section}]\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "gen-channel"])
@pytest.mark.parametrize("renamed, bad",[("D/E", "/"), ("D->E", "->"), ('D"E', '"'), ("D\0E", "\0")])
def test_readme_demo_node_names_a_channel_cannot_carry_are_refused_at_the_names_line(
    tmp_path, capsys, command, renamed, bad
):
    # Each name breaks a [channel "TX->RX"] section or a cir_TX_to_RX.csv file name, so the
    # names line is refused before any section that uses the name.
    text = re.sub(r"\bD\b", renamed, _readme_demo())
    line = text.splitlines().index(f"names = A, B, C, {renamed}") + 1
    argv = [command, "--config", _write(tmp_path, "renamed.cfg", text), "--out", str(tmp_path / "out")]
    assert main(argv + ["--n-bits", "100", "--trials", "1"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [
        f"error: line {line}: node name {renamed!r} contains {bad!r}: no channel section or CIR file could carry it"
    ]
    assert not (tmp_path / "out").exists()


# cir_A_to_{name}.csv is 13 bytes besides the name: a 230-byte name makes a
# 243-byte file name, one past what gen-channel can write.
@pytest.mark.parametrize("command", ["run", "gen-channel"])
@pytest.mark.parametrize("renamed", ["D" * 230, "\u00c9" * 115])
def test_readme_demo_channel_whose_cir_file_name_is_too_long_is_refused_at_its_section(
    tmp_path, capsys, command, renamed
):
    text = re.sub(r"\bD\b", renamed, _readme_demo())
    line = text.splitlines().index(f'[channel "A->{renamed}"]') + 1
    assert line == 10
    argv = [command, "--config", _write(tmp_path, "renamed.cfg", text), "--out", str(tmp_path / "out")]
    assert main(argv + ["--n-bits", "100", "--trials", "1"]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [
        f"error: line 10: CIR file name cir_A_to_{renamed}.csv is 243 UTF-8 bytes, over the 242 gen-channel can write"
    ]
    assert not (tmp_path / "out").exists()


def test_readme_demo_with_the_longest_cir_file_names_writes_every_channel(tmp_path, capsys):
    text = re.sub(r"\bD\b", "D" * 229, _readme_demo())
    out = tmp_path / "out"
    assert main(["gen-channel", "--config", _write(tmp_path, "renamed.cfg", text), "--out", str(out)]) == 0
    names = sorted(len(path.name.encode()) for path in out.iterdir())
    assert names == [14, 14, 242, 242]


# The SCHEMA keys that choose the run's structure or select what runs, rather than set a value.
_STRUCTURAL_KEYS = (
    ("nodes", "names"),  # names the nodes that links and channels refer to
    ("link", "tx"),  # picks a node; moving it moves which channels the link needs
    ("link", "rx"),  # picks a node, as tx does
    ("channel", "file"),  # selects a channel source; the file's samples are the values
    ("channel", "model"),  # selects a channel source; "reverberant" is its only value
    ("noise", "mode"),  # selects which noise keys apply
    ("sweep", "variable"),  # selects the sweep command a config serves
    ("sweep", "values"),  # the grid of a sweep command, which run does not read
    ("output", "dir"),  # where the files go, not what they hold
)

# Every other SCHEMA key: an edit of the README demo config (its thermal noise made
# explicit for a key that applies to explicit noise) that sets the key to another value.
_EXPLICIT_NOISE = ("mode = thermal\ntemperature_k = 300\nbandwidth_hz = 50e9", "mode = explicit\npower_dbm = -90")
_ALTERNATES = {
    ("channel", "num_taps"): ("num_taps = 64", "num_taps = 32"),
    ("channel", "rms_delay_spread_s"): ("rms_delay_spread_s = 100e-12", "rms_delay_spread_s = 50e-12"),
    ("channel", "max_delay_s"): ("max_delay_s = 500e-12", "max_delay_s = 400e-12"),
    ("channel", "total_energy"): ("max_delay_s = 500e-12", "max_delay_s = 500e-12\ntotal_energy = 2"),
    ("channel", "seed"): ("max_delay_s = 500e-12", "max_delay_s = 500e-12\nseed = 7"),
    ("link", "precoding"): ("rx = B", "rx = B\nprecoding = none"),
    ("link", "power_dbm"): ("power_dbm = 10", "power_dbm = 5"),
    ("modulation", "bit_rate_bps"): ("bit_rate_bps = 50e9", "bit_rate_bps = 25e9"),
    ("modulation", "samples_per_symbol"): ("samples_per_symbol = 4", "samples_per_symbol = 8"),
    ("noise", "temperature_k"): ("temperature_k = 300", "temperature_k = 600"),
    ("noise", "bandwidth_hz"): ("bandwidth_hz = 50e9", "bandwidth_hz = 100e9"),
    ("noise", "power_dbm"): ("power_dbm = -90", "power_dbm = -80"),
    ("sweep", "n_bits"): ("n_bits = 300", "n_bits = 200"),
    ("sweep", "n_trials"): ("n_trials = 2", "n_trials = 3"),
    ("sweep", "master_seed"): ("n_trials = 2", "n_trials = 2\nmaster_seed = 1"),
}


def test_every_config_key_moves_an_output_or_is_structural(tmp_path):
    # A key whose every value gives the same run.csv and CIR files is a knob no output needs.
    keys = {(kind, key.name): key for kind, keys in SCHEMA.items() for key in keys}
    unassigned = [k for k in keys if (k in _ALTERNATES) == (k in _STRUCTURAL_KEYS)]
    assert not unassigned, "each key needs exactly one of an alternate value or a structural reason"
    assert len(keys) == len(_ALTERNATES) + len(_STRUCTURAL_KEYS)
    # The demo at --n-bits 300 --trials 2, written in the config so that those two keys can move.
    demo = _readme_demo().replace("n_bits = 2000\nn_trials = 5", "n_bits = 300\nn_trials = 2")
    outputs = {}

    def run(text):
        if text not in outputs:
            out = tmp_path / str(len(outputs))
            cfg_path = _write(tmp_path, f"{len(outputs)}.cfg", text)
            for command in ("run", "gen-channel"):
                assert main([command, "--config", cfg_path, "--out", str(out)]) == 0, text
            outputs[text] = {path.name: path.read_bytes() for path in out.iterdir()}
        return outputs[text]

    dead = []
    for name, (old, new) in _ALTERNATES.items():
        base = demo.replace(*_EXPLICIT_NOISE) if keys[name].when == "explicit" else demo
        assert old in base, name
        if run(base) == run(base.replace(old, new, 1)):
            dead.append(name)
    assert not dead


# Runs each config it is given through ``main run`` at 100 bits and one trial,
# in a process of at most 3 GiB of address space, and prints each exit status
# with its ``error:`` lines.
_CAPPED_RUNS = """
import contextlib, io, json, resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
limit = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from trlinksim.cli import main
results = []
for cfg, out in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--config", cfg, "--out", out, "--n-bits", "100", "--trials", "1"])
    results.append([code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]])
json.dump(results, sys.stdout)
"""


def test_readme_demo_bad_values_run_or_are_refused_at_a_line(tmp_path):
    # Before the tap and sample caps, 13 of these ran out of memory drawing a
    # channel, with no line: num_taps = 1e18, max_delay_s = 2.5 and 1_0, and
    # bit_rate_bps = 1e18.
    lines, kept = _demo_lines()
    cases = []
    for i in (i for i in kept if "=" in lines[i]):
        key = lines[i].split("=")[0].strip()
        for value in _BAD_VALUES:
            path = tmp_path / f"{len(cases)}.cfg"
            path.write_text("".join(lines[:i] + [f"{key} = {value}\n"] + lines[i + 1 :]), encoding="utf-8")
            cases.append((key, value, str(path)))
    assert len(cases) == 31 * 15
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", _CAPPED_RUNS],
        input=json.dumps([(path, str(tmp_path / "out")) for _, _, path in cases]),
        env=dict(_child_env(), OPENBLAS_NUM_THREADS="1"), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for (key, value, _), (code, errors) in zip(cases, results, strict=True):
        if code:
            assert code == 1 and len(errors) == 1, (key, value, errors)
            assert re.match(r"error: line \d+: ", errors[0]), (key, value, errors)
        else:
            assert not errors, (key, value, errors)
    assert Counter(code for code, _ in results) == {0: 40, 1: 425}


@pytest.mark.parametrize("command", ["run", "gen-channel"])
@pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "fresh"])
def test_main_refuses_a_synthetic_draw_whose_every_tap_underflows(tmp_path, pinned, command):
    # Delays up to 20,000 decay constants: at seed 1, and at the fresh draws
    # of master seed 0, every tap's power underflows to 0.
    params = "num_taps = 4\nrms_delay_spread_s = 100e-12\nmax_delay_s = 2e-6"
    text = MINIMAL.replace("num_taps = 8\nrms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12", params)
    text = text.replace("max_delay_s = 2e-6", "max_delay_s = 2e-6\nseed = 1") if pinned else text
    proc = _run_warnings_as_errors(tmp_path, text, command)
    message = (
        "degenerate channel 'A->B': every drawn tap's power exp(-delay / decay) underflows, "
        "to an energy of 0 (decay 1e-10 s, delays up to 2e-06 s)"
    )
    assert (proc.returncode, proc.stderr) == (1, _channel_error(text, pinned, message))
    assert not (tmp_path / "out").exists()


def test_main_refuses_a_grid_of_2_to_the_63_samples_or_more_by_line(tmp_path):
    # 1e10 s at 5 ps is 2e21 samples; the draw used to stop with numpy's
    # lineless "Maximum allowed dimension exceeded".
    text = MINIMAL.replace("max_delay_s = 200e-12", "max_delay_s = 1e10")
    proc = _run_warnings_as_errors(tmp_path, text)
    message = 'invalid [channel "A->B"]: max_delay / sample_interval must be below 2^63 samples, got 2e+21'
    assert (proc.returncode, proc.stderr) == (1, _channel_error(text, True, message))


@pytest.mark.parametrize("flag", ["--n-bits", "--trials"])
def test_main_refuses_a_count_flag_of_2_to_the_63_or_more(tmp_path, flag):
    proc = _run_warnings_as_errors(tmp_path, MINIMAL, "run", flag, str(2**63))
    assert proc.returncode == 1
    assert proc.stderr == f"error: {flag} must be below 2^63, got {2**63}\n"
    assert not (tmp_path / "out").exists()


def test_counts_just_below_2_to_the_63_are_read():
    largest = 2**63 - 1
    # num_taps has the sample cap of its own. 2e-24 s on the grid of
    # 2^63 - 1 samples per 20 ps bit is 922,338 samples, below that cap.
    channel = f"num_taps = {10**6}\nrms_delay_spread_s = 2e-25\nmax_delay_s = 2e-24"
    text = MINIMAL.replace("num_taps = 8\nrms_delay_spread_s = 50e-12\nmax_delay_s = 200e-12", channel) + (
        f"\n[modulation]\nsamples_per_symbol = {largest}\n"
        f"\n[sweep]\nn_bits = {largest}\nn_trials = {largest}\n"
    )
    cfg = parse_config(text)
    assert cfg.channels[("A", "B")].num_taps == 10**6 and cfg.channels[("A", "B")].num_samples == 922338
    assert cfg.mod.samples_per_symbol == cfg.n_bits == cfg.n_trials == largest


@pytest.mark.parametrize("rate, interval", [("1e308", "0.0"), ("1e-320", "inf")])
def test_main_blames_a_rate_with_no_sample_interval_on_modulation(tmp_path, rate, interval):
    # The interval 1 / (rate x 4) overflows to 0 or inf; the refusal used to
    # name the first [channel] section, whose grid the modulation sets.
    text = MINIMAL + f"\n[modulation]\nbit_rate_bps = {rate}\n"
    proc = _run_warnings_as_errors(tmp_path, text)
    assert proc.returncode == 1
    line = text.splitlines().index("[modulation]") + 1
    assert proc.stderr == (
        f"error: line {line}: invalid [modulation]: bit_rate {float(rate)!r} gives a sample interval of {interval}\n"
    )
    assert not (tmp_path / "out").exists()


def _readme_demo():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    return block


# sha256 of each README demo output at --n-bits 300 --trials 2. gen-channel's CIR
# files are left to the round-trip tests. A change that moves numbers on purpose
# updates these beside bench/reference/ and records old and new digests in CHANGES.md.
_DEMO_DIGESTS = {
    "focusing.csv": "064f225a20fb460cad92b790fa176e9a29417fd4f72dcfdb595ad843a9578bb7",
    "run.csv": "988f1cc6b50ee38c50561d903f806ca528b2db91ae03985c8c9f1cb965a62538",
    "sweep_links.csv": "08bfe0374c1a04d0f08d7ad6be4c7d58a7cd5d5a0eed9e53d8fc9baa6abfa470",
    "sweep_power.csv": "11a21f2d1f5ca4bae7bda22124fb5ac5909d580e3ad0fe89a660a21c825155a0",
    "sweep_rate.csv": "8d180243e4e29ea3eb02c00d5fe460c66017c10b4d4df6ae3eb8ccc0a458b6ed",
}


def test_readme_demo_outputs_keep_their_bytes(tmp_path):
    cfg_path = _write(tmp_path, "demo.cfg", _readme_demo())
    out = tmp_path / "out"
    for command in ("run", "sweep-power", "sweep-rate", "sweep-links", "focusing"):
        assert main([command, "--config", cfg_path, "--out", str(out), "--n-bits", "300", "--trials", "2"]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert digests == _DEMO_DIGESTS


@pytest.mark.parametrize("power_dbm", [300, 3090])
def test_readme_demo_runs_at_the_top_of_the_power_range_and_is_refused_past_it(tmp_path, power_dbm):
    text = _readme_demo().replace("power_dbm = 10", f"power_dbm = {power_dbm}")
    proc = _run_warnings_as_errors(tmp_path, text)
    if power_dbm == 300:
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "run.csv").is_file()
    else:
        assert proc.returncode == 1
        line = text.splitlines().index("power_dbm = 3090") + 1
        assert proc.stderr == f"error: line {line}: power_dbm must lie in [-300, 300], got 3090.0\n"


@pytest.mark.parametrize(
    "old, new, named, message",
    [
        pytest.param(
            "max_delay_s = 200e-12", "max_delay_s = 200e-12\ntotal_energy = 1.5e306", "total_energy = 1.5e306",
            "total_energy must lie in [1e-50, 1e+50], got 1.5e+306", id="total_energy",
        ),
        pytest.param(
            "max_delay_s = 200e-12", "max_delay_s = 200e-12\ntotal_energy = 1e-60", "total_energy = 1e-60",
            "total_energy must lie in [1e-50, 1e+50], got 1e-60", id="total_energy-low",
        ),
        pytest.param(
            "rx = B", "rx = B\npower_dbm = 3100", "power_dbm = 3100",
            "power_dbm must lie in [-300, 300], got 3100.0", id="power_dbm",
        ),
        pytest.param(
            "power_dbm = -40", "power_dbm = -40\n\n[sweep]\nvariable = tx_power_dbm\nvalues = 0, 3100",
            "values = 0, 3100", "tx_power_dbm sweep value must lie in [-300, 300], got 3100.0", id="tx_power_dbm-sweep",
        ),
        pytest.param(
            "power_dbm = -40", "power_dbm = -40\n\n[sweep]\nvariable = tx_power_dbm\nvalues = -301, 0",
            "values = -301, 0", "tx_power_dbm sweep value must lie in [-300, 300], got -301.0", id="tx_power_dbm-low",
        ),
        pytest.param(
            "power_dbm = -40", "power_dbm = 3000", "power_dbm = 3000",
            "power_dbm must lie in [-300, 300], got 3000.0", id="noise-power_dbm",
        ),
        pytest.param(
            "mode = explicit\npower_dbm = -40", "mode = thermal\ntemperature_k = 300\nbandwidth_hz = 1e150",
            "bandwidth_hz = 1e150", "bandwidth_hz must lie in [1, 1e+15], got 1e+150", id="bandwidth_hz",
        ),
    ],
)
def test_range_refusals_name_their_line(old, new, named, message):
    text = MINIMAL.replace(old, new)
    line = text.splitlines().index(named) + 1
    with pytest.raises(ConfigError, match=f"^{re.escape(f'line {line}: {message}')}$"):
        parse_config(text)


def test_explicit_noise_may_be_off():
    cfg = parse_config(MINIMAL.replace("power_dbm = -40", "power_dbm = -inf"))
    assert cfg.noise.watts == 0.0


def _numbers_written(path):
    """Every numeric field of a CSV the CLI wrote."""
    numbers = []
    for row in _read_rows(path)[1]:
        for field in row:
            with contextlib.suppress(ValueError):
                numbers.append(float(field))
    return numbers


# Two corners of the ranges: everything at the top, with the least noise,
# and everything at the bottom, with the most.
_CORNERS = {
    "top": ("300", "1e50", "mode = explicit\npower_dbm = -300"),
    "bottom": ("-300", "1e-50", "mode = explicit\npower_dbm = 300"),
}


@pytest.mark.parametrize("corner", _CORNERS)
def test_ranges_hold_at_each_swept_symbol_length(tmp_path, corner):
    # 4, 8 and 16 samples per symbol on the 5 ps grid.
    power, energy, noise = _CORNERS[corner]
    text = (
        MINIMAL.replace("rx = B", f"rx = B\npower_dbm = {power}")
        .replace("max_delay_s = 200e-12", f"max_delay_s = 200e-12\ntotal_energy = {energy}")
        .replace("mode = explicit\npower_dbm = -40", noise)
    ) + "\n[sweep]\nvariable = aggregate_rate_bps\nvalues = 50e9, 25e9, 12.5e9\nn_bits = 100\nn_trials = 2\n"
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep-rate", "--config", _write(tmp_path, "r.cfg", text), "--out", str(out)]) == 0
    numbers = _numbers_written(out / "sweep_rate.csv")
    assert len(numbers) == 3 * 11 and all(map(math.isfinite, numbers))


_NOISE_CORNERS = (
    "mode = explicit\npower_dbm = -300",
    "mode = explicit\npower_dbm = 300",
    "mode = thermal\ntemperature_k = 1e-3\nbandwidth_hz = 1",
    "mode = thermal\ntemperature_k = 1e6\nbandwidth_hz = 1e15",
)
_ENERGY_CORNERS = st.sampled_from(("1e-50", "1e50"))


@settings(max_examples=30, deadline=None)
@given(
    scatter=st.booleans(),
    powers=st.tuples(st.sampled_from(("-300", "300")), st.sampled_from(("-300", "300"))),
    energies=st.tuples(*[_ENERGY_CORNERS] * 4),
    flat=st.booleans(),
    precoding=st.sampled_from(("tr", "none")),
    noise=st.sampled_from(_NOISE_CORNERS),
    command=st.sampled_from(("run", "sweep-power", "focusing")),
)
def test_every_number_written_at_the_corners_of_the_ranges_is_finite(
    tmp_path_factory, scatter, powers, energies, flat, precoding, noise, command
):
    tmp_path = tmp_path_factory.mktemp("corner")
    links = (("A", "B"), ("A", "D")) if scatter else (("A", "B"), ("C", "D"))
    txs = sorted({tx for tx, _ in links})
    parts = ["[nodes]\nnames = A, B, C, D\n"]
    for (tx, rx), energy in zip([(tx, rx) for tx in txs for rx in ("B", "D")], energies):
        if flat and (tx, rx) == ("A", "B"):
            # The largest ISI sum for its energy: 401 equal taps, just inside
            # the corner, as the sum of the samples read back rounds.
            _flat_cir(tmp_path / "flat.csv", float(energy) * (1 - 1e-9 if energy == "1e50" else 1 + 1e-9))
            parts.append(f'[channel "{tx}->{rx}"]\nfile = flat.csv\n')
        else:
            parts.append(f'[channel "{tx}->{rx}"]\n{_CHANNEL}total_energy = {energy}\nseed = 1\n')
    for n, ((tx, rx), power) in enumerate(zip(links, powers), start=1):
        parts.append(f"[link {n}]\ntx = {tx}\nrx = {rx}\nprecoding = {precoding}\npower_dbm = {power}\n")
    parts.append(f"[noise]\n{noise}\n")
    parts.append("[sweep]\nn_bits = 100\nn_trials = 1\n")
    if command == "sweep-power":
        parts.append("variable = tx_power_dbm\nvalues = -300, 300\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--config", _write(tmp_path, "c.cfg", "\n".join(parts)), "--out", str(out)])
    assert code == 0
    (written,) = out.iterdir()
    numbers = _numbers_written(written)
    assert numbers and all(map(math.isfinite, numbers))


def test_main_runs_with_a_silent_interference_path(tmp_path):
    (tmp_path / "zero.csv").write_text(_ZERO_CIR, encoding="utf-8")
    text = _file_channel(TWO_LINK, "A->D", "zero.csv")
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, "z.cfg", text), "--out", str(out)]) == 0
    _, rows = _read_rows(out / "run.csv")
    cochannel_w = {r[2]: float(r[6]) for r in rows}
    # A reaches D through the silent path only
    assert cochannel_w["C->D"] == 0.0 and cochannel_w["A->B"] > 0.0


def test_main_names_the_cir_file_and_line_of_a_bad_row(tmp_path, capsys):
    (tmp_path / "bad.csv").write_text("0,1,0\n5e-12,nan,0\n1e-11,0,0\n", encoding="utf-8")
    text = _file_channel(MINIMAL, "A->B", "bad.csv") + "\n[sweep]\nn_bits = 100\n"
    line = text.splitlines().index("file = bad.csv") + 1
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, "bad.cfg", text), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: line {line}: {tmp_path / 'bad.csv'}: line 2: times and samples must be finite\n"
    )
    assert not out.exists()


def _counting(monkeypatch, module, name, key):
    """Replace module.name with a wrapper that counts calls by key(*args, **kwargs).

    ``module`` may be a tuple of modules that all bind the same function.
    """
    counts = Counter()
    modules = module if isinstance(module, tuple) else (module,)
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        counts[key(*args, **kwargs)] += 1
        return original(*args, **kwargs)

    for m in modules:
        monkeypatch.setattr(m, name, counted)
    return counts


# Every transform is block_spectra in chanmodel: each channel's and each
# pre-filter's spectra (Cir.spectra), and convolve_sum's transforms of the
# streams before and after precoding.


_SWEEP_3x2 = "\n[sweep]\nvariable = tx_power_dbm\nvalues = -2, 4, 10\nn_bits = 100\nn_trials = 2\n"

# The samples of the four 12-tap CIR files of _file_backed_power_sweep, in
# A->B, A->D, C->B, C->D order.
_FILE_CHANNELS = [np.random.default_rng(i).standard_normal(12) + 0j for i in range(4)]


def _file_backed_power_sweep(tmp_path, sweep=_SWEEP_3x2):
    """TWO_LINK over four CIR files, by default swept over 3 powers with 2 trials each."""
    sections = ["[nodes]\nnames = A, B, C, D\n"]
    for i, (pair, h) in enumerate(zip(("A->B", "A->D", "C->B", "C->D"), _FILE_CHANNELS)):
        write_cir_csv(Cir(h, 5e-12), tmp_path / f"cir_{i}.csv")
        sections.append(f'[channel "{pair}"]\nfile = cir_{i}.csv\n')
    sections.append(TWO_LINK[TWO_LINK.index("[link 1]") : TWO_LINK.index("[sweep]")])
    return _write(tmp_path, "files.cfg", "\n".join(sections) + sweep)


def _own_filters(tmp_path):
    """The bytes of the TR pre-filters of A->B and C->D, made from their CIR files."""
    return {
        sigchain.make_tr_filter(read_cir_csv(tmp_path / f"cir_{i}.csv")).samples.tobytes() for i in (0, 3)
    }


def test_power_sweep_reads_each_file_and_response_once(tmp_path, monkeypatch):
    cfg_path = _file_backed_power_sweep(tmp_path)
    reads = _counting(monkeypatch, chanmodel, "read_cir_csv", lambda path, label=None: path)
    responses = Counter()
    made, owners = linksim.link_filter, {}
    stacked = linksim._full_rate_responses

    def owned(scenario, link):
        tx_filter = made(scenario, link)
        owners[id(tx_filter)] = (tx_filter, link.stream_id)  # held, so no id is reused
        return tx_filter

    def counted(pairs, params):
        # (stream the filter was made for, channel toward the receiver) names a (stream, rx) pair
        responses.update((owners[id(tx_filter)][1], channel.label) for tx_filter, channel in pairs)
        return stacked(pairs, params)

    monkeypatch.setattr(linksim, "link_filter", owned)
    monkeypatch.setattr(linksim, "_full_rate_responses", counted)
    assert main(["sweep-power", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert len(reads) == 4 and set(reads.values()) == {1}
    assert set(responses) == {(s, f"{s[0]}->{rx}") for s in ("A->B", "C->D") for rx in "BD"}
    assert set(responses.values()) == {1}


def test_power_sweep_transforms_each_filter_once_per_length(tmp_path, monkeypatch):
    # The streams are longer than the filters, so precode transforms each
    # filter whole: once per transform length for the sweep, not per trial.
    cfg_path = _file_backed_power_sweep(tmp_path)
    transforms = _counting(monkeypatch, chanmodel, "block_spectra", lambda x, m, step: (x.tobytes(), m))
    assert main(["sweep-power", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    filters = _own_filters(tmp_path)
    per_filter = {key: n for key, n in transforms.items() if key[0] in filters}
    assert {x for x, _ in per_filter} == filters
    assert len({m for _, m in per_filter}) == 1
    assert set(per_filter.values()) == {1}


def test_power_sweep_computes_each_sinr_report_once_per_point(tmp_path, monkeypatch):
    cfg_path = _file_backed_power_sweep(tmp_path)
    reports = _counting(
        monkeypatch, linksim, "compute_sinr", lambda scenario, link: (link.stream_id, link.tx_power_dbm)
    )
    assert main(["sweep-power", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    # 3 points x 2 links, each once although every point runs 2 trials
    assert sorted(reports) == [(sid, p) for sid in ("A->B", "C->D") for p in (-2.0, 4.0, 10.0)]
    assert set(reports.values()) == {1}


# A pinned scatter builds one table per link count and rate; the README demo's
# fresh channels build one per trial and grid point (5 trials; 16 powers, 4
# rates, 2 link counts).
@pytest.mark.parametrize(
    "pinned, command, tables",
    [
        (True, "run", 1),
        (True, "sweep-power", 1),
        (True, "sweep-links", 3),
        (True, "sweep-rate", 3),
        (False, "run", 5),
        (False, "sweep-power", 16 * 5),
        (False, "sweep-links", 2 * 5),
        (False, "sweep-rate", 4 * 5),
    ],
)
def test_each_command_builds_one_response_table_per_realization_and_link_count(
    tmp_path, monkeypatch, pinned, command, tables
):
    if pinned:
        text = _SCATTER_3
        for seed, rx in enumerate("BCD", 1):
            text = text.replace(f'[channel "A->{rx}"]\n{_CHANNEL}', f'[channel "A->{rx}"]\n{_CHANNEL}seed = {seed}\n')
        if command == "sweep-rate":
            # The default rates do not split three ways onto the 5 ps grid; these give 40, 20 and 10 samples per symbol.
            text += "\n[sweep]\nvariable = aggregate_rate_bps\nvalues = 15e9, 30e9, 60e9\n"
    else:
        text = _readme_demo()
    builds = _counting(monkeypatch, linksim.ResponseTable, "build", lambda scenario: len(scenario.links))
    cfg_path = _write(tmp_path, "tables.cfg", text)
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out"), "--n-bits", "100"]) == 0
    assert sum(builds.values()) == tables


@pytest.mark.parametrize("pinned, expected", [(False, 3 * 2 * 4), (True, 4)])
def test_power_sweep_draws_fresh_channels_only_when_unpinned(tmp_path, monkeypatch, pinned, expected):
    text = TWO_LINK.split("[sweep]")[0]
    if pinned:
        text = text.replace("max_delay_s = 200e-12", "max_delay_s = 200e-12\nseed = 5")
    cfg_path = _write(tmp_path, "synth.cfg", text + _SWEEP_3x2)
    # A pinned channel is drawn through chanmodel, a fresh one through experiments' binding.
    draws = _counting(
        monkeypatch, (chanmodel, experiments), "synth_reverberant", lambda seed, params, label="": (seed, label)
    )
    assert main(["sweep-power", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert sum(draws.values()) == expected
    assert set(draws.values()) == {1}  # no (seed, channel) drawn twice


def test_cli_import_leaves_scipy_signal_out():
    src = str(Path(trlinksim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, trlinksim.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'signal']))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_power_sweep_transforms_each_channel_once(tmp_path, monkeypatch):
    cfg_path = _file_backed_power_sweep(tmp_path)
    channels = [h.tobytes() for h in _FILE_CHANNELS]
    transforms = _counting(monkeypatch, chanmodel, "block_spectra", lambda x, m, step: x.tobytes())
    assert main(["sweep-power", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert [transforms[h] for h in channels] == [1, 1, 1, 1]
    filters = _own_filters(tmp_path)
    assert [transforms[g] for g in filters] == [1, 1]
    # one forward transform per stream per trial, before and after precoding:
    # 2 x 3 points x 2 trials x 2 links
    streams = {x: n for x, n in transforms.items() if x not in channels and x not in filters}
    assert len(streams) == 2 * 12 and set(streams.values()) == {1}


def test_link_sweep_over_files_transforms_each_channel_once_per_length(tmp_path, monkeypatch):
    # One scenario per link count, each over the same file-backed channels:
    # A->B, which both scenarios hold, is transformed once for the sweep,
    # not once per scenario. Equal-length channels and streams keep one
    # transform length.
    cfg_path = _file_backed_power_sweep(tmp_path, "\n[sweep]\nn_bits = 100\nn_trials = 2\n")
    channels = [h.tobytes() for h in _FILE_CHANNELS]
    transforms = _counting(monkeypatch, chanmodel, "block_spectra", lambda x, m, step: (x.tobytes(), m))
    assert main(["sweep-links", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    per_channel = {key: n for key, n in transforms.items() if key[0] in channels}
    assert sorted(x for x, _ in per_channel) == sorted(channels)
    assert len({m for _, m in per_channel}) == 1
    assert set(per_channel.values()) == {1}


def test_file_backed_run_transforms_each_channel_once_at_one_length(tmp_path, monkeypatch):
    sections = ["[nodes]\nnames = A, B, C, D\n"]
    channels = []
    for i, pair in enumerate(("A->B", "A->D", "C->B", "C->D")):
        h = np.random.default_rng(i).standard_normal(40 + 20 * i) + 0j
        channels.append(h.tobytes())
        write_cir_csv(Cir(h, 5e-12), tmp_path / f"cir_{i}.csv")
        sections.append(f'[channel "{pair}"]\nfile = cir_{i}.csv\n')
    sections.append(TWO_LINK[TWO_LINK.index("[link 1]") : TWO_LINK.index("[sweep]")])
    sections.append("\n[sweep]\nn_bits = 100\n")
    cfg_path = _write(tmp_path, "files.cfg", "\n".join(sections))
    transforms = _counting(monkeypatch, chanmodel, "block_spectra", lambda x, m, step: (x.tobytes(), m))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out"), "--trials", "3"]) == 0
    per_channel = {key: n for key, n in transforms.items() if key[0] in channels}
    assert sorted(x for x, _ in per_channel) == sorted(channels)
    assert set(per_channel.values()) == {1}
    # short streams: the channels at a single transform length, and every
    # transform, the streams' too, below the overlap-add block
    assert len({m for _, m in per_channel}) == 1
    assert max(m for _, m in transforms) < chanmodel.block_len(100)


def test_run_transforms_each_stream_once_per_trial(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, "run.cfg", TWO_LINK)
    propagations = _counting(monkeypatch, experiments, "propagate", lambda scenario, streams, seed: seed)
    transforms = _counting(monkeypatch, chanmodel, "block_spectra", lambda x, m, step: x.size)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out"), "--trials", "3"]) == 0
    assert sum(propagations.values()) == 3
    taps = round(200e-12 / 5e-12) + 1
    # per trial: 4 fresh channels and the 2 TR pre-filters made from them, of
    # the channels' length, then the 2 streams once each (not once per
    # receiver), before and after precoding
    assert transforms[taps] == 3 * (4 + 2)
    assert sum(n for size, n in transforms.items() if size != taps) == 3 * 2 * 2


def test_power_sweep_solves_decay_constant_once_per_params(tmp_path, monkeypatch):
    cfg_path = _write(tmp_path, "synth.cfg", TWO_LINK.split("[sweep]")[0] + _SWEEP_3x2)
    solves = _counting(monkeypatch, chanmodel, "_solve_decay_constant", lambda params: id(params))
    # experiments.realize_channels draws through its own binding of synth_reverberant.
    draws = _counting(
        monkeypatch, (chanmodel, experiments), "synth_reverberant", lambda seed, params, label: id(params)
    )
    assert main(["sweep-power", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    # Each of the four channel sections' parameters solves once, when the
    # config is read, equal ones too; 3 values x 2 trials x 4 draws read it.
    assert list(solves.values()) == [1] * 4
    assert set(draws) == set(solves) and sum(draws.values()) == 3 * 2 * 4


def _child_env():
    src = str(Path(trlinksim.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_readme_python_examples_run(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 3
    # The later blocks use the channels the first one drew, so they run as one script.
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", "\n".join(blocks)],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    # Two lines from the first block, one per grid value and link from the sweep.
    assert out.stdout.count("\n") == 2 + 2 * 2
    assert (tmp_path / "cir_A_to_B.csv").is_file()


def test_cli_import_loads_no_scipy():
    code = "import sys, trlinksim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_the_thread_pool_module_out(tmp_path):
    # The README demo run's precoded streams outrun one overlap-add block, so
    # its propagation takes the block path to two receivers, on the one thread.
    cfg_path = _write(tmp_path, "demo.cfg", _readme_demo())
    code = (
        "import sys, threading, trlinksim.cli; "
        "code = trlinksim.cli.main(sys.argv[1:]); "
        "print('concurrent.futures' in sys.modules, threading.active_count()); "
        "sys.exit(code)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, "run", "--config", cfg_path, "--out", str(tmp_path / "out")],
        env=_child_env(), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False 1"


_NO_SCIPY = """\
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from trlinksim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_run_works_without_scipy(tmp_path):
    cfg_path = _write(tmp_path, "run.cfg", TWO_LINK)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, "run", "--config", cfg_path, "--out", str(out)],
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "run.csv").is_file()
