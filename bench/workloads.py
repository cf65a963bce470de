"""Seeded workload generator for the trlinksim benchmark.

Each workload is a CLI command plus the input files it reads. All inputs
are a pure function of the workload seed: the same seed writes the same
bytes. The program sees only these files; the seed reaches it as the
config's ``master_seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLE_INTERVAL_S = 5e-12  # 50 Gb/s at 4 samples per symbol, the CLI default grid

# The README demo config, minus [output]: the benchmark passes --out.
_DEMO_HEAD = """[nodes]
names = A, B, C, D
"""

_REVERB_CHANNEL = """
[channel "{pair}"]
model = reverberant
num_taps = 64
rms_delay_spread_s = 100e-12
max_delay_s = 500e-12
"""

_COMMON_TAIL = """
[modulation]
bit_rate_bps = 50e9
samples_per_symbol = 4

[noise]
mode = thermal
temperature_k = 300
bandwidth_hz = 50e9

[sweep]
n_bits = {n_bits}
n_trials = {n_trials}
master_seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI command over generated inputs."""

    name: str
    why: str
    command: str
    csv_name: str
    n_bits: int
    n_trials: int
    n_points: int
    links: tuple[str, ...]
    # Traced spans that must record at least one call on this workload.
    predicted_spans: tuple[str, ...]
    # The top_k largest self times of a traced run should all be among
    # predicted_top.
    predicted_top: tuple[str, ...]
    top_k: int

    @property
    def expected_rows(self) -> int:
        return self.n_points * len(self.links)


_ALWAYS = (
    "cli.parse_config",
    "cli.realize_channels",
    "cli.write_sweep_csv",
    "experiments.sweep",
    "experiments.run_trial",
    "sigchain.modulate_ask",
    "sigchain.precode",
    "sigchain.scale_to_power",
    "linksim.propagate",
    "linksim.compute_sinr",
    "linksim.effective_response",
    "linksim.full_rate_response",
    "linksim.link_filter",
    "detector.train_threshold",
    "detector.demodulate",
    "detector.count_errors",
)

_DENSE_LINKS = 6
_DENSE_TAPS = 401

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long-stream",
            why=(
                "run with 100k-bit streams on 2 links: propagate and precode convolutions and "
                "noise dominate, with no per-point or per-response reuse to exploit"
            ),
            command="run",
            csv_name="run.csv",
            n_bits=100_000,
            n_trials=2,
            n_points=1,
            links=("A->B", "C->D"),
            predicted_spans=_ALWAYS + ("chanmodel.synth_reverberant",),
            predicted_top=("linksim.propagate", "sigchain.precode"),
            top_k=2,
        ),
        Workload(
            name="dense-files",
            why=(
                "sweep-power on 6 links over 36 fixed file-backed 401-sample CIRs: SINR "
                "responses and CIR reads repeat, so reuse of fixed channels pays off"
            ),
            command="sweep-power",
            csv_name="sweep_power.csv",
            n_bits=100,
            n_trials=2,
            n_points=16,
            links=tuple(f"T{i}->R{i}" for i in range(_DENSE_LINKS)),
            predicted_spans=_ALWAYS + ("chanmodel.read_cir_csv",),
            predicted_top=(
                "linksim.full_rate_response",
                "linksim.compute_sinr",
                "chanmodel.read_cir_csv",
            ),
            top_k=2,
        ),
    )
}


def _reverb_config(seed: int, n_bits: int, n_trials: int) -> str:
    pairs = ("A->B", "A->D", "C->B", "C->D")
    body = "".join(_REVERB_CHANNEL.format(pair=p) for p in pairs)
    links = (
        "\n[link 1]\ntx = A\nrx = B\npower_dbm = 10\n"
        "\n[link 2]\ntx = C\nrx = D\npower_dbm = 10\n"
    )
    tail = _COMMON_TAIL.format(n_bits=n_bits, n_trials=n_trials, seed=seed)
    return _DEMO_HEAD + body + links + tail


def _cir_text(rng: np.random.Generator, pair: str) -> str:
    """A random exponentially decaying CIR on the modulation grid, unit energy."""
    t = np.arange(_DENSE_TAPS) * SAMPLE_INTERVAL_S
    decay_s = rng.uniform(60e-12, 140e-12)
    h = (rng.standard_normal(_DENSE_TAPS) + 1j * rng.standard_normal(_DENSE_TAPS)) * np.exp(
        -t / (2.0 * decay_s)
    )
    h /= np.sqrt(np.sum(np.abs(h) ** 2))
    lines = [f"# cir {pair} sample_interval_s={SAMPLE_INTERVAL_S:.17g}"]
    lines += [f"{ti:.17g},{v.real:.17g},{v.imag:.17g}" for ti, v in zip(t, h)]
    return "\n".join(lines) + "\n"


def _dense_inputs(seed: int, n_bits: int, n_trials: int) -> dict[str, str]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    txs = [f"T{i}" for i in range(_DENSE_LINKS)]
    rxs = [f"R{i}" for i in range(_DENSE_LINKS)]
    files: dict[str, str] = {}
    parts = [f"[nodes]\nnames = {', '.join(txs + rxs)}\n"]
    for tx in txs:
        for rx in rxs:
            name = f"cir_{tx}_to_{rx}.csv"
            files[name] = _cir_text(rng, f"{tx}->{rx}")
            parts.append(f'\n[channel "{tx}->{rx}"]\nfile = {name}\n')
    for i, (tx, rx) in enumerate(zip(txs, rxs), start=1):
        parts.append(f"\n[link {i}]\ntx = {tx}\nrx = {rx}\npower_dbm = 10\n")
    parts.append(_COMMON_TAIL.format(n_bits=n_bits, n_trials=n_trials, seed=seed))
    files["workload.cfg"] = "".join(parts)
    return files


def generate_inputs(workload: Workload, seed: int) -> dict[str, str]:
    """Every input file of a workload, by file name, as text."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if workload.name == "dense-files":
        return _dense_inputs(seed, workload.n_bits, workload.n_trials)
    return {"workload.cfg": _reverb_config(seed, workload.n_bits, workload.n_trials)}


def write_inputs(workload: Workload, seed: int, directory: Path) -> Path:
    """Write a workload's inputs into ``directory`` and return the config path."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in generate_inputs(workload, seed).items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory / "workload.cfg"


def cli_args(workload: Workload, config: Path, out_dir: Path) -> list[str]:
    """Arguments for ``trlinksim.cli.main`` that run this workload."""
    return [workload.command, "--config", str(config), "--out", str(out_dir)]
