"""Where a CLI process spends its time: the figures of the README's "Where the time goes".

Run from the repository root:

    python tools/where_time_goes.py

It writes the benchmark's long-stream and dense-files inputs at seed 0
into a temporary directory and prints the median of several runs of:

* a warm long-stream trial, timed whole, then split under cProfile into
  receiver noise (``linksim._add_noise``), FFTs (numpy's ``_raw_fft``)
  and the rest;
* a cold dense-files ``sweep-power`` from ``cli.main`` on, one child
  process per run, split by timers around the CIR reads, the response
  table (built outside the trials over fixed channels), the trials and
  the rest. The float conversion of the CIR files' fields (one numpy
  call per file, timed again after the run) is part of the reads;
  numpy's first-use imports, timed in a child that has imported the
  package, fall in the first trial (``numpy.fft``) and in the rest
  (``numpy.random``, first used to derive a seed);
* the package import on top of numpy, from a copy of the sources with a
  fresh bytecode cache and from one with none, and the part of it spent
  in ``dataclasses``' class processing.
"""

from __future__ import annotations

import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
RUNS = 7


def _timed(owner, name: str, spent: dict[str, float], key: str) -> None:
    """Wrap ``owner.name`` so that its calls add their seconds to ``spent[key]``."""
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - start

    setattr(owner, name, wrapper)


def warm_trial(work: Path) -> dict[str, float]:
    import cProfile
    import pstats

    from trlinksim import cli, experiments, linksim

    cfg = cli.parse_config((work / "workload.cfg").read_text(), str(work))
    scenario = linksim.Scenario(experiments.realize_channels(cfg.channels, 0), cfg.links, cfg.noise, cfg.mod)
    experiments.run_trial(scenario, 0, cfg.n_bits)  # first use: imports, spectra
    runs = []
    for seed in range(1, RUNS + 1):
        start = time.perf_counter()
        experiments.run_trial(scenario, seed, cfg.n_bits)
        whole = time.perf_counter() - start
        profile = cProfile.Profile()
        profile.runcall(experiments.run_trial, scenario, seed, cfg.n_bits)
        stats = pstats.Stats(profile).stats
        profiled = sum(v[2] for v in stats.values())
        noise = sum(v[3] for k, v in stats.items() if k[2] == "_add_noise")
        fft = sum(v[2] for k, v in stats.items() if k[2] == "_raw_fft")
        rest = profiled - noise - fft
        runs.append({"trial": whole, "profiled": profiled, "noise": noise, "fft": fft, "rest": rest})
    return {key: median(run[key] for run in runs) for key in runs[0]}


def cold_run(work: Path) -> dict[str, float]:
    import numpy as np

    from trlinksim import chanmodel, cli, experiments, linksim

    spent: dict[str, float] = {}
    _timed(chanmodel, "read_cir_csv", spent, "reads")
    _timed(linksim.ResponseTable, "build", spent, "table")
    _timed(experiments, "run_trial", spent, "trials")
    start = time.perf_counter()
    cli.main(["sweep-power", "--config", str(work / "workload.cfg"), "--out", str(work / "out")])
    spent["main"] = time.perf_counter() - start
    spent["rest"] = spent["main"] - spent["reads"] - spent["table"] - spent["trials"]
    spent["conversion"] = 0.0
    for path in sorted(work.glob("*.csv")):
        data = [line for line in path.read_text().split("\n") if line.strip() and line[0] != "#"]
        fields = ",".join(data).split(",")
        start = time.perf_counter()
        np.array(fields, dtype=np.float64)
        spent["conversion"] += time.perf_counter() - start
    return spent


def first_use_imports(_: Path) -> dict[str, float]:
    import trlinksim.cli  # noqa: F401

    start = time.perf_counter()
    import numpy.fft  # noqa: F401

    middle = time.perf_counter()
    import numpy.random  # noqa: F401

    return {"numpy.fft": middle - start, "numpy.random": time.perf_counter() - middle}


def package_import(_: Path) -> dict[str, float]:
    import dataclasses

    import numpy  # noqa: F401

    spent: dict[str, float] = {}
    _timed(dataclasses, "_process_class", spent, "dataclasses")
    start = time.perf_counter()
    import trlinksim  # noqa: F401

    return {"import": time.perf_counter() - start, **spent}


STEPS = {step.__name__: step for step in (warm_trial, cold_run, first_use_imports, package_import)}


def _children(step: str, work: Path, src: Path) -> dict[str, float]:
    """The median of ``RUNS`` cold child processes that each run ``step`` over the sources in ``src``.

    The children write no bytecode, so each copy keeps the cache it was given.
    """
    runs = []
    for _ in range(RUNS):
        child = subprocess.run(
            [sys.executable, __file__, step, str(work)],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True,
            text=True,
            check=True,
        )
        runs.append(json.loads(child.stdout.splitlines()[-1]))
    return {key: median(run[key] for run in runs) for key in runs[0]}


def main() -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS, write_inputs

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in ("long-stream", "dense-files"):
            write_inputs(WORKLOADS[name], 0, tmp / name)
        # Two copies of the sources: one with a fresh bytecode cache, one with none, kept that way.
        bare, src = tmp / "bare", tmp / "cached"
        for copy in (bare, src):
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        compileall.compile_dir(src, quiet=1)
        figures = {
            "warm long-stream trial": _children("warm_trial", tmp / "long-stream", src),
            "cold dense-files run": _children("cold_run", tmp / "dense-files", src),
            "first-use imports": _children("first_use_imports", tmp, src),
            "package import, cached": _children("package_import", tmp, src),
            "package import, no cache": _children("package_import", tmp, bare),
        }
    for what, values in figures.items():
        print(f"{what}: " + ", ".join(f"{key} {value * 1e3:.1f} ms" for key, value in values.items()))


if __name__ == "__main__":
    if len(sys.argv) == 3:
        print(json.dumps(STEPS[sys.argv[1]](Path(sys.argv[2]))))
    else:
        main()
