"""trlinksim benchmark: cold-CLI end-to-end metrics, or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` spawns the real CLI in cold child processes, one at a time,
until S seconds have passed, checks every CSV it writes and reports the
median of each end-to-end metric over the children. ``--trace 1`` runs the
CLI inside this process with span wrappers around each layer's public
functions and reports per-layer self times and counts, plus import times
from cold ``python -X importtime`` children.

The lines printed before the last name every metric with its value and
unit; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record with machine
details and every sample goes to ``.bench_work/results/``; each child
sample there also keeps its CPU seconds and the machine's steal ticks,
which tell host contention apart from program cost.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Workload, cli_args, write_inputs  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD = BENCH_DIR / "child.py"

MIN_CHILDREN = 3
MIN_TRACED_REPS = 3
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_s": "s",
    "bits_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Self times, in seconds, of these traced functions.
_SELF_TIMED = (
    "cli.main",
    "cli.parse_config",
    "cli.realize_channels",
    "cli.write_sweep_csv",
    "sigchain.modulate_ask",
    "sigchain.precode",
    "sigchain.scale_to_power",
    "linksim.propagate",
    "linksim.compute_sinr",
    "linksim.effective_response",
    "linksim.full_rate_response",
    "detector.train_threshold",
    "detector.demodulate",
    "detector.count_errors",
    "experiments.sweep",
    "experiments.run_trial",
)
_COUNTED = (
    "cli.realize_channels",
    "chanmodel.synth_reverberant",
    "chanmodel.read_cir_csv",
    "linksim.propagate",
    "linksim.compute_sinr",
    "linksim.effective_response",
    "linksim.full_rate_response",
    "linksim.link_filter",
    "experiments.run_trial",
)
_DISTINCT = ("chanmodel.synth_reverberant", "chanmodel.read_cir_csv", "linksim.full_rate_response")
_AMOUNTS = {
    "cli.write_sweep_csv.bytes": "bytes",
    "sigchain.precode.samples_out": "count",
    "linksim.propagate.samples_out": "count",
}
# Channel sources: one of the two is unused on every workload, so their
# time is reported as one always-measured layer figure; the per-function
# times go to the result record.
_CHANNEL_SOURCES = ("chanmodel.synth_reverberant", "chanmodel.read_cir_csv")

PER_LAYER = {
    "setup.import_trlinksim_s": "s",
    "setup.import_scipy_signal_s": "s",
    **{f"{name}.s": "s" for name in _SELF_TIMED},
    "chanmodel.s": "s",
    **{f"{name}.calls": "count" for name in _COUNTED},
    **{f"{name}.distinct_ratio": "ratio" for name in _DISTINCT},
    **_AMOUNTS,
    "experiments.run_trial.p50_s": "s",
    "experiments.run_trial.tail_s": "s",
    "experiments.run_trial.tail_pct": "%",
    "experiments.run_trial.tail_n": "count",
    "trace.sim_s": "s",
    "trace.overhead_s": "s",
}

_TAIL_PERCENTILES = (99, 95, 90, 75, 50)


class BenchError(Exception):
    """The checkout cannot be benchmarked (trlinksim sources missing or not importable)."""


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest reported percentile with at least ten of ``n`` samples beyond it."""
    for pct in _TAIL_PERCENTILES:
        if n * (100 - pct) / 100.0 >= 10:
            return pct
    return 50


# ---------------------------------------------------------------- metadata


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(ROOT),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------- cold children


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _wait(proc: subprocess.Popen) -> tuple[int, resource.struct_rusage]:
    """Block until ``proc`` exits; return (exit code, its resource usage)."""

    def kill(signum, frame):
        proc.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _steal_ticks() -> int:
    """Clock ticks the hypervisor ran other guests on this machine's CPUs (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def run_child(args: list[str], work: Path) -> dict:
    """One cold CLI process; times come from a clock shared with the child."""
    timing = work / "timing.txt"
    timing.unlink(missing_ok=True)
    with open(work / "child.out", "wb") as out, open(work / "child.err", "wb") as err:
        steal0 = _steal_ticks()
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(timing), *args],
            cwd=work,
            env=_child_env(),
            stdout=out,
            stderr=err,
        )
        code, usage = _wait(proc)
        t_exit = time.monotonic_ns()
    sample = {
        "exit_code": code,
        "wall_s": (t_exit - t0) / 1e9,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "steal_ticks": _steal_ticks() - steal0,
    }
    try:
        start, end, _ = timing.read_text(encoding="utf-8").split()
        sample["setup_s"] = (int(start) - t0) / 1e9
        sample["sim_s"] = (int(end) - int(start)) / 1e9
    except (OSError, ValueError):
        pass
    return sample


def _csv_bits(path: Path) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return sum(int(line.rsplit(",", 2)[1]) for line in lines)


def _check_run(path: Path, workload: Workload, seed: int, code: int, err: Path | None) -> list[str]:
    if code != 0:
        tail = err.read_text(encoding="utf-8", errors="replace")[-500:] if err else ""
        return [f"exit code {code}: {tail.strip()}"]
    return check.check_output(path, workload, seed)


def end_to_end(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    config = write_inputs(workload, seed, work / "inputs")
    out_dir = work / "out"
    csv_path = out_dir / workload.csv_name
    args = cli_args(workload, config, out_dir)
    # Untimed: compiles bytecode and warms the file cache for the imports.
    warm = subprocess.run(
        [sys.executable, "-c", "import trlinksim.cli"], env=_child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S
    )
    if warm.returncode != 0:
        raise BenchError(f"cannot import trlinksim from {SRC}: {warm.stderr.decode()[-300:]}")
    samples, problems = [], []
    start = time.monotonic()
    while len(samples) < MIN_CHILDREN or time.monotonic() - start < seconds:
        csv_path.unlink(missing_ok=True)
        sample = run_child(args, work)
        found = _check_run(csv_path, workload, seed, sample["exit_code"], work / "child.err")
        if "sim_s" not in sample:
            found.append("child wrote no timing record")
        if not found:
            sample["bits_per_s"] = _csv_bits(csv_path) / sample["sim_s"]
        sample["problems"] = found
        problems += [f"child {len(samples)}: {p}" for p in found]
        samples.append(sample)
    good = [s for s in samples if not s["problems"]]
    metrics = {name: median([s[name] for s in good]) for name in END_TO_END} if good else {}
    return {
        "attempted": len(samples),
        "failed": len(samples) - len(good),
        "problems": problems,
        "metrics": metrics,
        "units": END_TO_END,
        "samples": samples,
    }


# ------------------------------------------------------------ traced run


def topmost_import_s(importtime_log: str, package: str) -> float:
    """Cumulative seconds of the outermost imports of ``package`` or its submodules.

    ``-X importtime`` prints a module after its children, indented by
    nesting depth. A package can be missing its own line (scipy's lazy
    submodule loading drops ``scipy.signal``'s), so its outermost
    submodules are summed instead.
    """
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].lstrip(" ")
        depth = len(fields[2]) - len(name)
        entries.append((depth, name.strip(), int(fields[1]) / 1e6))
    total, ancestors = 0.0, []  # walking backwards visits each parent before its children
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not any(a[1] for a in ancestors):
            total += cumulative
        ancestors.append((depth, mine))
    return total


def import_times() -> dict[str, float]:
    """Import seconds of trlinksim and scipy.signal in cold ``-X importtime`` children (medians)."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import trlinksim.cli"],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import trlinksim from {SRC}: {proc.stderr[-300:]}")
        runs.append(
            {
                "setup.import_trlinksim_s": topmost_import_s(proc.stderr, "trlinksim"),
                "setup.import_scipy_signal_s": topmost_import_s(proc.stderr, "scipy.signal"),
            }
        )
    return {name: median([r[name] for r in runs]) for name in runs[0]}


def _import_cli():
    sys.path.insert(0, str(SRC))
    from trlinksim import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported trlinksim from {cli.__file__}, not from {SRC}")
    return cli


def _call(cli, args: list[str]) -> tuple[int, float]:
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(args)
        return code, time.perf_counter() - t0


def traced_call(cli, args: list[str]) -> tuple[int, float, spans.Recorder]:
    """One in-process CLI call with every layer wrapped; wrappers are removed after."""
    recorder = spans.Recorder()
    with spans.Installed(recorder):
        code, sim_s = _call(cli, args)
    return code, sim_s, recorder


def _rep_summary(recorder: spans.Recorder) -> dict:
    return {
        "self": spans.self_times(recorder.spans),
        "calls": spans.call_counts(recorder.spans),
        "distinct": {name: len(keys) for name, keys in recorder.keys.items()},
        "amounts": dict(recorder.amounts),
        "trials": spans.durations(recorder.spans, "experiments.run_trial"),
    }


def layer_metrics(reps: list[dict], untraced_sim: list[float], traced_sim: list[float], trials_per_rep: int) -> dict:
    first = reps[0]
    calls = first["calls"]
    metrics: dict[str, float] = {}
    for name in _SELF_TIMED:
        metrics[f"{name}.s"] = median([r["self"].get(name, 0.0) for r in reps])
    metrics["chanmodel.s"] = median([sum(r["self"].get(n, 0.0) for n in _CHANNEL_SOURCES) for r in reps])
    for name in _COUNTED:
        metrics[f"{name}.calls"] = calls.get(name, 0)
    for name in _DISTINCT:
        n_calls = calls.get(name, 0)
        metrics[f"{name}.distinct_ratio"] = first["distinct"].get(name, 0) / n_calls if n_calls else 0.0
    for name in _AMOUNTS:
        metrics[name] = first["amounts"].get(name, 0)
    pooled = [t for r in reps for t in r["trials"]]
    pct = tail_percentile(trials_per_rep * MIN_TRACED_REPS)
    metrics["experiments.run_trial.p50_s"] = percentile(pooled, 50)
    metrics["experiments.run_trial.tail_s"] = percentile(pooled, pct)
    metrics["experiments.run_trial.tail_pct"] = pct
    metrics["experiments.run_trial.tail_n"] = len(pooled)
    metrics["trace.sim_s"] = median(traced_sim)
    metrics["trace.overhead_s"] = median(traced_sim) - median(untraced_sim)
    return metrics


def self_time_ranking(reps: list[dict]) -> list[tuple[str, float]]:
    """Median self time per traced function, largest first."""
    names = {n for r in reps for n in r["self"]} - {spans.BOOKKEEPING}
    ranking = {n: median([r["self"].get(n, 0.0) for r in reps]) for n in names}
    return sorted(ranking.items(), key=lambda item: -item[1])


def traced(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    config = write_inputs(workload, seed, work / "inputs")
    setup = import_times()
    cli = _import_cli()
    untraced_sim, traced_sim, reps, problems = [], [], [], []
    attempted = failed = 0
    outputs = {"untraced": work / "out-untraced", "traced": work / "out-traced"}
    # Untimed, one trial: fills the lazy imports and caches that numpy and
    # scipy set up on first use, so the first untraced call is not slower.
    _call(cli, cli_args(workload, config, work / "out-warm") + ["--trials", "1"])
    start = time.monotonic()
    while len(reps) < MIN_TRACED_REPS or time.monotonic() - start < seconds:
        for kind, out_dir in outputs.items():
            csv_path = out_dir / workload.csv_name
            csv_path.unlink(missing_ok=True)
            args = cli_args(workload, config, out_dir)
            if kind == "traced":
                code, sim_s, recorder = traced_call(cli, args)
                reps.append(_rep_summary(recorder))
                traced_sim.append(sim_s)
            else:
                code, sim_s = _call(cli, args)
                untraced_sim.append(sim_s)
            attempted += 1
            found = _check_run(csv_path, workload, seed, code, None)
            if not found and kind == "traced":
                if csv_path.read_bytes() != (outputs["untraced"] / workload.csv_name).read_bytes():
                    found.append("traced CSV differs from the untraced CSV")
            if found:
                failed += 1
                problems += [f"{kind} call {attempted}: {p}" for p in found]
    for key in ("calls", "distinct", "amounts"):
        if any(r[key] != reps[0][key] for r in reps):
            problems.append(f"traced {key} differ between repetitions")
    calls = reps[0]["calls"]
    missing = [name for name in workload.predicted_spans if not calls.get(name)]
    if missing:
        problems.append(f"predicted spans recorded no calls: {', '.join(missing)}")
    metrics = dict(setup)
    metrics.update(layer_metrics(reps, untraced_sim, traced_sim, len(reps[0]["trials"])))
    ranking = self_time_ranking(reps)
    top = [name for name, _ in ranking[: workload.top_k]]
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "units": PER_LAYER,
        "untraced_sim_s": untraced_sim,
        "traced_sim_s": traced_sim,
        "self_time_ranking": ranking,
        "per_function_self_s": {n: median([r["self"].get(n, 0.0) for r in reps]) for n in spans.TRACED},
        "prediction": {
            "expected_top": list(workload.predicted_top),
            "observed_top": top,
            "met": set(top) <= set(workload.predicted_top),
        },
    }


# ----------------------------------------------------------------- main


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _print_metrics(result: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"{name} = {value!r} {result['units'][name]}")
    for problem in result["problems"]:
        print(f"problem: {problem}")
    if "self_time_ranking" in result:
        top = ", ".join(f"{name}={value:.4g}" for name, value in result["self_time_ranking"][:6])
        print(f"largest self times (s): {top}")
    if "prediction" in result:
        p = result["prediction"]
        verdict = "met" if p["met"] else "NOT met"
        print(f"prediction: largest {p['observed_top']} within {p['expected_top']}: {verdict}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "trlinksim" / "cli.py").is_file():
        print(f"error: no trlinksim sources under {SRC}", file=sys.stderr)
        return 2
    info = machine_info()
    load_start = os.getloadavg()
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        result = run(workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = not result["problems"] and result["failed"] == 0
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "master_seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "load_average_start": load_start,
        "load_average_end": os.getloadavg(),
        **info,
        "correct": correct,
        **result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    _print_metrics(result)
    wanted = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in wanted.items()
            if name in result["metrics"]
        },
    }
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
