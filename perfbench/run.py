"""Benchmark of the sparsepanel CLI: four workloads, each one real command.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run sets up five times in fresh interpreters (import `sparsepanel.cli`,
generate and write the inputs from --seed) and reports the median as
`setup_s`. With --trace 0 it then runs the workload's command, checks its
outputs, and repeats it while the next command is expected to end within S
seconds (at least once); it reports the median wall time and peak resident
memory of the commands. With --trace 1 it runs the command once untraced and
once under perfbench/tracer.py and reports the per-layer metrics (see
README.md). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUPS = 5
HORIZONS = (1, 2, 3)

# Workload -> the CLI arguments after those every command gets
# (--config INPUT/config.json --out OUT).
COMMANDS = {
    "m1-estimate": ["estimate", "--model", "m1", "--variant", "ss_hetsk",
                    "--data", "{input}/panel.csv", "--draws", "1200", "--burnin", "600"],
    "mc-cell": ["montecarlo", "--design", "{input}/design.json", "--threads", "2"],
    "m2-forecast-panel": ["forecast", "--model", "m2", "--scenario", "full_info_param_unc",
                          "--data", "{input}/panel.csv", "--draws", "800", "--burnin", "400",
                          "--horizons", ",".join(map(str, HORIZONS))],
    "m2-forecast-unit": ["forecast", "--model", "m2", "--scenario", "individual_info",
                         "--data", "{input}/panel.csv", "--draws", "600", "--burnin", "300",
                         "--horizons", ",".join(map(str, HORIZONS))],
}
M1_KEPT_DRAWS = 1200 - 600  # draws minus burn-in of m1-estimate


def spawn(argv, log: Path, env, deadline: float):
    """Run one child to its end; return (exit code, wall s, rusage, its output).

    The child is reaped with wait4, so its own peak resident memory and CPU
    times come back with it. A child still running at `deadline` is killed.
    """
    with open(log, "w") as out, subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out,
                                                 stderr=subprocess.STDOUT) as proc:
        start = time.perf_counter()
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise RuntimeError(f"{argv[1]} exceeded the run's time limit")
            time.sleep(0.002)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, log.read_text()


def setup(workload, seed, work: Path, env, deadline):
    """Set up SETUPS times; return (input dir, setup times, simulate times)."""
    walls, simulate = [], []
    for k in range(SETUPS):
        inp = work / f"input{k}"
        code, wall, _, out = spawn([sys.executable, str(BENCH / "make_input.py"), workload,
                                    str(seed), str(inp)], work / f"setup{k}.log", env, deadline)
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}; see {work}/setup{k}.log")
        walls.append(wall)
        simulate.append(json.loads(out.strip().splitlines()[-1])["simulate_s"])
        if k and any((inp / f.name).read_bytes() != f.read_bytes()
                     for f in (work / "input0").iterdir()):
            raise RuntimeError("the same seed gave different inputs")
    return work / "input0", walls, simulate


def check(workload, out: Path, inp: Path) -> dict:
    if workload == "m1-estimate":
        return checks.check_m1_estimate(out, inp, M1_KEPT_DRAWS)
    if workload == "mc-cell":
        return checks.check_mc_cell(out, inp)
    return checks.check_forecast(out, inp, HORIZONS)


def operations(workload, inp: Path) -> int:
    """Operations per command: the Monte Carlo cell counts each chain too."""
    if workload != "mc-cell":
        return 1
    design = json.loads((inp / "design.json").read_text())
    return 1 + design["n_sim"] * len(design["estimators"])


def failed_chains(out: Path) -> int:
    manifest = json.loads((out / "manifest.json").read_text())
    return sum(manifest["failed_replications"].values())


class Run:
    def __init__(self, workload, inp: Path, work: Path, env, deadline):
        self.workload, self.inp, self.work, self.env = workload, inp, work, env
        self.deadline = deadline
        self.attempted = self.failed = 0
        self.correct = True
        self.details = []

    def command(self, index: int, trace_file: Path | None = None):
        """Run and check the command once; return (wall s, rusage) or None if it failed."""
        out = self.work / f"out{index}"
        args = [a.format(input=self.inp) for a in COMMANDS[self.workload]]
        args += ["--config", str(self.inp / "config.json"), "--out", str(out)]
        prefix = [str(BENCH / "tracer.py"), str(trace_file), "--"] if trace_file else \
            ["-m", "sparsepanel.cli"]
        ops = operations(self.workload, self.inp)
        self.attempted += ops
        code, wall, usage, _ = spawn([sys.executable, *prefix, *args],
                                     self.work / f"command{index}.log", self.env, self.deadline)
        if code != 0:
            self.failed += ops
            self.details.append({"command": index, "exit_code": code})
            return None
        if self.workload == "mc-cell":
            self.failed += failed_chains(out)
        try:
            figures = check(self.workload, out, self.inp)
        except (checks.CheckError, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.correct = False
            self.details.append({"command": index, "check_failed": str(exc)})
            return None
        self.details.append({"command": index, "wall_s": wall, **figures})
        return wall, usage

    def chain_bytes(self, index: int) -> int:
        out = self.work / f"out{index}"
        if not (out / "manifest.json").exists() or self.workload != "m1-estimate":
            return 0
        files = json.loads((out / "manifest.json").read_text())["files"] + ["manifest.json"]
        return sum((out / f).stat().st_size for f in files)

    def clear_output(self, index: int):
        shutil.rmtree(self.work / f"out{index}", ignore_errors=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(run: Run, seconds: float, setup_walls) -> dict:
    """Repeat the command while the next one is expected to end within `seconds`."""
    walls, rss = [], []
    start = time.monotonic()
    index = 0
    while True:
        result = run.command(index)
        run.clear_output(index)
        if result:
            walls.append(result[0])
            rss.append(result[1].ru_maxrss / 1024.0)
        index += 1
        expected = statistics.median(walls) if walls else 0.0
        if time.monotonic() - start + expected > seconds:
            break
    if not walls:
        raise RuntimeError(f"every command failed: {run.details}")
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(statistics.median(rss), "MB"),
        "setup_s": metric(statistics.median(setup_walls), "s"),
    }


def measure_layers(run: Run, simulate_s, trace_file: Path) -> dict:
    untraced = run.command(0)
    traced = run.command(1, trace_file)
    if not (untraced and traced):
        raise RuntimeError(f"a command failed: {run.details}")
    usage = untraced[1]
    trace = json.loads(trace_file.read_text())
    values = layers.compute(trace, run.workload, {
        "setup_simulate_s": statistics.median(simulate_s),
        "chain_bytes": run.chain_bytes(1),
        "cpu_per_wall": (usage.ru_utime + usage.ru_stime) / untraced[0],
        "untraced_wall_s": untraced[0],
        "traced_wall_s": traced[0],
    })
    run.clear_output(0)
    run.clear_output(1)
    return {name: metric(values[name], unit) for name, (unit, _) in layers.METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    if not (ROOT / "src" / "sparsepanel" / "cli.py").is_file():
        print(f"error: {ROOT} is not a sparsepanel source checkout (no src/sparsepanel)",
              file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    runs_dir = ROOT / ".perfbench"
    work = runs_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = began + RUN_LIMIT_S

    inp, setup_walls, simulate_s = setup(args.workload, args.seed, work, env, deadline)
    run = Run(args.workload, inp, work, env, deadline)
    if args.trace:
        trace_file = runs_dir / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = measure_layers(run, simulate_s, trace_file)
    else:
        metrics = measure(run, args.seconds, setup_walls)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "commands": run.details}))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
