"""End-to-end and per-layer benchmark of the treewalks CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dp_tables --seed 1 --seconds 35 --trace 0

One serial client runs the workload's command list in a closed loop: each
command is ``python -m treewalks.cli ...`` against this checkout's ``src`` and
starts only after the previous one has exited.  Every printed value is
checked against :mod:`reference`, outside the timed region.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over passes of
the wall time of one pass over the command list), ``peak_rss_mb`` (median over
passes of the largest per-command peak RSS, from ``os.wait4``) and ``setup_s``
(median wall time of the no-work command ``walks -m 2 -n 0``).  Both times are
calibrated seconds: each command's wall time is scaled by how much slower than
nominal a calibration kernel (:mod:`calibrate`) ran just before and after it,
which takes out most of the swings in speed of a shared machine.  The record
line also holds the unscaled medians ``raw_wall_s`` and ``raw_setup_s``.

``--trace 1`` runs the same commands in process through ``treewalks.cli.main``,
alternating untraced and traced passes, and reports the per-layer metrics of
:mod:`layers`.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a record of
the run: the workload, why it was chosen, the argv lists, sample counts,
``failed_frac`` and the first failures.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import layers
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 11
# Wall times of the two calibration kernels on an idle core of a 2-core
# x86-64 VM under Python 3.11.  Each command's wall time is scaled by its
# kernel's nominal time over the mean of the readings taken just before and
# after it, so a run reports seconds at that reference speed however busy
# the shared machine is.
NOMINAL_CPU_S = 0.034
NOMINAL_MEMORY_S = 0.041
# Keeps a run inside the 180 s a caller allows, whatever the program does.
RUN_DEADLINE_S = 170.0


class Run:
    """Commands attempted and failed in one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.start = time.perf_counter()
        self._expected: dict[tuple[str, ...], list[str]] = {}

    def record(self, command: workloads.Command, code: int, text: str) -> None:
        """Check one command's output; call it outside the timed region."""
        if command.argv not in self._expected:
            self._expected[command.argv] = reference.expected_strings(command)
        self.attempted += 1
        reason = reference.check(command, self._expected[command.argv], code, text)
        if reason is not None:
            self.failures.append(f"{' '.join(command.argv)}: {reason}")

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)


def keep_going(durations: list[float], started: float, seconds: float) -> bool:
    """Start another pass only if a median pass still fits in ``seconds``."""
    if not durations:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


class Helper:
    """A helper process of the benchmark that answers one line per line
    asked, started and stopped with the run."""

    def __init__(self, script: str):
        self.script = Path(__file__).with_name(script)

    def __enter__(self) -> "Helper":
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(self.script)],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs CLI commands through :mod:`spawn` and reads the machine's speed
    through :mod:`calibrate`."""

    def __init__(self, run: Run):
        self.run = run
        self.spawner = Helper("spawn.py")
        self.calibration = Helper("calibrate.py")

    def __enter__(self) -> "Runner":
        self.spawner.__enter__()
        self.calibration.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.calibration.__exit__(*exc)
        self.spawner.__exit__(*exc)

    def command(self, argv: Sequence[str]) -> dict:
        """Wall s, peak RSS MiB, exit code and stdout of one CLI process."""
        request = {"argv": list(argv), "timeout": max(self.run.remaining(), 1.0)}
        return json.loads(self.spawner.ask(json.dumps(request)))

    def reading(self) -> tuple[float, float]:
        """Wall times of one run of the CPU and the memory kernel."""
        cpu, memory = self.calibration.ask("").split()
        return float(cpu), float(memory)


class Pass:
    """One timed pass over a command list, each command between two
    calibration readings."""

    def __init__(self, commands: Sequence[workloads.Command], runner: Runner):
        started = time.perf_counter()
        readings = [runner.reading()]
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.peak = 0.0
        outputs = []
        for command in commands:
            done = runner.command(command.argv)
            readings.append(runner.reading())
            self.raw.append(done["wall_s"])
            kernel, nominal = (1, NOMINAL_MEMORY_S) if command.memory_bound else (0, NOMINAL_CPU_S)
            speed = nominal / statistics.fmean(r[kernel] for r in readings[-2:])
            self.scaled.append(done["wall_s"] * speed)
            self.peak = max(self.peak, done["rss_mb"])
            outputs.append(done)
        self.duration = time.perf_counter() - started
        for command, done in zip(commands, outputs):
            runner.run.record(command, done["code"], done["stdout"])


def untraced(commands, seconds: float, run: Run) -> dict[str, list[float]]:
    with Runner(run) as runner:
        Pass([workloads.SETUP], runner)  # compiles the bytecode; not timed
        setup = Pass([workloads.SETUP] * SETUP_RUNS, runner)
        passes: list[Pass] = []
        started = time.perf_counter()
        while keep_going([p.duration for p in passes], started, seconds) and run.remaining() > 0:
            passes.append(Pass(commands, runner))
    return {
        "wall_s": [sum(p.scaled) for p in passes],
        "raw_wall_s": [sum(p.raw) for p in passes],
        "peak_rss_mb": [p.peak for p in passes],
        "setup_s": setup.scaled,
        "raw_setup_s": setup.raw,
    }


def load_package() -> dict:
    sys.path.insert(0, str(SRC))
    import treewalks.cli  # noqa: F401  (imports every layer)

    modules = {name: sys.modules[f"treewalks.{name}"] for name in layers.LAYERS}
    for module in modules.values():
        if not Path(module.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"{module.__name__} loaded from {module.__file__}, not from {SRC}")
    return modules


def in_process_pass(modules, commands, run: Run, tracer: Optional[layers.Tracer]) -> float:
    """Wall time of one pass through ``treewalks.cli.main``, stdout captured."""
    caches = layers.oracle_caches(modules["oracles"])
    layers.drain_caches(caches)
    outputs = []
    t0 = time.perf_counter()
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = modules["cli"].main(list(command.argv))
        if tracer is None:
            layers.drain_caches(caches)
        else:
            tracer.end_command(out.getvalue())
        outputs.append((code, out.getvalue()))
    wall = time.perf_counter() - t0
    for command, (code, text) in zip(commands, outputs):
        run.record(command, code, text)
    return wall


def traced(commands, seconds: float, run: Run) -> dict[str, list[float]]:
    """Pairs of an untraced and a traced in-process pass, in alternating
    order so that warm-up and drift fall on both sides alike."""
    modules = load_package()
    untraced_walls: list[float] = []
    passes: list[dict[str, float]] = []
    durations: list[float] = []
    started = time.perf_counter()
    while keep_going(durations, started, seconds) and run.remaining() > 0:
        t0 = time.perf_counter()
        pair = [None, layers.Tracer(modules)]
        for tracer in pair if len(passes) % 2 == 0 else pair[::-1]:
            if tracer is None:
                untraced_walls.append(in_process_pass(modules, commands, run, None))
                continue
            with tracer.installed():
                wall = in_process_pass(modules, commands, run, tracer)
            passes.append(layers.summarize(tracer, wall))
        passes[-1]["trace.overhead_s"] = passes[-1]["trace.wall_s"] - untraced_walls[-1]
        durations.append(time.perf_counter() - t0)
    samples = {name: [p[name] for p in passes] for name in passes[0]}
    samples["untraced.wall_s"] = untraced_walls
    return samples


END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


def unit(name: str) -> str:
    name = name.removeprefix("raw_").removeprefix("untraced.")
    return END_TO_END_UNITS.get(name) or layers.unit(name)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treewalks" / "cli.py").is_file():
        print(f"error: no treewalks sources under {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    commands = workload.commands(args.seed)
    run = Run()
    samples = (traced if args.trace else untraced)(commands, args.seconds, run)
    medians = {name: statistics.median(values) for name, values in samples.items()}
    failed = len(run.failures)
    names = layers.PER_LAYER if args.trace else tuple(END_TO_END_UNITS)
    print(json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "commands": [list(c.argv) for c in commands],
        "failed_frac": failed / run.attempted,
        "failures": run.failures[:5],
        "metrics": {
            name: {"value": value, "unit": unit(name), "samples": len(samples[name])}
            for name, value in medians.items()
        },
        "sample_values": samples,
    }))
    result = {name: {"value": medians[name], "unit": unit(name)} for name in names}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
