"""Self-tests of the benchmark: reference values, output checks, seeding,
tracing and the BENCHMARK.json contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import layers
import reference
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treewalks.recurrence import WeightConfig, build_table  # noqa: E402

SWEEP_WEIGHTS = [
    (1, 2, 3),
    (1, 1, 2),
    (1, Fraction(1, 2), 2),
    (Fraction(2, 3), Fraction(3, 5), Fraction(7, 4)),
    (2, 1, 5),
    (1, 0, 3),
]


@pytest.mark.parametrize("weights", SWEEP_WEIGHTS)
def test_ballot_sum_matches_build_table(weights):
    fractions = tuple(Fraction(c) for c in weights)
    n_max = 24
    table = build_table(WeightConfig(*fractions), n_max)
    for i in range(n_max + 1):
        ns = list(range(n_max + 1))
        assert reference.ballot_row(fractions, i, ns) == [table.count(i, n) for n in ns]


def _command(fmt: str) -> workloads.Command:
    return workloads.dyck((Fraction(2, 3), Fraction(1, 5), Fraction(4, 7)), 2, 12, "dp", fmt)


def _cli_output(command: workloads.Command) -> tuple[int, str]:
    with run.Runner(run.Run()) as runner:
        done = runner.command(command.argv)
    return done["code"], done["stdout"]


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_real_output_passes_and_one_altered_digit_fails(fmt):
    command = _command(fmt)
    expected = reference.expected_strings(command)
    code, text = _cli_output(command)
    assert reference.check(command, expected, code, text) is None
    last = expected[-1]
    altered = last[:-1] + ("1" if last[-1] != "1" else "2")
    broken = text[: text.rindex(last)] + altered + text[text.rindex(last) + len(last):]
    assert reference.check(command, expected, code, broken) is not None
    assert reference.check(command, expected, 1, text) is not None


def test_bfile_command_is_checked_by_index_and_value():
    command = workloads.bfile(3, 1, 6)
    expected = reference.expected_strings(command)
    code, text = _cli_output(command)
    assert reference.check(command, expected, code, text) is None
    assert reference.check(command, expected, code, text.replace("0 1\n", "1 1\n", 1)) is not None


def test_verify_summary_must_report_every_check_passed():
    command = workloads.verify(2, 2)
    code, text = _cli_output(command)
    assert command.checks == 30 and text.endswith("30/30 checks passed\n")
    assert reference.check(command, [], code, text) is None
    assert reference.check(command, [], code, text.replace("30/30", "29/30")) is not None
    assert reference.check(command, [], 1, text) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(name):
    workload = workloads.WORKLOADS[name]
    assert workload.commands(7) == workload.commands(7)
    assert [c.argv for c in workload.commands(7)] != [c.argv for c in workload.commands(8)]


def test_traced_self_times_sum_to_traced_wall():
    modules = run.load_package()
    commands = [
        workloads.walks(3, 1, 40, "dp", "plain"),
        workloads.walks(4, 2, 40, "gf", "csv"),
        workloads.dyck((Fraction(1, 3), Fraction(2, 5), Fraction(4, 7)), 0, 8, "enum", "json"),
        workloads.verify(4, 3),
    ]
    bench = run.Run()
    tracer = layers.Tracer(modules)
    with tracer.installed():
        wall = run.in_process_pass(modules, commands, bench, tracer)
    assert bench.failures == [] and bench.attempted == len(commands)
    metrics = layers.summarize(tracer, wall)
    self_total = sum(metrics[f"{layer}.share"] for layer in layers.LAYERS) * wall
    assert self_total <= wall
    assert wall - self_total <= tracer.bookkeeping + 0.05 * wall
    assert metrics["cli.verify.checks"] == commands[-1].checks
    assert metrics["recurrence.build_table.calls"] > 0 and metrics["series.mul.calls"] > 0
    assert metrics["oracles.states"] > 0 and 0 < metrics["oracles.cache_hit_ratio"] < 1
    # The patches are undone: the package runs untraced again.
    assert modules["cli"].build_table is build_table


def test_benchmark_json_matches_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, layers.unit(name)) for name in layers.PER_LAYER
    ]


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dp_tables", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
