"""Seeded command lists for the benchmark workloads.

Each workload is a fixed list of CLI command kinds at fixed sizes.  The seed
picks only the tree degree m, the end height i, the rational weights and the
output format, so one seed always gives the same argv lists.  Where a choice
would change the amount of work (the exponent i of a gf power, the sizes of
the rational weights), it is drawn from a set whose members cost the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

FORMATS = ("plain", "csv", "json", "bfile")

# `verify --scope all` runs 4 checks per tree degree 2..m_max, 4 per weight
# triple of the CLI's fixed list of 6, and 2 free-group checks.
DYCK_TRIPLES = 6
FREE_GROUP_CHECKS = 2

Weights = tuple[Fraction, Fraction, Fraction]


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what a correct run of it prints.

    A values command prints A(i, n) for every n in ``ns`` under ``weights``,
    in format ``fmt``; a verify command (``checks`` set) prints a summary
    line ``K/K checks passed`` with K == ``checks``.  ``memory_bound``
    picks the calibration kernel its wall time is scaled by.
    """

    argv: tuple[str, ...]
    weights: Optional[Weights] = None
    i: int = 0
    ns: tuple[int, ...] = ()
    fmt: str = "plain"
    checks: Optional[int] = None
    memory_bound: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random], list[Command]]

    def commands(self, seed: int) -> list[Command]:
        return self.build(random.Random(seed))


def decimal(value: Fraction) -> str:
    """The CLI's form of a rational, for argv and output alike: ``7`` or ``-2/3``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _rational_weights(rng: random.Random) -> Weights:
    """Three non-integral weights: the numerators 1, 2, 4 over the
    denominators 3, 5, 7, each list in seeded order.

    Every draw has the same numerator and denominator sizes, so the
    entries' bit lengths, which set the cost of exact arithmetic, do not
    depend on the seed.
    """
    numerators, denominators = [1, 2, 4], [3, 5, 7]
    rng.shuffle(numerators)
    rng.shuffle(denominators)
    p, q = numerators, denominators
    return (Fraction(p[0], q[0]), Fraction(p[1], q[1]), Fraction(p[2], q[2]))


def walks(m: int, i: int, n_max: int, method: str, fmt: str) -> Command:
    argv = ("walks", "-m", str(m), "-i", str(i), "-n", str(n_max), "--method", method, "--format", fmt)
    weights = (Fraction(1), Fraction(m - 1), Fraction(m))
    return Command(argv, weights, i, tuple(range(n_max + 1)), fmt)


def dyck(weights: Weights, i: int, n_max: int, method: str, fmt: str) -> Command:
    argv = ("dyck", *map(decimal, weights), "-i", str(i), "-n", str(n_max), "--method", method, "--format", fmt)
    return Command(argv, weights, i, tuple(range(n_max + 1)), fmt)


def bfile(m: int, i: int, count: int) -> Command:
    argv = ("bfile", "-m", str(m), "-i", str(i), "--count", str(count))
    weights = (Fraction(1), Fraction(m - 1), Fraction(m))
    return Command(argv, weights, i, tuple(i + 2 * k for k in range(count)), "bfile")


def verify(n_max: int, m_max: int) -> Command:
    argv = ("verify", "--scope", "all", "-n", str(n_max), "--m-max", str(m_max))
    # Most of verify's time is the tree oracle pushing counts over a ball of
    # up to 1.7 million vertices, hundreds of MiB: its speed follows memory
    # contention, where dp, gf and path enumeration follow the CPU.
    checks = 4 * (m_max - 1) + 4 * DYCK_TRIPLES + FREE_GROUP_CHECKS
    return Command(argv, checks=checks, memory_bound=True)


# The no-work command whose wall time is the set-up cost: interpreter
# start, import and argument parsing.
SETUP = walks(2, 0, 0, "dp", "plain")


def _dp_tables(rng: random.Random) -> list[Command]:
    return [
        walks(rng.randint(3, 8), rng.randint(0, 40), 500, "dp", rng.choice(FORMATS)),
        bfile(rng.randint(3, 8), rng.randint(0, 8), 250),
        dyck(_rational_weights(rng), rng.randint(0, 40), 400, "dp", rng.choice(FORMATS)),
    ]


def _gf_series(rng: random.Random) -> list[Command]:
    # Exponents with 5 bits, two of them set: every one costs __pow__ four
    # squarings and two products.  Likewise 5 and 6 for the dyck query.
    return [
        walks(rng.randint(3, 8), 0, 450, "gf", rng.choice(FORMATS)),
        walks(rng.randint(3, 8), rng.choice((17, 18, 20, 24)), 300, "gf", rng.choice(FORMATS)),
        dyck(_rational_weights(rng), rng.choice((5, 6)), 220, "gf", rng.choice(FORMATS)),
    ]


def _verify_oracles(rng: random.Random) -> list[Command]:
    return [
        verify(11, 5),
        dyck(_rational_weights(rng), rng.randint(0, 16), 16, "enum", rng.choice(FORMATS)),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dp_tables",
            "dp at large order: walks -n 500, bfile --count 250 and dyck -n 400 with rational weights. "
            "build_table is about 98% of the traced time and no series code runs; the square Fraction "
            "table sets the peak RSS (about 35 MiB).",
            _dp_tables,
        ),
        Workload(
            "gf_series",
            "the same kinds of query through --method gf: walks with i = 0 (sqrt and inverse), walks "
            "with i in 17..24 (__pow__ into __mul__) and dyck with rational weights (convolutions over "
            "non-integral coefficients). series is about 99% of the traced time and recurrence never "
            "runs.",
            _gf_series,
        ),
        Workload(
            "verify_oracles",
            "verify --scope all -n 11 --m-max 5 (42 checks) plus one dyck -n 16 --method enum. The "
            "oracles are about 90% of the traced time and their unbounded caches set the peak RSS "
            "(about 394 MiB); recurrence and series run as about a hundred small calls, so a kernel "
            "that costs more per call shows here.",
            _verify_oracles,
        ),
    )
}
