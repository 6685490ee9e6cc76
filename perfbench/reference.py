"""Expected CLI output, computed without importing treewalks.

Values come from the ballot closed sum

    A(i, n) = sum_j c1^((n+i)/2) c2^((n-i)/2 - j) c3^j * (i+j)/(n-j) * C(n-j, (n+i)/2)

where j counts the down-steps that land on the axis, (i+j)/(n-j) C(n-j, u)
is the number of nonnegative paths of length n ending at height i with
exactly j such steps, A(0, 0) = 1, and the i = j = 0 term is skipped (no
path of positive length returns to the axis without landing on it).  It
shares no code with the recurrence, the series or the oracles it checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from workloads import Command, Weights, decimal


def ballot_row(weights: Weights, i: int, ns: Sequence[int]) -> list[Fraction]:
    """A(i, n) for each n in ``ns``, one exact sum per entry.

    The sum runs on integers over the common denominator
    b1^u * (b2*b3)^d, with c_k = a_k/b_k, u up-steps and d down-steps, so
    only the final value is normalised.
    """
    (a1, b1), (a2, b2), (a3, b3) = ((c.numerator, c.denominator) for c in weights)
    longest = max((n - i) // 2 for n in ns) if ns else 0
    off_axis = [1]  # (a2*b3)^k: c2 over the common denominator
    on_axis = [1]  # (a3*b2)^k: c3 over the common denominator
    for _ in range(max(longest, 0)):
        off_axis.append(off_axis[-1] * a2 * b3)
        on_axis.append(on_axis[-1] * a3 * b2)
    values = []
    for n in ns:
        if n < i or (n - i) % 2:
            values.append(Fraction(0))
            continue
        if n == 0:
            values.append(Fraction(1))
            continue
        up, down = (n + i) // 2, (n - i) // 2
        total = 0
        for j in range(0 if i else 1, down + 1):
            paths, rest = divmod((i + j) * comb(n - j, up), n - j)
            if rest:
                raise ArithmeticError(f"ballot number for n={n} i={i} j={j} is not an integer")
            total += off_axis[down - j] * on_axis[j] * paths
        values.append(Fraction(a1**up * total, b1**up * (b2 * b3) ** down))
    return values


def expected_strings(command: Command) -> list[str]:
    """Printed values a correct run of a values command shows, in order."""
    if command.weights is None:
        return []
    return [decimal(v) for v in ballot_row(command.weights, command.i, command.ns)]


def _parse(text: str, fmt: str) -> tuple[Optional[list[int]], list[str]]:
    """(indices or None, value strings) from one command's stdout."""
    lines = text.splitlines()
    if fmt == "plain":
        if len(lines) != 1:
            raise ValueError(f"plain output has {len(lines)} lines, expected 1")
        return None, lines[0].split(" ")
    if fmt == "json":
        payload = json.loads(text)
        return list(payload["n"]), list(payload["values"])
    if fmt == "csv":
        if not lines or lines[0] != "n,value":
            raise ValueError("csv output lacks the n,value header")
        rows = [line.split(",") for line in lines[1:]]
    else:
        rows = [line.split(" ") for line in lines]
    if any(len(row) != 2 for row in rows):
        raise ValueError(f"{fmt} output has a line without exactly two fields")
    return [int(row[0]) for row in rows], [row[1] for row in rows]


def check(command: Command, expected: Sequence[str], code: int, text: str) -> Optional[str]:
    """None when the run is correct, else a one-line reason.

    ``expected`` is :func:`expected_strings` of the command, computed once
    per benchmark run.
    """
    if code != 0:
        return f"exit code {code}, expected 0"
    if command.checks is not None:
        lines = text.splitlines()
        summary = f"{command.checks}/{command.checks} checks passed"
        if not lines or lines[-1] != summary:
            return f"summary {lines[-1] if lines else ''!r}, expected {summary!r}"
        return None
    try:
        indices, values = _parse(text, command.fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable {command.fmt} output: {exc}"
    if command.fmt in ("csv", "json"):
        want_indices: Optional[list[int]] = list(command.ns)
    elif command.fmt == "bfile":
        want_indices = list(range(len(expected)))
    else:
        want_indices = None
    if indices != want_indices:
        return "printed indices differ from the requested lengths"
    if len(values) != len(expected):
        return f"{len(values)} values printed, expected {len(expected)}"
    for n, got, want in zip(command.ns, values, expected):
        if got != want:
            return f"A({command.i}, {n}) printed as {got[:40]}, expected {want[:40]}"
    return None
