"""Pinned CLI behaviour: exact stdout and exit code of a fixed argv list, and
one corrupted route per dp comparison in ``verify``, also deep in the square.

Stdout and exit codes are the CLI's published contract, so any change to a
printed byte or an exit code of these commands fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import treewalks.cli as cli
import treewalks.genfunc as genfunc
import treewalks.oracles as oracles
import treewalks.recurrence as recurrence
import treewalks.verify as verify
from treewalks.recurrence import DEFAULT_MAX_STATES, WalkTable
from treewalks.series import PowerSeries

GOLDEN = [
    (
        ['verify', '--scope', 'all', '-n', '11', '--m-max', '5'],
        0,
        """\
PASS  dp = closed form, m=2, n<=11
PASS  dp = closed form, m=3, n<=11
PASS  dp = closed form, m=4, n<=11
PASS  dp = closed form, m=5, n<=11
PASS  dp = constructed gf, m=2, n<=11
PASS  dp = constructed gf, m=3, n<=11
PASS  dp = constructed gf, m=4, n<=11
PASS  dp = constructed gf, m=5, n<=11
PASS  dp = tree oracle, m=2, n<=10
PASS  dp = tree oracle, m=3, n<=10
PASS  dp = tree oracle, m=4, n<=10
PASS  dp = tree oracle, m=5, n<=10
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, m=2, n<=11
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, m=3, n<=11
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, m=4, n<=11
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, m=5, n<=11
PASS  dp = gf, weights (1, 1, 2) [m=2], n<=11
PASS  dp = gf, weights (1, 2, 3) [m=3], n<=11
PASS  dp = gf, weights (1, 3, 4) [m=4], n<=11
PASS  dp = gf, weights (1, 1, 1), n<=11
PASS  dp = gf, weights (2, 1, 5), n<=11
PASS  dp = gf, weights (1, 1/2, 2), n<=11
PASS  dp = path enumeration, weights (1, 1, 2) [m=2], n<=11
PASS  dp = path enumeration, weights (1, 2, 3) [m=3], n<=11
PASS  dp = path enumeration, weights (1, 3, 4) [m=4], n<=11
PASS  dp = path enumeration, weights (1, 1, 1), n<=11
PASS  dp = path enumeration, weights (2, 1, 5), n<=11
PASS  dp = path enumeration, weights (1, 1/2, 2), n<=11
PASS  series algebra by products (a, b, c, d_i), weights (1, 1, 2) [m=2]
PASS  series algebra by products (a, b, c, d_i), weights (1, 2, 3) [m=3]
PASS  series algebra by products (a, b, c, d_i), weights (1, 3, 4) [m=4]
PASS  series algebra by products (a, b, c, d_i), weights (1, 1, 1)
PASS  series algebra by products (a, b, c, d_i), weights (2, 1, 5)
PASS  series algebra by products (a, b, c, d_i), weights (1, 1/2, 2)
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1, 2) [m=2], n<=11
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 2, 3) [m=3], n<=11
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 3, 4) [m=4], n<=11
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1, 1), n<=11
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (2, 1, 5), n<=11
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1/2, 2), n<=11
PASS  dp = free-group words, g=1, n<=8
PASS  dp = free-group words, g=2, n<=8
42/42 checks passed
""",
    ),
    (
        ['verify', '--scope', 'tree', '-n', '6', '--m-max', '3'],
        0,
        """\
PASS  dp = closed form, m=2, n<=6
PASS  dp = closed form, m=3, n<=6
PASS  dp = constructed gf, m=2, n<=6
PASS  dp = constructed gf, m=3, n<=6
PASS  dp = tree oracle, m=2, n<=6
PASS  dp = tree oracle, m=3, n<=6
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, m=2, n<=6
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, m=3, n<=6
8/8 checks passed
""",
    ),
    (
        ['verify', '--scope', 'dyck', '-n', '6'],
        0,
        """\
PASS  dp = gf, weights (1, 1, 2) [m=2], n<=6
PASS  dp = gf, weights (1, 2, 3) [m=3], n<=6
PASS  dp = gf, weights (1, 3, 4) [m=4], n<=6
PASS  dp = gf, weights (1, 1, 1), n<=6
PASS  dp = gf, weights (2, 1, 5), n<=6
PASS  dp = gf, weights (1, 1/2, 2), n<=6
PASS  dp = path enumeration, weights (1, 1, 2) [m=2], n<=6
PASS  dp = path enumeration, weights (1, 2, 3) [m=3], n<=6
PASS  dp = path enumeration, weights (1, 3, 4) [m=4], n<=6
PASS  dp = path enumeration, weights (1, 1, 1), n<=6
PASS  dp = path enumeration, weights (2, 1, 5), n<=6
PASS  dp = path enumeration, weights (1, 1/2, 2), n<=6
PASS  series algebra by products (a, b, c, d_i), weights (1, 1, 2) [m=2]
PASS  series algebra by products (a, b, c, d_i), weights (1, 2, 3) [m=3]
PASS  series algebra by products (a, b, c, d_i), weights (1, 3, 4) [m=4]
PASS  series algebra by products (a, b, c, d_i), weights (1, 1, 1)
PASS  series algebra by products (a, b, c, d_i), weights (2, 1, 5)
PASS  series algebra by products (a, b, c, d_i), weights (1, 1/2, 2)
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1, 2) [m=2], n<=6
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 2, 3) [m=3], n<=6
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 3, 4) [m=4], n<=6
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1, 1), n<=6
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (2, 1, 5), n<=6
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1/2, 2), n<=6
24/24 checks passed
""",
    ),
    (
        ['verify', '--scope', 'freegroup', '-n', '4'],
        0,
        """\
PASS  dp = free-group words, g=1, n<=4
PASS  dp = free-group words, g=2, n<=4
2/2 checks passed
""",
    ),
    (
        ['verify', '-n', '0', '--m-max', '2'],
        0,
        """\
PASS  dp = closed form, m=2, n<=0
PASS  dp = constructed gf, m=2, n<=0
PASS  dp = tree oracle, m=2, n<=0
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, m=2, n<=0
PASS  dp = gf, weights (1, 1, 2) [m=2], n<=0
PASS  dp = gf, weights (1, 2, 3) [m=3], n<=0
PASS  dp = gf, weights (1, 3, 4) [m=4], n<=0
PASS  dp = gf, weights (1, 1, 1), n<=0
PASS  dp = gf, weights (2, 1, 5), n<=0
PASS  dp = gf, weights (1, 1/2, 2), n<=0
PASS  dp = path enumeration, weights (1, 1, 2) [m=2], n<=0
PASS  dp = path enumeration, weights (1, 2, 3) [m=3], n<=0
PASS  dp = path enumeration, weights (1, 3, 4) [m=4], n<=0
PASS  dp = path enumeration, weights (1, 1, 1), n<=0
PASS  dp = path enumeration, weights (2, 1, 5), n<=0
PASS  dp = path enumeration, weights (1, 1/2, 2), n<=0
PASS  series algebra by products (a, b, c, d_i), weights (1, 1, 2) [m=2]
PASS  series algebra by products (a, b, c, d_i), weights (1, 2, 3) [m=3]
PASS  series algebra by products (a, b, c, d_i), weights (1, 3, 4) [m=4]
PASS  series algebra by products (a, b, c, d_i), weights (1, 1, 1)
PASS  series algebra by products (a, b, c, d_i), weights (2, 1, 5)
PASS  series algebra by products (a, b, c, d_i), weights (1, 1/2, 2)
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1, 2) [m=2], n<=0
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 2, 3) [m=3], n<=0
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 3, 4) [m=4], n<=0
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1, 1), n<=0
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (2, 1, 5), n<=0
PASS  eigenvector identity sum_i A(i,n)*w_i(x) = x^n, weights (1, 1/2, 2), n<=0
PASS  dp = free-group words, g=1, n<=0
PASS  dp = free-group words, g=2, n<=0
30/30 checks passed
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'dp', '--format', 'plain'],
        0,
        """\
0 1 0 5 0 29 0 181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'dp', '--format', 'plain', '--parity-filter', '--start', '3'],
        0,
        """\
1 10 97 958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'dp', '--format', 'csv'],
        0,
        """\
n,value
0,0
1,1
2,0
3,5
4,0
5,29
6,0
7,181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'dp', '--format', 'csv', '--parity-filter', '--start', '3'],
        0,
        """\
n,value
2,1
4,10
6,97
8,958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'dp', '--format', 'json'],
        0,
        """\
{"m": 3, "i": 1, "method": "dp", "n": [0, 1, 2, 3, 4, 5, 6, 7], "values": ["0", "1", "0", "5", "0", "29", "0", "181"]}
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'dp', '--format', 'json', '--parity-filter', '--start', '3'],
        0,
        """\
{"m": 4, "i": 2, "method": "dp", "n": [2, 4, 6, 8], "values": ["1", "10", "97", "958"]}
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'dp', '--format', 'bfile'],
        0,
        """\
0 0
1 1
2 0
3 5
4 0
5 29
6 0
7 181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'dp', '--format', 'bfile', '--parity-filter', '--start', '3'],
        0,
        """\
3 1
4 10
5 97
6 958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'gf', '--format', 'plain'],
        0,
        """\
0 1 0 5 0 29 0 181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'gf', '--format', 'plain', '--parity-filter', '--start', '3'],
        0,
        """\
1 10 97 958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'gf', '--format', 'csv'],
        0,
        """\
n,value
0,0
1,1
2,0
3,5
4,0
5,29
6,0
7,181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'gf', '--format', 'csv', '--parity-filter', '--start', '3'],
        0,
        """\
n,value
2,1
4,10
6,97
8,958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'gf', '--format', 'json'],
        0,
        """\
{"m": 3, "i": 1, "method": "gf", "n": [0, 1, 2, 3, 4, 5, 6, 7], "values": ["0", "1", "0", "5", "0", "29", "0", "181"]}
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'gf', '--format', 'json', '--parity-filter', '--start', '3'],
        0,
        """\
{"m": 4, "i": 2, "method": "gf", "n": [2, 4, 6, 8], "values": ["1", "10", "97", "958"]}
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'gf', '--format', 'bfile'],
        0,
        """\
0 0
1 1
2 0
3 5
4 0
5 29
6 0
7 181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'gf', '--format', 'bfile', '--parity-filter', '--start', '3'],
        0,
        """\
3 1
4 10
5 97
6 958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'tree', '--format', 'plain'],
        0,
        """\
0 1 0 5 0 29 0 181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'tree', '--format', 'plain', '--parity-filter', '--start', '3'],
        0,
        """\
1 10 97 958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'tree', '--format', 'csv'],
        0,
        """\
n,value
0,0
1,1
2,0
3,5
4,0
5,29
6,0
7,181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'tree', '--format', 'csv', '--parity-filter', '--start', '3'],
        0,
        """\
n,value
2,1
4,10
6,97
8,958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'tree', '--format', 'json'],
        0,
        """\
{"m": 3, "i": 1, "method": "tree", "n": [0, 1, 2, 3, 4, 5, 6, 7], "values": ["0", "1", "0", "5", "0", "29", "0", "181"]}
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'tree', '--format', 'json', '--parity-filter', '--start', '3'],
        0,
        """\
{"m": 4, "i": 2, "method": "tree", "n": [2, 4, 6, 8], "values": ["1", "10", "97", "958"]}
""",
    ),
    (
        ['walks', '-m', '3', '-i', '1', '-n', '7', '--method', 'tree', '--format', 'bfile'],
        0,
        """\
0 0
1 1
2 0
3 5
4 0
5 29
6 0
7 181
""",
    ),
    (
        ['walks', '-m', '4', '-i', '2', '-n', '8', '--method', 'tree', '--format', 'bfile', '--parity-filter', '--start', '3'],
        0,
        """\
3 1
4 10
5 97
6 958
""",
    ),
    (
        ['walks', '-m', '3', '-i', '5', '-n', '3'],
        0,
        """\
0 0 0 0
""",
    ),
    (
        ['walks', '-m', '3', '-i', '5', '-n', '3', '--parity-filter'],
        0,
        """\

""",
    ),
    (
        ['walks', '-m', '3', '-i', '5', '-n', '3', '--method', 'tree', '--parity-filter'],
        0,
        """\

""",
    ),
    (
        ['walks', '-m', '1', '-i', '5', '-n', '3', '--method', 'gf', '--parity-filter'],
        2,
        "",
    ),
    (
        ['dyck', '1', '0', '5', '-i', '9', '-n', '4', '--method', 'gf', '--parity-filter'],
        0,
        """\

""",
    ),
    (
        ['walks', '-m', '3', '-i', '5', '-n', '3', '--parity-filter', '--format', 'json'],
        0,
        """\
{"m": 3, "i": 5, "method": "dp", "n": [], "values": []}
""",
    ),
    (
        ['dyck', '1/3', '2/5', '4/7', '-i', '1', '-n', '9', '--method', 'dp'],
        0,
        """\
0 1/3 0 34/315 0 1352/33075 0 11624/694575 0 873248/121550625
""",
    ),
    (
        ['dyck', '1/3', '2/5', '4/7', '-i', '2', '-n', '10', '--method', 'dp', '--format', 'json', '--parity-filter'],
        0,
        """\
{"weights": {"c1": "1/3", "c2": "2/5", "c3": "4/7"}, "i": 2, "method": "dp", "n": [2, 4, 6, 8, 10], "values": ["1/9", "16/315", "148/6615", "104096/10418625", "551968/121550625"]}
""",
    ),
    (
        ['dyck', '1/3', '2/5', '4/7', '-i', '1', '-n', '9', '--method', 'gf'],
        0,
        """\
0 1/3 0 34/315 0 1352/33075 0 11624/694575 0 873248/121550625
""",
    ),
    (
        ['dyck', '1/3', '2/5', '4/7', '-i', '2', '-n', '10', '--method', 'gf', '--format', 'json', '--parity-filter'],
        0,
        """\
{"weights": {"c1": "1/3", "c2": "2/5", "c3": "4/7"}, "i": 2, "method": "gf", "n": [2, 4, 6, 8, 10], "values": ["1/9", "16/315", "148/6615", "104096/10418625", "551968/121550625"]}
""",
    ),
    (
        ['dyck', '1/3', '2/5', '4/7', '-i', '1', '-n', '9', '--method', 'enum'],
        0,
        """\
0 1/3 0 34/315 0 1352/33075 0 11624/694575 0 873248/121550625
""",
    ),
    (
        ['dyck', '1/3', '2/5', '4/7', '-i', '2', '-n', '10', '--method', 'enum', '--format', 'json', '--parity-filter'],
        0,
        """\
{"weights": {"c1": "1/3", "c2": "2/5", "c3": "4/7"}, "i": 2, "method": "enum", "n": [2, 4, 6, 8, 10], "values": ["1/9", "16/315", "148/6615", "104096/10418625", "551968/121550625"]}
""",
    ),
    (
        ['dyck', '1/3', '2/5', '4/7', '-n', '8', '--format', 'bfile', '--parity-filter', '--start', '2'],
        0,
        """\
2 1
3 4/21
4 136/2205
5 5408/231525
6 46496/4862025
""",
    ),
    (
        ['dyck', '1/3', '2/5', '4/7', '-i', '1', '-n', '6', '--format', 'csv'],
        0,
        """\
n,value
0,0
1,1/3
2,0
3,34/315
4,0
5,1352/33075
6,0
""",
    ),
    (
        ['bfile', '-m', '3', '-i', '2', '--count', '5', '--start', '1'],
        0,
        """\
1 1
2 7
3 47
4 319
5 2199
""",
    ),
    (
        ['bfile', '-m', '4', '--count', '4'],
        0,
        """\
0 1
1 4
2 28
3 232
""",
    ),
    (
        ['bfile', '-m', '2', '--count', '0'],
        0,
        "",
    ),
    (
        ['bfile', '-m', '3', '-i', '3', '--count', '0'],
        0,
        "",
    ),
    (
        ['walks', '-m', '3', '-n', '12', '--method', 'tree', '--max-states', '10'],
        3,
        "",
    ),
    (
        ['dyck', '1', '1', '1', '-n', '25', '--method', 'enum', '--max-states', '100'],
        3,
        "",
    ),
    (
        ['walks', '-m', '1', '-n', '4', '--method', 'gf'],
        0,
        """\
1 0 1 0 1
""",
    ),
    (
        ['walks', '-m', '0', '-n', '4'],
        2,
        "",
    ),
    (
        ['dyck', '1', '0', '5', '-n', '4', '--method', 'gf'],
        0,
        """\
1 0 5 0 25
""",
    ),
    (
        ['verify', '--m-max', '1'],
        2,
        "",
    ),
    (
        ['--help'],
        0,
        """\
usage: treewalks [-h] {walks,dyck,verify,bfile} ...

Exact counts of walks on m-regular trees and weighted Dyck paths, computed by
recurrence (dp), by generating function (gf), or by brute-force oracles, with
cross-method verification.

positional arguments:
  {walks,dyck,verify,bfile}
    walks               counts of m-regular-tree walks ending at distance i
    dyck                poids-sums of weighted lattice paths ending at height
                        i
    verify              run every cross-method invariant and report pass/fail
                        per check
    bfile               OEIS b-file of the parity-filtered sequence A_m(i,
                        i+2k)

options:
  -h, --help            show this help message and exit
""",
    ),
]


@pytest.mark.parametrize("argv,code,stdout", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_pinned_stdout_and_exit_code(capsys, monkeypatch, argv, code, stdout):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    assert cli.main(list(argv)) == code
    assert capsys.readouterr().out == stdout


DP_GOLDEN = [
    (argv, code, stdout)
    for argv, code, stdout in GOLDEN
    if argv[0] in ("walks", "dyck", "bfile") and ("--method" not in argv or "dp" in argv)
]


@pytest.mark.parametrize("argv,code,stdout", DP_GOLDEN, ids=[" ".join(argv) for argv, _, _ in DP_GOLDEN])
def test_dp_routes_build_no_table(capsys, monkeypatch, argv, code, stdout):
    def whole_table(*args):
        raise AssertionError("a dp route built the whole table")

    monkeypatch.setattr(recurrence, "build_table", whole_table)
    assert cli.main(list(argv)) == code
    assert capsys.readouterr().out == stdout


def _doubled(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) * 2


def _doubled_origin(build_table):
    def build(weights, n_max):
        table = build_table(weights, n_max)
        columns = [list(column) for column in table.columns]
        columns[0][0] *= 2  # N(0, 0) = A(0, 0) * D^0
        return WalkTable._new(weights=weights, columns=columns)

    return build


@pytest.mark.parametrize(
    "route,scope,fail_line",
    [
        (
            "build_table",
            "tree",
            "FAIL  dp = closed form, m=2, n<=4: i=0 n=0: expected 2, got 1",
        ),
        (
            "tree_gf",
            "tree",
            "FAIL  dp = closed form, m=2, n<=4: i=0 n=0: expected 1, got 2",
        ),
        (
            "poids_gf",
            "tree",
            "FAIL  dp = constructed gf, m=2, n<=4: i=0 n=0: expected 1, got 2",
        ),
        (
            "tree_walk_count",
            "tree",
            "FAIL  dp = tree oracle, m=2, n<=4: i=0 n=0: expected 1, got 2",
        ),
        (
            "enumerate_dyck",
            "dyck",
            "FAIL  dp = path enumeration, weights (1, 1, 2) [m=2], n<=4: i=0 n=0: expected 1, got 2",
        ),
        (
            "free_group_count",
            "freegroup",
            "FAIL  dp = free-group words, g=1, n<=4: i=0 n=0: expected 1, got 2",
        ),
    ],
)
def test_verify_catches_each_corrupted_route(capsys, monkeypatch, route, scope, fail_line):
    home = next(layer for layer in (recurrence, genfunc, oracles) if route in layer.__all__)
    original = getattr(home, route)
    monkeypatch.setattr(home, route, _doubled_origin(original) if route == "build_table" else _doubled(original))
    m_max = ["--m-max", "2"] if scope == "tree" else []  # only --scope tree and all read it
    assert cli.main(["verify", "--scope", scope, "-n", "4", *m_max]) == 1
    assert fail_line in capsys.readouterr().out.splitlines()


def _raised_cells(*cells):
    def corrupt(build_table):
        def build(weights, n_max):
            table = build_table(weights, n_max)
            columns = [list(column) for column in table.columns]
            for i, n in cells:
                columns[n][i // 2] += 1  # N(i, n) = A(i, n) * D^n
            return WalkTable._new(weights=weights, columns=columns)

        return build

    return corrupt


def _raised_last_coefficient(last_row_only):
    def corrupt(row):
        def corrupted(first, i, order):
            series = row(first, i, order)
            if last_row_only and i < order:
                return series
            return series + PowerSeries([0] * order + [1])

        return corrupted

    return corrupt


@pytest.mark.parametrize(
    "route,corrupt,argv,fail_lines",
    [
        (  # the square's last cell, N(order, order)
            "build_table",
            _raised_cells((4, 4)),
            ["--scope", "tree", "-n", "4", "--m-max", "2"],
            [
                "FAIL  dp = closed form, m=2, n<=4: i=4 n=4: expected 2, got 1",
                "FAIL  dp = constructed gf, m=2, n<=4: i=4 n=4: expected 2, got 1",
                "FAIL  dp = tree oracle, m=2, n<=4: i=4 n=4: expected 2, got 1",
            ],
        ),
        (  # a row comparison names (1, 5) before (3, 3), i-major; the oracle's corner is length-major
            "build_table",
            _raised_cells((3, 3), (1, 5)),
            ["--scope", "tree", "-n", "5", "--m-max", "2"],
            [
                "FAIL  dp = closed form, m=2, n<=5: i=1 n=5: expected 11, got 10",
                "FAIL  dp = constructed gf, m=2, n<=5: i=1 n=5: expected 11, got 10",
                "FAIL  dp = tree oracle, m=2, n<=5: i=3 n=3: expected 2, got 1",
            ],
        ),
        (  # each gf row's last coefficient: the first row names it
            "tree_gf",
            _raised_last_coefficient(False),
            ["--scope", "tree", "-n", "4", "--m-max", "2"],
            ["FAIL  dp = closed form, m=2, n<=4: i=0 n=4: expected 6, got 7"],
        ),
        (  # the last gf row's last coefficient, on a weight with D = 2
            "poids_gf",
            _raised_last_coefficient(True),
            ["--scope", "dyck", "-n", "4"],
            [
                f"FAIL  dp = gf, weights {w}, n<=4: i=4 n=4: expected {a}, got {a + 1}"
                for w, a in (("(1, 1, 2) [m=2]", 1), ("(1, 2, 3) [m=3]", 1), ("(1, 3, 4) [m=4]", 1),
                             ("(1, 1, 1)", 1), ("(2, 1, 5)", 16), ("(1, 1/2, 2)", 1))
            ],
        ),
    ],
)
def test_verify_names_the_first_differing_cell_deep_in_the_square(capsys, monkeypatch, route, corrupt, argv, fail_lines):
    home = next(layer for layer in (recurrence, genfunc) if route in layer.__all__)
    monkeypatch.setattr(home, route, corrupt(getattr(home, route)))
    assert cli.main(["verify", *argv]) == 1
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL  dp = ")] == fail_lines


def test_row_checks_trust_no_series_equality(capsys, monkeypatch):
    # with a kernel whose == always holds, a raised last coefficient of every poids_gf row still fails
    monkeypatch.setattr(PowerSeries, "__eq__", lambda self, other: True)
    monkeypatch.setattr(genfunc, "poids_gf", _raised_last_coefficient(False)(genfunc.poids_gf))
    assert cli.main(["verify", "--scope", "all", "-n", "11", "--m-max", "5"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert {line.split(",")[0] for line in fails} == {"FAIL  dp = constructed gf", "FAIL  dp = gf"}
    assert "FAIL  dp = gf, weights (2, 1, 5), n<=11: i=0 n=11: expected 0, got 1" in fails


def test_a_fault_in_dps_scaling_fails_the_gf_and_identity_rows(monkeypatch):
    # gf and the identity scale the weights themselves, so swapping b and c in dp's scaling alone
    # fails a dp = gf row and an identity row instead of agreeing with itself
    integers = recurrence._integers

    def swapped(weights):
        scale, a, b, c = integers(weights)
        return scale, a, c, b

    monkeypatch.setattr(recurrence, "_integers", swapped)
    failed = [title for title, check in verify.open_checks("all", 11, 5, DEFAULT_MAX_STATES) if check() is not None]
    assert any(title.startswith(("dp = gf,", "dp = constructed gf,")) for title in failed)
    assert any(title.startswith("eigenvector identity") for title in failed)


def test_a_fault_in_the_dp_route_fails_every_row_comparison(monkeypatch):
    # walks, dyck and bfile read dp_row, and no table does: each row comparison also compares the dp
    # route of its command with the table's row, at i = 0, 1, order // 2 and order
    dp_row = recurrence.dp_row
    raised = lambda weights, i, order: dp_row(weights, i, order) + PowerSeries([0] * order + [1])
    monkeypatch.setattr(recurrence, "dp_row", raised)
    checks = verify.open_checks("all", 11, 5, DEFAULT_MAX_STATES)
    failed = [(title, detail) for title, check in checks if (detail := check())]
    assert {title.split(",")[0] for title, _ in failed} == {"dp = closed form", "dp = constructed gf", "dp = gf"}
    assert len(failed) == 4 + 4 + 6
    assert ("dp = closed form, m=2, n<=11", "i=0 n=11 dp row vs dp table: expected 0, got 1") in failed


# What genfunc and the oracles may import from recurrence: the value types and the guard rule,
# nothing that computes a count or scales the weights.
RECURRENCE_IMPORTS = {"WeightConfig", "tree_weights", "check_cost", "FeasibilityError", "MAX_TABLE_BYTES",
                      "DEFAULT_MAX_STATES", "int_bytes", "step_bits"}


@pytest.mark.parametrize("layer", [genfunc, oracles], ids=lambda layer: layer.__name__)
def test_gf_and_the_oracles_import_no_count_from_recurrence(layer):
    imported = set()
    for node in ast.walk(ast.parse(Path(layer.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("recurrence", "treewalks.recurrence"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # the module itself would reach every name
            assert not any(alias.name.rpartition(".")[2] == "recurrence" for alias in node.names)
    assert "WeightConfig" in imported
    assert imported <= RECURRENCE_IMPORTS


def test_a_row_on_another_grading_fails_naming_both(capsys, monkeypatch):
    poids_gf = genfunc.poids_gf
    monkeypatch.setattr(genfunc, "poids_gf", lambda weights, i, order: PowerSeries(poids_gf(weights, i, order).coeffs))
    assert cli.main(["verify", "--scope", "dyck", "-n", "4"]) == 1
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  dp = gf, weights (1, 1/2, 2), n<=4: i=0: expected a row graded den 1, base 2, got den 1, base 1"
    ]
