"""The benchmark's workloads: fixed lists of ``storagecodes`` CLI invocations,
each paired with the exact answer it must produce.

An op fails when its exit code, its stderr prefix or its answer differs from
the expectation below.  Every expected value is independent of the seed; the
seed only reaches ``verify-all --seed``.  Checkers return a list of problems
(empty when the op is right) and may record per-layer figures measured
outside the timed region in ``res.stats``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

ANSWER, REJECT, SETUP = "answer", "reject", "setup"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def child_env() -> dict[str, str]:
    """The environment of every child: the caller's, with the sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def oracle(*args: str):
    """Reference values from the package, computed in a child (see oracle.py)."""
    out = subprocess.run([sys.executable, str(BENCH / "oracle.py"), *args], env=child_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout)


#: code-report at m = 6 (4096 x 4096 matrices): n -> (rank of H = W = D, N_m).
#: N_m applies when n = 2^r + 1 and is None otherwise.
DENSE_M = 6
DENSE_RANKS = {3: (1102, 1912), 5: (896, 2520), 7: (1792, None), 9: (512, 3016)}

#: certify: n -> (t_max, extended, t_star, c_constant, rank trace for t = 1..t_star)
CERTIFICATES = {
    7: (6, False, 6, 1048, (8, 24, 64, 304, 1048, 3256)),
    11: (7, True, 7, 4154, (8, 28, 102, 330, 1198, 4154, 15018)),
    13: (7, True, 7, 4444, (8, 34, 94, 302, 1212, 4444, 14442)),
}

#: the claims verify-all runs at budget "full", in order; exactly one is red
FULL_CLAIMS = (
    "counting-goldens",
    "sequence-agreement",
    "bset-structure-laws",
    "generalized-counting",
    "rank-sandwich-substitution",
    "rank-counting-bound",
    "rank-ratio-trend",
    "graph-criteria",
    "repair-property",
    "rank-product-laws",
    "certificate-base",
)
EXPECTED_FAIL = {"rank-ratio-trend"}  # red by design: the ratio is 1/2 at m = 1 and m = 2

NM_TABLE_M_MAX = 13
GRAPH_N, GRAPH_M, GRAPH_EDGES = 3, 6, 129024


@dataclass
class Result:
    """One finished child process."""

    returncode: int | None  # None when it was killed on timeout
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float
    tmp: str  # scratch directory the op's files were written to
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]  # CLI arguments; "{tmp}" and "{seed}" are filled in at run time
    kind: str  # ANSWER, REJECT or SETUP
    exit_code: int
    check: Callable[[Result], list[str]]
    repeat: int = 1  # runs per pass, for ops too short to time once

    def args(self, tmp: str, seed: int) -> list[str]:
        return [a.format(tmp=tmp, seed=seed) for a in self.argv]


def judge(op: Op, res: Result) -> list[str]:
    """Every problem with one op's result; an empty list means it passed."""
    if res.returncode is None:
        return ["timed out"]
    if res.returncode != op.exit_code:
        return [f"exit code {res.returncode}, expected {op.exit_code}: {res.stderr.strip()[:200]}"]
    if op.kind != REJECT and res.stderr:
        return [f"unexpected stderr: {res.stderr.strip()[:200]}"]
    try:
        return op.check(res)
    except (ValueError, KeyError, TypeError, IndexError, OSError, subprocess.SubprocessError) as err:
        return [f"unreadable output: {err!r}"]


def _compare(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, expected {want!r}"]


# ----------------------------------------------------------------------
# checkers
# ----------------------------------------------------------------------

def check_version(res: Result) -> list[str]:
    return [] if re.fullmatch(r"\d+\.\d+\.\d+\n", res.stdout) else [f"bad version {res.stdout!r}"]


def code_report_check(n: int, rank: int, n_m: int | None, dump_rank: int | None = None):
    size = 4 ** DENSE_M
    want = {
        "n": n,
        "m": DENSE_M,
        "size": size,
        "rank_H": rank,
        "rank_W": rank,
        "rank_D": rank,
        "dimension": size - rank,
        "rate_num": Fraction(size - rank, size).numerator,
        "rate_den": Fraction(size - rank, size).denominator,
        "N_m": n_m,
        "bounds": {
            "sandwich_ok": True,
            "substitution_ok": True,
            "nm_ok": True if n_m is not None else None,
            "closed_form_ok": True if n == 3 else None,
        },
    }

    seen: dict[str, dict] = {}

    def check(res: Result) -> list[str]:
        doc = json.loads(res.stdout)
        problems = [p for k, v in want.items() for p in _compare(k, doc.get(k), v)]
        if dump_rank is not None:
            problems += _check_dump(res, dump_rank, seen)
        return problems

    return check


def _check_dump(res: Result, rank: int, seen: dict) -> list[str]:
    """Load the dump back and rank it; the load is timed for the trace.

    A dump byte-identical to one already ranked in this run is not loaded again.
    """
    path = os.path.join(res.tmp, "dump.txt")
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest not in seen:
        seen[digest] = oracle("load-rank", path)
    got = seen[digest]
    res.stats["bitmatrix.load.s"] = got["load_s"]
    res.stats["bitmatrix.load.bytes"] = got["bytes"]
    size = 4 ** DENSE_M
    return _compare("dump shape", (got["rows"], got["cols"]), (size, size)) + _compare(
        "dump rank", got["rank"], rank
    )


def certify_check(n: int, t_star: int, c_constant: int, ranks: tuple[int, ...]):
    want = {
        "n": n,
        "certified": True,
        "t_star": t_star,
        "c_constant": c_constant,
        "trace": [{"t": t, "rank": r, "threshold": 4 ** t} for t, r in enumerate(ranks, 1)],
    }

    def check(res: Result) -> list[str]:
        doc = json.loads(res.stdout)
        return [p for k, v in want.items() for p in _compare(k, doc.get(k), v)]

    return check


_CLAIM_LINE = re.compile(r"(PASS|FAIL)  ([a-z0-9-]+): ")


def verify_all_check(expected_fail=EXPECTED_FAIL):
    claims = FULL_CLAIMS

    def check(res: Result) -> list[str]:
        lines = res.stdout.splitlines()
        parsed = [_CLAIM_LINE.match(line) for line in lines[:-1]]
        if not all(parsed):
            return [f"unparsed claim line in {lines[:-1]!r}"]
        names = tuple(m.group(2) for m in parsed)
        failed = {m.group(2) for m in parsed if m.group(1) == "FAIL"}
        passing = len(claims) - len(expected_fail)
        return (
            _compare("claims", names, claims)
            + _compare("FAIL set", failed, set(expected_fail))
            + _compare("summary", lines[-1], f"{passing}/{len(claims)} claims pass at budget 'full'")
        )

    return check


def check_nm_table(res: Result) -> list[str]:
    reference = oracle("nm", str(NM_TABLE_M_MAX))
    lines = res.stdout.splitlines()
    problems = _compare("header", lines[0], "m,r,N_m,bound,bound_holds")
    problems += _compare("rows", len(lines) - 1, NM_TABLE_M_MAX + 1)
    for m, line in enumerate(lines[1:]):
        t = m // 2
        value, closed_form = reference[m]
        if closed_form != value:
            problems.append(f"m={m}: recurrence and closed form disagree")
        problems += _compare(f"row m={m}", line, f"{m},1,{value},{15 ** t * 4 ** (m - 2 * t)},true")
    return problems


def check_graph(res: Result) -> list[str]:
    q = 1 << GRAPH_M
    doc = json.loads(res.stdout)
    want = {
        "n": GRAPH_N,
        "m": GRAPH_M,
        "vertices": q * q,
        "degree": q - 1,
        "edges": GRAPH_EDGES,
        "triangle_free": True,
        "connected": True,
    }
    problems = [p for k, v in want.items() for p in _compare(k, doc.get(k), v)]
    with open(os.path.join(res.tmp, "edges.txt")) as fh:
        header = fh.readline().rstrip("\n")
        lines = sum(1 for _ in fh)
    problems += _compare(
        "export header", header, f"# cayley n={GRAPH_N} m={GRAPH_M} vertices={q * q} edges={GRAPH_EDGES}"
    )
    return problems + _compare("exported edges", lines, GRAPH_EDGES)


def reject_check(prefix: str):
    def check(res: Result) -> list[str]:
        problems = [] if res.stderr.startswith(prefix) else [f"stderr {res.stderr[:80]!r} lacks {prefix!r}"]
        return problems + ([f"unexpected stdout {res.stdout[:80]!r}"] if res.stdout else [])

    return check


# ----------------------------------------------------------------------
# the workloads
# ----------------------------------------------------------------------

SETUP_OP = Op("version", ("--version",), SETUP, 0, check_version)


def _reject(name: str, argv: tuple[str, ...], code: int, repeat: int = 3) -> Op:
    prefix = {2: "parameter error:", 3: "budget error:"}[code]
    return Op(name, argv, REJECT, code, reject_check(prefix), repeat)


def _dense_report() -> list[Op]:
    ops = [
        Op(f"code-report-n{n}", ("code-report", "--n", str(n), "--m", str(DENSE_M)), ANSWER, 0,
           code_report_check(n, rank, n_m))
        for n, (rank, n_m) in DENSE_RANKS.items()
    ]
    rank, n_m = DENSE_RANKS[3]
    ops.append(Op(
        "code-report-n3-dump-D",
        ("code-report", "--n", "3", "--m", str(DENSE_M), "--dump", "D", "--dump-path", "{tmp}/dump.txt"),
        ANSWER, 0, code_report_check(3, rank, n_m, dump_rank=rank),
    ))
    return ops


def _certificates() -> list[Op]:
    ops = []
    for n, (t_max, extended, t_star, c_constant, ranks) in CERTIFICATES.items():
        argv = ("certify", "--n", str(n), "--t-max", str(t_max)) + (("--extended",) if extended else ())
        ops.append(Op(f"certify-n{n}", argv, ANSWER, 0, certify_check(n, t_star, c_constant, ranks)))
    return ops


def _claims() -> list[Op]:
    return [
        Op("verify-all", ("verify-all", "--budget", "full", "--seed", "{seed}"), ANSWER, 4,
           verify_all_check()),
        Op("nm-table", ("nm-table", "--m-max", str(NM_TABLE_M_MAX)), ANSWER, 0, check_nm_table),
        Op("graph", ("graph", "--n", str(GRAPH_N), "--m", str(GRAPH_M), "--check",
                     "--export", "{tmp}/edges.txt"), ANSWER, 0, check_graph),
        _reject("reject-nm-m15", ("nm-table", "--m-max", "15"), 3, repeat=1),
        _reject("reject-n11-unextended", ("certify", "--n", "11", "--t-max", "7"), 3),
        _reject("reject-even-n", ("code-report", "--n", "4", "--m", "3"), 2),
        _reject("reject-m9", ("code-report", "--n", "3", "--m", "9"), 3),
    ]


WORKLOADS: dict[str, Callable[[], list[Op]]] = {
    "dense-report": _dense_report,
    "certificates": _certificates,
    "claims": _claims,
}
