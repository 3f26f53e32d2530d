"""The storagecodes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) from the root of a source checkout.
Each op is a fresh ``python -m storagecodes`` child with ``src`` on its
path, run one at a time with no threads added.  Every output is checked
against its exact expected answer.  The last line of stdout is one JSON
object: with ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass (see spans.py).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from spans import PER_LAYER_UNITS, per_layer
from workloads import ANSWER, BENCH, REJECT, SETUP_OP, SRC, WORKLOADS, Op, Result, child_env, judge

WORK = BENCH.parent / ".bench_build"  # scratch space inside the checkout, ignored by git

SETUP_RUNS = 7  # --version runs per benchmark run; setup_s is their median
OP_TIMEOUT_S = 150


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _on_term(signum, frame):
    sys.exit(128 + signum)  # unwinds through run_child, which stops the running child


def run_child(cmd: list[str], tmp: str) -> Result:
    """Run one child to completion; wall time and its own peak RSS."""
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=tmp, env=child_env())
        status = usage = None
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            pass
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            timed_out = status is None
            if timed_out:  # or run.py is being stopped: never leave the child running
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    with open(out_path) as fh_out, open(err_path) as fh_err:
        stdout, stderr = fh_out.read(), fh_err.read()
    return Result(None if timed_out else proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024, tmp)


def run_op(op: Op, seed: int, work: str, traced_to: str | None = None) -> tuple[Result, list[str]]:
    """Run and judge one op in a fresh scratch directory."""
    tmp = tempfile.mkdtemp(dir=work)
    args = op.args(tmp, seed)
    if traced_to is None:
        cmd = [sys.executable, "-m", "storagecodes", *args]
    else:
        cmd = [sys.executable, str(BENCH / "spans.py"), traced_to, *args]
    res = run_child(cmd, tmp)
    return res, judge(op, res)


def run_pass(ops: list[Op], seed: int, work: str, trace_dir: str | None = None):
    """One pass over the workload: a list of (op, result, problems).

    Untraced, each op runs `op.repeat` times; traced, once, into its span file.
    """
    done = []
    for i, op in enumerate(ops):
        traced_to = os.path.join(trace_dir, f"{i}.json") if trace_dir else None
        for _ in range(1 if trace_dir else op.repeat):
            res, problems = run_op(op, seed, work, traced_to)
            done.append((op, res, problems))
            for p in problems:
                print(f"FAILED {op.name}: {p}")
    return done


def _by_op(done) -> dict[str, tuple[Op, list[Result]]]:
    out: dict[str, tuple[Op, list[Result]]] = {}
    for op, res, _ in done:
        out.setdefault(op.name, (op, []))[1].append(res)
    return out


def _median_wall(done, kind: str) -> float:
    """Sum over the ops of one kind of each op's median wall time."""
    return sum(statistics.median(r.wall_s for r in rs)
               for op, rs in _by_op(done).values() if op.kind == kind)


def _report(done) -> None:
    for op, rs in _by_op(done).values():
        print(f"  {op.kind:6s} {op.name:24s} median {statistics.median(r.wall_s for r in rs):8.3f} s"
              f"  peak {statistics.median(r.peak_rss_mb for r in rs):7.1f} MB  ({len(rs)} runs)")


def untraced(ops: list[Op], seed: int, seconds: float, work: str):
    """Set-up runs, then whole passes while the next one fits in `seconds`.

    The bad-input ops feed only reject_s, a traced-run metric, so they are
    left out here and the time goes to more passes over the answer ops.
    """
    ops = [op for op in ops if op.kind != REJECT]
    setup = [run_op(SETUP_OP, seed, work) for _ in range(SETUP_RUNS + 1)]
    start = time.perf_counter()
    done = []
    while True:
        t0 = time.perf_counter()
        done += run_pass(ops, seed, work)
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            break
    metrics = {
        "wall_s": (_median_wall(done, ANSWER), "s"),
        "setup_s": (statistics.median(res.wall_s for res, _ in setup[1:]), "s"),  # [0] warms caches
        "peak_rss_mb": (max(statistics.median(r.peak_rss_mb for r in rs)
                            for _, rs in _by_op(done).values()), "MB"),
    }
    _report(done)
    return metrics, [p for _, p in setup] + [p for _, _, p in done]


def traced(ops: list[Op], seed: int, work: str, name: str):
    """One untraced pass for the overhead base, then one traced pass."""
    plain = run_pass(ops, seed, work)
    trace_dir = tempfile.mkdtemp(dir=work)
    spanned = run_pass(ops, seed, work, trace_dir)
    runs = []
    for i in range(len(ops)):
        with open(os.path.join(trace_dir, f"{i}.json")) as fh:
            runs.append(json.load(fh))
    measured = {
        "reject_s": _median_wall(plain, REJECT),
        "trace.overhead": _median_wall(spanned, ANSWER) / _median_wall(plain, ANSWER),
    }
    for _, res, _ in spanned:
        measured.update(res.stats)
    values = per_layer(runs, measured)
    with open(WORK / f"trace-{name}.json", "w") as fh:  # the spans, kept for inspection
        json.dump([{"op": op.name, **run} for op, run in zip(ops, runs)], fh)
    _report(spanned)
    metrics = {k: (v, PER_LAYER_UNITS[k]) for k, v in values.items()}
    return metrics, [p for _, _, p in plain + spanned]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_term)
    if not (SRC / "storagecodes" / "__init__.py").is_file():
        print(f"error: no storagecodes sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    ops = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        if args.trace:
            metrics, outcomes = traced(ops, args.seed, work, args.workload)
        else:
            metrics, outcomes = untraced(ops, args.seed, args.seconds, work)
    failed = sum(1 for p in outcomes if p)
    print(f"workload {args.workload}: {failed} of {len(outcomes)} ops failed "
          f"(fail_ratio {failed / len(outcomes)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
