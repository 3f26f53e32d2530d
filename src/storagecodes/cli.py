"""Batch command line front end with machine-readable output.

Subcommands: field-info, nm-table, graph, code-report, certify, verify-all.
``main`` does all of a request's I/O.  It refuses two of --output,
--dump-path and graph --export that name one file, opens every named path
before any work, times the handler, stamps the elapsed time into a JSON
report's ``meta`` and writes the report to --output or stdout.  A handler
``cmd_*(args, files)`` only returns its report, a dict (written as JSON) or
CSV text; ``files`` maps each named output to the handle ``main`` opened,
for dumps and edge exports.
verify-all streams its claim lines itself and returns its exit code.
Exit codes: 0 success, 2 parameter error, 3 budget error, 4 violated
invariant or failed verification claim.  ``code-report`` exits 4 when its
rank routes disagree, ``certify`` when the two halves of a power do.

A command loads only the modules it uses.  Importing this module, building
the parser and parsing load none of the computing modules and no numpy:
the modules whose functions the handlers call are registered unrun
(``_lazy``) and run on the handler's first attribute read, and a handler
that needs ``GF2m`` imports it in its first line.  Handlers read functions
as module attributes at call time, so a patched or wrapped function is the
one they call.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from .errors import BudgetError, ParameterError, PropertyViolation

if TYPE_CHECKING:
    from .field import GF2m

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_BUDGET = 3
EXIT_PROPERTY = 4


def _lazy(name: str):
    """The submodule ``name``, in sys.modules and run on its first attribute read.

    This is the lazy import of the importlib documentation, plus the
    package attribute a normal import sets.  An import statement for the
    module reads its ``__spec__``, so it runs the module as usual.  Unlike
    an import inside each handler, it puts the module in sys.modules as
    soon as this module is imported, where a tool that wraps the package's
    functions before calling ``main`` (bench/spans.py) finds it.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


carryfree, graphs, polyf2, storage, verification = map(
    _lazy, ("carryfree", "graphs", "polyf2", "storage", "verification")
)


def _meta(field: GF2m | None = None, **params) -> dict:
    meta = {"version": __version__, **params}
    if field is not None:
        meta["modulus"] = field.modulus
    return meta


def _open_output(path: str):
    """Open a path named on the command line for writing; failure is a parameter error."""
    try:
        return open(path, "w")
    except OSError as err:
        raise ParameterError(f"cannot write {path}: {err.strerror}") from None


def cmd_field_info(args, files) -> dict:
    from .field import GF2m

    field = GF2m(args.m)
    terms = [i for i in range(args.m, -1, -1) if (field.modulus >> i) & 1]
    return {
        "meta": _meta(field, m=args.m),
        "m": args.m,
        "q": field.q,
        "modulus": field.modulus,
        "modulus_binary": bin(field.modulus),
        "modulus_terms": terms,
    }


def cmd_nm_table(args, files) -> dict | str:
    if args.m_max < 0:
        raise ParameterError(f"m_max={args.m_max}: need a non-negative integer")
    rows = []
    # largest m first: count_nm's budget check rejects --m-max before any enumeration
    for m in range(args.m_max, -1, -1):
        value, holds = carryfree.nm_bound(m, args.r)
        bound = carryfree.fifteen_sixteenths_bound(m, args.r)
        rows.append((m, args.r, value, bound, holds))
    rows.reverse()
    if args.format == "json":
        return {
            "meta": _meta(m_max=args.m_max, r=args.r),
            "rows": [
                {"m": m, "r": r, "N_m": v, "bound": b, "bound_holds": h}
                for m, r, v, b, h in rows
            ],
        }
    lines = ["m,r,N_m,bound,bound_holds"]
    lines += [f"{m},{r},{v},{b},{str(h).lower()}" for m, r, v, b, h in rows]
    return "\n".join(lines) + "\n"


def cmd_graph(args, files) -> dict:
    from .field import GF2m

    params = graphs.FamilyParams(args.n, args.m)
    field = GF2m(args.m)
    g = graphs.build_graph(params, field)
    doc = {
        "meta": _meta(field, n=args.n, m=args.m),
        "n": args.n,
        "m": args.m,
        "vertices": g.num_vertices,
        "degree": g.degree,
        "edges": g.edge_count(),
    }
    if args.check:
        triangle_free = graphs.is_triangle_free_criterion(params, field)
        connected = graphs.is_connected(params, field)
        if graphs.triangle_oracle(g) != triangle_free:
            raise PropertyViolation("triangle oracle disagrees with the criterion")
        if graphs.bfs_connected(g) != connected:
            raise PropertyViolation("breadth-first search disagrees with the span test")
        doc["triangle_free"] = triangle_free
        doc["connected"] = connected
    if args.export is not None:
        graphs.export_edges(g, files["export"])
        doc["exported_to"] = args.export
    return doc


def cmd_code_report(args, files) -> dict | str:
    from .field import GF2m

    params = graphs.FamilyParams(args.n, args.m)
    field = GF2m(args.m)
    report = storage.code_report(params, field)
    doc = report.to_json_dict()
    if args.dump:
        if args.dump == "D":
            del report  # frees the ranked H, so D is the only dense matrix alive
            matrix = storage.d_matrix(params, field)
        else:
            matrix = report.h if args.dump == "H" else storage.w_matrix(report.h)
        matrix.dump(files["dump_path"])
    doc["meta"] = _meta(field, n=args.n, m=args.m)
    if args.format == "json":
        return doc
    rate = doc["rate_num"] / doc["rate_den"]
    lines = [
        "n,m,size,rank_H,rank_W,rank_D,dimension,rate_num,rate_den,rate,N_m",
        f'{doc["n"]},{doc["m"]},{doc["size"]},{doc["rank_H"]},{doc["rank_W"]},'
        f'{doc["rank_D"]},{doc["dimension"]},{doc["rate_num"]},{doc["rate_den"]},'
        f'{rate:.6f},{"" if doc["N_m"] is None else doc["N_m"]}',
    ]
    return "\n".join(lines) + "\n"


def cmd_certify(args, files) -> dict:
    if args.t_max is None:
        args.t_max = polyf2.DEFAULT_T_MAX
    polyf2.fermat_power(args.n, 1)  # a bad n is reported with its own error, ahead of the --extended gate
    if args.n >= 11 and args.t_max >= 7 and not args.extended:
        raise BudgetError(
            f"n={args.n} at t_max={args.t_max} is a long run; pass --extended to allow it"
        )
    try:
        result = polyf2.certify_unit_rate(args.n, t_max=args.t_max)
    except BudgetError as err:
        if not err.trace:
            raise
        ranks = ", ".join(
            f"t={t} rank {rank} (threshold {threshold})" for t, rank, threshold in err.trace
        )
        raise BudgetError(f"{err}; ranks so far: {ranks}") from err
    return {
        "meta": _meta(n=args.n, t_max=args.t_max),
        "n": result.n,
        "trace": [
            {"t": t, "rank": rank, "threshold": threshold}
            for t, rank, threshold in result.trace
        ],
        "certified": result.certified,
        "t_star": result.t if result.certified else None,
        "c_constant": result.c_constant,
    }


def cmd_verify_all(args, files) -> int:
    seed = verification.DEFAULT_SEED if args.seed is None else args.seed
    results = verification.run_all(args.budget, seed=seed, sink=sys.stdout)
    failed = [r for r in results if not r.ok]
    sys.stdout.write(
        f"{len(results) - len(failed)}/{len(results)} claims pass at budget '{args.budget}'\n"
    )
    return EXIT_OK if not failed else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storagecodes",
        description="Exact computations for storage codes on triangle-free Cayley graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="modulus and size of one GF(2^m)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_field_info)

    p = sub.add_parser("nm-table", help="monomial-count table with bounds, CSV")
    p.add_argument("--m-max", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_nm_table)

    p = sub.add_parser("graph", help="graph statistics, checks and edge export")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--check", action="store_true", help="run triangle and connectivity checks")
    p.add_argument("--export", default=None, help="write the edge list to this path")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("code-report", help="ranks, dimension and rate of one member")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dump", choices=("H", "W", "D"), default=None)
    p.add_argument("--dump-path", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_code_report)

    p = sub.add_parser("certify", help="search for the first certifying exponent")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t-max", type=int, default=None)  # cmd_certify reads polyf2.DEFAULT_T_MAX
    p.add_argument("--extended", action="store_true", help="allow the long n >= 11 runs")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("verify-all", help="run the verification claims")
    p.add_argument("--budget", choices=("full", "extended"), default="full")  # = verification.BUDGETS
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the randomised claims")
    p.set_defaults(handler=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if bool(getattr(args, "dump", None)) != bool(getattr(args, "dump_path", None)):
        parser.error("--dump and --dump-path each need the other")
    paths = {dest: getattr(args, dest, None) for dest in ("output", "dump_path", "export")}
    if paths["output"] == "-":
        paths["output"] = None
    try:
        real = [os.path.realpath(path) for path in paths.values() if path is not None]
        if len(set(real)) < len(real):  # checked before opening, as opening truncates
            raise ParameterError("two of --output, --dump-path and --export name one file")
        with contextlib.ExitStack() as stack:
            # every named path is opened before any work, so a bad one costs nothing
            files = {
                dest: stack.enter_context(_open_output(path))
                for dest, path in paths.items()
                if path is not None
            }
            clock = time.perf_counter
            start = clock()
            report = args.handler(args, files)
            if isinstance(report, int):  # verify-all streams its own lines
                return report
            if isinstance(report, dict):
                report["meta"]["elapsed_ms"] = int(1000 * (clock() - start))
                report = json.dumps(report, indent=2, sort_keys=True) + "\n"
            files.get("output", sys.stdout).write(report)
            return EXIT_OK
    except ParameterError as err:
        print(f"parameter error: {err}", file=sys.stderr)
        return EXIT_PARAMETER
    except BudgetError as err:
        print(f"budget error: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except PropertyViolation as err:
        print(f"property violation: {err}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
