"""Span recording for the traced benchmark run, and the per-layer metrics
derived from the spans.

Run as a script, this file stands in for ``python -m storagecodes``:

    python bench/spans.py SPANS.json <storagecodes arguments...>

It imports the package, wraps the public functions listed in TARGETS so
that each call records one span (name, start, end, parent span id, sizes),
runs the CLI, and writes the spans to SPANS.json when the CLI returns.
Nothing under ``src/`` changes: the wrappers replace every module-level
binding of each function, including the ones made by ``from ... import``,
and the class attributes for methods.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable

from workloads import FULL_CLAIMS


@dataclass(frozen=True)
class Target:
    span: str  # span name, "<module>.<function>"
    module: str  # module under storagecodes that defines it
    attr: str  # "function" or "Class.method"
    sizes: Callable | None = None  # (args, result) -> dict of counts
    peak: bool = False  # record the tracemalloc peak of the call
    namer: Callable | None = None  # args -> span name, in place of `span`


def _rank_sizes(args, rank):
    m = args[0]
    return {"rows": m.rows, "words": m.rows * m.words.shape[1], "pivots": rank}


CLI_HANDLERS = ("cmd_code_report", "cmd_certify", "cmd_verify_all", "cmd_nm_table", "cmd_graph")

TARGETS = (
    Target("bitmatrix.rank", "bitmatrix", "BitMatrix.rank", _rank_sizes),
    Target("bitmatrix.compact", "bitmatrix", "SparseBitMatrix.compact",
           lambda a, r: {"nnz": a[0].nnz, "rows": r.rows, "cols": r.cols}),
    Target("bitmatrix.kernel_basis", "bitmatrix", "BitMatrix.kernel_basis"),
    Target("bitmatrix.dump", "bitmatrix", "BitMatrix.dump", lambda a, r: {"bytes": a[1].tell()}),
    Target("storage.code_report", "storage", "code_report"),
    Target("storage.coset_matrix", "storage", "coset_matrix",
           lambda a, r: {"n": a[0].n, "m": a[0].m}),
    Target("storage.d_matrix", "storage", "d_matrix"),
    Target("storage.w_matrix", "storage", "w_matrix"),
    Target("storage.sample_codewords", "storage", "sample_codewords"),
    Target("storage.verify_repair", "storage", "verify_repair"),
    Target("polyf2.poly_mul", "polyf2", "poly_mul",
           lambda a, r: {"pairs": len(a[0]) * len(a[1]), "out": len(r)}, peak=True),
    Target("polyf2.frobenius", "polyf2", "frobenius"),
    Target("polyf2.coeff_matrix", "polyf2", "coeff_matrix"),
    Target("polyf2.poly_rank", "polyf2", "poly_rank"),
    Target("polyf2.certify_unit_rate", "polyf2", "certify_unit_rate"),
    Target("polyf2.eval_matrix", "polyf2", "eval_matrix"),
    Target("carryfree.count_nm", "carryfree", "count_nm", lambda a, r: {"insertions": r}),
    Target("carryfree.nm_bound", "carryfree", "nm_bound"),
    Target("carryfree.b_set", "carryfree", "b_set"),
    Target("graphs.build_graph", "graphs", "build_graph"),
    Target("graphs.triangle_oracle", "graphs", "triangle_oracle"),
    Target("graphs.bfs_connected", "graphs", "bfs_connected"),
    Target("graphs.is_triangle_free_criterion", "graphs", "is_triangle_free_criterion"),
    Target("graphs.is_connected", "graphs", "is_connected"),
    Target("graphs.export_edges", "graphs", "export_edges", lambda a, r: {"bytes": a[1].tell()}),
    Target("field.tables", "field", "GF2m._build_tables"),
    Target("field.pow_vec", "field", "GF2m.pow_vec"),
    Target("field.outer_mul", "field", "GF2m.outer_mul"),
    Target("field.FieldMatrix.rank", "field", "FieldMatrix.rank"),
    # Claim objects hold their functions directly, so time them at run_claim
    Target("verification.claim", "verification", "run_claim",
           namer=lambda a: f"verification.claim.{a[0].name}"),
) + tuple(Target(f"cli.{h}", "cli", h) for h in CLI_HANDLERS)


class Recorder:
    """Keeps spans in memory while wrappers are installed on the package."""

    package = "storagecodes"

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": target.namer(args) if target.namer else target.span,
            }
            spans.append(span)
            stack.append(span["id"])
            peak = target.peak and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if peak:
                    span["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if target.sizes:
                span["sizes"] = target.sizes(args, result)
            return result

        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, targets=TARGETS) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == self.package or k.startswith(self.package + ".")]
        for t in targets:
            owner = importlib.import_module(f"{self.package}.{t.module}")
            cls_name, _, fn_name = t.attr.rpartition(".")
            if cls_name:  # a method: the class is shared, one binding to replace
                cls = getattr(owner, cls_name)
                self._set(cls, fn_name, self.wrap(t, cls.__dict__[fn_name]))
                continue
            orig = getattr(owner, fn_name)
            wrapper = self.wrap(t, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# derived per-layer metrics
# ----------------------------------------------------------------------

def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    span: str
    stat: str  # "s", "self_s", "calls", "sum:<size>" or "max:<size>"


def _layer(name: str, unit: str, stat: str) -> LayerMetric:
    return LayerMetric(name, unit, name.rsplit(".", 1)[0], stat)


def _t(name: str) -> LayerMetric:  # a time: total or self, by the name's last part
    return _layer(name, "s", name.rsplit(".", 1)[1])


SPAN_METRICS = (
    _t("bitmatrix.rank.s"),
    _layer("bitmatrix.rank.calls", "count", "calls"),
    _layer("bitmatrix.rank.max_rows", "rows", "max:rows"),
    _layer("bitmatrix.rank.pivots", "count", "sum:pivots"),
    _layer("bitmatrix.rank.words", "words_computed", "sum:words"),
    _t("bitmatrix.compact.s"),
    _layer("bitmatrix.compact.nnz", "count", "sum:nnz"),
    _layer("bitmatrix.compact.rows", "rows", "sum:rows"),
    _layer("bitmatrix.compact.cols", "cols", "sum:cols"),
    _t("bitmatrix.kernel_basis.s"),
    _t("bitmatrix.dump.s"),
    _layer("bitmatrix.dump.bytes", "bytes", "sum:bytes"),
    _t("storage.code_report.self_s"),
    _t("storage.coset_matrix.s"),
    _layer("storage.coset_matrix.calls", "count", "calls"),
    _t("storage.d_matrix.s"),
    _t("storage.w_matrix.s"),
    _t("storage.sample_codewords.s"),
    _t("storage.verify_repair.s"),
    _t("polyf2.poly_mul.s"),
    _layer("polyf2.poly_mul.pairs", "count", "sum:pairs"),
    _layer("polyf2.poly_mul.out_monomials", "count", "sum:out"),
    _t("polyf2.frobenius.s"),
    _t("polyf2.coeff_matrix.s"),
    _t("polyf2.poly_rank.self_s"),
    _t("polyf2.certify_unit_rate.self_s"),
    _t("polyf2.eval_matrix.s"),
    _t("carryfree.count_nm.s"),
    _layer("carryfree.count_nm.calls", "count", "calls"),
    _layer("carryfree.count_nm.insertions", "count", "sum:insertions"),
    _t("carryfree.nm_bound.self_s"),
    _t("carryfree.b_set.s"),
    _t("graphs.build_graph.s"),
    _t("graphs.triangle_oracle.s"),
    _t("graphs.bfs_connected.s"),
    _t("graphs.is_triangle_free_criterion.s"),
    _t("graphs.is_connected.s"),
    _t("graphs.export_edges.s"),
    _layer("graphs.export_edges.bytes", "bytes", "sum:bytes"),
    _t("field.tables.s"),
    _t("field.pow_vec.s"),
    _t("field.outer_mul.s"),
    _t("field.FieldMatrix.rank.s"),
) + tuple(_t(f"verification.claim.{c}.s") for c in FULL_CLAIMS) + tuple(
    _t(f"cli.{h}.self_s") for h in CLI_HANDLERS
)

#: metrics measured outside the spans, passed to per_layer by run.py: (name, unit)
MEASURED_METRICS = (
    ("bitmatrix.load.s", "s"),  # the benchmark's own load of the dump, in its checker
    ("bitmatrix.load.bytes", "bytes"),
    ("reject_s", "s"),  # sum over the bad-input ops of their median wall time, untraced
    ("trace.overhead", "ratio"),  # traced over untraced answer wall time
)

#: metrics derived from the spans in other ways: (name, unit)
DERIVED_METRICS = (
    ("storage.coset_matrix.distinct", "count"),  # distinct (n, m) per process, summed
    ("polyf2.poly_mul.survival", "ratio"),  # output monomials over pairs formed
    ("polyf2.poly_mul.peak_mb", "MB"),  # largest tracemalloc peak of one product
    ("cli.import.s", "s"),  # median over the traced processes of the package import
)

PER_LAYER_UNITS = {m.name: m.unit for m in SPAN_METRICS} | dict(MEASURED_METRICS + DERIVED_METRICS)


def per_layer(runs: list[dict], measured: dict) -> dict[str, float]:
    """Per-layer metrics of one workload from the span files of its processes.

    ``runs`` holds one {"import_s", "spans"} document per traced process;
    ``measured`` holds the MEASURED_METRICS this workload has (0 where absent).
    """
    agg: dict[str, dict[str, float]] = {}
    distinct = 0
    peak = 0
    for run in runs:
        spans = run["spans"]
        own = self_times(spans)
        for s in spans:
            a = agg.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
            a["s"] += s["end"] - s["start"]
            a["self_s"] += own[s["id"]]
            a["calls"] += 1
            for key, value in s.get("sizes", {}).items():
                a[f"sum:{key}"] = a.get(f"sum:{key}", 0) + value
                a[f"max:{key}"] = max(a.get(f"max:{key}", 0), value)
            peak = max(peak, s.get("peak_bytes", 0))
        distinct += len({(s["sizes"]["n"], s["sizes"]["m"])
                         for s in spans if s["name"] == "storage.coset_matrix" and "sizes" in s})
    out = {m.name: agg.get(m.span, {}).get(m.stat, 0) for m in SPAN_METRICS}
    mul = agg.get("polyf2.poly_mul", {})
    out |= {name: measured.get(name, 0) for name, _ in MEASURED_METRICS}
    out["storage.coset_matrix.distinct"] = distinct
    out["polyf2.poly_mul.survival"] = (
        mul["sum:out"] / mul["sum:pairs"] if mul.get("sum:pairs") else 0.0
    )
    out["polyf2.poly_mul.peak_mb"] = peak / 2 ** 20
    out["cli.import.s"] = statistics.median(r["import_s"] for r in runs) if runs else 0.0
    return out


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    from storagecodes import cli

    import_s = time.perf_counter() - start
    with Recorder() as recorder:
        try:
            return cli.main(cli_args)
        finally:
            with open(out_path, "w") as fh:
                json.dump({"import_s": import_s, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
