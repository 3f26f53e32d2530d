"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

import json
import sys
from fractions import Fraction

import pytest

import workloads
from spans import PER_LAYER_UNITS, Recorder, per_layer, self_times
from workloads import ANSWER, REJECT, FULL_CLAIMS, Op, Result, judge

sys.path.insert(0, str(workloads.SRC))

from storagecodes import storage  # noqa: E402
from storagecodes.field import GF2m  # noqa: E402
from storagecodes.graphs import FamilyParams  # noqa: E402


def _result(stdout="", stderr="", code=0, tmp=""):
    return Result(code, stdout, stderr, 1.0, 30.0, tmp)


def _code_report_out(rank):
    size = 4096
    dim = size - rank
    rate = Fraction(dim, size)
    return json.dumps({
        "n": 3, "m": 6, "size": size, "rank_H": rank, "rank_W": rank, "rank_D": rank,
        "dimension": dim, "rate_num": rate.numerator, "rate_den": rate.denominator,
        "N_m": 1912, "meta": {"elapsed_ms": 1},
        "bounds": {"sandwich_ok": True, "substitution_ok": True, "nm_ok": True,
                   "closed_form_ok": True},
    })


def _verify_all_out(failing):
    lines = [f"{'FAIL' if c in failing else 'PASS'}  {c}: text [detail] (1 ms)" for c in FULL_CLAIMS]
    passing = len(FULL_CLAIMS) - len(failing)
    return "\n".join(lines + [f"{passing}/{len(FULL_CLAIMS)} claims pass at budget 'full'"]) + "\n"


def test_expected_rank_is_checked():
    out = _result(_code_report_out(1102))
    good = Op("r", (), ANSWER, 0, workloads.code_report_check(3, 1102, 1912))
    tampered = Op("r", (), ANSWER, 0, workloads.code_report_check(3, 1103, 1912))
    assert judge(good, out) == []
    assert any("rank_H" in p for p in judge(tampered, out))
    assert judge(good, _result(_code_report_out(1101)))


def test_certificate_trace_is_checked():
    ranks = workloads.CERTIFICATES[7][4]
    doc = {"n": 7, "certified": True, "t_star": 6, "c_constant": 1048,
           "trace": [{"t": t, "rank": r, "threshold": 4 ** t} for t, r in enumerate(ranks, 1)]}
    good = Op("c", (), ANSWER, 0, workloads.certify_check(7, 6, 1048, ranks))
    tampered = Op("c", (), ANSWER, 0, workloads.certify_check(7, 6, 1048, ranks[:-1] + (3257,)))
    assert judge(good, _result(json.dumps(doc))) == []
    assert judge(tampered, _result(json.dumps(doc)))


def test_exit_code_and_fail_set_are_checked():
    out = _result(_verify_all_out({"rank-ratio-trend"}), code=4)
    good = Op("v", (), ANSWER, 4, workloads.verify_all_check())
    assert judge(good, out) == []
    assert judge(Op("v", (), ANSWER, 0, workloads.verify_all_check()), out)
    tampered = Op("v", (), ANSWER, 4, workloads.verify_all_check(expected_fail={"graph-criteria"}))
    assert any("FAIL set" in p for p in judge(tampered, out))
    # a second red claim, or none, is a failed op too
    assert judge(good, _result(_verify_all_out({"rank-ratio-trend", "graph-criteria"}), code=4))
    assert judge(good, _result(_verify_all_out(set()), code=4))


def test_reject_prefix_and_exit_code_are_checked_live(tmp_path):
    argv = ("code-report", "--n", "4", "--m", "3")
    import run

    res, problems = run.run_op(Op("r", argv, REJECT, 2, workloads.reject_check("parameter error:")),
                               1, str(tmp_path))
    assert problems == [] and res.returncode == 2 and res.peak_rss_mb > 0
    for wrong in (Op("r", argv, REJECT, 3, workloads.reject_check("parameter error:")),
                  Op("r", argv, REJECT, 2, workloads.reject_check("budget error:"))):
        assert run.run_op(wrong, 1, str(tmp_path))[1]


def test_self_time_of_a_hand_built_tree():
    spans = [
        {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "b", "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "name": "b", "start": 2.0, "end": 5.0},  # overlaps its sibling
        {"id": 3, "parent": 0, "name": "c", "start": 8.0, "end": 12.0},  # runs past its parent
        {"id": 4, "parent": 3, "name": "d", "start": 9.0, "end": 9.5},
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 4 - 2)
    assert own[1] == pytest.approx(2.0) and own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.5) and own[4] == pytest.approx(0.5)


def test_per_layer_derives_counts_and_ratios():
    def span(i, parent, name, start, end, **extra):
        return {"id": i, "parent": parent, "name": name, "start": start, "end": end, **extra}

    run = {"import_s": 0.2, "spans": [
        span(0, None, "storage.code_report", 0.0, 4.0),
        span(1, 0, "storage.coset_matrix", 0.0, 1.0, sizes={"n": 3, "m": 2}),
        span(2, 0, "storage.coset_matrix", 1.0, 2.0, sizes={"n": 3, "m": 2}),
        span(3, None, "polyf2.poly_mul", 5.0, 6.0, sizes={"pairs": 100, "out": 25},
             peak_bytes=2 ** 21),
    ]}
    got = per_layer([run], {"trace.overhead": 1.5})
    assert set(got) == set(PER_LAYER_UNITS)
    assert got["storage.code_report.self_s"] == pytest.approx(2.0)
    assert got["storage.coset_matrix.calls"] == 2 and got["storage.coset_matrix.distinct"] == 1
    assert got["polyf2.poly_mul.survival"] == 0.25 and got["polyf2.poly_mul.peak_mb"] == 2.0
    assert got["bitmatrix.rank.calls"] == 0 and got["trace.overhead"] == 1.5
    assert got["reject_s"] == 0 and got["bitmatrix.load.bytes"] == 0


def test_patching_catches_a_from_import_binding():
    from storagecodes import carryfree

    original = storage.count_nm
    assert original is carryfree.count_nm  # storage imports it by name
    with Recorder() as rec:
        assert storage.count_nm is not original
        storage.count_nm(2, 1)
        storage.code_report(FamilyParams(3, 2), GF2m(2))
    assert storage.count_nm is original and carryfree.count_nm is original
    names = [s["name"] for s in rec.spans]
    assert names[0] == "carryfree.count_nm"
    report = names.index("storage.code_report")
    inner = [s for s in rec.spans if s["parent"] == report]
    assert {"carryfree.count_nm", "storage.coset_matrix", "bitmatrix.rank"} <= {s["name"] for s in inner}


def test_benchmark_json_names_every_metric_the_bench_reports():
    with open(workloads.BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
