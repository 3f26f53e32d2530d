import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from storagecodes import carryfree, graphs, polyf2, storage, verification
from storagecodes.bitmatrix import BitMatrix
from storagecodes.cli import main
from storagecodes.errors import ParameterError
from storagecodes.field import GF2m
from storagecodes.graphs import FamilyParams
from storagecodes.storage import coset_matrix

from oracles import b_values_by_sets

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def child_env() -> dict[str, str]:
    """The environment of a child process, with this checkout's sources on its path."""
    paths = [str(BENCH.parent / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_field_info(capsys):
    doc = run_json(capsys, "field-info", "--m", "4")
    assert doc["q"] == 16
    assert doc["modulus"] == 0b10011
    assert doc["modulus_terms"] == [4, 1, 0]
    assert doc["meta"]["version"]


def test_nm_table_csv(capsys):
    code, out, err = run_cli(capsys, "nm-table", "--m-max", "4", "--r", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,r,N_m,bound,bound_holds"
    assert lines[3] == "2,1,14,15,true"
    assert len(lines) == 6


def test_nm_table_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "nm-table", "--m-max", "6", "--r", "2")
    _, out2, _ = run_cli(capsys, "nm-table", "--m-max", "6", "--r", "2")
    assert out1 == out2


def test_nm_table_json_and_budget_error(capsys):
    doc = run_json(capsys, "nm-table", "--m-max", "3", "--r", "1", "--format", "json")
    assert doc["rows"][2]["N_m"] == 14
    code, _, err = run_cli(capsys, "nm-table", "--m-max", "15")
    assert code == 3
    assert "budget" in err


def test_nm_table_to_m13_matches_recurrence_and_closed_form(capsys):
    code, out, err = run_cli(capsys, "nm-table", "--m-max", "13")
    assert code == 0, err
    want = ["m,r,N_m,bound,bound_holds"]
    for m in range(14):
        value, t = carryfree.nm_recurrence(m), m // 2
        assert carryfree.nm_closed_form(m) == value
        want.append(f"{m},1,{value},{15 ** t * 4 ** (m - 2 * t)},true")
    assert out.splitlines() == want


def test_nm_table_r2_matches_set_oracle_sums(capsys):
    doc = run_json(capsys, "nm-table", "--r", "2", "--m-max", "10", "--format", "json")
    want = [sum(len(b_values_by_sets(s, 2)) for s in range(1 << m)) for m in range(11)]
    assert [row["N_m"] for row in doc["rows"]] == want


def test_nm_table_rejects_m_max_before_enumerating(capsys, monkeypatch):
    calls = []
    b_values = carryfree._b_values
    monkeypatch.setattr(carryfree, "_b_values", lambda s, r: calls.append(s) or b_values(s, r))
    code, out, err = run_cli(capsys, "nm-table", "--m-max", "15")
    assert (code, out, calls) == (3, "", [])
    assert err.startswith("budget error:")


def test_nm_table_rejects_negative_m_max(capsys):
    code, out, err = run_cli(capsys, "nm-table", "--m-max", "-1")
    assert (code, out) == (2, "")
    assert err.startswith("parameter error:")


def test_graph_check_triangle(capsys):
    doc = run_json(capsys, "graph", "--n", "5", "--m", "2", "--check")
    assert doc["triangle_free"] is False
    assert doc["vertices"] == 16 and doc["edges"] == 24

    doc = run_json(capsys, "graph", "--n", "3", "--m", "2", "--check")
    assert doc["triangle_free"] is True
    assert doc["connected"] is False


def test_graph_export(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    doc = run_json(capsys, "graph", "--n", "3", "--m", "1", "--export", str(path))
    assert doc["exported_to"] == str(path)
    assert path.read_text() == "# cayley n=3 m=1 vertices=4 edges=2\n0 3\n1 2\n"


def test_graph_parameter_error(capsys):
    code, _, err = run_cli(capsys, "graph", "--n", "4", "--m", "2")
    assert code == 2
    assert "odd" in err


def test_dense_members_over_budget_exit_3(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense matrix was allocated")

    monkeypatch.setattr(storage, "BitMatrix", refuse)
    code, out, err = run_cli(capsys, "code-report", "--n", "3", "--m", "8")
    assert (code, out) == (3, "")
    assert err.startswith("budget error:")
    code, out, err = run_cli(capsys, "graph", "--n", "3", "--m", "8")
    assert (code, out) == (3, "")
    assert err.startswith("budget error:")


def test_graph_over_budget_exits_3_before_listing_the_connection_set(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the connection set was listed")

    monkeypatch.setattr(graphs, "connection_set", refuse)
    code, out, err = run_cli(capsys, "graph", "--n", "3", "--m", "16")
    assert (code, out) == (3, "")
    assert err.startswith("budget error:")


class ProductFormed(Exception):
    """Raised in place of a polynomial product or Fermat power."""


@pytest.mark.parametrize("m", ["8", "9"])
def test_code_report_rejects_before_any_product(capsys, monkeypatch, m):
    def refuse(*args, **kwargs):
        raise ProductFormed

    monkeypatch.setattr(polyf2, "poly_mul", refuse)
    monkeypatch.setattr(polyf2, "fermat_power", refuse)
    with pytest.raises(ProductFormed):  # the stub is on the path of a member inside the budget
        storage.code_report(FamilyParams(3, 2))
    code, out, err = run_cli(capsys, "code-report", "--n", "3", "--m", m)
    assert (code, out) == (3, "")
    assert err.startswith("budget error:")


def test_code_report_exits_4_when_the_rank_routes_disagree(capsys, monkeypatch):
    rank = polyf2.poly_rank
    monkeypatch.setattr(polyf2, "poly_rank", lambda p: rank(p) + 1)
    code, out, err = run_cli(capsys, "code-report", "--n", "3", "--m", "2")
    assert (code, out) == (4, "")
    assert err.startswith("property violation:")


def test_code_report_builds_d_only_for_its_dump(capsys, monkeypatch, tmp_path):
    calls = []
    d_matrix = storage.d_matrix
    monkeypatch.setattr(storage, "d_matrix", lambda *a: calls.append(a) or d_matrix(*a))
    run_json(capsys, "code-report", "--n", "3", "--m", "2")
    assert calls == []
    path = tmp_path / "d.txt"
    run_json(capsys, "code-report", "--n", "3", "--m", "2", "--dump", "D", "--dump-path", str(path))
    assert len(calls) == 1
    with open(path) as fh:
        assert BitMatrix.load(fh) == d_matrix(FamilyParams(3, 2), GF2m(2))


@pytest.mark.parametrize("which", ["H", "W", "D"])
def test_code_report_dump_builds_each_matrix_once(capsys, monkeypatch, tmp_path, which):
    params, field = FamilyParams(3, 2), GF2m(2)
    h = coset_matrix(params, field)
    want = {"H": h, "W": h.complement(), "D": storage.d_matrix(params, field)}[which]
    calls = {"coset": 0, "d": 0}

    def counting(key, fn):
        def wrapped(*a):
            calls[key] += 1
            return fn(*a)
        return wrapped

    monkeypatch.setattr(storage, "coset_matrix", counting("coset", storage.coset_matrix))
    monkeypatch.setattr(storage, "d_matrix", counting("d", storage.d_matrix))
    path = tmp_path / f"{which}.txt"
    run_json(capsys, "code-report", "--n", "3", "--m", "2", "--dump", which, "--dump-path", str(path))
    assert calls == {"coset": 1, "d": int(which == "D")}
    with open(path) as fh:
        assert BitMatrix.load(fh) == want


def test_code_report_json_schema(capsys):
    doc = run_json(capsys, "code-report", "--n", "3", "--m", "2")
    assert doc["size"] == 16
    assert doc["rank_H"] == 8 and doc["rank_W"] == 8 and doc["rank_D"] == 8
    assert doc["dimension"] == 8
    assert (doc["rate_num"], doc["rate_den"]) == (1, 2)
    assert doc["N_m"] == 14
    assert doc["bounds"] == {
        "sandwich_ok": True,
        "substitution_ok": True,
        "nm_ok": True,
        "closed_form_ok": True,
    }
    assert doc["meta"]["modulus"] == 0b111


def test_code_report_csv(capsys):
    code, out, _ = run_cli(capsys, "code-report", "--n", "3", "--m", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,m,size,rank_H")
    assert lines[1] == "3,1,4,2,2,2,2,1,2,0.500000,4"
    # N_m is defined only for n = 2^r + 1; elsewhere the field is empty, as JSON has null
    code, out, _ = run_cli(capsys, "code-report", "--n", "7", "--m", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "7,3,64,32,32,32,32,1,2,0.500000,"


def test_code_report_deterministic_modulo_timing(capsys):
    doc1 = run_json(capsys, "code-report", "--n", "3", "--m", "2")
    doc2 = run_json(capsys, "code-report", "--n", "3", "--m", "2")
    doc1["meta"].pop("elapsed_ms")
    doc2["meta"].pop("elapsed_ms")
    assert doc1 == doc2


def test_code_report_dump(capsys, tmp_path):
    path = tmp_path / "h.txt"
    run_json(capsys, "code-report", "--n", "3", "--m", "2", "--dump", "H", "--dump-path", str(path))
    with open(path) as fh:
        loaded = BitMatrix.load(fh)
    assert loaded == coset_matrix(FamilyParams(3, 2), GF2m(2))


class WorkStarted(Exception):
    """Raised in place of the computation behind a report."""


@pytest.fixture
def no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise WorkStarted

    for module, name in [(storage, "code_report"), (graphs, "build_graph"),
                         (polyf2, "certify_unit_rate")]:
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("argv", [
    ("field-info", "--m", "3", "--output", "{missing}/out.json"),
    ("code-report", "--n", "3", "--m", "2", "--dump", "H", "--dump-path", "{missing}/h.txt"),
    ("graph", "--n", "3", "--m", "1", "--export", "{missing}/edges.txt"),
    ("code-report", "--n", "3", "--m", "7", "--output", "{missing}/x.json"),
    ("code-report", "--n", "3", "--m", "7", "--dump", "D", "--dump-path", "{missing}/d.txt"),
    ("certify", "--n", "7", "--t-max", "6", "--output", "{missing}/c.json"),
])
def test_an_output_path_that_cannot_be_opened_exits_2(capsys, no_work, tmp_path, argv):
    code, out, err = run_cli(capsys, *(a.format(missing=tmp_path / "missing") for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("parameter error:")


@pytest.mark.parametrize("argv", [
    ("code-report", "--n", "3", "--m", "2", "--output", "same.txt", "--dump", "H", "--dump-path", "same.txt"),
    ("code-report", "--n", "3", "--m", "2", "--dump", "D", "--dump-path", "sub/../same.txt", "--output", "./same.txt"),
    ("graph", "--n", "3", "--m", "1", "--export", "same.txt", "--output", "{tmp}/same.txt"),
    ("graph", "--n", "3", "--m", "1", "--export", "link.txt", "--output", "same.txt"),
])
def test_two_outputs_naming_one_file_exit_2(capsys, monkeypatch, no_work, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to("same.txt")
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("parameter error:") and "name one file" in err
    assert not (tmp_path / "same.txt").exists()  # refused before any path is opened


def test_only_output_takes_a_dash_for_stdout(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    doc = run_json(capsys, "graph", "--n", "3", "--m", "1", "--export", "-", "--output", "-")
    assert doc["exported_to"] == "-"
    assert (tmp_path / "-").read_text().startswith("# cayley n=3 m=1")


@pytest.mark.parametrize("argv", [
    ("field-info", "--m", "3"),
    ("nm-table", "--m-max", "3", "--format", "json"),
    ("graph", "--n", "3", "--m", "1"),
    ("code-report", "--n", "3", "--m", "1"),
    ("certify", "--n", "3", "--t-max", "2"),
])
def test_every_json_report_carries_elapsed_ms_in_meta(capsys, argv):
    doc = run_json(capsys, *argv)
    assert isinstance(doc["meta"]["elapsed_ms"], int)
    assert "elapsed_ms" not in doc


@pytest.mark.parametrize("argv", [("--dump", "H"), ("--dump-path", "h.txt")])
def test_dump_and_dump_path_need_each_other(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(["code-report", "--n", "3", "--m", "2", *argv])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_certify_json(capsys):
    doc = run_json(capsys, "certify", "--n", "3", "--t-max", "4")
    assert doc["certified"] is True
    assert doc["t_star"] == 2
    assert doc["trace"][0] == {"t": 1, "rank": 4, "threshold": 4}
    assert doc["trace"][-1]["rank"] == 12
    assert doc["c_constant"] == 4
    assert "elapsed_ms" in doc["meta"]


def test_certify_without_t_max_runs_to_the_default_and_reports_it(capsys):
    doc = run_json(capsys, "certify", "--n", "3")
    assert doc["meta"]["t_max"] == polyf2.DEFAULT_T_MAX == 8
    assert doc["t_star"] == 2


def test_verify_all_without_seed_runs_the_default_seed(capsys, monkeypatch):
    seeds = []
    monkeypatch.setattr(verification, "run_all", lambda budget, seed, sink: seeds.append(seed) or [])
    code, out, _ = run_cli(capsys, "verify-all")
    assert (code, out, seeds) == (0, "0/0 claims pass at budget 'full'\n", [verification.DEFAULT_SEED])


def test_certify_full_run_for_n7(capsys):
    doc = run_json(capsys, "certify", "--n", "7", "--t-max", "6")
    assert doc["certified"] is True and doc["t_star"] == 6
    assert doc["trace"][-1] == {"t": 6, "rank": 3256, "threshold": 4096}


def test_certify_exits_4_when_the_halves_disagree(capsys, monkeypatch):
    ranks, rank = [], polyf2._half_rank  # the low half is ranked first, then the high half, at each t

    def skewed(stacks):
        ranks.append(rank(stacks))
        return ranks[-1] + (len(ranks) % 2 == 0)

    monkeypatch.setattr(polyf2, "_half_rank", skewed)
    code, out, err = run_cli(capsys, "certify", "--n", "7", "--t-max", "6")
    assert (code, out) == (4, "")
    assert err.startswith("property violation:")
    assert len(ranks) == 2


def test_certify_long_runs_need_extended_flag(capsys):
    code, _, err = run_cli(capsys, "certify", "--n", "11", "--t-max", "7")
    assert code == 3
    assert "--extended" in err


def test_certify_parameter_error(capsys):
    # n = 12 at t_max = 7 is a run the --extended gate would refuse: the even n is reported first
    for n, t_max in (("6", "3"), ("12", "7")):
        code, _, err = run_cli(capsys, "certify", "--n", n, "--t-max", t_max)
        assert code == 2
        assert err.startswith("parameter error: n=")


@pytest.mark.parametrize("argv", [
    pytest.param(("--n", "7", "--t-max", "3", "--budget", "0"), id="0"),
    pytest.param(("--n", "7", "--t-max", "3", "--budget", "-1"), id="-1"),
    pytest.param(("--n", "7", "--t-max", "3", "--budget", "100"), id="100"),
    # a run the --extended gate would refuse: the unknown option is reported first
    pytest.param(("--n", "11", "--t-max", "7", "--budget", "-1"), id="n11-unextended"),
])
def test_certify_has_no_budget_option(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise ProductFormed

    monkeypatch.setattr(polyf2, "_certificate_rank", refuse)
    with pytest.raises(ProductFormed):  # the stub is on the path of the run without --budget
        main(["certify", "--n", "7", "--t-max", "3"])
    with pytest.raises(SystemExit) as exc:  # an argparse usage error
        main(["certify", *argv])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "--budget" in captured.err


def test_certify_budget_stop_reports_the_ranks_already_computed(capsys):
    # n = 4097 = 2^12 + 1: d^(2^5 - 1) would have exponent 4097 * 31 > 65535
    code, out, err = run_cli(capsys, "certify", "--n", "4097", "--t-max", "6")
    assert (code, out) == (3, "")
    assert err == (
        "budget error: exponent 127007 outside 0..65535; ranks so far: "
        "t=1 rank 4 (threshold 4), t=2 rank 16 (threshold 16), "
        "t=3 rank 64 (threshold 64), t=4 rank 256 (threshold 256)\n"
    )


def test_certify_rejects_an_exponent_past_the_packing_cap(capsys):
    code, out, err = run_cli(capsys, "certify", "--n", str(2 ** 18 - 1), "--t-max", "1")
    assert (code, out) == (3, "")
    assert err.startswith("budget error:")


def test_certify_rejects_an_exponent_past_int64(capsys):
    code, out, err = run_cli(capsys, "certify", "--n", str(2 ** 70 + 1), "--t-max", "1")
    assert (code, out) == (3, "")
    assert err == f"budget error: exponent {2 ** 70 + 1} outside 0..65535\n"


@pytest.mark.parametrize("t_max", ["0", "-1"])
def test_certify_rejects_a_t_max_below_1(capsys, t_max):
    code, out, err = run_cli(capsys, "certify", "--n", "7", "--t-max", t_max)
    assert (code, out) == (2, "")
    assert err == "parameter error: t_max must be a positive integer\n"


@pytest.mark.slow
def test_verify_all_quick_reports_known_failure(capsys, monkeypatch):
    # every claim passes except the strict-decrease clause of the trend
    # claim, which ties at the two smallest sizes; see the claim docstring.
    # The benchmark's own check pins the claim names, their order, the red
    # set and the summary line.
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import Result, verify_all_check

    code, out, err = run_cli(capsys, "verify-all", "--budget", "full")
    assert (code, err) == (4, "")
    assert verify_all_check()(Result(code, out, err, 0.0, 0.0, "")) == []


@pytest.mark.slow
def test_verify_all_leaves_numpy_random_unimported(tmp_path):
    # the randomised claims draw from random.Random: importing numpy.random
    # loads about 5.9 MB of extension modules into the run
    code = ("import io, sys\n"
            "from storagecodes import verification\n"
            "verification.run_all('full', sink=io.StringIO())\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


# runs the CLI on argv[2:], then writes its exit code and the modules that ran
# to argv[1]; a module registered for a lazy import but never read has not run
_LOADED_PROBE = """\
import json, sys, types
from storagecodes.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exit:
    code = exit.code
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "ran": [k for k, m in sys.modules.items() if type(m) is types.ModuleType]}, fh)
"""


@pytest.mark.parametrize("argv, code, ran, unrun", [
    (["--version"], 0, {"cli"}, {"numpy"}),
    (["--help"], 0, {"cli"}, {"numpy"}),
    (["verify-all", "--budget", "quick"], 2, {"cli"}, {"numpy"}),
    (["certify", "--n", "7", "--t-max", "2"], 0, {"polyf2", "bitmatrix"},
     {"storage", "graphs", "carryfree", "field", "verification"}),
    (["nm-table", "--m-max", "3"], 0, {"carryfree"},
     {"polyf2", "bitmatrix", "storage", "graphs", "verification"}),
    (["code-report", "--n", "3", "--m", "2"], 0, {"storage", "polyf2", "graphs"}, {"verification"}),
], ids=["version", "help", "usage-error", "certify", "nm-table", "code-report"])
def test_a_command_runs_only_the_modules_it_uses(tmp_path, argv, code, ran, unrun):
    out = tmp_path / "probe.json"
    subprocess.run([sys.executable, "-c", _LOADED_PROBE, str(out), *argv], cwd=tmp_path,
                   env=child_env(), capture_output=True, timeout=120, check=True)
    doc = json.loads(out.read_text())
    names = {k.removeprefix("storagecodes.") for k in doc["ran"]} - {"storagecodes"}
    assert doc["code"] == code
    assert (ran - names, unrun & names) == (set(), set())


@pytest.mark.parametrize("argv, spans", [
    (["certify", "--n", "7", "--t-max", "3"], {"cli.cmd_certify", "polyf2.certify_unit_rate"}),
    (["nm-table", "--m-max", "3"], {"cli.cmd_nm_table", "carryfree.nm_bound"}),
], ids=["certify", "nm-table"])
def test_the_bench_tracer_wraps_the_functions_a_command_loads_late(tmp_path, argv, spans):
    out = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(BENCH / "spans.py"), str(out), *argv], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert spans <= {s["name"] for s in json.loads(out.read_text())["spans"]}


def test_verify_all_rejects_negative_seed_before_any_claim(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(verification, "run_claim", lambda claim, *a: ran.append(claim.name))
    code, out, err = run_cli(capsys, "verify-all", "--seed", "-1")
    assert (code, out, ran) == (2, "", [])
    assert err.startswith("parameter error:")


def test_verify_all_has_no_quick_budget(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(verification, "run_claim", lambda claim, *a: ran.append(claim.name))
    with pytest.raises(SystemExit) as exc:  # an argparse usage error
        main(["verify-all", "--budget", "quick"])
    assert (exc.value.code, capsys.readouterr().out, ran) == (2, "", [])


def test_claims_for_budget_rejects_quick():
    with pytest.raises(ParameterError, match="unknown budget"):
        verification.claims_for_budget("quick")
