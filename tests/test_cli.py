"""Tests for file parsing, the compute/compare/corpus commands and determinism."""

import json
import os

import pytest

from homct import algmod, resolve
from homct.algmod import make_group_algebra
from homct.cli import ComputeRequest, main, run_compute, run_corpus
from homct.exactla import Subspace
from homct.fixtures import cyclic_group_table
from homct.schemas import (
    SchemaError,
    algebra_to_json,
    parse_algebra_file,
    parse_module_file,
    report_hash,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


# --- parsing ------------------------------------------------------------------

def test_parse_shipped_a1():
    a = parse_algebra_file(fx("a1.json"))
    assert a.p == 2 and a.dim == 2
    assert a.radical().dim == 1


def test_parse_malformed_mul_names_path(tmp_path):
    bad = {"p": 2, "dim": 2, "unit": [1, 0], "mul": [[[1, 0]], [[0, 1], [0, 0]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SchemaError) as err:
        parse_algebra_file(str(path))
    assert "mul[0]" in str(err.value)


def test_parse_module_unit_violation(tmp_path):
    mod = {"algebra": fx("a1.json"), "side": "left", "dim": 1, "action": [[[0]], [[0]]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(mod))
    with pytest.raises(SchemaError) as err:
        parse_module_file(str(path))
    assert "rho(unit)" in str(err.value) or "unit" in str(err.value)


def test_parse_module_resolves_relative_algebra():
    m = parse_module_file(fx("a1_k_left.json"))
    assert m.dim == 1 and m.side == "left"


# --- compute / compare -----------------------------------------------------------

def test_compare_a1_all_agree():
    req = ComputeRequest(fx("a1.json"), fx("a1_k_right.json"), fx("a1_k_left.json"),
                         "compare", -2, 2, 4, 3, 0)
    report = run_compute(req)
    assert report["failures"] == []
    for i in range(-2, 3):
        row = report["agreement"][str(i)]
        assert row["agree"] and set(row["dims"].values()) == {1}
        assert set(row["dims"]) == {"complete", "stable", "tate"}


def test_compare_a3_gorenstein_pair_zero():
    req = ComputeRequest(fx("a3.json"), fx("a3_mod_x_right.json"), fx("a3_mod_y_left.json"),
                         "compare", -2, 2, 4, 3, 0)
    report = run_compute(req)
    assert report["failures"] == []
    for i in range(-2, 3):
        row = report["agreement"][str(i)]
        assert row["agree"] and set(row["dims"].values()) == {0}


def test_compare_a2_not_certified_stagewise():
    req = ComputeRequest(fx("a2.json"), fx("a2_k_right.json"), fx("a2_k_left.json"),
                         "compare", 0, 1, 3, 2, 0)
    report = run_compute(req)
    assert report["failures"] == []
    assert any("no complete resolution certified" in note for note in report["notes"])
    for i in (0, 1):
        entry = report["per_degree"][str(i)]
        assert entry["tate"] == {"certified": False}
        assert entry["complete"]["verdict"] == "NotStabilized"
        row = report["agreement"][str(i)]
        assert row["agree_stagewise"]


def test_compute_tor_a2():
    req = ComputeRequest(fx("a2.json"), fx("a2_k_right.json"), fx("a2_k_left.json"),
                         "tor", 0, 3, 4, 2, 0)
    report = run_compute(req)
    dims = [report["per_degree"][str(i)]["tor"]["dim"] for i in range(0, 4)]
    assert dims == [1, 2, 4, 8]


def test_compute_ext_duality_partner_matches_tor():
    req = ComputeRequest(fx("a1.json"), fx("a1_k_right.json"), fx("a1_k_left.json"),
                         "ext", 0, 3, 4, 2, 0)
    report = run_compute(req)
    dims = [report["per_degree"][str(i)]["ext"]["dim"] for i in range(0, 4)]
    assert dims == [1, 1, 1, 1]


def test_report_determinism():
    req = ComputeRequest(fx("a1.json"), fx("a1_k_right.json"), fx("a1_k_left.json"),
                         "complete", -1, 1, 4, 3, 7)
    r1 = run_compute(req)
    r2 = run_compute(req)
    assert r1["hash"] == r2["hash"]
    clean1 = {k: v for k, v in r1.items() if k not in ("timing_seconds", "hash")}
    clean2 = {k: v for k, v in r2.items() if k not in ("timing_seconds", "hash")}
    assert clean1 == clean2


def test_request_validation():
    req = ComputeRequest(fx("a1.json"), fx("a1_k_right.json"), fx("a1_k_left.json"),
                         "nonsense", 0, 1, 4, 3, 0)
    with pytest.raises(ValueError):
        req.validate()
    req2 = ComputeRequest(fx("a1.json"), fx("a1_k_right.json"), fx("a1_k_left.json"),
                          "tor", 0, 1, 1, 3, 0)
    with pytest.raises(ValueError):
        req2.validate()


# --- corpus -------------------------------------------------------------------------

def test_corpus_runs_clean_and_deterministic():
    r1 = run_corpus(1, 4, 4, ["a1", "a4"])
    assert r1["failures"] == []
    r2 = run_corpus(1, 4, 4, ["a1", "a4"])
    assert r1["hash"] == r2["hash"]


# --- main entry point ------------------------------------------------------------------

def test_main_compute_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "compute", "--algebra", fx("a1.json"), "--module-m", fx("a1_k_right.json"),
        "--module-n", fx("a1_k_left.json"), "--theory", "tor", "--degrees", "0..2",
        "--depth", "4", "--window", "2", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["per_degree"]["0"]["tor"]["dim"] == 1
    assert data["hash"] == report_hash(data)


def test_main_dump_resolution(tmp_path):
    out = tmp_path / "res.json"
    code = main([
        "dump-resolution", "--algebra", fx("a1.json"), "--module-m", fx("a1_k_right.json"),
        "--depth", "4", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["betti"] == [1, 1, 1, 1, 1]
    assert data["periodicity"] == {"offset": 0, "period": 1}


def test_main_schema_error_exit_code(tmp_path):
    missing = tmp_path / "nope.json"
    code = main([
        "compute", "--algebra", str(missing), "--module-m", fx("a1_k_right.json"),
        "--module-n", fx("a1_k_left.json"), "--theory", "tor",
    ])
    assert code == 2


def _write_k_inputs(tmp_path, algebra_json, augmentation):
    """Write an algebra file and the one-dimensional modules on which basis
    element i acts by augmentation[i], under tmp_path."""
    (tmp_path / "alg.json").write_text(json.dumps(algebra_json))
    paths = []
    for side in ("right", "left"):
        mod = {"algebra": "alg.json", "side": side, "dim": 1,
               "action": [[[c]] for c in augmentation]}
        path = tmp_path / f"k_{side}.json"
        path.write_text(json.dumps(mod))
        paths.append(str(path))
    return ["--algebra", str(tmp_path / "alg.json"), "--module-m", paths[0],
            "--module-n", paths[1]]


def test_main_non_prime_modulus_is_schema_error(tmp_path, capsys):
    with open(fx("a1.json")) as fh:
        data = json.load(fh)
    data["p"] = 4
    args = _write_k_inputs(tmp_path, data, [1, 0])
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ":p: must be a prime integer" in err


def test_main_oversized_modulus_is_schema_error(tmp_path, capsys):
    # 4294967311 is prime, but (p-1)^2 >= 2^63: int64 row updates would wrap
    with open(fx("a1.json")) as fh:
        data = json.load(fh)
    data["p"] = 4294967311
    args = _write_k_inputs(tmp_path, data, [1, 0])
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ":p: must be a prime integer at most 3037000500" in err


def test_main_unsupported_algebra_exit_code(tmp_path, capsys):
    # F_2[C_3] is F_2 x F_4: its semisimple quotient has a factor larger than F_2
    alg = make_group_algebra(cyclic_group_table(3), 2)
    args = _write_k_inputs(tmp_path, algebra_to_json(alg), [1, 1, 1])
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported algebra class")


def test_main_radical_error_exit_code(tmp_path, capsys, monkeypatch):
    with open(fx("a1.json")) as fh:
        args = _write_k_inputs(tmp_path, json.load(fh), [1, 0])
    # a chain that returns all of A cannot be certified: A is not nilpotent
    monkeypatch.setattr(algmod, "_radical_chain", lambda a: Subspace.full(a.p, a.dim))
    monkeypatch.setattr(resolve, "_memo", {})
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: radical computation failed: ideal not nilpotent")


def test_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    code = main([
        "compute", "--algebra", fx("a1.json"), "--module-m", fx("a1_k_right.json"),
        "--module-n", fx("a1_k_left.json"), "--theory", "tor", "--degrees", "0..1",
        "--depth", "4", "--window", "2", "--out", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "degree,theory,field,value"
    assert any(line.startswith("0,tor,dim,1") for line in lines)


def test_threads_env_var(monkeypatch):
    monkeypatch.setenv("HOMCT_THREADS", "2")
    req = ComputeRequest(fx("a4.json"), fx("a4_k_right.json"), fx("a4_k_left.json"),
                         "tor", 0, 3, 4, 2, 0)
    report = run_compute(req)
    dims = [report["per_degree"][str(i)]["tor"]["dim"] for i in range(0, 4)]
    assert dims == [1, 1, 1, 1]
    # nine degrees through the pool, each run filling an empty memo under its lock
    compare = ComputeRequest(fx("a1.json"), fx("a1_k_right.json"), fx("a1_k_left.json"),
                             "compare", -4, 4, 5, 3, 0)
    hashes = {}
    for threads in ("2", "1"):
        monkeypatch.setenv("HOMCT_THREADS", threads)
        monkeypatch.setattr(resolve, "_memo", {})
        hashes[threads] = run_compute(compare)["hash"]
    assert hashes["2"] == hashes["1"]
