"""Tests for file parsing, the compute/compare/corpus commands and determinism."""

import itertools
import json
import os

import pytest

from homct import algmod, cli, completion, resolve
from homct.algmod import make_group_algebra
from homct.cli import ComputeRequest, main, run_compute, run_corpus
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


def test_main_corpus_unknown_algebra_is_request_error(capsys):
    assert main(["corpus", "--algebras", "bogus"]) == 2
    err = capsys.readouterr().err
    assert err == "error: unknown fixture algebra 'bogus'\n"


def test_main_corpus_count_below_one_is_request_error(tmp_path, capsys):
    out = tmp_path / "corpus.json"
    assert main(["corpus", "--count", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: corpus count") and not out.exists()


def test_main_dump_resolution_negative_depth_is_request_error(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["dump-resolution", "--algebra", fx("a1.json"), "--module-m", fx("a1_k_right.json"),
                 "--depth", "-1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: resolution depth") and not out.exists()


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


@pytest.mark.parametrize("field, value, where", [
    ("action", 1.5, "k_right.json:action[0][0][0]"),  # used to be truncated to 1
    ("action", "x", "k_right.json:action[0][0][0]"),  # used to be a traceback
    ("unit", 1.7, "alg.json:unit[0]"),
    ("mul", True, "alg.json:mul[0][0][0]"),  # a bool is not an integer entry
])
def test_main_non_integer_entry_is_schema_error(field, value, where, tmp_path, capsys):
    with open(fx("a1.json")) as fh:
        data = json.load(fh)
    augmentation = [1, 0]
    if field == "action":
        augmentation[0] = value
    elif field == "unit":
        data["unit"][0] = value
    else:
        data["mul"][0][0][0] = value
    args = _write_k_inputs(tmp_path, data, augmentation)
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{where}: must be an integer" in err


@pytest.mark.parametrize("field, where", [
    ("unit", "alg.json:unit[0]"),  # used to be an OverflowError traceback, exit 1
    ("mul", "alg.json:mul[0][0][0]"),
    ("action", "k_right.json:action[0][0][0]"),
])
def test_main_entry_beyond_int64_is_schema_error(field, where, tmp_path, capsys):
    with open(fx("a1.json")) as fh:
        data = json.load(fh)
    augmentation = [1, 0]
    if field == "action":
        augmentation[0] = 10**30 + 1
    elif field == "unit":
        data["unit"][0] = 10**30 + 1
    else:
        data["mul"][0][0][0] = 10**30 + 1
    args = _write_k_inputs(tmp_path, data, augmentation)
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{where}: must be an integer in [-2^63, 2^63)" in err


@pytest.mark.parametrize("target, where", [("algebra", "alg.json:dim"), ("module", "k_right.json:dim")])
def test_main_bool_dim_is_schema_error(target, where, tmp_path, capsys):
    # True == 1: the one-dimensional module used to pass as "dim": 1
    with open(fx("a1.json")) as fh:
        data = json.load(fh)
    if target == "algebra":
        data["dim"] = True
    args = _write_k_inputs(tmp_path, data, [1, 0])
    if target == "module":
        mod_path = tmp_path / "k_right.json"
        mod = json.loads(mod_path.read_text())
        mod["dim"] = True
        mod_path.write_text(json.dumps(mod))
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{where}: must be a nonnegative integer" in err


def _dims(value):
    """Every value under a key ending in "dim", anywhere in a report section."""
    if isinstance(value, dict):
        return [x for k, v in value.items() for x in ([v] if k.endswith("dim") else _dims(v))]
    return []


@pytest.mark.parametrize("zero_side", ["right", "left"])
def test_main_zero_module_computes_zero(zero_side, tmp_path):
    # "action": [[], [], []] used to parse to 1-D arrays: every theory stopped
    # with "matrix entries must be two-dimensional" and exit 1
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"algebra": os.path.abspath(fx("a2.json")), "side": zero_side,
                                "dim": 0, "action": [[], [], []]}))
    m = str(zero) if zero_side == "right" else fx("a2_k_right.json")
    n = str(zero) if zero_side == "left" else fx("a2_k_left.json")
    for theory in ("tor", "ext", "tate", "complete", "stable"):
        out = tmp_path / f"{theory}.json"
        code = main(["compute", "--algebra", fx("a2.json"), "--module-m", m, "--module-n", n,
                     "--theory", theory, "--degrees", "0..1", "--out", str(out)])
        assert code == 0, theory
        dims = _dims(json.loads(out.read_text())["per_degree"])
        # Tate over A2 with M = k is not certified and reports no dimension
        assert set(dims) <= {0} and (dims or theory == "tate"), theory


def test_main_unsupported_algebra_exit_code(tmp_path, capsys):
    # F_2[C_3] is F_2 x F_4: its semisimple quotient has a factor larger than F_2
    alg = make_group_algebra(cyclic_group_table(3), 2)
    args = _write_k_inputs(tmp_path, algebra_to_json(alg), [1, 1, 1])
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported algebra class")


def test_main_non_split_algebra_exit_code(tmp_path, capsys):
    # F_2[S_3] has a simple module of dimension 2: the ideal of commutators and
    # x^2 - x is not nilpotent, so the radical certificate refuses the algebra
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(g[h[i]] for i in range(3))) for h in perms] for g in perms]
    args = _write_k_inputs(tmp_path, algebra_to_json(make_group_algebra(table, 2)), [1] * 6)
    code = main(["compute", *args, "--theory", "tor", "--degrees", "0..1"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported algebra class: ") and "Traceback" not in err


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


@pytest.mark.parametrize("bad", [["--degrees", "3..1"], ["--depth", "2", "--window", "3"],
                                 ["--degrees", "1..x"]])
def test_main_invalid_request_exit_code(bad, capsys):
    code = main(["compare", "--algebra", fx("a1.json"), "--module-m", fx("a1_k_right.json"),
                 "--module-n", fx("a1_k_left.json"), *bad])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def _a1_compare(degrees, tmp_path):
    return main(["compare", "--algebra", fx("a1.json"), "--module-m", fx("a1_k_right.json"),
                 "--module-n", fx("a1_k_left.json"), f"--degrees={degrees}", "--depth", "3",
                 "--out", str(tmp_path / "out.json")])


def test_main_tate_degree_outside_window_exit_code(tmp_path, capsys):
    # A1 certifies on the window [-4, 4] at depth 3; Tate degree -4 reads degree -5
    assert _a1_compare("-4..-4", tmp_path) == 2
    err = capsys.readouterr().err
    assert err == ("error: Tate degree -4 needs degrees -5..-3 of the complete resolution, "
                   "outside its window [-4, 4]; --depth 4 covers it\n")
    assert not (tmp_path / "out.json").exists()


def test_main_tate_degrees_inside_window_exit_zero(tmp_path):
    assert _a1_compare("-3..3", tmp_path) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert all(report["per_degree"][str(i)]["tate"]["certified"] for i in range(-3, 4))


def test_main_internal_failure_exit_code(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("connecting_tor: no lift")

    monkeypatch.setattr(completion, "connecting_tor", fail)
    code = main(["compare", "--algebra", fx("a1.json"), "--module-m", fx("a1_k_right.json"),
                 "--module-n", fx("a1_k_left.json"), "--degrees", "0..1", "--depth", "3"])
    assert code == 5
    err = capsys.readouterr().err
    assert err == "error: connecting_tor: no lift\n"


def test_main_out_of_memory_exit_code(monkeypatch, capsys):
    def exhaust(req):
        raise MemoryError("Unable to allocate 1.25 GiB for an array")

    monkeypatch.setattr(cli, "run_compute", exhaust)
    code = main(["compare", "--algebra", fx("a1.json"), "--module-m", fx("a1_k_right.json"),
                 "--module-n", fx("a1_k_left.json"), "--degrees", "0..1", "--depth", "3"])
    assert code == 6
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 1.25 GiB for an array\n"


def test_main_out_of_memory_names_the_allocation_site(monkeypatch, capsys):
    # numpy fails in algmod.act, the first time an action of a rank-2 free module of A2's
    # resolution of k is applied copy by copy; the message names that innermost homct frame,
    # not the numpy frame below it
    mulmod = algmod.mulmod

    def exhaust(x, y, p):
        if y.ndim == 3 and y.shape[0] > 1:  # act's (copies, d, c) block of columns
            raise MemoryError("Unable to allocate 1.25 GiB for an array")
        return mulmod(x, y, p)

    monkeypatch.setattr(resolve, "_memo", {})
    monkeypatch.setattr(algmod, "mulmod", exhaust)
    code = main(["compute", "--theory", "tor", "--algebra", fx("a2.json"), "--module-m", fx("a2_k_right.json"),
                 "--module-n", fx("a2_k_left.json"), "--degrees", "0..2", "--depth", "3"])
    assert code == 6
    err = capsys.readouterr().err
    assert err == "error: out of memory in homct.algmod.act: Unable to allocate 1.25 GiB for an array\n"


def _fixtures_at_prime(tmp_path, p):
    """Copies of every fixture under tmp_path/<p>, with the algebras' modulus set to p."""
    out = tmp_path / str(p)
    out.mkdir()
    for name in os.listdir(FIXTURES):
        with open(fx(name)) as fh:
            data = json.load(fh)
        if "p" in data:
            data["p"] = p
        (out / name).write_text(json.dumps(data))
    return out


def _compare_args(d, algebra):
    return ["compare", "--algebra", str(d / f"{algebra}.json"),
            "--module-m", str(d / f"{algebra}_k_right.json"),
            "--module-n", str(d / f"{algebra}_k_left.json")]


@pytest.mark.parametrize("p", [2**31 - 1, 3037000493])
def test_fixtures_compute_at_large_primes(p, tmp_path):
    # the fixtures have 0/1 structure constants, so every prime gives the p = 2 answers
    d, ref = _fixtures_at_prime(tmp_path, p), _fixtures_at_prime(tmp_path, 2)
    out = tmp_path / "tor.json"
    code = main(["compute", "--algebra", str(d / "a2.json"), "--module-m",
                 str(d / "a2_k_right.json"), "--module-n", str(d / "a2_k_left.json"),
                 "--theory", "tor", "--degrees", "0..3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert [report["per_degree"][str(i)]["tor"]["dim"] for i in range(4)] == [1, 2, 4, 8]
    for algebra, extra in (("a1", ["--degrees=-2..2", "--depth", "4"]), ("a3", [])):
        reports = []
        for base in (d, ref):
            out = tmp_path / f"{algebra}_{base.name}.json"
            assert main([*_compare_args(base, algebra), *extra, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["per_degree"] == reports[1]["per_degree"]
        assert reports[0]["agreement"] == reports[1]["agreement"]
