"""Golden report hashes: the README CLI reports and the three cotower routes.

Reports are a contract: any change to arithmetic, notes, provenance or report
layout moves these hashes, and such a change must say so.  Requests that share
the memo across threads give the single-thread hash, and two deep runs are
pinned in a child process under an address-space cap, one with a peak-memory bound.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

import homct
from homct import resolve
from homct.algmod import make_group_algebra
from homct.cli import ComputeRequest, run_compute
from homct.cohom import bc_ext
from homct.fixtures import algebra_a1, algebra_a2, simple_k
from homct.schemas import algebra_to_json, module_to_json, report_hash
from homct.stablecmp import stable_homology_via_duality

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


@pytest.mark.parametrize("name, lo, hi, depth, window, expected", [
    ("a1", -4, 4, 5, 3, "71126ff33c0ada73b741688641c7aaa4d3fdb8a4e2c861bf62571afd07f93880"),
    ("a4", -3, 3, 5, 3, "79a8e22e4dc1baa5ab22ed5a37b9f707839b06c0b329caa911f2868c7bc37f0c"),
    ("a2", -1, 1, 3, 2, "ae930100b5f4df4ef56fa5588c73bb27577faa36f2918e579e7ee757c18d99ec"),
    # A2 past the README's depth: tower stages of dimension 2048 at degrees +-1
    ("a2", -1, 1, 5, 2, "56fc350ea700bffce7857311d70e5d9005c50ecc804429f77fe99ca4426a8b00"),
])
def test_readme_compare_report_hash(name, lo, hi, depth, window, expected):
    def fx(suffix):
        return os.path.join(FIXTURES, f"{name}{suffix}.json")

    req = ComputeRequest(fx(""), fx("_k_right"), fx("_k_left"), "compare", lo, hi, depth, window, 0)
    report = run_compute(req)
    assert report["failures"] == []
    assert report["hash"] == expected


def test_requests_on_threads_give_the_single_thread_hash(monkeypatch):
    # four requests, more than the cores, share one fresh memo: they build, find and free
    # the same chains, and each one's degree ends drop homology spaces that another may be
    # reading.  A short switch interval makes the threads interleave inside those reads
    def fx(suffix):
        return os.path.join(FIXTURES, f"a4{suffix}.json")

    monkeypatch.setattr(resolve, "_memo", {})
    req = ComputeRequest(fx(""), fx("_k_right"), fx("_k_left"), "compare", -3, 3, 5, 3, 0)
    start, reports = threading.Barrier(4), [None] * 4

    def request(t):
        start.wait()
        reports[t] = run_compute(req)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=request, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [r and r["hash"] for r in reports] == ["79a8e22e4dc1baa5ab22ed5a37b9f707839b06c0b329caa911f2868c7bc37f0c"] * 4


def run_capped(args: list[str], cap_kib: int, tmp_path) -> tuple[int, dict | None, float, str]:
    """Run ``homct.cli.main(args + ["--out", ...])`` in a child that caps its own address space
    at cap_kib KiB and its CPU time at 600 s.  Returns the exit code, the report (None if
    none was written), the child's own peak RSS in MiB and its standard error.

    The peak is the child's rusage from ``os.wait4``, taken by a small launcher process:
    ``RUSAGE_CHILDREN`` would report the largest of all children waited for, and a child
    spawned straight from this process starts with this process's high-water mark.
    """
    out, err = tmp_path / "report.json", tmp_path / "stderr.txt"
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({cap_kib * 1024}, {cap_kib * 1024}))\n"
             "resource.setrlimit(resource.RLIMIT_CPU, (600, 600))\n"
             "from homct.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    launcher = ("import json, os, subprocess, sys\n"
                "pid = subprocess.Popen(sys.argv[1:]).pid\n"
                "_, status, usage = os.wait4(pid, 0)\n"
                "print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))\n")
    src = os.path.dirname(os.path.dirname(homct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with open(err, "w") as fh:
        done = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", child, *args, "--out", str(out)],
                              env=env, stdout=subprocess.PIPE, stderr=fh, text=True, check=True)
    code, peak_kib = json.loads(done.stdout)
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, peak_kib / 1024, err.read_text()


def test_a2_cli_default_depth_under_3gb(tmp_path):
    # the CLI default --depth 6 on A2: tower stages reach dimension 8192 at degrees +-1.
    # The child caps its own address space at 3 000 000 KiB, so a run that builds the
    # stages' zero differentials or unit-vector class bases densely exits 6
    args = ["compare", "--algebra", os.path.join(FIXTURES, "a2.json"),
            "--module-m", os.path.join(FIXTURES, "a2_k_right.json"),
            "--module-n", os.path.join(FIXTURES, "a2_k_left.json"),
            "--degrees=-1..1", "--depth", "6", "--window", "2"]
    code, report, _, err = run_capped(args, 3_000_000, tmp_path)
    assert code == 0, err
    assert report["hash"] == "10dea6267bf49a78d735c6a7ed3638d09c74ef1534fc7e490a1501c09b4c9cd8"


def write_c3c3_inputs(tmp_path) -> list[str]:
    """F_3[C_3 x C_3] with k on both sides, written as input files: the compare arguments."""
    a = make_group_algebra([[3 * ((g // 3 + h // 3) % 3) + (g + h) % 3 for h in range(9)] for g in range(9)], 3)
    (tmp_path / "c3c3.json").write_text(json.dumps(algebra_to_json(a)))
    args = ["--algebra", str(tmp_path / "c3c3.json")]
    for side, flag in (("right", "--module-m"), ("left", "--module-n")):
        (tmp_path / f"k_{side}.json").write_text(json.dumps(module_to_json(simple_k(a, side), "c3c3.json")))
        args += [flag, str(tmp_path / f"k_{side}.json")]
    return args


def test_c3c3_compare_depth_10_under_180_mib(tmp_path):
    # degrees -5..5 at depth 10: each degree's towers read 11 homology spaces, which
    # live for that degree only; holding every degree's spaces and differentials took
    # 247 MiB, the degree scope takes about 130
    args = ["compare", *write_c3c3_inputs(tmp_path), "--degrees=-5..5", "--depth", "10"]
    code, report, peak_mib, err = run_capped(args, 1_000_000, tmp_path)
    assert code == 0, err
    assert report["hash"] == "1c6d4e5946280244bbde32cc24842d49544e3e901bcbfec4f6ba473214908f67"
    assert peak_mib < 180


def test_bc_ext_a2_report_hash():
    k = simple_k(algebra_a2())
    rep = bc_ext(k, k, 0, 3)
    assert report_hash(rep.to_dict()) == "bd0bad1bf49489d8f69730c7c7264529a09a557dcb227a4a15870e0d559801a8"


def test_duality_segments_a1_report_hash():
    a1 = algebra_a1()
    rep = stable_homology_via_duality(simple_k(a1, "right"), simple_k(a1, "left"), 0, 3)
    assert report_hash(rep.to_dict()) == "a79c241ab5c0a538d142d504918b6c004012746cfad8baecd787b8268de11b23"


def test_duality_ext_a2_report_hash():
    a2 = algebra_a2()
    rep = stable_homology_via_duality(simple_k(a2, "right"), simple_k(a2, "left"), 0, 3, w=2,
                                      realization="ext")
    assert report_hash(rep.to_dict()) == "c83424e084be50ff18c98bcdd04775983936dac72b5c01c8ec2d3ac01dde7d79"


def test_duality_ext_a2_depth5_report_hash():
    # the pin above stops at K = 3; at K = 5 the Ext cochains out of the large
    # free modules of the resolution carry the run, in generator coordinates
    a2 = algebra_a2()
    rep = stable_homology_via_duality(simple_k(a2, "right"), simple_k(a2, "left"), 0, 5, w=2,
                                      realization="ext")
    assert report_hash(rep.to_dict()) == "4879b63695dfc37fafb6b76448226b2052d471d2edfb6871bfcde36ac5859bcb"
