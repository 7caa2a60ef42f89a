"""Golden report hashes: the README CLI reports and the three cotower routes.

Reports are a contract: any change to arithmetic, notes, provenance or report
layout moves these hashes, and such a change must say so.
"""

import json
import os
import subprocess
import sys

import pytest

import homct
from homct.cli import ComputeRequest, run_compute
from homct.cohom import bc_ext
from homct.fixtures import algebra_a1, algebra_a2, simple_k
from homct.schemas import report_hash
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


def test_a2_cli_default_depth_under_3gb(tmp_path):
    # the CLI default --depth 6 on A2: tower stages reach dimension 8192 at degrees +-1.
    # The child caps its own address space at 3 000 000 KiB, so a run that builds the
    # stages' zero differentials or unit-vector class bases densely exits 6
    out = tmp_path / "report.json"
    args = ["compare", "--algebra", os.path.join(FIXTURES, "a2.json"),
            "--module-m", os.path.join(FIXTURES, "a2_k_right.json"),
            "--module-n", os.path.join(FIXTURES, "a2_k_left.json"),
            "--degrees=-1..1", "--depth", "6", "--window", "2", "--out", str(out)]
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024, 3_000_000 * 1024))\n"
            "from homct.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(homct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["hash"] == "10dea6267bf49a78d735c6a7ed3638d09c74ef1534fc7e490a1501c09b4c9cd8"


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
