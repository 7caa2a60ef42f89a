"""Workload table and per-run oracles of the homct benchmark.

Every oracle holds for every seed: the seed only relabels the algebra basis,
and homology dimensions, verdicts and agreement flags do not depend on the
basis.  The compare workloads are checked against a seed-0 reference stored
in ``perfbench/reference/<workload>.json``; the report hash, which covers the
input files, is checked against that reference on seed 0 only.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Workload:
    algebra: str  # input set written by gen.py
    argv: tuple[str, ...]  # homct CLI arguments; empty for the library call

    def cli_argv(self, paths: dict[str, str], out: str) -> list[str]:
        return [*self.argv, "--algebra", paths["algebra"], "--module-m", paths["right"],
                "--module-n", paths["left"], "--out", out]


WORKLOADS = {
    # non-Gorenstein showcase one depth deeper: towers grow like 4^k,
    # completion towers plus the stable duality route, int64 matmul
    "a2-compare": Workload("a2", ("compare", "--degrees=-1..1", "--depth", "4",
                                  "--window", "2")),
    # the only p = 3 and the only self-injective workload: Tate and copure
    # vanishing certify, cosyzygy towers and tensor products dominate
    "c3c3-compare": Workload("c3c3", ("compare", "--degrees=-3..3", "--depth", "6")),
    # group-algebra scale frontier: radical trace chain and
    # radical_submodule / projective_cover eliminations, no towers
    "c2x4-tor": Workload("c2x4", ("compute", "--theory", "tor", "--degrees", "0..2")),
    # library call stablecmp.stable_homology_via_duality(k, k, 0, 3) with
    # realization "segments": the cohom truncated-Hom machinery
    "a2-pcomp": Workload("a2", ()),
}

PCOMP_CALL = {"i": 0, "K": 3}


def reference(name: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{name}.json")) as fh:
        return json.load(fh)


def check(name: str, report: dict, seed: int) -> list[str]:
    """Problems with one sample's report; empty when the answer is right."""
    problems = []
    ref = reference(name)
    if report.get("failures"):
        problems.append(f"report failures: {report['failures']}")
    if name == "c2x4-tor":
        betti = [report["per_degree"][str(i)]["tor"]["dim"] for i in range(3)]
        if betti != [1, 4, 10]:
            problems.append(f"Tor dims {betti} != [1, 4, 10]")
    elif name == "a2-pcomp":
        if report["verdict"] != "NotStabilized" or report["dims"] != [1, 4, 16, 64]:
            problems.append(f"pcomp {report['verdict']} {report['dims']} != "
                            "NotStabilized [1, 4, 16, 64]")
    else:
        for deg, row in report["agreement"].items():
            if not row.get("agree", True) or not row.get("agree_stagewise", True):
                problems.append(f"theories disagree at degree {deg}: {row}")
        for key in ("per_degree", "agreement", "notes"):
            if report[key] != ref[key]:
                problems.append(f"{key} differs from the seed-0 reference")
    if seed == 0 and report.get("hash") != ref["seed0_hash"]:
        problems.append(f"seed-0 report hash {report.get('hash')} != {ref['seed0_hash']}")
    return problems
