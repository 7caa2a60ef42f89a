"""Command-line frontend: compute, compare, corpus, dump-resolution.

Reports are deterministic for fixed inputs and seed; the embedded hash covers
everything except timing.  Certification failures (for example Tate homology
over an algebra where no complete resolution certifies) are recorded in the
report and do not fail the run; invariant violations and internal mismatches
set a nonzero exit code.  Exit codes: 0 success, 1 failures recorded in the
report, 2 invalid input file or request, 3 unsupported algebra class (the
radical certificate fails: the ideal of commutators and x^p - x is not
nilpotent), 5 internal construction failure (a ``RuntimeError``, such as a
connecting map, projective cover or Hom solve with no solution), 6 out of
memory, naming the innermost homct function the error passed through; 4 is
retired and not reused.  Codes 2, 3, 5 and 6 print ``error: ...`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .algmod import (
    UnsupportedAlgebraError,
    dual_module,
    regular_module,
    stable_hom,
    tensor_over_algebra,
    validate_module,
)
from .completion import complete_homology
from .derived import tate_tor, tor, ext as ext_op
from .resolve import (
    CompleteResolution,
    complete_resolution,
    detect_periodicity,
    end_degree,
    min_proj_resolution,
)
from .schemas import (
    SchemaError,
    file_sha256,
    parse_algebra_file,
    parse_module_file,
    report_hash,
)
from .stablecmp import (
    copure_vanishing_certificate,
    stable_homology_via_duality,
    stable_homology_via_vanishing,
)

__all__ = ["main", "run_compute", "run_corpus", "ComputeRequest", "RequestError"]


class RequestError(ValueError):
    """Invalid request: unknown theory or algebra, empty degree range, or bad depth, window or count."""


@dataclass
class ComputeRequest:
    algebra_path: str
    module_m_path: str
    module_n_path: str
    theory: str  # tor | ext | tate | stable | complete | compare
    degree_lo: int
    degree_hi: int
    depth: int
    window: int
    seed: int
    out: str | None = None
    fmt: str = "json"

    def validate(self) -> None:
        if self.theory not in ("tor", "ext", "tate", "stable", "complete", "compare"):
            raise RequestError(f"unknown theory '{self.theory}'")
        if self.degree_lo > self.degree_hi:
            raise RequestError(f"empty degree range {self.degree_lo}..{self.degree_hi}")
        if not (self.depth >= self.window >= 1):
            raise RequestError(
                f"need depth >= window >= 1, got depth {self.depth} and window {self.window}"
            )


def run_compute(req: ComputeRequest) -> dict:
    req.validate()
    t0 = time.time()
    algebra = parse_algebra_file(req.algebra_path)
    m = parse_module_file(req.module_m_path, algebra)
    n = parse_module_file(req.module_n_path, algebra)
    if m.side != "right":
        raise SchemaError(f"{req.module_m_path}: module M must be a right module")
    if n.side != "left":
        raise SchemaError(f"{req.module_n_path}: module N must be a left module")
    degrees = list(range(req.degree_lo, req.degree_hi + 1))
    failures: list[str] = []
    notes: list[str] = []
    per_degree: dict[str, dict] = {}

    theories = ["complete", "stable", "tate"] if req.theory == "compare" else [req.theory]

    tate_cx = None
    if "tate" in theories:
        tate_cx = complete_resolution(m, req.depth, seed=req.seed)
        if not isinstance(tate_cx, CompleteResolution):
            notes.append(tate_cx.reason)
            tate_cx = None
        bad = [i for i in degrees if tate_cx is not None and not tate_cx.lo < i < tate_cx.hi]
        if bad:  # Tate degree i reads T_{i-1}..T_{i+1}; the window is [-depth-1, depth+1]
            raise RequestError(f"Tate degree {bad[0]} needs degrees {bad[0] - 1}..{bad[0] + 1} of the complete "
                               f"resolution, outside its window [{tate_cx.lo}, {tate_cx.hi}]; "
                               f"--depth {max(map(abs, degrees))} covers it")
    copure = None
    if "stable" in theories:
        copure = copure_vanishing_certificate(m, req.depth)
        if copure is None:
            notes.append(
                "no copure-flat certificate: stable homology computed by the duality route"
            )

    for i in degrees:
        entry = per_degree[str(i)] = {}
        for theory in theories:
            if theory == "tor":
                entry["tor"] = {"dim": tor(m, n, i).dim}
            elif theory == "ext":
                # the duality partner: Ext over the opposite algebra of (M, D N)
                m_op = m.as_left_over_opposite()
                dn_op = dual_module(n).as_left_over_opposite()
                entry["ext"] = {"dim": ext_op(m_op, dn_op, i).dim}
            elif theory == "tate":
                if tate_cx is None:
                    entry["tate"] = {"certified": False}
                else:
                    entry["tate"] = {"certified": True, "dim": tate_tor(tate_cx, n, i).dim}
            elif theory == "complete":
                rep = complete_homology(m, n, i, max(0, -i) + req.depth, req.window)
                entry["complete"] = {
                    "verdict": rep.verdict,
                    "limit_dim": rep.limit_dim,
                    "tower_dims": rep.dims,
                }
            elif theory == "stable":
                if copure is not None:
                    h = stable_homology_via_vanishing(m, n, i, copure)
                    entry["stable"] = {"route": "vanishing", "verdict": "Stabilized",
                                       "limit_dim": h.dim}
                else:
                    # growing Betti numbers: cap the cotower depth, ext realization
                    k_st = max(0, -i) + min(req.depth, 3)
                    rep = stable_homology_via_duality(m, n, i, k_st, min(req.window, 2),
                                                      realization="ext")
                    entry["stable"] = {"route": "duality", "verdict": rep.verdict,
                                       "limit_dim": rep.limit_dim, "stage_dims": rep.dims}
        end_degree()  # degree i's chain homology is read by no other degree

    agreement = None
    if req.theory == "compare":
        agreement = {}
        for i in degrees:
            entry = per_degree[str(i)]
            comp = entry["complete"]
            stab = entry["stable"]
            row: dict = {}
            dims = {}
            if comp["verdict"] == "Stabilized":
                dims["complete"] = comp["limit_dim"]
            if stab["verdict"] == "Stabilized":
                dims["stable"] = stab["limit_dim"]
            if entry["tate"].get("certified"):
                dims["tate"] = entry["tate"]["dim"]
            row["dims"] = dims
            vals = set(dims.values())
            if len(dims) >= 2:
                row["agree"] = len(vals) == 1
                if not row["agree"]:
                    failures.append(f"theories disagree at degree {i}: {dims}")
            elif comp["verdict"] != "Stabilized" and stab.get("stage_dims"):
                shared = min(len(comp["tower_dims"]), len(stab["stage_dims"]))
                stagewise = comp["tower_dims"][:shared] == stab["stage_dims"][:shared]
                row["agree_stagewise"] = stagewise
                row["stages_compared"] = shared
                if not stagewise:
                    failures.append(f"stage dims disagree at degree {i}")
            agreement[str(i)] = row

    report = {
        "tool": "homct",
        "version": __version__,
        "request": {
            "algebra": os.path.basename(req.algebra_path),
            "module_m": os.path.basename(req.module_m_path),
            "module_n": os.path.basename(req.module_n_path),
            "theory": req.theory,
            "degrees": [req.degree_lo, req.degree_hi],
            "depth": req.depth,
            "window": req.window,
            "seed": req.seed,
        },
        "input_hashes": {
            "algebra": file_sha256(req.algebra_path),
            "module_m": file_sha256(req.module_m_path),
            "module_n": file_sha256(req.module_n_path),
        },
        "per_degree": per_degree,
        "agreement": agreement,
        "notes": notes,
        "failures": failures,
        "timing_seconds": round(time.time() - t0, 3),
    }
    report["hash"] = report_hash(report)
    return report


def run_corpus(seed: int, count: int, max_dim: int, algebra_names: list[str]) -> dict:
    """Seeded invariant sweep across the fixture algebras.

    Failures are findings, not errors; the bundle hash covers everything but
    timing.
    """
    from . import fixtures as fx
    from .exactla import Matrix, kernel_basis, rref

    t0 = time.time()
    algebras = fx.fixture_algebras()
    if count < 1:
        raise RequestError(f"corpus count must be at least 1, got {count}")
    failures: list[str] = []
    checks = 0
    rng = np.random.default_rng(seed)
    for name in algebra_names:
        if name not in algebras:
            raise RequestError(f"unknown fixture algebra '{name}'")
        a = algebras[name]
        mods_l = fx.seeded_corpus(a, "left", count, seed, max_free_rank=1)
        mods_r = fx.seeded_corpus(a, "right", count, seed + 1, max_free_rank=1)
        mods_l = [m for m in mods_l if m.dim <= max_dim]
        mods_r = [m for m in mods_r if m.dim <= max_dim]
        for m in mods_l + mods_r:
            checks += 1
            if not validate_module(m).ok:
                failures.append(f"{name}: corpus module fails validation")
        reg_r = regular_module(a, "right")
        for nmod in mods_l[:4]:
            checks += 1
            if tensor_over_algebra(reg_r, nmod).dim != nmod.dim:
                failures.append(f"{name}: tensor unit law fails")
            checks += 1
            if stable_hom(regular_module(a, "left"), nmod).dim != 0:
                failures.append(f"{name}: stable hom from projective nonzero")
        for m in mods_l[:4]:
            checks += 1
            d = dual_module(m)
            if d.dim != m.dim:
                failures.append(f"{name}: dual changes dimension")
        # vanishing of complete homology on injectives / projectives
        inj = dual_module(regular_module(a, "right"))
        proj_r = regular_module(a, "right")
        some_n = mods_l[0] if mods_l else fx.simple_k(a, "left")
        for i in (-1, 0, 1):
            checks += 1
            rep = complete_homology(fx.simple_k(a, "right"), inj, i, max(0, -i) + 4, 3)
            if not (rep.stabilized and rep.limit_dim == 0):
                failures.append(f"{name}: complete homology nonzero on injective at {i}")
            checks += 1
            rep = complete_homology(proj_r, some_n, i, max(0, -i) + 4, 3)
            if not (rep.stabilized and rep.limit_dim == 0):
                failures.append(f"{name}: complete homology nonzero for projective at {i}")
        # rank-nullity sample
        for _ in range(20):
            checks += 1
            rows, cols = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            mat = Matrix(a.p, rng.integers(0, a.p, size=(rows, cols)))
            if kernel_basis(mat).dim + rref(mat)[2] != cols:
                failures.append(f"{name}: rank-nullity fails")
    report = {
        "tool": "homct",
        "version": __version__,
        "request": {"seed": seed, "count": count, "max_dim": max_dim,
                    "algebras": list(algebra_names)},
        "checks": checks,
        "failures": failures,
        "timing_seconds": round(time.time() - t0, 3),
    }
    report["hash"] = report_hash(report)
    return report


def _write_report(report: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=1, sort_keys=True)
    else:
        text = _csv_flatten(report)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv_flatten(report: dict) -> str:
    lines = ["degree,theory,field,value"]
    for deg, entry in sorted(report.get("per_degree", {}).items(), key=lambda kv: int(kv[0])):
        for theory, vals in sorted(entry.items()):
            for field, value in sorted(vals.items()):
                if isinstance(value, list):
                    value = ";".join(str(v) for v in value)
                lines.append(f"{deg},{theory},{field},{value}")
    return "\n".join(lines)


def _parse_degrees(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise RequestError(f"degrees must be lo..hi or one integer, got '{text}'") from None


def _allocation_site(exc: BaseException) -> str | None:
    """<module>.<function> of the innermost homct frame that exc passed through below main."""
    site = None
    tb = exc.__traceback__.tb_next  # main's own frame is not a site
    while tb is not None:
        module, code = tb.tb_frame.f_globals.get("__name__", ""), tb.tb_frame.f_code
        if module.startswith("homct."):
            site = f"{module}.{getattr(code, 'co_qualname', code.co_name)}"
        tb = tb.tb_next
    return site


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="homct",
        description="Exact Tor/Ext, complete, stable and Tate homology over "
                    "finite-dimensional algebras over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--algebra", required=True)
        sp.add_argument("--module-m", required=True, help="right module (JSON)")
        sp.add_argument("--module-n", required=True, help="left module (JSON)")
        sp.add_argument("--degrees", default="0..3",
                        help="lo..hi; use --degrees=-4..4 for negative bounds (default 0..3)")
        sp.add_argument("--depth", type=int, default=6)
        sp.add_argument("--window", type=int, default=3)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["json", "csv"], default="json")

    sp_compute = sub.add_parser("compute", help="compute one theory")
    add_common(sp_compute)
    sp_compute.add_argument("--theory", required=True,
                            choices=["tor", "ext", "tate", "stable", "complete"])

    sp_compare = sub.add_parser("compare", help="complete vs stable vs Tate agreement")
    add_common(sp_compare)

    sp_corpus = sub.add_parser("corpus", help="seeded invariant sweep")
    sp_corpus.add_argument("--seed", type=int, default=1)
    sp_corpus.add_argument("--count", type=int, default=8)
    sp_corpus.add_argument("--max-dim", type=int, default=4)
    sp_corpus.add_argument("--algebras", default="a1,a2,a3,a4")
    sp_corpus.add_argument("--out")
    sp_corpus.add_argument("--format", choices=["json", "csv"], default="json")

    sp_dump = sub.add_parser("dump-resolution", help="minimal projective resolution dump")
    sp_dump.add_argument("--algebra", required=True)
    sp_dump.add_argument("--module-m", required=True)
    sp_dump.add_argument("--depth", type=int, default=6)
    sp_dump.add_argument("--seed", type=int, default=0)
    sp_dump.add_argument("--out")
    sp_dump.add_argument("--format", choices=["json", "csv"], default="json")

    args = parser.parse_args(argv)
    try:
        if args.command in ("compute", "compare"):
            lo, hi = _parse_degrees(args.degrees)
            req = ComputeRequest(
                args.algebra, args.module_m, args.module_n,
                args.theory if args.command == "compute" else "compare",
                lo, hi, args.depth, args.window, args.seed, args.out, args.format,
            )
            report = run_compute(req)
            _write_report(report, args.out, args.format)
            return 0 if not report["failures"] else 1
        if args.command == "corpus":
            names = [s.strip() for s in args.algebras.split(",") if s.strip()]
            report = run_corpus(args.seed, args.count, args.max_dim, names)
            _write_report(report, args.out, args.format)
            return 0 if not report["failures"] else 1
        if args.command == "dump-resolution":
            if args.depth < 0:
                raise RequestError(f"resolution depth must be nonnegative, got {args.depth}")
            algebra = parse_algebra_file(args.algebra)
            m = parse_module_file(args.module_m, algebra)
            res = min_proj_resolution(m, args.depth)
            cert = detect_periodicity(res, args.depth, seed=args.seed)
            dump = res.to_dict(args.depth)
            dump["periodicity"] = cert.to_dict() if cert else None
            dump["input_hashes"] = {
                "algebra": file_sha256(args.algebra),
                "module_m": file_sha256(args.module_m),
            }
            _write_report(dump, args.out, args.format)
            return 0
    except (SchemaError, RequestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except MemoryError as exc:
        site = _allocation_site(exc)
        print(f"error: out of memory{f' in {site}' if site else ''}: {exc}", file=sys.stderr)
        return 6
    return 0


if __name__ == "__main__":
    sys.exit(main())
