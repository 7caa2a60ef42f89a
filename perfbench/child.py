"""One sample of one workload, in a fresh single-threaded process.

``perfbench/run.py`` launches this script once per sample, with the
checkout's ``src`` on PYTHONPATH.  It runs the workload as a user would,
through the CLI's ``main`` or the library call, and writes the program's
report plus its own timestamps:

  setup_done  monotonic time when the last input module is parsed and validated
  solve_done  monotonic time when the compute call has returned its report

With ``--setup-only`` it stops after parsing the inputs.  With ``--spans`` it
installs the tracer first, then writes the spans and their per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    ap = argparse.ArgumentParser(description="one benchmark sample")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="directory written by gen.py")
    ap.add_argument("--report", required=True)
    ap.add_argument("--marks", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args()

    import homct

    if os.path.dirname(os.path.abspath(homct.__file__)) != os.path.join(SRC, "homct"):
        print(f"homct imported from {homct.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    from homct import schemas
    from workloads import PCOMP_CALL, WORKLOADS

    wl = WORKLOADS[args.workload]
    if wl.argv:
        from homct import cli
    else:
        from homct import stablecmp
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    paths = {
        "algebra": os.path.join(args.inputs, f"{wl.algebra}.json"),
        "right": os.path.join(args.inputs, f"{wl.algebra}_k_right.json"),
        "left": os.path.join(args.inputs, f"{wl.algebra}_k_left.json"),
    }
    marks: dict = {}
    code = 0
    if args.setup_only or not wl.argv:
        alg = schemas.parse_algebra_file(paths["algebra"])
        m = schemas.parse_module_file(paths["right"], alg)
        n = schemas.parse_module_file(paths["left"], alg)
        marks["setup_done"] = time.monotonic()
        if not args.setup_only:
            rep = stablecmp.stable_homology_via_duality(m, n, PCOMP_CALL["i"], PCOMP_CALL["K"])
            report = {
                "tool": "homct",
                "call": "stablecmp.stable_homology_via_duality",
                "args": PCOMP_CALL,
                "input_hashes": {k: schemas.file_sha256(p) for k, p in sorted(paths.items())},
                **rep.to_dict(),
                "failures": [],
            }
            report["hash"] = schemas.report_hash(report)
            marks["solve_done"] = time.monotonic()
            with open(args.report, "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
    else:
        # run_compute parses its own inputs: setup ends when it has parsed N
        parse_module_file, run_compute = cli.parse_module_file, cli.run_compute

        def parse_and_mark(*a, **kw):
            mod = parse_module_file(*a, **kw)
            marks["setup_done"] = time.monotonic()
            return mod

        def run_and_mark(req):
            report = run_compute(req)
            marks["solve_done"] = time.monotonic()
            return report

        cli.parse_module_file, cli.run_compute = parse_and_mark, run_and_mark
        code = cli.main(wl.cli_argv(paths, args.report))
    if tracer is not None:
        from tracer import aggregate, unit_of

        tracer.save(args.spans)
        metrics = aggregate(tracer.meta(), tracer.columns())
        marks["layers"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    with open(args.marks, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
