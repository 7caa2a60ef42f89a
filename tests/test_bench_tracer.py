"""The benchmark tracer in perfbench/ must still find every traced homct target.

It wraps named module-level functions and methods; renaming or rewrapping one
of them makes ``Tracer.install`` raise, which this catches without a full
benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_tracer_finds_every_target():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
