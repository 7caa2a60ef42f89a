"""File formats: algebra/module JSON parsing, validation and report hashing.

Algebra files look like
    {"p": 2, "dim": 2, "basis": ["1", "x"], "unit": [1, 0],
     "mul": [[[1,0],[0,1]], [[0,1],[0,0]]]}
with mul[i][j] the coefficient vector of e_i * e_j.  Module files reference
their algebra by path (relative to the module file) and carry one dim x dim
action matrix per algebra basis element:
    {"algebra": "a1.json", "side": "left", "dim": 1, "action": [[[1]], [[0]]]}

Validation errors name the offending JSON path.  Report hashing excludes the
timing fields so identical inputs and seed give identical hashes.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .algmod import Algebra, FdModule, validate_algebra, validate_module
from .exactla import MAX_MODULUS, _is_prime

__all__ = [
    "SchemaError",
    "parse_algebra_file",
    "parse_module_file",
    "algebra_to_json",
    "module_to_json",
    "write_fixture_files",
    "file_sha256",
    "report_hash",
]


class SchemaError(ValueError):
    """Malformed or invalid input file; the message names the JSON path."""


def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _expect_ints(vec: list, path: str) -> None:
    for k, x in enumerate(vec):  # a JSON integer: not a float, a string or a bool
        _expect(type(x) is int, f"{path}[{k}]", "must be an integer")
        _expect(-2**63 <= x < 2**63, f"{path}[{k}]", "must be an integer in [-2^63, 2^63)")


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})")
    except (OSError, ValueError) as exc:  # a directory, a NUL in the path, bytes that are not UTF-8
        raise SchemaError(f"{path}: cannot read ({exc})")


def parse_algebra_file(path: str) -> Algebra:
    data = _load(path)
    _expect(isinstance(data, dict), path, "top level must be an object")
    for key in ("p", "dim", "unit", "mul"):
        _expect(key in data, path, f"missing key '{key}'")
    p = data["p"]
    dim = data["dim"]
    _expect(type(p) is int and p <= MAX_MODULUS and _is_prime(p), f"{path}:p",
            f"must be a prime integer at most {MAX_MODULUS}, so that (p-1)^2 < 2^63")
    _expect(type(dim) is int and dim >= 0, f"{path}:dim", "must be a nonnegative integer")
    unit = data["unit"]
    _expect(isinstance(unit, list) and len(unit) == dim, f"{path}:unit",
            f"must be a coefficient vector of length {dim}")
    _expect_ints(unit, f"{path}:unit")
    mul = data["mul"]
    _expect(isinstance(mul, list) and len(mul) == dim, f"{path}:mul",
            f"must have {dim} rows")
    for i, row in enumerate(mul):
        _expect(isinstance(row, list) and len(row) == dim, f"{path}:mul[{i}]",
                f"must have {dim} entries")
        for j, coeffs in enumerate(row):
            _expect(isinstance(coeffs, list) and len(coeffs) == dim,
                    f"{path}:mul[{i}][{j}]", f"must be a coefficient vector of length {dim}")
            _expect_ints(coeffs, f"{path}:mul[{i}][{j}]")
    basis = data.get("basis")
    if basis is not None:
        _expect(isinstance(basis, list) and len(basis) == dim, f"{path}:basis",
                f"must list {dim} names")
    structure = np.array(mul, dtype=np.int64)
    try:
        alg = Algebra(p, structure, unit, basis, check=False)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}")
    rep = validate_algebra(alg)
    _expect(rep.ok, path, "algebra axioms fail: " + "; ".join(rep.violations))
    return alg


def parse_module_file(path: str, algebra: Algebra | None = None) -> FdModule:
    data = _load(path)
    _expect(isinstance(data, dict), path, "top level must be an object")
    for key in ("side", "dim", "action"):
        _expect(key in data, path, f"missing key '{key}'")
    if algebra is None:
        _expect("algebra" in data, path, "missing key 'algebra'")
        alg_path = data["algebra"]
        _expect(isinstance(alg_path, str), f"{path}:algebra", "must be a path string")
        if not os.path.isabs(alg_path):
            alg_path = os.path.join(os.path.dirname(os.path.abspath(path)), alg_path)
        algebra = parse_algebra_file(alg_path)
    side = data["side"]
    _expect(side in ("left", "right"), f"{path}:side", "must be 'left' or 'right'")
    dim = data["dim"]
    _expect(type(dim) is int and dim >= 0, f"{path}:dim", "must be a nonnegative integer")
    action = data["action"]
    _expect(isinstance(action, list) and len(action) == algebra.dim, f"{path}:action",
            f"must have one matrix per algebra basis element ({algebra.dim})")
    for i, mat in enumerate(action):
        _expect(isinstance(mat, list) and len(mat) == dim, f"{path}:action[{i}]",
                f"must be a {dim} x {dim} matrix")
        for r, row in enumerate(mat):
            _expect(isinstance(row, list) and len(row) == dim, f"{path}:action[{i}][{r}]",
                    f"must have {dim} entries")
            _expect_ints(row, f"{path}:action[{i}][{r}]")
    # reshaped, so that a zero module's [] is a 0 x 0 matrix rather than a 1-D array
    mod = FdModule(algebra, side, dim, [np.array(a, dtype=np.int64).reshape(dim, dim) for a in action],
                   check=False)
    rep = validate_module(mod)
    _expect(rep.ok, path, "module axioms fail: " + "; ".join(rep.violations))
    return mod


def algebra_to_json(a: Algebra) -> dict:
    mul = [[[int(c) for c in a.structure[i, j]] for j in range(a.dim)] for i in range(a.dim)]
    return {
        "p": a.p,
        "dim": a.dim,
        "basis": list(a.basis_names),
        "unit": [int(x) for x in a.unit],
        "mul": mul,
    }


def module_to_json(m: FdModule, algebra_path: str) -> dict:
    return {
        "algebra": algebra_path,
        "side": m.side,
        "dim": m.dim,
        "action": [mat.to_lists() for mat in m.action],
    }


def write_fixture_files(out_dir: str) -> list[str]:
    """Write the shipped fixture algebras and standard modules as JSON."""
    from . import fixtures as fx

    os.makedirs(out_dir, exist_ok=True)
    written = []
    algebras = fx.fixture_algebras()
    for name, alg in algebras.items():
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(algebra_to_json(alg), fh, indent=1, sort_keys=True)
        written.append(path)
        for side in ("left", "right"):
            k = fx.simple_k(alg, side)
            mpath = os.path.join(out_dir, f"{name}_k_{side}.json")
            with open(mpath, "w") as fh:
                json.dump(module_to_json(k, f"{name}.json"), fh, indent=1, sort_keys=True)
            written.append(mpath)
    for var, side in (("x", "right"), ("y", "left")):
        mod = fx.a3_mod_ideal(var, side)
        path = os.path.join(out_dir, f"a3_mod_{var}_{side}.json")
        with open(path, "w") as fh:
            json.dump(module_to_json(mod, "a3.json"), fh, indent=1, sort_keys=True)
        written.append(path)
    return written


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def report_hash(report: dict) -> str:
    """Deterministic hash of a report with timing fields stripped."""
    clean = {k: v for k, v in report.items() if k not in ("timing_seconds", "hash")}
    payload = json.dumps(clean, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
