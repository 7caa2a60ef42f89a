"""Layering: every product mod p goes through ``exactla.mulmod``.

Outside ``exactla`` no module may contract raw arrays with numpy's product
routines, or apply ``@`` to the entry array ``.a`` (or ``.a.T``) of a Matrix:
an int64 product there wraps silently once inner * (p-1)^2 reaches 2^63,
which ``mulmod`` avoids by splitting the inner dimension.
"""

import ast
from pathlib import Path

import homct

FORBIDDEN = {"einsum", "tensordot", "dot", "matmul", "inner"}
SRC = Path(homct.__file__).parent


def _is_entries(node: ast.AST) -> bool:
    """True for ``x.a`` and ``x.a.T``: the raw int64 entries of a Matrix."""
    if isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "a"


def _raw_products(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every np.<product>(...) call, .dot(...) call and @ on Matrix entries."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            if _is_entries(node.left) or _is_entries(node.right):
                hits.append((node.lineno, "@ on .a"))
            continue
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        name = node.func.attr
        owner = node.func.value
        if name in FORBIDDEN and isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
            hits.append((node.lineno, f"np.{name}"))
        elif name == "dot":
            hits.append((node.lineno, ".dot"))
    return sorted(hits)


def test_products_only_in_exactla():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "exactla.py")
    assert len(modules) >= 8
    found = [f"{p.name}:{line} {name}"
             for p in modules
             for line, name in _raw_products(ast.parse(p.read_text(), filename=str(p)))]
    assert found == []


def test_checker_flags_raw_products():
    src = ("import numpy as np\nnp.einsum('i,i->', u, v)\nnp.tensordot(a, b, 1)\nx.dot(y)\n"
           "f.a @ g.a\nf @ g\nr @ m.a.T % p\n")
    assert [name for _, name in _raw_products(ast.parse(src))] == [
        "np.einsum", "np.tensordot", ".dot", "@ on .a", "@ on .a"]
