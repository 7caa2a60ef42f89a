"""Layering: every product mod p goes through ``exactla.mulmod``, and every
elimination through ``exactla``'s public entry points.

Outside ``exactla`` no module may contract raw arrays with numpy's product
routines, or apply ``@`` to the entry array ``.a`` (or ``.a.T``) of a Matrix:
an int64 product there wraps silently once inner * (p-1)^2 reaches 2^63,
which ``mulmod`` avoids by splitting the inner dimension.  Nor may it call
the eliminator's private helpers or build a ``Subspace`` around a basis that
was not eliminated there.  ``cohom`` writes its segment systems in place, with
no np.kron, np.hstack or np.vstack copy, and a subspace's coordinate maps never
build its dense basis.  The chain layer is ``derived``: tensor
differentials, second-argument maps and the tensor chains themselves are
built there and nowhere else.  The elimination counts of one resolution
stage, one homology space, one tower limit and one checked short exact
sequence are pinned, so a change that eliminates a matrix twice fails here;
a homology space over zero differentials eliminates nothing, and a segment
system eliminates each distinct block of its components once;
so are the Hom spaces of a total-acyclicity check.  A resolution builds each
stage differential once and reads its distinct entries once; a compare makes
each homology space and each tensor differential once, although a space lives
only for its degree and a differential until both its homologies are known.  So are the block calls: a
transition of the segments route or of the Benson-Carlson cotower lifts all
its classes with one ``hom_solve``, and a segments transition converts them
back with one ``class_of``; a stage of mu builds one stable-Hom space and
lifts all its classes with one call.  Every comparison lift is
``resolve.lift_chain_map``, the one caller of ``hom_solve`` and the one place
that signs a lift, and ``hom_solve`` takes stacks only.  A solve eliminates m
beside the identity, whatever the width of its right-hand side; a cosyzygy
or syzygy sequence's f and g are eliminated once across all towers of a
compare; a connecting map in Tor or Ext over free projectives builds no part
of the middle chain, and over a non-free projective it is two solves, through
g and through f, for all its classes.  Hom out of a projective has one
coordinate type, ``algmod.hom_coords``, and the
free-map entry form lives in ``algmod``: the Hom subspace is built only
there, ``resolve`` imports no private name from ``algmod``, no module imports
a private name from ``derived``, and ``derived`` calls no np.kron.  The
radical certificate raises only the basis to the p-th power, one stack of
dim A multiplication matrices, and ``_power_elt`` is the one caller of matpow.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import homct
from homct import algmod, derived, exactla, resolve
from homct.algmod import make_group_algebra
from homct.fixtures import a3_mod_x, algebra_a2, algebra_a3, algebra_a4, simple_k

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


# exactla's private eliminator and trusted constructor
PRIVATE_ELIMINATION = {"_rref_array", "_null_rows", "_from_rref"}


def _private_eliminations(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every use of PRIVATE_ELIMINATION and every ``Subspace.__new__``
    or ``__new__(Subspace)``."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):  # from .exactla import ...
            name = node.name
        else:
            name = None
        if name in PRIVATE_ELIMINATION:
            hits.append((node.lineno, name))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__":
            owners = [node.func.value, *node.args[:1]]
            if any(isinstance(o, ast.Name) and o.id == "Subspace" for o in owners):
                hits.append((node.lineno, "Subspace.__new__"))
    return sorted(hits)


def test_eliminations_only_in_exactla():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "exactla.py")
    found = [f"{p.name}:{line} {name}"
             for p in modules
             for line, name in _private_eliminations(ast.parse(p.read_text(), filename=str(p)))]
    assert found == []


def test_checker_flags_private_eliminations():
    src = ("from .exactla import _rref_array\nexactla._null_rows(r, piv, p)\n"
           "Subspace.__new__(Subspace)\nobject.__new__(Subspace)\nSubspace._from_rref(p, n, r, piv)\n"
           "Matrix.__new__(Matrix)\n")
    assert [name for _, name in _private_eliminations(ast.parse(src))] == [
        "_rref_array", "_null_rows", "Subspace.__new__", "Subspace.__new__", "_from_rref"]


# dense copies the segment systems never need: each is written in place
SEGMENT_COPIES = {"kron", "hstack", "vstack"}


def _numpy_copies(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every np.kron, np.hstack and np.vstack call."""
    return sorted((node.lineno, f"np.{node.func.attr}") for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in SEGMENT_COPIES
                  and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy"))


def test_cohom_builds_no_stacked_copies():
    path = SRC / "cohom.py"
    assert _numpy_copies(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_flags_stacked_copies():
    src = ("import numpy as np\nnp.kron(a, b)\nnp.hstack(cols)\nnumpy.vstack(rows)\n"
           "kron(a, b)\nnp.stack(rows)\nx.vstack(rows)\n")
    assert [name for _, name in _numpy_copies(ast.parse(src))] == ["np.kron", "np.hstack", "np.vstack"]


def test_coordinate_maps_never_build_the_dense_basis(monkeypatch):
    built = []
    dense_rows = exactla.Subspace._rows

    def spy(self, idx=slice(None)):
        built.append(self.dim)
        return dense_rows(self, idx)

    s = exactla.Subspace(3, 6, [[1, 2, 0, 1, 0, 2], [0, 0, 1, 2, 0, 1], [0, 0, 0, 0, 1, 1]])
    members = s.from_coords([[1, 2, 0], [2, 2, 1]])
    monkeypatch.setattr(exactla.Subspace, "_rows", spy)
    assert np.array_equal(s.coords(members), [[1, 2, 0], [2, 2, 1]])
    assert not s.reduce(members).any() and s.contains(members) and not s.contains([1, 0, 0, 0, 0, 0])
    assert built == []
    assert s.basis.a.shape == (3, 6) and built == [3]  # built on request only, through _rows


def _calls_by_scope(tree: ast.AST, names: set[str]) -> list[tuple[str, str]]:
    """(enclosing qualname, callee) of every call to one of ``names``, bare or as an attribute."""
    hits = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    hits.append((".".join(scope) or "<module>", name))
            visit(child, scope)

    visit(tree, [])
    return sorted(hits)


def _src_calls(names: set[str]) -> list[tuple[str, str, str]]:
    """(module file, enclosing qualname, callee) over every module of the package."""
    return sorted((p.name, scope, name)
                  for p in SRC.glob("*.py")
                  for scope, name in _calls_by_scope(ast.parse(p.read_text(), filename=str(p)), names))


def test_one_chain_layer():
    # every tensor differential comes from the chain, which first asks whether it is zero
    assert _src_calls({"first_arg_tensor_matrix"}) == [
        ("derived.py", "TensorChain._build", "first_arg_tensor_matrix")]
    # maps in the second argument are built inside derived only
    second = _src_calls({"second_arg_tensor_matrix", "second_arg_ext_matrix"})
    assert second and {module for module, _, _ in second} == {"derived.py"}
    # tensor components come from the chains; the corpus sweep checks the unit law
    assert _src_calls({"tensor_over_algebra"}) == [
        ("cli.py", "run_corpus", "tensor_over_algebra"),
        ("derived.py", "TensorChain.component", "tensor_over_algebra")]


def test_radical_certificate_powers_only_the_basis(monkeypatch):
    # one stack of dim A multiplication matrices raised to the p-th power: the
    # trace chain raised a stack of dim A^2 of them at each level
    assert _src_calls({"matpow"}) == [("algmod.py", "_power_elt", "matpow")]
    powered = []

    def spy(x, e, q, _fn=algmod.matpow):
        powered.append((x.shape, e))
        return _fn(x, e, q)

    monkeypatch.setattr(algmod, "matpow", spy)
    a = make_group_algebra([[i ^ j for j in range(32)] for i in range(32)], 2)  # F_2[(C_2)^5]
    assert a.radical().dim == 31
    assert powered == [((32, 32, 32), 2)]


def _private_imports(source: str) -> list[str]:
    """``file:line name`` of every ``_``-private name imported from the module ``source``."""
    return [f"{p.name}:{node.lineno} {alias.name}"
            for p in SRC.glob("*.py")
            for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
            if isinstance(node, ast.ImportFrom) and node.module == source
            for alias in node.names if alias.name.startswith("_")]


def test_one_hom_coordinate_type():
    assert {module for module, _, _ in _src_calls({"hom_over_algebra"})} == {"algmod.py"}
    assert _private_imports("derived") == []
    assert [hit for hit in _private_imports("algmod") if hit.startswith("resolve.py:")] == []
    path = SRC / "derived.py"
    assert [name for _, name in _numpy_copies(ast.parse(path.read_text(), filename=str(path)))
            if name == "np.kron"] == []


def test_one_lift(monkeypatch):
    # the degree-by-degree lift and its sign (-1)^i live in lift_chain_map; the
    # segment systems negate their entry values as p - v (cohom._placed), no subtraction
    assert _src_calls({"hom_solve"}) == [("resolve.py", "lift_chain_map", "hom_solve")]
    assert _src_calls({"subtract", "scale"}) == [("resolve.py", "lift_chain_map", "subtract")]
    # stacks only: a (1, rows, cols) stack is answered by a stack, a Matrix is not read
    pi = resolve.min_proj_resolution(simple_k(algebra_a2()), 1).cover_map(0)
    lifted = resolve.hom_solve(pi.source, pi.source, pi.matrix, pi.matrix.a[None])
    assert lifted.shape == (1, 3, 3) and np.array_equal(exactla.mulmod(pi.matrix.a, lifted, 2), pi.matrix.a[None])
    with pytest.raises(TypeError):
        resolve.hom_solve(pi.source, pi.source, pi.matrix, pi.matrix)


def test_every_exported_name_exists():
    import importlib

    modules = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert len(modules) >= 8
    for name in modules:
        module = importlib.import_module(f"homct.{name}")
        assert [x for x in getattr(module, "__all__", ()) if not hasattr(module, x)] == [], name


def test_checker_finds_calls_by_scope():
    src = ("f(x)\nclass C:\n    def m(self):\n        mod.f(1)\n        g(f)\n"
           "def h():\n    def inner():\n        return f()\n    return f\n")
    assert _calls_by_scope(ast.parse(src), {"f"}) == [
        ("<module>", "f"), ("C.m", "f"), ("h.inner", "f")]


def _count_eliminations(monkeypatch) -> list:
    shapes = []

    def counted(a, p, _fn=exactla._rref_array):
        shapes.append(a.shape)
        return _fn(a, p)

    monkeypatch.setattr(exactla, "_rref_array", counted)
    return shapes


def test_one_resolution_stage_eliminates_three_matrices(monkeypatch):
    # rad Omega, the top generators' rank profile, ker pi; rad P of the free
    # cover (the check ker pi <= rad P) is read off rad A with no elimination
    a2 = algebra_a2()
    res = resolve.Resolution(simple_k(a2, "right")).extend(1)
    shapes = _count_eliminations(monkeypatch)
    res.extend(2)
    assert len(shapes) == 3


def test_extend_does_not_build_the_next_syzygy(monkeypatch):
    # extend(d) keeps ker pi_d; Omega_{d+1} is induced once, when it is read
    built = []
    induce = resolve.submodule_from_subspace

    def spy(m, span):
        built.append(span.dim)
        return induce(m, span)

    monkeypatch.setattr(resolve, "submodule_from_subspace", spy)
    res = resolve.Resolution(simple_k(algebra_a2(), "right")).extend(2)
    assert built == [2, 4]  # Omega_1 and Omega_2, the modules stages 1 and 2 cover
    omega = res.syzygy(3)
    assert built == [2, 4, 8] and res.depth == 2
    assert res.syzygy(3) is omega and res.syzygy_incl(3).source is omega
    res.extend(3)
    assert built == [2, 4, 8] and res.syzygy(3) is omega


def test_one_tensor_homology_eliminates_two_matrices(monkeypatch):
    # cycles (one-pass kernel) and boundaries; the boundaries' cycle
    # coordinates are an RREF already.  Over A3 the entry y of d_2 and d_3
    # acts on A3/(x) as nonzero, so both differentials are built
    a3 = algebra_a3()
    res = resolve.Resolution(simple_k(a3, "right")).extend(3)
    chain = derived.TensorChain(res, a3_mod_x("left"))
    shapes = _count_eliminations(monkeypatch)
    assert chain.homology(2).dim == 1
    assert len(shapes) == 2


def test_tensor_homology_over_zero_differentials_eliminates_nothing(monkeypatch):
    # over A2 every entry of a minimal differential lies in rad A, which kills k:
    # d_2 and d_3 tensor k are zero, known from their entries, so Z is the whole
    # component and B is zero with no elimination and no matrix built
    a2 = algebra_a2()
    res = resolve.Resolution(simple_k(a2, "right")).extend(3)
    chain = derived.TensorChain(res, simple_k(a2, "left"))
    shapes = _count_eliminations(monkeypatch)
    assert chain.homology(2).dim == 4 and chain.homology(2).sq.unit_classes
    assert len(shapes) == 0 and chain._diffs == {2: None, 3: None}


def test_one_tate_homology_eliminates_two_matrices(monkeypatch):
    # the same rule on a complete resolution; its negative degrees are not
    # free, so their tensor components (one relation elimination each) are
    # built before counting.  With A on the left d_{-1} and d_0 have entries
    # and are eliminated once each; with k they have none, and an entry-free
    # matrix needs no elimination
    a4 = algebra_a4()
    tcx = resolve.complete_resolution(simple_k(a4, "right"), 5)
    for n, dim, eliminated in ((algmod.regular_module(a4, "left"), 0, 2), (simple_k(a4, "left"), 1, 0)):
        chain = derived.TateChain(tcx, n)
        for j in (-2, -1, 0):
            chain.component(j)
        shapes = _count_eliminations(monkeypatch)
        assert chain.homology(-1).dim == dim
        assert len(shapes) == eliminated
        monkeypatch.undo()


def test_one_tower_limit_eliminates_each_composite_once(monkeypatch):
    # stages k = 0..3 give 3 + 2 + 1 composites V_K' -> V_k, each eliminated
    # once (the last of each row by image_basis, whose dim is its rank); the
    # top stage's full space is an RREF already
    from homct import completion

    a2 = algebra_a2()
    tower = completion.cosyzygy_tower(simple_k(a2, "right"), simple_k(a2, "left"), 0, 3)
    shapes = _count_eliminations(monkeypatch)
    report = completion.tower_limit(tower, 2)
    assert report.dims == [1, 4, 16, 64]
    assert len(shapes) == 6


def test_short_exact_seq_eliminates_f_and_g_once(monkeypatch):
    # the exactness check reads the ranks of the solvers that the connecting maps use
    res = resolve.min_proj_resolution(simple_k(algebra_a2()), 2)
    incl, cover = res.syzygy_incl(2), res.cover_map(1)
    shapes = _count_eliminations(monkeypatch)
    ses = derived.ShortExactSeq(incl, cover)
    assert ses.f_solver.rank == 4 and ses.g_solver.rank == 2
    assert shapes == [(6, 10), (2, 8)]


def test_acyclicity_window_builds_each_hom_space_once(monkeypatch):
    # window 3 reads Hom(T_j, A) for j = -4..4; T_j is free for j >= 0 and D(A)^b below,
    # whose four Hom spaces are eliminated
    from homct import algmod

    tcx = resolve.complete_resolution(simple_k(algebra_a4(), "right"), 3)
    coords, subspaces = [], []
    hom_coords, hom_over_algebra = resolve.hom_coords, algmod.hom_over_algebra

    def spy_coords(m, n):
        coords.append(m.dim)
        return hom_coords(m, n)

    def spy_subspace(m, n):
        subspaces.append(m.dim)
        return hom_over_algebra(m, n)

    monkeypatch.setattr(resolve, "hom_coords", spy_coords)
    monkeypatch.setattr(algmod, "hom_over_algebra", spy_subspace)
    assert resolve.check_total_acyclicity_window(tcx, 3).ok
    assert len(coords) == 9 and len(subspaces) == 4


# -- block calls: one solve and one class conversion per transition -------------------


def test_pcomp_transition_is_one_block_call(monkeypatch):
    # A2 stages have dims 1, 4, 16, 64: each transition lifts all its classes
    # with one hom_solve and converts them back with one class_of
    from homct import cohom

    solves, stage_sqs, converted = [], [], []
    hom_solve, init, class_of = resolve.hom_solve, cohom.SegmentStage.__init__, exactla.Subquotient.class_of

    def spy_solve(source, target, post, rhs):
        solves.append(len(rhs))
        return hom_solve(source, target, post, rhs)

    def spy_init(self, *args):
        init(self, *args)
        stage_sqs.append(self.sq)

    def spy_class_of(self, v):
        if any(self is sq for sq in stage_sqs):
            converted.append(len(v))
        return class_of(self, v)

    monkeypatch.setattr(resolve, "hom_solve", spy_solve)
    monkeypatch.setattr(cohom.SegmentStage, "__init__", spy_init)
    monkeypatch.setattr(exactla.Subquotient, "class_of", spy_class_of)
    k = simple_k(algebra_a2())
    assert cohom.pcomp_ext(k, k, 0, 3).dims == [1, 4, 16, 64]
    assert solves == converted == [1, 4, 16]


def test_bc_transition_is_one_block_call(monkeypatch):
    # A2 stages have dims 1, 4, 16, 64: each transition lifts the representatives
    # of all its classes through the covers with one hom_solve
    from homct import cohom

    solves = []
    hom_solve = resolve.hom_solve

    def spy_solve(source, target, post, rhs):
        solves.append(len(rhs))
        return hom_solve(source, target, post, rhs)

    monkeypatch.setattr(resolve, "hom_solve", spy_solve)
    k = simple_k(algebra_a2())
    assert cohom.bc_cotower(k, k, 0, 3).dims() == [1, 4, 16, 64]
    assert solves == [1, 4, 16]


def test_mu_stage_is_one_block_call(monkeypatch):
    # A2 stages have dims 1, 4, 16, 64: each stage of mu builds one stable-Hom
    # space and lifts the representatives of all its classes with one call
    from homct import cohom

    calls = []
    stable_hom, lift_chain_map = cohom.stable_hom, cohom.lift_chain_map

    def spy_stable_hom(m, n):
        calls.append("stable_hom")
        return stable_hom(m, n)

    def spy_lift(maps, *args):
        calls.append(("lift", len(maps)))
        return lift_chain_map(maps, *args)

    monkeypatch.setattr(cohom, "stable_hom", spy_stable_hom)
    monkeypatch.setattr(cohom, "lift_chain_map", spy_lift)
    k = simple_k(algebra_a2())
    assert cohom.mu_stage_check(k, k, 0, 3).ok
    assert calls == [x for dim in (1, 4, 16, 64) for x in ("stable_hom", ("lift", dim))]


def test_connecting_ext_on_non_free_projective_is_two_solves(monkeypatch):
    # T_2(F_3), upper triangular 2 x 2 matrices: P_0 covers a simple and is not
    # free; m = S + S gives the connecting map of the syzygy sequence two classes,
    # lifted through g and pulled back through f with one solve each
    from homct.algmod import Algebra, direct_sum, simple_modules

    struct = np.zeros((3, 3, 3), dtype=np.int64)
    for (i, j), c in {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}.items():
        struct[i, j, c] = 1
    s = simple_modules(Algebra(3, struct, [1, 0, 1]), "left")[0]
    m = direct_sum([s, s])
    assert resolve.min_proj_resolution(m, 1).proj(0).free_rank is None
    res = resolve.min_proj_resolution(s, 2)
    ses = derived.ShortExactSeq(res.syzygy_incl(1), res.cover_map(0))
    solves = []
    solve_matrix = derived.solve_matrix

    def spy_solve(m, rhs):
        solves.append(rhs.cols)
        return solve_matrix(m, rhs)

    monkeypatch.setattr(derived, "solve_matrix", spy_solve)
    delta = derived.connecting_ext(ses, m, 0)
    assert delta.a.tolist() == [[1, 0], [0, 1]] and solves == [2, 2]


# -- snake maps: each sequence's f and g eliminated once, no middle chain --------------


def test_solve_matrix_eliminates_m_beside_the_identity(monkeypatch):
    # one elimination of [m | I], m.rows x (m.cols + m.rows), whatever the width of rhs
    m = exactla.Matrix(3, [[1, 2, 0], [0, 1, 1], [1, 0, 2], [2, 2, 2], [0, 0, 1]])
    shapes = _count_eliminations(monkeypatch)
    for width in (0, 1, 7, 40):
        exactla.solve_matrix(m, exactla.Matrix.zeros(3, 5, width))
    assert shapes == [(5, 8)] * 4


def test_a2_segment_systems_eliminate_each_distinct_block_once(monkeypatch):
    # A2 stage 3: the cocycle system is 384 x 960 with 192 components in 2 distinct blocks,
    # the coboundary system 2016 x 960 with 352 components in 3 (256 of 1 x 1, 64 of 3 x 3
    # and 32 of 7 x 6); each block is eliminated once and no core is left (one 256 x 320
    # and one 672 x 640 core were eliminated whole)
    from homct import cohom

    k = simple_k(algebra_a2())
    res = resolve.min_proj_resolution(k, 6).extend(6)
    shapes, systems = _count_eliminations(monkeypatch), {}
    for name in ("kernel", "row_space"):
        def spy(self, _fn=getattr(exactla.SparseMatrix, name), _name=name):
            start = len(shapes)
            out = _fn(self)
            systems[_name] = sorted(shapes[start:])
            return out

        monkeypatch.setattr(exactla.SparseMatrix, name, spy)
    assert cohom.SegmentStage(res, res, 0, 3).dim == 64
    assert systems == {"kernel": [(1, 1), (2, 3)], "row_space": [(1, 1), (3, 3), (7, 6)]}


def test_pcomp_and_compare_leave_numpy_ma_unimported(tmp_path):
    # np.unique with no optional output imports numpy.ma (numpy 2.4 calls np.ma.is_masked),
    # about 10 ms and 1 MiB in every process; a fresh child that runs A2 pcomp at K = 3 and
    # an F_3[C_3 x C_3] compare never imports it
    import os
    import subprocess
    import sys

    from test_golden import write_c3c3_inputs

    args = ["compare", *write_c3c3_inputs(tmp_path), "--degrees=-3..3", "--depth", "6",
            "--out", str(tmp_path / "report.json")]
    child = ("import sys\n"
             "from homct import cli\n"
             "from homct.fixtures import algebra_a2, simple_k\n"
             "from homct.stablecmp import stable_homology_via_duality\n"
             "a2 = algebra_a2()\n"
             "rep = stable_homology_via_duality(simple_k(a2, 'right'), simple_k(a2, 'left'), 0, 3)\n"
             "assert rep.dims == [1, 4, 16, 64]\n"
             "assert cli.main(sys.argv[1:]) == 0\n"
             "print([m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']])\n")
    src = os.path.dirname(os.path.dirname(homct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", child, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _c3c3_compare(tmp_path, degrees: str, depth: int):
    """Run ``compare`` over F_3[C_3 x C_3] with k on both sides; return the algebra."""
    from test_golden import write_c3c3_inputs

    from homct import cli, schemas

    args = write_c3c3_inputs(tmp_path)
    code = cli.main(["compare", *args, f"--degrees={degrees}", "--depth", str(depth),
                     "--out", str(tmp_path / "report.json")])
    assert code == 0
    return schemas.parse_algebra_file(args[1])


def test_compare_eliminates_each_cosyzygy_sequence_once(tmp_path, monkeypatch):
    # compare over F_3[C_3 x C_3] runs towers in degrees -1, 0, 1 over the
    # cosyzygy sequences k = 1..4; each f and each g is eliminated once in all
    from homct import completion

    monkeypatch.setattr(resolve, "_memo", {})
    solved = []

    class Spy(exactla.Solver):
        __slots__ = ()

        def __init__(self, m):
            solved.append(m)
            super().__init__(m)

    monkeypatch.setattr(derived, "Solver", Spy)
    a = _c3c3_compare(tmp_path, "-1..1", 3)
    inj = completion.min_inj_resolution(simple_k(a, "left"), 4)
    for k in range(1, 5):
        *_, incl, proj = inj.cosyzygy_ses(k)
        assert [sum(x is y.matrix for x in solved) for y in (incl, proj)] == [1, 1], k


def test_compare_eliminates_each_syzygy_sequence_once(monkeypatch):
    # A2 compare at degrees -1..1 runs the duality route's Ext cotowers over the
    # syzygy sequences of D k, k = 1..4, nine times in all across the three
    # degrees; each f and each g is eliminated once
    from homct import cli, schemas
    from homct.algmod import dual_module

    monkeypatch.setattr(resolve, "_memo", {})
    solved = []

    class Spy(exactla.Solver):
        __slots__ = ()

        def __init__(self, m):
            solved.append(m)
            super().__init__(m)

    monkeypatch.setattr(derived, "Solver", Spy)
    fx = Path(__file__).resolve().parent.parent / "fixtures"
    req = cli.ComputeRequest(str(fx / "a2.json"), str(fx / "a2_k_right.json"), str(fx / "a2_k_left.json"),
                             "compare", -1, 1, 3, 2, 0)
    assert cli.run_compute(req)["failures"] == []
    dn_op = dual_module(schemas.parse_module_file(str(fx / "a2_k_left.json"))).as_left_over_opposite()
    res = resolve.min_proj_resolution(dn_op, 5)
    for k in range(1, 5):
        assert [sum(x is y.matrix for x in solved) for y in (res.syzygy_incl(k), res.cover_map(k - 1))] == [1, 1], k


def test_connecting_tor_builds_no_middle_chain(monkeypatch):
    # on free P the snake reads the sequence's operators: the middle chain's
    # components and differentials are never built.  Over A4, P tensor Omega^1 k
    # has nonzero differentials, which the snake's class spaces read; over A2
    # every chain's differentials are zero, so no tensor differential is built
    built = []
    first_arg = derived.first_arg_tensor_matrix

    def spy(d, src, tgt, n):
        built.append(n.fingerprint())
        return first_arg(d, src, tgt, n)

    monkeypatch.setattr(derived, "first_arg_tensor_matrix", spy)
    for a, k, shapes, builds in ((algebra_a4(), 1, [(1, 1), (1, 1), (1, 1)], True),
                                 (algebra_a2(), 2, [(2, 8), (4, 16), (8, 32)], False)):
        monkeypatch.setattr(resolve, "_memo", {})
        built.clear()
        k_r = simple_k(a, "right")
        *_, incl, proj = resolve.min_inj_resolution(simple_k(a, "left"), 3).cosyzygy_ses(k)
        ses = derived.ShortExactSeq(incl, proj)
        assert [derived.connecting_tor(ses, k_r, i).a.shape for i in (1, 2, 3)] == shapes
        assert bool(built) == builds and ses.middle.fingerprint() not in built
        assert ("tensor", k_r.fingerprint(), ses.middle.fingerprint()) not in resolve._memo


# -- lifetimes: stage differentials built once, chain data freed once read -------------


def test_compare_builds_each_stage_differential_once(tmp_path, monkeypatch):
    # compare over F_3[C_3 x C_3] at degrees -3..3 and depth 6 reads the resolutions'
    # differentials 110 times over 16 stages: one map per stage, and the distinct
    # algebra entries of each map that the zero test reads are found once, 10 in all
    from homct import algmod

    monkeypatch.setattr(resolve, "_memo", {})
    read, distinct = [], []
    differential, distinct_entries = resolve.Resolution.differential, algmod._distinct_entries

    def spy_differential(self, k):
        read.append(differential(self, k))
        return read[-1]

    def spy_distinct(entries):
        distinct.append(entries.shape)
        return distinct_entries(entries)

    monkeypatch.setattr(resolve.Resolution, "differential", spy_differential)
    monkeypatch.setattr(algmod, "_distinct_entries", spy_distinct)
    _c3c3_compare(tmp_path, "-3..3", 6)
    assert len(read) == 110 and len({id(d) for d in read}) == 16
    assert len(distinct) == 10


def test_compare_frees_chain_data_once_read(tmp_path, monkeypatch):
    # the same run makes 56 homology spaces and builds 55 tensor differentials, as
    # when nothing was freed: no degree reads another degree's homology, and no
    # differential is read after both its homologies are known.  Every degree end
    # leaves no homology space on any chain, and a freed differential is rebuilt
    # bit for bit when a reader asks for it
    from homct import cli

    monkeypatch.setattr(resolve, "_memo", {})
    made, chains, first, ends = [], {}, {}, []
    homology, build, scoped, end_degree = derived._homology, derived.TensorChain._build, derived._degree_scoped, cli.end_degree

    def spy_homology(*args):
        made.append(args[0])
        return homology(*args)

    def spy_build(self, j):
        d = build(self, j)
        if d is not None:
            first.setdefault((id(self), j), d.to_matrix().a.copy())
        return d

    def spy_scoped(chain, i):
        chains[id(chain)] = chain
        scoped(chain, i)

    def spy_end():
        held = sum(len(c._homology) for c in chains.values())
        end_degree()
        ends.append((held, sum(len(c._homology) for c in chains.values())))

    monkeypatch.setattr(derived, "_homology", spy_homology)
    monkeypatch.setattr(derived.TensorChain, "_build", spy_build)
    monkeypatch.setattr(derived, "_degree_scoped", spy_scoped)
    monkeypatch.setattr(cli, "end_degree", spy_end)
    _c3c3_compare(tmp_path, "-3..3", 6)
    assert len(made) == 56 and len(first) == 55
    assert len(ends) == 7 and all(held > 0 and left == 0 for held, left in ends)
    freed = 0
    for chain in chains.values():
        for j, d in chain._diffs.items():
            assert d is None or not chain._known.issuperset(chain._sides(j))
        for (key, j), d in first.items():
            if key == id(chain) and j not in chain._diffs:
                freed += 1
                assert np.array_equal(chain.differential(j).a, d) and j not in chain._diffs
    assert freed > 0


def test_compare_holds_chain_differentials_in_entry_form(tmp_path, monkeypatch):
    # the same run holds its nonzero tensor differentials by their entries, never as dense
    # matrices: each homology eliminates only the core of the one it reads, so the traced
    # peak stays under 10 MiB (11.9 MiB when every built differential was held dense)
    import tracemalloc

    from homct import cli  # noqa: F401  (imported before tracing starts)

    monkeypatch.setattr(resolve, "_memo", {})
    chains, scoped = {}, derived._degree_scoped

    def spy_scoped(chain, i):
        chains[id(chain)] = chain
        scoped(chain, i)

    monkeypatch.setattr(derived, "_degree_scoped", spy_scoped)
    tracemalloc.start()
    try:
        _c3c3_compare(tmp_path, "-3..3", 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = [d for chain in chains.values() for d in chain._diffs.values() if d is not None]
    assert held and all(isinstance(d, exactla.SparseMatrix) for d in held)
    assert peak < 10 * 2**20, peak / 2**20
