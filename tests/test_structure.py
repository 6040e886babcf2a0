"""Module-stack rules of `src/iwasawalab`, checked on the syntax tree:

- no `assert` statement, since `python -O` strips it from a check;
- no `raise AssertionError`: an internal check raises InternalCheckError,
  which the CLI reports with its own exit code;
- no `import` inside a function body, the usual way round an import cycle;
- no call to `__import__`;
- no import of `dataclasses`: it loads `inspect`, `ast`, `dis` and
  `tokenize`, and its decorators generate methods with `exec`, which
  together took about two thirds of `import iwasawalab` from cached byte
  code (a fresh child process checks that the import loads neither it nor
  `inspect`);
- no private name taken from a sibling module by `from .x import _name`;
- no name but `vp` taken from `padic` by a module outside P_ADIC_MODULES:
  the others (`quadfield`, `rayclass`, `abgroup`, `ntheory`) are exact
  algebra, and the valuation of an integer is all they read of `padic`;
- no module-level function, class or method that no code of `src/` refers
  to outside its own definition (a dead path), but those of CALLED_BY_NAME:
  a use by the tests or the benchmark alone, or a mention in a string or a
  comment, does not keep a definition live;
- no name bound by a module-level import that its module never uses, in
  `src/` and in the test modules of `tests/` alike;
- no `X.__new__(...)` call outside a `__new__` method, which would build
  an object round its constructor;
- no `Fraction(...)` call outside the input points of FRACTION_INPUTS: the
  engine computes on integers, and a Fraction is built only where a value
  comes in or where a field element is read back as rational coordinates;
- no definition, import or binding of a name of REFERENCE_ONLY, whose
  definitions live in `tests/oracles.py` as the tests' reference.
- no reader of `ntheory.extgcd` but those of EXTGCD_READERS, the one
  Hermite kernel `abgroup.hermite_form`: a second Hermite fold, such as
  the 2-column one that quadfield's ideals once ran, would read it.
- no module-level or class-level binding of a mutable container (a
  display, a comprehension or a `dict()`, `list()` or `set()` call) but
  those of MUTABLE_BINDINGS: a memo table is a `functools.lru_cache`, which
  reports its hits, misses and size and can be cleared;
- no memo that keeps every entry: each `lru_cache` writes out a positive
  int `maxsize`, and no function is decorated with `functools.cache`.
- no memo table but those of MEMOS: the `lru_cache`-decorated functions
  of `src/` are exactly the ones it names, so a new memo is declared there
  with its bound, and `tests/oracles.py` empties each one.
- no function or class defined twice in one module or class body, in
  `src/`, `tests/` and `bench/` alike: the second definition replaces the
  first without a warning, and a test helper so shadowed checks against
  the wrong reference.
- no dunder method that no frame of `src/` calls, but those of
  DUNDERS_NOT_CALLED_FROM_SRC, each with its reason: the liveness rule
  above cannot see a dunder, which the language calls by its operator, so
  an in-process probe runs the golden CLI calls and one call of each
  export with every dunder of `src/` wrapped, and records which ones a
  frame of `src/` called.
- no function or method of `src/` that neither the golden CLI calls nor
  the seed-1 batches of the benchmark's workloads enter, but those of
  EXPORT_ONLY, each with the export that needs it: a global trace
  function records each code object entered on that run, so a definition
  that enters or leaves the set fails until the table is updated.

Besides, `iwasawalab.__all__` names exactly what `__init__.py` imports.
"""

import ast
import contextlib
import functools
import importlib.util
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import iwasawalab
from iwasawalab.cli import main
from oracles import MEMO_TABLES, empty_memos, load_bench
from test_golden import CASES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "iwasawalab"
MODULES = sorted(SRC.glob("*.py"))
TEST_MODULES = sorted((ROOT / "tests").glob("*.py"))
BENCH_MODULES = sorted((ROOT / "bench").glob("*.py"))


# Class.method names, where a Fraction may be built
FRACTION_INPUTS = {
    "FieldElement.x", "FieldElement.y", "FieldElement.norm",
    "PAdicNumber.exact", "PAdicNumber.of",
}

# names defined in tests/oracles.py that no module of src/ may define,
# import or bind: the engine reads integer residues, not these objects,
# and reads relation lattices off coordinates, with no congruence solver
REFERENCE_ONLY = {
    "PAdicObject", "UnramifiedQuadElem", "val_and_unit", "angle", "plog", "log_ratio",
    "angle_log", "solve_dlog", "s_unit_basis", "inertia_rank",
    "same_kummer_extension", "degree_zero_pair_element", "kernel_basis",
    "_column_lattice_basis", "solve_congruence_lattice",
    "degree_kernel_lattice", "exact_smith_form", "hnf_pairs",
    "subgroup_lattice",
}

# the modules of src/ that compute on p-adic numbers, and so may take from
# padic more than vp
P_ADIC_MODULES = {
    "__init__.py", "padic.py", "residues.py", "classfield.py", "localize.py",
    "iwasawa.py", "kummer.py", "cli.py",
}

# Class.method names that a library calls by name, not code of src/:
# argparse reports a bad command line through ArgumentParser.error
CALLED_BY_NAME = {"_Parser.error"}

# module- and class-level names that may be bound to a mutable container:
# the export list alone
MUTABLE_BINDINGS = {"__all__"}

# Class.method of each dunder of src/ that no frame of src/ calls on the
# probe of test_every_dunder_is_called_from_src, with the reason it stays
DUNDERS_NOT_CALLED_FROM_SRC = {
    **dict.fromkeys(
        ["FieldElement.__%s__" % op
         for op in ("add", "neg", "sub", "rmul")],
        "field arithmetic of an exported value type"),
    **dict.fromkeys(
        ["FieldElement.__hash__",
         "GroupElement.__eq__", "GroupElement.__hash__",
         "SplittingReport.__eq__", "SplittingReport.__hash__"],
        "value type: test_value_types holds it to its dataclass twin"),
    **dict.fromkeys(["RealQuadraticField.__repr__", "IntegralIdeal.__repr__"],
                    "the display of an exported value"),
    **dict.fromkeys(
        ["%s.__reduce__" % cls for cls in (
            "RealQuadraticField", "FieldElement", "IntegralIdeal",
            "SUnitBasisEntry")],
        "pickle and copy call it"),
    **dict.fromkeys(["Frozen.__setattr__", "Frozen.__delattr__"],
                    "refuses to change a value type, which no src/ code "
                    "tries"),
}

# module.Class.function of each function and method of src/ that the golden
# CLI calls and the seed-1 batches of the benchmark never enter, but those
# of CALLED_BY_NAME, with the export that needs it named first
_ON_FIELD_ELEMENTS = "kummer_rank on field elements, through SUnitBasisData"
_ENTRIES_COMPARED = ("kummer_rank on formal products over bases built "
                     "apart, which compares their entries")
EXPORT_ONLY = {
    "abgroup.GroupElement.__eq__": "GroupElement: equality of a value type",
    "abgroup.GroupElement.__hash__": "GroupElement: hash of a value type",
    "abgroup.matrix_rank": "kummer_rank on field elements, the rank of "
                           "their exponent matrix",
    "abgroup.relation_lattice": _ON_FIELD_ELEMENTS,
    "iwasawa.is_inert_in_cyclotomic": "is_inert_in_cyclotomic itself",
    "kummer._support_primes": _ON_FIELD_ELEMENTS,
    "kummer.kummer_rank": "kummer_rank itself",
    "kummer.verify_alpha": "verify_alpha itself",
    "localize.RankReport.__init__": "RankReport, which kummer_rank returns",
    "localize._loc_rows": "loc and is_loc_torsion",
    "localize.is_loc_torsion": "is_loc_torsion itself",
    "localize.loc": "loc itself",
    "localize.zp_matrix_rank": "kummer_rank on formal products",
    "ntheory.Frozen.__delattr__":
        "FieldElement and the other value types: refuses a change",
    "ntheory.Frozen.__setattr__":
        "FieldElement and the other value types: refuses a change",
    "quadfield.FieldElement.__add__": "FieldElement arithmetic",
    "quadfield.FieldElement.__eq__": _ENTRIES_COMPARED,
    "quadfield.FieldElement.__hash__": "FieldElement: hash of a value type",
    "quadfield.FieldElement.__neg__": "FieldElement arithmetic",
    "quadfield.FieldElement.__pow__": _ON_FIELD_ELEMENTS,
    "quadfield.FieldElement.__reduce__": "FieldElement: pickle and copy",
    "quadfield.FieldElement.__sub__": "FieldElement arithmetic",
    "quadfield.FieldElement.conj": "FieldElement arithmetic",
    "quadfield.FieldElement.inv": _ON_FIELD_ELEMENTS,
    "quadfield.IntegralIdeal.__reduce__": "IntegralIdeal: pickle and copy",
    "quadfield.IntegralIdeal.__repr__": "IntegralIdeal: its display",
    "quadfield.IntegralIdeal.conj": _ON_FIELD_ELEMENTS,
    "quadfield.RealQuadraticField.__reduce__":
        "RealQuadraticField: pickle and copy",
    "quadfield.RealQuadraticField.__repr__":
        "RealQuadraticField: its display",
    "quadfield.RealQuadraticField.one": "RealQuadraticField: its unit",
    "quadfield.SUnitBasisData.__init__": _ON_FIELD_ELEMENTS,
    "quadfield.SUnitBasisData.decompose": _ON_FIELD_ELEMENTS,
    "quadfield.SUnitBasisEntry.__eq__": _ENTRIES_COMPARED,
    "quadfield.SUnitBasisEntry.__reduce__":
        "SUnitBasisData: pickle and copy of its entries",
    "quadfield.SplittingReport.__eq__":
        "factor_rational_prime: equality of the report it returns",
    "quadfield.SplittingReport.__hash__":
        "factor_rational_prime: hash of the report it returns",
    "quadfield._log_abs_max": _ON_FIELD_ELEMENTS,
    "quadfield.unit_decompose": _ON_FIELD_ELEMENTS,
}

# module.function of each reader of ntheory.extgcd in src/: the one
# Hermite kernel, whose extended gcds every lattice of src/ goes through
EXTGCD_READERS = {"abgroup.hermite_form"}

# module.function of each memo table of src/: the per-field class groups,
# the log-series inverses, the record of each log<n> of (n, p), log(1+p)
# among them, and the one record of (K, p) state, its ray class tower
MEMOS = {
    "quadfield.class_group", "classfield.log_record", "padic._log_inverses",
    "rayclass.ray_class_tower",
}


def _trees(paths=None):
    """(file name, syntax tree) of each module of `paths`, by default those
    of `src/`."""
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in (MODULES if paths is None else paths)]


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _where(name, node):
    return "%s:%d" % (name, node.lineno)


def test_modules_found():
    assert len(MODULES) >= 10


def test_no_assert_statement():
    found = [_where(name, node) for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_raise_assertion_error():
    found = [_where(name, node) for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Raise)
             and node.exc is not None
             and "AssertionError" in {
                 n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}]
    assert found == []


def test_no_import_inside_a_function():
    found = sorted({_where(name, node) for name, tree in _trees()
                    for fn in _functions(tree) for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))})
    assert found == []


def test_no_dunder_import_call():
    found = [_where(name, node) for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name)
             and node.func.id == "__import__"]
    assert found == []


def test_no_dataclasses_import():
    found = [_where(name, node) for name, tree in _trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(
                 alias.name.split(".")[0] == "dataclasses"
                 for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and node.module == "dataclasses"]
    assert found == []


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_import_loads_neither_dataclasses_nor_inspect(flags):
    """A fresh interpreter, with no site modules (-S) so that only the
    package's own imports count, plain and under -O."""
    code = ("import sys, iwasawalab\n"
            "print(iwasawalab.__file__)\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", *flags, "-c", code],
                         env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout.splitlines()
    assert Path(out[0]).resolve() == SRC / "__init__.py"
    assert out[1] == "[]"


def test_no_private_name_from_a_sibling_module():
    found = ["%s %s" % (_where(name, node), alias.name)
             for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_exact_algebra_takes_only_vp_from_padic():
    found = ["%s %s" % (_where(name, node), alias.name)
             for name, tree in _trees() if name not in P_ADIC_MODULES
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level > 0
             for alias in node.names
             if node.module == "padic" and alias.name != "vp"
             or node.module is None and alias.name == "padic"]
    assert found == []


def _definitions(tree):
    """(qualified name, node) of the module-level functions and classes,
    and of the methods of those classes; dunder methods are called by the
    language, not by name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not re.fullmatch(r"__\w+__", item.name):
                    yield "%s.%s" % (node.name, item.name), item


def _references(tree):
    """(kind, name, node) for each reference of a module: ("name", n) for a
    loaded name, an imported name or an entry of `__all__`, ("attr", n) for
    an attribute.  Strings and comments refer to nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield "name", node.id, node
        elif isinstance(node, ast.Attribute):
            yield "attr", node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield "name", alias.name, node
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            for elt in node.value.elts:
                yield "name", elt.value, elt


def test_extgcd_is_read_by_the_hermite_kernel_alone():
    """Each load of `extgcd`, or of a name it is imported as, and each
    `.extgcd` attribute in `src/` lies in a function of EXTGCD_READERS,
    named by the module and the function or method around it (the module
    alone outside them, or in a dunder method)."""
    readers = set()
    for name, tree in _trees():
        names = {"extgcd"} | {alias.asname for node in ast.walk(tree)
                              if isinstance(node, ast.ImportFrom)
                              for alias in node.names
                              if alias.name == "extgcd" and alias.asname}
        scopes = [(qualname, {id(n) for n in ast.walk(node)})
                  for qualname, node in _definitions(tree)
                  if not isinstance(node, ast.ClassDef)]
        for _, n, ref in _references(tree):
            if n in names and isinstance(ref, (ast.Name, ast.Attribute)):
                around = [q for q, inside in scopes if id(ref) in inside]
                readers.add(".".join([name[:-3]] + around[-1:]))
    assert readers == EXTGCD_READERS


def test_every_definition_is_named_elsewhere():
    """A module-level function or class is live when code of `src/` loads
    it, imports it or lists it in `__all__`; a method, when an attribute of
    that name is read; either outside its own definition, so a recursion
    does not keep a definition live.  A use by the tests or the benchmark
    alone does not either."""
    refs, defs = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        refs.extend(_references(tree))
        defs.extend((path.name, qualname, node)
                    for qualname, node in _definitions(tree))
    found = []
    for name, qualname, node in defs:
        kind = "attr" if "." in qualname else "name"
        inside = {id(n) for n in ast.walk(node)}
        if qualname not in CALLED_BY_NAME and not any(
                k == kind and n == node.name and id(ref) not in inside
                for k, n, ref in refs):
            found.append("%s %s" % (_where(name, node), qualname))
    assert found == []


def _dunders_not_called_from(modules, run):
    """Class.name of each dunder method that a class of `modules` defines
    in its body and that no frame of their files calls while `run()` runs:
    each is wrapped for the run, and the wrapper reads its caller's
    frame."""
    files = {module.__file__ for module in modules}
    defined, called = set(), set()

    def wrapped(key, fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if sys._getframe(1).f_code.co_filename in files:
                called.add(key)
            return fn(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for module in modules:
            for cls in vars(module).values():
                if not (isinstance(cls, type)
                        and cls.__module__ == module.__name__):
                    continue
                for name, fn in list(vars(cls).items()):
                    if re.fullmatch(r"__\w+__", name) \
                            and isinstance(fn, types.FunctionType):
                        key = "%s.%s" % (cls.__name__, name)
                        defined.add(key)
                        patch.setattr(cls, name, wrapped(key, fn))
        run()
    return defined - called


def _export_calls():
    """{name: call}: one call of each export of iwasawalab, on small inputs
    over Q(sqrt 79) at p = 3 (p = 5 for the Leopoldt defect)."""
    L = iwasawalab
    K = L.RealQuadraticField(79)
    q2, q5 = (L.factor_rational_prime(K, n).ideals[0] for n in (2, 5))
    x, y = L.FieldElement(K, 3, 1), L.FieldElement(K, 10)
    QQ = L.RealQuadraticField.rationals()
    primes = [L.rational_ideal(QQ, 2), L.rational_ideal(QQ, 5)]
    # products over bases built apart: kummer_rank compares their entries
    u, v = (L.SUnitProduct(L.SUnitBasisData(QQ, primes).entries, 3, e, 4)
            for e in ([0, 1, 0], [0, 1, 1]))
    G, g = L.FiniteAbelianGroup([3, 9]), L.GroupElement((1, 2))
    gal = L.group_G(K, 3, 2)
    mq = L.mq_order(K, 3, (q2, q5), 2)
    alpha = L.construct_alpha(K, 3, (q2, q5), 2).alpha
    rep = L.leopoldt_defect(K, 5, 8)
    return {
        "PAdicNumber": lambda: L.PAdicNumber(5, 0, 2, 3),
        "PrecisionError": lambda: L.PrecisionError("below precision"),
        "teichmueller": lambda: L.teichmueller(L.PAdicNumber.of(2, 5, 3)),
        "InternalCheckError": lambda: L.InternalCheckError("check failed"),
        "FiniteAbelianGroup": lambda: L.FiniteAbelianGroup([3, 9]),
        "GroupElement": lambda: L.GroupElement((1, 2)),
        "smith_normal_form":
            lambda: L.smith_normal_form([[2, 4], [6, 8]], modulus=8),
        "smith_presentation":
            lambda: L.smith_presentation([[3, 0], [0, 9]], 2, modulus=27),
        "element_order": lambda: L.element_order(G, g),
        "subgroup_image_order": lambda: L.subgroup_image_order(G, [g]),
        "decompose_abelian": lambda: L.decompose_abelian(
            list(range(6)), lambda a, b: (a + b) % 6, 0),
        "RealQuadraticField": lambda: L.RealQuadraticField(79),
        "FieldElement": lambda: L.FieldElement(K, 3, 1),
        "IntegralIdeal": lambda: L.IntegralIdeal(K, q2.a, q2.b, q2.c),
        "SUnitBasisData": lambda: L.SUnitBasisData(K, [q2, q5]),
        "SUnitProduct": lambda: L.SUnitProduct(alpha.entries, 3,
                                               alpha.exponents, 2),
        "factor_rational_prime": lambda: L.factor_rational_prime(K, 5),
        "class_group": lambda: L.class_group(K),
        "fundamental_unit": lambda: L.fundamental_unit(K),
        "principal_generator": lambda: L.principal_generator(q2**3),
        "ray_class_group": lambda: L.ray_class_group(K, 1003, 3),
        "ideal_valuation": lambda: L.ideal_valuation(x, q2),
        "prime_ideals_above": lambda: L.prime_ideals_above(K, 5),
        "rational_ideal": lambda: L.rational_ideal(K, 7),
        "RankReport": lambda: L.RankReport(1, True),
        "completions_above_p": lambda: L.completions_above_p(K, 3),
        "loc": lambda: L.loc(alpha, L.completions_above_p(K, 3)[0], 3, 2),
        "is_loc_torsion": lambda: L.is_loc_torsion(x, q5, 3, 2),
        "eq_membership": lambda: L.eq_membership(alpha, (q2, q5)),
        "GaloisGroupG": lambda: L.GaloisGroupG(
            K, 3, 2, gal.top, gal.group, gal.ambient_hom),
        "group_G": lambda: L.group_G(K, 3, 2),
        "frobenius_image": lambda: L.frobenius_image(gal, q2),
        "e_of_q": lambda: L.e_of_q(q2, 3),
        "even_criterion": lambda: L.even_criterion(K, 3, q2, 2),
        "FrobeniusModuleReport": lambda: L.FrobeniusModuleReport(
            K, 3, 2, q2, q5, mq.a1, 1, mq.degree_zero_margin),
        "LeopoldtReport": lambda: L.LeopoldtReport(
            K, 5, 8, rep.defect, rep.regulator_valuation, rep.status,
            rep.standing_assumption),
        "is_inert_in_cyclotomic":
            lambda: L.is_inert_in_cyclotomic(q2, K, 3),
        "mq_generator": lambda: L.mq_generator(K, 3, (q2, q5), 2),
        "mq_order": lambda: L.mq_order(K, 3, (q2, q5), 2),
        "leopoldt_defect": lambda: L.leopoldt_defect(K, 5, 8),
        "greenberg_wiles": lambda: L.greenberg_wiles(0, 1, [(0, 0)]),
        "defect_never_one_scan":
            lambda: L.defect_never_one_scan(50, [3], 8),
        "KummerCertificate":
            lambda: L.KummerCertificate(alpha, K, 3, 2, (q2, q5)),
        "construct_alpha": lambda: L.construct_alpha(K, 3, (q2, q5), 2),
        "verify_alpha": lambda: L.verify_alpha(alpha, K, 3, (q2, q5), 2),
        "kummer_rank": lambda: (L.kummer_rank([x, y], K, 3),
                                L.kummer_rank([u, v], QQ, 3)),
    }


def _probe():
    """The golden CLI calls from emptied memos, then one call of each
    export."""
    empty_memos()
    for name, code, argv in CASES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == code, name
    calls = _export_calls()
    assert sorted(calls) == sorted(iwasawalab.__all__)
    for call in calls.values():
        call()


def test_every_dunder_is_called_from_src(monkeypatch):
    """Each dunder of src/ is called from a frame of src/ on the probe, or
    is one of DUNDERS_NOT_CALLED_FROM_SRC, which names no other."""
    monkeypatch.delenv("IWASAWA_LAB_PRECISION", raising=False)
    modules = [importlib.import_module("iwasawalab." + path.stem)
               for path in MODULES if path.stem != "__init__"]
    assert _dunders_not_called_from(modules, _probe) == \
        set(DUNDERS_NOT_CALLED_FROM_SRC)


def test_dunder_probe_catches_an_operator_only_its_caller_calls(tmp_path):
    """Of a class whose module calls its + and whose - only the caller of
    the probe calls, the probe reports __sub__ alone."""
    path = tmp_path / "numbers_probed.py"
    path.write_text("class Number:\n    def __init__(self, n):\n"
                    "        self.n = n\n\n"
                    "    def __add__(self, other):\n"
                    "        return Number(self.n + other.n)\n\n"
                    "    def __sub__(self, other):\n"
                    "        return Number(self.n - other.n)\n\n\n"
                    "def double(x):\n    return x + x\n")
    spec = importlib.util.spec_from_file_location("numbers_probed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    one, two = module.Number(1), module.Number(2)
    assert _dunders_not_called_from(
        [module], lambda: (module.double(one), two - one)) == \
        {"Number.__sub__"}


def _never_entered(modules, run):
    """module.Class.function of each function of `modules` at module level,
    and each method of a class there, dunders included, whose code no frame
    enters while `run()` runs: a global trace function records the code of
    each frame entered, and turns down tracing inside it."""
    entered = set()

    def enter(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        run()
    finally:
        sys.settrace(previous)
    seen = {(code.co_filename, code.co_qualname) for code in entered}
    never = set()
    for module in modules:
        stem = module.__name__.rpartition(".")[2]
        for node in ast.parse(Path(module.__file__).read_text()).body:
            inside = node.body if isinstance(node, ast.ClassDef) else [node]
            for item in inside:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                qualname = item.name if item is node else \
                    "%s.%s" % (node.name, item.name)
                if (module.__file__, qualname) not in seen:
                    never.add("%s.%s" % (stem, qualname))
    return never


def _cli_and_workloads():
    """The golden CLI calls, then the seed-1 batch of each workload of the
    benchmark answered in process, each from emptied memos."""
    workloads = load_bench("workloads")
    empty_memos()
    for name, code, argv in CASES:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(argv)) == code, name
    for workload in workloads.WORKLOADS:
        empty_memos()
        for query in workloads.batch(workload, 1):
            workloads.answer(iwasawalab, query)
    empty_memos()


def test_every_definition_the_cli_and_the_workloads_skip_is_pinned(
        monkeypatch):
    """Each function and method of src/ that _cli_and_workloads never
    enters, but those of CALLED_BY_NAME, is one of EXPORT_ONLY, which names
    no other."""
    monkeypatch.delenv("IWASAWA_LAB_PRECISION", raising=False)
    modules = [importlib.import_module("iwasawalab." + path.stem)
               for path in MODULES]
    never = {name for name in _never_entered(modules, _cli_and_workloads)
             if name.partition(".")[2] not in CALLED_BY_NAME}
    assert never == set(EXPORT_ONLY)


def test_every_export_only_entry_names_an_export():
    """The reason of each EXPORT_ONLY entry starts with a name of
    iwasawalab.__all__, the export that needs the definition."""
    assert [name for name, reason in EXPORT_ONLY.items()
            if reason.split()[0].rstrip(":,") not in iwasawalab.__all__] \
        == []


def test_reach_probe_reports_a_function_no_frame_enters(tmp_path):
    """Of a module whose function and method the run calls, and whose other
    function and dunder it does not, the probe reports those two alone."""
    path = tmp_path / "reach_probed.py"
    path.write_text("def used():\n    return Box(1).get()\n\n\n"
                    "def unused():\n    return 2\n\n\n"
                    "class Box:\n    def __init__(self, n):\n"
                    "        self.n = n\n\n"
                    "    def get(self):\n        return self.n\n\n"
                    "    def __eq__(self, other):\n"
                    "        return self.n == other.n\n")
    spec = importlib.util.spec_from_file_location("reach_probed", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert _never_entered([module], module.used) == \
        {"reach_probed.unused", "reach_probed.Box.__eq__"}


def _imported_names(tree):
    """(node, name) for each name that a module-level import binds;
    `from __future__` imports bind none."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                yield node, alias.asname or alias.name


def _used_names(tree):
    """The names a module loads, the entries of its `__all__` and the words
    of its string annotations."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            notes.append(node.annotation)
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(re.findall(r"\w+", note.value))
    return used


def _unused_imports(trees):
    found = []
    for name, tree in trees:
        used = _used_names(tree)
        found.extend("%s %s" % (_where(name, node), bound)
                     for node, bound in _imported_names(tree)
                     if bound not in used)
    return found


def test_no_unused_import():
    assert _unused_imports(_trees()) == []


def test_no_unused_import_in_tests():
    assert _unused_imports(_trees(TEST_MODULES)) == []


def _memos():
    """{module.function: maxsize} for each function or method of `src/`
    decorated with `cache` or `lru_cache`; maxsize is None unless the
    decorator writes out an int."""
    found = {}
    for name, tree in _trees():
        for fn in _functions(tree):
            for deco in fn.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                head = call.func if call else deco
                kind = getattr(head, "id", getattr(head, "attr", None))
                if kind not in ("cache", "lru_cache"):
                    continue
                given = call.args[:1] + [k.value for k in call.keywords
                                         if k.arg == "maxsize"] \
                    if kind == "lru_cache" and call else []
                size = getattr(given[0], "value", None) if given else None
                found["%s.%s" % (name[:-3], fn.name)] = \
                    size if isinstance(size, int) else None
    return found


def test_every_lru_cache_has_a_finite_maxsize():
    """No memo keeps every entry: each writes out a positive maxsize."""
    assert sorted(name for name, size in _memos().items()
                  if not (size and size > 0)) == []


def test_every_memo_is_named_in_memos():
    assert set(_memos()) == MEMOS


def test_the_test_helper_empties_every_memo():
    assert set(MEMO_TABLES) == MEMOS


def test_no_constructor_bypass():
    found = []
    for name, tree in _trees():
        allowed = {id(node) for fn in _functions(tree)
                   if fn.name == "__new__" for node in ast.walk(fn)}
        found.extend(_where(name, node) for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "__new__"
                     and id(node) not in allowed)
    assert found == []


def test_fraction_built_only_at_input_points():
    found = []
    for name, tree in _trees():
        allowed = {id(node) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef)
                   and "%s.%s" % (cls.name, fn.name) in FRACTION_INPUTS
                   for node in ast.walk(fn)}
        found.extend(_where(name, node) for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and "Fraction" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))
                     and id(node) not in allowed)
    assert found == []


def test_no_reference_only_name():
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for alias in node.names
                         for n in (alias.name, alias.asname)]
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                names = [node.id]
            elif isinstance(node, ast.arg):
                names = [node.arg]
            else:
                continue
            found.extend("%s %s" % (_where(name, node), n) for n in names
                         if n in REFERENCE_ONLY)
    assert found == []


def _is_mutable_container(node):
    if isinstance(node, ast.Tuple):
        return any(_is_mutable_container(elt) for elt in node.elts)
    return isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                             ast.ListComp, ast.SetComp)) \
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("dict", "list", "set"))


def test_no_module_or_class_level_mutable_container():
    found = []
    for name, tree in _trees():
        scopes = [("", tree.body)] + [(node.name + ".", node.body)
                                      for node in tree.body
                                      if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if not isinstance(node, (ast.Assign, ast.AnnAssign)) \
                        or node.value is None \
                        or not _is_mutable_container(node.value):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                found.extend("%s %s%s" % (_where(name, node), prefix, n.id)
                             for target in targets for n in ast.walk(target)
                             if isinstance(n, ast.Name)
                             and prefix + n.id not in MUTABLE_BINDINGS)
    assert found == []


def test_no_definition_made_twice_in_one_body():
    found = []
    for name, tree in _trees(MODULES + TEST_MODULES + BENCH_MODULES):
        bodies = [tree.body] + [node.body for node in ast.walk(tree)
                                if isinstance(node, ast.ClassDef)]
        for body in bodies:
            seen = set()
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    if node.name in seen:
                        found.append("%s %s" % (_where(name, node),
                                                node.name))
                    seen.add(node.name)
    assert found == []


def test_exports_are_the_imports_of_init():
    """`__all__` lists what `__init__.py` imports, each name once, and
    `from iwasawalab import *` binds every one of them."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = [bound for _, bound in _imported_names(tree)]
    assert sorted(iwasawalab.__all__) == sorted(set(imported))
    namespace = {}
    exec("from iwasawalab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(iwasawalab.__all__)


@pytest.mark.parametrize("source,check", [
    ("def f(x):\n    assert x\n", test_no_assert_statement),
    ("def f(x):\n    if x:\n        raise AssertionError('bad')\n",
     test_no_raise_assertion_error),
    ("def f():\n    from .rayclass import ray_class_group\n",
     test_no_import_inside_a_function),
    ("m = __import__('iwasawalab.padic')\n", test_no_dunder_import_call),
    ("from dataclasses import dataclass\n", test_no_dataclasses_import),
    ("import os, dataclasses\n", test_no_dataclasses_import),
    ("from .quadfield import _residue_char\n",
     test_no_private_name_from_a_sibling_module),
    ("from .padic import PAdicNumber, vp\n",
     test_exact_algebra_takes_only_vp_from_padic),
    ("from . import padic\n", test_exact_algebra_takes_only_vp_from_padic),
    ("def used_helper():\n    return 1\n\n\nclass UnusedClass:\n"
     "    def unused_method(self):\n        return used_helper()\n",
     test_every_definition_is_named_elsewhere),
    ("class Number:\n    def __pow__(self, k):\n"
     "        raise TypeError('use pow_zp for a Z_p exponent')\n\n"
     "    def pow_zp(self, a):\n        return a\n\n\nONE = Number()\n",
     test_every_definition_is_named_elsewhere),
    ("class Group:\n    def identity(self):\n        return 0\n\n\n"
     "def order(g, identity):\n    return g, identity\n\n\n"
     "ORDER = order(Group(), 0)\n",
     test_every_definition_is_named_elsewhere),
    ("import os\nfrom .kummer import construct_alpha, verify_alpha\n\n\n"
     "def f():\n    return os.sep, construct_alpha\n",
     test_no_unused_import),
    ("import pytest\nfrom iwasawalab.kummer import KummerCertificate\n\n\n"
     "def test_f():\n    with pytest.raises(ValueError):\n"
     "        raise ValueError\n",
     test_no_unused_import_in_tests),
    ("from .ntheory import extgcd as bezout\n\n\nclass Ideal:\n"
     "    def fold(self, a, b):\n        return bezout(a, b)\n",
     test_extgcd_is_read_by_the_hermite_kernel_alone),
    ("from functools import lru_cache\n\n\n@lru_cache(maxsize=None)\n"
     "def table(n):\n    return n\n",
     test_every_lru_cache_has_a_finite_maxsize),
    ("import functools\n\n\n@functools.lru_cache(16)\ndef small(n):\n"
     "    return n\n\n\n@functools.cache\ndef table(n):\n    return n\n",
     test_every_lru_cache_has_a_finite_maxsize),
    ("from functools import lru_cache\n\n\n@lru_cache\n"
     "def table(n):\n    return n\n",
     test_every_lru_cache_has_a_finite_maxsize),
    ("from functools import lru_cache\n\n\nclass Field:\n"
     "    @staticmethod\n    @lru_cache(maxsize=None)\n"
     "    def of(d):\n        return d\n",
     test_every_lru_cache_has_a_finite_maxsize),
    ("from functools import lru_cache\n\n\n@lru_cache(maxsize=8)\n"
     "def level(n):\n    return n\n",
     test_every_memo_is_named_in_memos),
    ("class Basis:\n    def __init__(self):\n        self.entries = []\n\n\n"
     "def f():\n    basis = Basis.__new__(Basis)\n"
     "    basis.entries = [1]\n    return basis\n",
     test_no_constructor_bypass),
    ("from fractions import Fraction\n\n\nclass PAdicNumber:\n"
     "    def exact(self, n):\n        return Fraction(n)\n\n"
     "    def inv(self, n):\n        return Fraction(1, n)\n",
     test_fraction_built_only_at_input_points),
    ("from .padic import angle_log as log_of\n\n\n"
     "def f(x):\n    plog = log_of(x)\n    return plog\n",
     test_no_reference_only_name),
    ("_TABLE = {}\n\n\nclass Group:\n    orders = [k for k in range(3)]\n",
     test_no_module_or_class_level_mutable_container),
    ("def _table(comp):\n    return comp\n\n\n"
     "def _table(G, g, n):\n    return G, g, n\n",
     test_no_definition_made_twice_in_one_body),
    ("class Group:\n    def order(self):\n        return 1\n\n"
     "    def order(self):\n        return 2\n",
     test_no_definition_made_twice_in_one_body),
])
def test_each_check_catches_its_rule(source, check, tmp_path, monkeypatch):
    module = tmp_path / "bad.py"
    module.write_text(source)
    for modules in ("MODULES", "TEST_MODULES", "BENCH_MODULES"):
        monkeypatch.setattr(sys.modules[__name__], modules, [module])
    with pytest.raises(AssertionError):
        check()

