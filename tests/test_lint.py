"""Source hygiene: no unused imports or parameters, no unread planner constant
or module-level name, no dataclass field that only its own validation reads,
no function, class or method without a caller, one place that builds the tilt
estimators and one that builds and meters the acceptance lanes, ledgers built
only by the oracles and the harness, every random draw from a Generator, and
no assert statement in src."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "forsample"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_sources_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def test_cli_knows_no_config_section():
    # the config sections are checked by the classes that consume them; the
    # CLI names no noise family, case tag or planner constant
    from dataclasses import fields

    from forsample.constants import PlanConstants
    from forsample.core import CASE_TAGS
    from forsample.oracles import NOISE_FAMILIES

    names = set(NOISE_FAMILIES) | set(CASE_TAGS) | {f.name for f in fields(PlanConstants)}
    tree = ast.parse((SRC / "cli.py").read_text())
    found = sorted({n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and n.value in names})
    assert found == []


# parameters a caller's contract fixes though the body has no use for them:
# (module, function, parameter)
_CALLBACK_CONTRACTS = {
    ("harness.py", "DiscreteWInstance.draw_w_rows", "slots"),
    # perfbench/workloads.py passes a ledger; fors_sample meters the draws
    ("harness.py", "DiscreteWInstance.scalar_source", "ledger"),
    ("lowerbound.py", "proximal_adapter.run", "budget"),
}


def _unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter its body never loads."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,))
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, scope)
                continue
            name = ".".join(scope + (getattr(child, "name", "<lambda>"),))
            a = child.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg)
                      if p is not None and p.arg not in ("self", "cls")]
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found.extend((name, p) for p in params if p not in read)
            visit(child, scope + (name.rpartition(".")[2],))

    visit(ast.parse(source), ())
    return found


def test_unread_parameter_is_detected():
    source = ("def f(a, b):\n    return a\n"
              "class C:\n    def m(self, x, y):\n        def g(z):\n            return y\n"
              "        return g\n")
    assert _unread_parameters(source) == [("f", "b"), ("C.m", "x"), ("C.m.g", "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = [(path.name, fn, p) for fn, p in _unread_parameters(path.read_text())]
    assert [u for u in unread if u not in _CALLBACK_CONTRACTS] == []


def test_callback_contracts_are_still_unread():
    unread = {(path.name, fn, p) for path in MODULES
              for fn, p in _unread_parameters(path.read_text())}
    assert _CALLBACK_CONTRACTS <= unread


def test_every_plan_constant_is_read():
    # a constant no planner reads would only be echoed into reports
    from dataclasses import fields

    from forsample.constants import PlanConstants

    read = {n.attr for path in MODULES if path.name != "constants.py"
            for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Attribute)}
    assert sorted(f.name for f in fields(PlanConstants) if f.name not in read) == []


def _unread_module_names(paths, readers) -> list[tuple[str, str]]:
    """(module, name) of each name a module-level assignment in ``paths``
    binds that no code in ``readers`` loads, as a name or an attribute."""
    trees = {p: ast.parse(p.read_text()) for p in set(paths) | set(readers)}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for r in readers for n in ast.walk(trees[r])
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    found = []
    for p in paths:
        for stmt in trees[p].body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                found += [(p.name, n.id) for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name) and n.id not in read]
    return found


def test_unread_module_name_is_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("_CHUNK = 8\n_BLOCK = 8192\nLO, HI = 0, 1\nWIDE: int = 4\n"
                   "def f(n):\n    return min(n, _CHUNK) + mod.HI\n")
    user = tmp_path / "user.py"
    user.write_text("import mod\nx = mod.WIDE\n")
    assert _unread_module_names([mod], [mod, user]) == [("mod.py", "_BLOCK"),
                                                         ("mod.py", "LO")]


def test_every_module_name_is_read():
    # a constant nothing reads is a leftover of code that went
    assert _unread_module_names(MODULES, MODULES + BENCH) == []


def _scipy_imports(source: str) -> list[str]:
    """Each scipy module an import names, as ``scipy.<module>``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods = ([f"scipy.{alias.name}" for alias in node.names]
                    if node.module == "scipy" else [node.module])
        else:
            continue
        found += [f"{node.lineno}: {'.'.join(m.split('.')[:2])}" for m in mods
                  if m == "scipy" or m.startswith("scipy.")]
    return found


def test_scipy_imports_are_found():
    source = ("import scipy\nimport scipy.stats as st\nfrom scipy import optimize, special\n"
              "def f():\n    from scipy.special._ufuncs import ndtr\n"
              "    from .scipy import x\n")
    assert _scipy_imports(source) == ["1: scipy", "2: scipy.stats", "3: scipy.optimize",
                                      "3: scipy.special", "5: scipy.special"]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_src_takes_only_scipy_special(path):
    # scipy.stats and scipy.optimize would cost 46 and 23 MB resident
    assert [i for i in _scipy_imports(path.read_text())
            if not i.endswith(": scipy.special")] == []


# numpy's Generator API; every other numpy.random name is the legacy
# global-state interface (seed, rand, randn, normal, choice, RandomState, ...)
_GENERATOR_API = {"Generator", "BitGenerator", "SeedSequence", "default_rng",
                  "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"}


def _legacy_random(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "random" and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, f"numpy.random.{name}") for name in names
                  if name not in _GENERATOR_API]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_legacy_random_is_detected():
    source = ("import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n"
              "from numpy.random import choice\nrng = np.random.default_rng(0)\n")
    assert _legacy_random(source) == ["2: numpy.random.seed", "3: numpy.random.rand",
                                      "4: numpy.random.choice"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_legacy_global_random_state(path):
    assert _legacy_random(path.read_text()) == []


def _asserts(source: str) -> list[int]:
    """Line of each assert statement; ``python -O`` strips them all."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_assert_is_detected():
    source = "def f(x):\n    assert x > 0\n    if x:\n        assert x, 'msg'\n"
    assert _asserts(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_no_assert_in_src(path):
    # a check in src raises an error of its own, so -O cannot remove it
    assert _asserts(path.read_text()) == []


def _large_literals(source: str, exempt: str) -> list[str]:
    """Integer literals >= 10^4 outside the assignment to ``exempt``."""
    tree = ast.parse(source)
    skip = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == exempt for t in node.targets)
            for n in ast.walk(node.value)}
    return [f"{n.lineno}: {n.value}" for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and type(n.value) is int
            and n.value >= 10_000 and id(n) not in skip]


def test_large_literal_is_detected():
    source = "_ROWS = 65_536\nk = min(n, 4_000_000)\ncap = 10 ** 6\nm = 9_999\n"
    assert _large_literals(source, "_ROWS") == ["2: 4000000"]


def test_fors_round_size_is_one_constant():
    # the iid engines' round size lives in fors._ROUND_ROWS and nowhere else
    assert _large_literals((SRC / "fors.py").read_text(), "_ROUND_ROWS") == []


# top-level definitions kept without a caller in src or perfbench: the check
# the tests run on each potential's declared Hölder metadata
_NO_CALLER_KEPT = {("core.py", "holder_spot_check")}


def _registered(node) -> bool:
    # a suite runner is used through harness.SUITES, which its decorator fills
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "_suite" for d in node.decorator_list)


# methods kept without a caller in src or perfbench, each with its reason
_NO_CALLER_METHODS_KEPT = {
    ("core.py", "HuberReference.pdf"):
        "the density a test integrates to check the closed-form cdf",
    ("core.py", "PowerReference.pdf"):
        "the density a test integrates to check the closed-form cdf and variance",
}


def _names_outside_definitions(tree) -> Counter:
    """Names a tree loads or reads as attributes, with their counts, leaving
    out each read made inside a definition of that same name: ``A.pdf``
    calling ``x.pdf()`` is not a caller of ``B.pdf``."""
    named = Counter()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, inside | {child.name})
                continue
            name = (child.id if isinstance(child, ast.Name) else
                    child.attr if isinstance(child, ast.Attribute) else None)
            if name is not None and name not in inside:
                named[name] += 1
            visit(child, inside)

    visit(tree, frozenset())
    return named


def _without_caller(paths, callers) -> list[tuple[str, str]]:
    """(module, name) of each top-level function or class in ``paths``, and
    (module, "Class.method") of each method but the dunders, that no code in
    ``callers`` names outside every definition of that name."""
    trees = {p: ast.parse(p.read_text()) for p in set(paths) | set(callers)}
    named = sum((_names_outside_definitions(trees[p]) for p in callers), Counter())
    found = []
    for p in paths:
        for node in trees[p].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or _registered(node):
                continue
            if not named[node.name]:
                found.append((p.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(p.name, f"{node.name}.{m.name}") for m in node.body
                          if isinstance(m, ast.FunctionDef)
                          and not m.name.startswith("__") and not named[m.name]]
    return found


def test_definition_without_caller_is_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("def used():\n    return 1\n"
                   "def lonely(n):\n    return lonely(n - 1) if n else used()\n"
                   "@_suite('seeds')\ndef run_toy(cfg):\n    return cfg\n"
                   "class Box:\n    def __init__(self):\n        self.fill()\n"
                   "    def fill(self):\n        return used()\n"
                   "    def idle(self, n):\n        return self.idle(n - 1) if n else 0\n"
                   "box = Box()\n")
    assert _without_caller([mod], [mod]) == [("mod.py", "lonely"), ("mod.py", "Box.idle")]


def test_method_named_like_a_call_inside_its_twin_is_detected(tmp_path):
    # A.pdf's x.pdf() is a read inside a definition named pdf, so it calls
    # neither A.pdf nor B.pdf
    mod = tmp_path / "mod.py"
    mod.write_text("class A:\n    def __init__(self, law):\n        self.law = law\n"
                   "    def pdf(self, t):\n        return self.law.pdf(t)\n"
                   "class B:\n    def pdf(self, t):\n        return t\n"
                   "A(B())\n")
    assert _without_caller([mod], [mod]) == [("mod.py", "A.pdf"), ("mod.py", "B.pdf")]


def test_every_definition_has_a_caller():
    orphans = set(_without_caller(MODULES, MODULES + BENCH))
    kept = _NO_CALLER_KEPT | set(_NO_CALLER_METHODS_KEPT)
    assert sorted(orphans - kept) == []
    # a kept definition that gains a caller leaves the list
    assert sorted(kept - orphans) == []


def _calls(source: str, names) -> list[int]:
    """Line of each call of a name or attribute in ``names``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                lines.append(node.lineno)
    return sorted(lines)


def test_call_is_detected():
    source = ("lanes = _CoinLanes(p, w)\nfors._CoinLanes(p, w).round()\n"
              "kind = _CoinLanes\nmake(_CoinLanes)\n")
    assert _calls(source, {"_CoinLanes"}) == [1, 2]


def _built_in(names) -> list[str]:
    return [f"{path.parent.name}/{path.name}:{line}" for path in MODULES + BENCH + TESTS
            for line in _calls(path.read_text(), names)]


def test_tilt_estimators_are_built_only_in_rgo():
    # rgo.tilt_source is the one place that picks and builds an estimator
    found = _built_in({"_FirstOrderRows", "_ZerothOrderRows", "_RowEstimator"})
    assert [f for f in found if f.split(":")[0] != "forsample/rgo.py"] == []
    assert len(found) == 2


def test_coin_lanes_are_built_only_in_fors():
    # the row kernel runs under fors's three row engines and nowhere else
    found = _built_in({"_CoinLanes"})
    assert [f for f in found if f.split(":")[0] != "forsample/fors.py"] == []
    assert len(found) == 3


def test_ledgers_are_built_only_by_the_oracles_and_the_harness():
    # an oracle builds its own ledger and the harness its suite and instance
    # ledgers; every engine counts into the ledger it is handed
    found = [f"{path.name}:{line}" for path in MODULES
             for line in _calls(path.read_text(), {"QueryLedger"})]
    assert [f for f in found if f.split(":")[0] not in ("oracles.py", "harness.py")] == []


_METERED = {"fors_attempts", "w_draws"}


def _increments(source: str, attrs) -> list[int]:
    """Line of each augmented assignment to an attribute named in ``attrs``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute)
                  and n.target.attr in attrs)


def test_increment_is_detected():
    source = ("ledger.w_draws += 1\nw_draws += 1\nself.ledger.fors_attempts += k\n"
              "ledger.w_clipped += 2\nledger.w_draws = 0\n")
    assert _increments(source, _METERED) == [1, 3]


def test_attempts_and_w_draws_are_metered_only_in_fors():
    # the engines count their own attempts and W draws, so one rule meters them
    found = [f"{path.parent.name}/{path.name}:{line}" for path in MODULES + BENCH
             for line in _increments(path.read_text(), _METERED)]
    assert [f for f in found if f.split(":")[0] != "forsample/fors.py"] == []


def _names_read(source: str, names) -> list[int]:
    """Lines that load, import or take an attribute named in ``names``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        found = ((isinstance(node, ast.Name) and node.id in names)
                 or (isinstance(node, ast.Attribute) and node.attr in names)
                 or (isinstance(node, ast.ImportFrom)
                     and any(a.name in names for a in node.names)))
        if found:
            lines.append(node.lineno)
    return lines


def test_name_read_is_detected():
    source = "from .fors import _poisson_cdf_list\ncdf = fors._poisson_cdf_table(2.0)\n"
    assert _names_read(source, {"_poisson_cdf_list", "_poisson_cdf_table"}) == [1, 2]


def test_poisson_tables_are_read_only_in_fors():
    # the acceptance coin is written in fors alone: no other module binds the
    # Poisson(2B) table it draws J from
    tables = {"_poisson_cdf_list", "_poisson_cdf_table", "_poisson_guide_table"}
    found = [f"{path.name}:{line}" for path in MODULES if path.name != "fors.py"
             for line in _names_read(path.read_text(), tables)]
    assert found == []


def test_the_scalar_engine_is_named_only_in_fors_and_lowerbound():
    # every src acceptance but the lower bound's proximal adapter runs on
    # lanes; fors_sample is left to perfbench's scalar job and the tests
    found = [f"{path.name}:{line}" for path in MODULES
             if path.name not in ("fors.py", "lowerbound.py")
             for line in _names_read(path.read_text(), {"fors_sample", "_scalar_coin"})]
    assert found == []


# dataclass fields kept though no code outside their own __post_init__
# loads them as an attribute, each with its reason
_UNREAD_FIELDS_KEPT = {
    ("harness.py", "ExperimentReport.merged_ledger"): "to_json serializes it through vars",
    ("harness.py", "ExperimentReport.schema_version"): "to_json serializes it through vars",
    ("oracles.py", "QueryLedger.prox_iters"): "merge and as_dict read it by field name",
    ("oracles.py", "QueryLedger.rgo_calls"): "merge and as_dict read it by field name",
    ("sampler.py", "Schedule.g_bound"): "reports serialize it through asdict",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _fields_only_checked(paths, readers) -> list[tuple[str, str]]:
    """(module, "Class.field") of each field of a dataclass in ``paths`` that
    no code in ``readers`` loads as an attribute outside the class's own
    ``__post_init__``: a value nothing reads, or only its validation."""
    trees = {p: ast.parse(p.read_text()) for p in set(paths) | set(readers)}
    found = []
    for p in paths:
        for cls in trees[p].body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            post = [m for m in cls.body if isinstance(m, ast.FunctionDef)
                    and m.name == "__post_init__"]
            inside = {id(n) for m in post for n in ast.walk(m)}
            read = {n.attr for r in readers for n in ast.walk(trees[r])
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                    and id(n) not in inside}
            found += [(p.name, f"{cls.name}.{s.target.id}") for s in cls.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                      and s.target.id not in read]
    return found


def test_field_only_checked_is_detected(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("@dataclass(frozen=True)\nclass Law:\n    scale: float\n    const: float = 1.0\n"
                   "    def __post_init__(self):\n"
                   "        if self.scale <= 0 or self.const <= 0:\n"
                   "            raise ValueError\n"
                   "@dataclass\nclass Plain:\n    unread: int\n"
                   "law = Law(2.0)\nwidth = law.scale * 2\n")
    assert _fields_only_checked([mod], [mod]) == [("mod.py", "Law.const"),
                                                  ("mod.py", "Plain.unread")]


def test_every_checked_field_is_read():
    # a field that nothing reads, or only its own validation, is data nothing uses
    unread = set(_fields_only_checked(MODULES, MODULES + BENCH))
    assert sorted(unread - set(_UNREAD_FIELDS_KEPT)) == []
    # a kept field that gains a reader leaves the list
    assert sorted(set(_UNREAD_FIELDS_KEPT) - unread) == []
