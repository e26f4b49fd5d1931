"""Checks on the code base itself.

The benchmark's span table must keep naming code that exists.
perfbench/spans.py patches functions by (module, attribute) and RealAlg
methods by name when a run is traced.  A renamed or deleted target would
only fail inside `perfbench/run.py --trace 1`; these tests read the table
and fail at once instead.  The file is loaded, never modified.

Every public function of the library must have a caller outside the tests,
and every private module-level function or class a use inside the library;
one that only the span table names waits, listed, for the benchmark change.
Every defaulted parameter must serve the library's own callers: some call
passes it and some call leaves it out, or the default is one more way to
call the function that only tests take.  Every dataclass field must be
read by the library or the benchmark: state that only tests read is
computed on every run for nothing.  Every public method must be read by
the library or the benchmark too, bar the gadget reduction API that the
gadgets module documents.  No module but exactnum reads a slot of
RealAlg, so the representation of an algebraic number can change in one
module.  Every piece of state that the library keeps across calls in a
process is listed with its reason, so a new table stays per call.

The verdicts of the first rounds of each benchmark workload are pinned by
digest, with the workloads loaded from their text like the span table, and
on the same rounds check_simple answers as the whole-polynomial tests do.
"""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from ltireach.exactnum import RealAlg

ROOT = Path(__file__).resolve().parent.parent
SPANS_PATH = ROOT / "perfbench" / "spans.py"

# the gadget-library API the README promises, which only tests call here
PROMISED_API = {"gadget_constant", "gadget_add", "gadget_mul", "conjoin"}


def load_spans():
    """Execute spans.py from its text, so no bytecode is written next to it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS_PATH.read_text(), str(SPANS_PATH), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists():
    spans = load_spans()
    missing = []
    for table in (spans.SPANNED, spans.GENERATORS, spans.COUNTED):
        for mod_name, attr in table:
            if not hasattr(importlib.import_module(mod_name), attr):
                missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_every_counted_realalg_method_exists():
    spans = load_spans()
    assert [m for m in spans.COUNTED_METHODS if m not in RealAlg.__dict__] == []


# runs in a fresh interpreter: install() patches every ltireach module and
# has no uninstall
TRACED_FORWARD = """
import json, sys, types
from fractions import Fraction as F

module = types.ModuleType("perfbench_spans")
exec(compile(open(sys.argv[1]).read(), sys.argv[1], "exec"), module.__dict__)
tracer = module.Tracer()
module.install(tracer)

from ltireach.forward import reach_within, verify_witness
from ltireach.geometry import ControlSet, GenPolyhedron
from ltireach.linalg import RatMatrix, vec
from ltireach.preprocess import LtiSystem

comps = (GenPolyhedron.polytope([vec(0, 0), vec(1, 0)]), GenPolyhedron.polytope([vec(0, 1), vec(0, 2)]))
sys_ = LtiSystem(RatMatrix.diag(F(1, 2), F(1, 3)), ControlSet(comps), vec(0, 0),
                 GenPolyhedron.polytope([vec(F(3, 4), F(4, 3)), vec(F(3, 4), F(3, 2))]))
w = reach_within(sys_, 3)
assert w is not None and verify_witness(sys_, w)
names = [s[0] for s in tracer.spans]
parents = [s[3] for s in tracer.spans]

def under_reach(i):
    while i >= 0:
        if names[i] == "forward.reach_exactly":
            return True
        i = parents[i]
    return False

lp = [i for i, n in enumerate(names) if n == "geometry.lp_solve"]
print(json.dumps({"lp_solve": len(lp), "nested": sum(under_reach(parents[i]) for i in lp),
                  "reach_exactly": names.count("forward.reach_exactly")}))
"""


def test_traced_forward_search_records_lp_spans():
    """A traced reach_within records one forward.reach_exactly span per
    horizon.  The forward LPs, horizon 0's among them, are solved and
    restricted inside those spans without calling geometry.lp_solve, so no
    lp_solve span nests under a reach_exactly span.  The one lp_solve span
    is the replay's membership test in verify_witness, outside them: the
    target is a segment, and membership of a single point would be an
    equality test that solves no LP."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", TRACED_FORWARD, str(SPANS_PATH)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(out.stdout.splitlines()[-1])
    assert got["reach_exactly"] == 4
    assert got["lp_solve"] == 1 and got["nested"] == 0


WORKLOADS_PATH = ROOT / "perfbench" / "workloads.py"
# sha256 over the verdict JSON texts, one line each, of rounds 0-1 of each
# benchmark workload at seed 1; a change that only makes decisions faster
# leaves them as they are
VERDICT_DIGESTS = {
    "forward_union": "190576ca0d08bb0ed170182fc9efa9ba7aaec5f1f0009d573b038c095d291d7a",
    "algebraic_2d": "ecaff24953c2d1a435fac7ab04c34821d48893376080de0cfa25205fefea68d2",
    "rational_batch": "7bedb47f146a03afe279997e7b11f21990b0c7c6a0a21cdcf69dc20c95a69dcf",
}


def load_workloads():
    """Execute workloads.py from its text, so no bytecode is written next to
    it.  Its dataclasses look their module up in sys.modules while the text
    runs, so it is registered there for that time only."""
    name = "perfbench_workloads"
    module = types.ModuleType(name)
    sys.modules[name] = module
    try:
        exec(compile(WORKLOADS_PATH.read_text(), str(WORKLOADS_PATH), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def test_verdict_bytes_are_pinned():
    """The first two rounds of each workload decide to the pinned verdict
    bytes."""
    from ltireach import driver, instances

    workloads = load_workloads()
    got = {}
    for name, wl in workloads.WORKLOADS.items():
        digest = hashlib.sha256()
        stream = workloads.rounds(wl, 1)
        for _ in range(2):
            for inst in next(stream):
                body = instances.verdict_to_json(driver.decide(instances.parse_instance(inst.text), wl.budgets))
                digest.update(instances.dump_json(body).encode() + b"\n")
        got[name] = digest.hexdigest()
    assert got == VERDICT_DIGESTS


# sha256 over the verdict JSON texts of rounds 0-4 (every family, the
# unknown ones included) at seeds 1 and 7, by workload: the forward search
# grows each horizon's root from the previous one's and reads each witness
# off its leaf, so a change to the pivots may move a witness's
# coefficients, never a verdict, a horizon or a component.  The
# algebraic_2d and rational_batch rounds hold witnesses of lone control
# polytopes.
ROUND_DIGESTS = {
    ("forward_union", 1): "74f239d7370aad7ce517f002dac34da1785b6c70c2ceb8b03472531ff6eddc92",
    ("forward_union", 7): "7c6dc4141c415566c56fb70d83ad49af6bfbcd11eee029e45c721c10f7d87ff7",
    ("algebraic_2d", 1): "bab2b0d75bbe5db106c736811675f49b90c56bb905786a7ca4208f91263e8dd1",
    ("algebraic_2d", 7): "829e3537621a210ba2f23f2a82bc22105dcf34dde37a018c6356fa75ce406e4e",
    ("rational_batch", 1): "2ae2eea8eb7890fbfe14a4d5130c65bb5a12084ad4b132c8c224ea749c2c6ee7",
    ("rational_batch", 7): "60c2dba54b42b454e6d2677e81fa28c18b7a97bbfc6d2b2266a39bd3f1e670c5",
}


def test_round_verdict_bytes_are_pinned_at_two_seeds():
    """Rounds 0-4 of each pinned workload and seed decide to the pinned
    verdict bytes."""
    from ltireach import driver, instances

    workloads = load_workloads()
    got = {}
    for name, seed in ROUND_DIGESTS:
        wl = workloads.WORKLOADS[name]
        digest = hashlib.sha256()
        stream = workloads.rounds(wl, seed)
        for _ in range(5):
            for inst in next(stream):
                body = instances.verdict_to_json(driver.decide(instances.parse_instance(inst.text), wl.budgets))
                digest.update(instances.dump_json(body).encode() + b"\n")
        got[name, seed] = digest.hexdigest()
    assert got == ROUND_DIGESTS


def test_check_simple_matches_the_whole_polynomial_report_on_the_bench():
    """On every system of rounds 0-4 of each workload at seeds 1 and 7,
    check_simple, which reads the spectral conditions factor by factor off
    the eigenvalues when the other conditions hold, answers each condition
    as the tests on the whole polynomial do."""
    from ltireach import instances
    from ltireach.preprocess import check_simple
    from oracles import whole_polynomial_report

    workloads = load_workloads()
    factored = 0
    for name, wl in workloads.WORKLOADS.items():
        for seed in (1, 7):
            stream = workloads.rounds(wl, seed)
            for _ in range(5):
                for inst in next(stream):
                    sys_ = instances.parse_instance(inst.text)
                    got, want = check_simple(sys_), whole_polynomial_report(sys_)
                    assert (got.schur, got.real_power, got.failing_conditions()) == \
                        (want.schur, want.real_power, want.failing_conditions()), inst.text
                    factored += got.eigenvalues is not None
    assert factored >= 100


SRC = ROOT / "src" / "ltireach"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _bound_in(fn) -> set[str]:
    """The names a function binds: its parameters, and every name assigned,
    defined or deleted in its body."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node is not fn:
            names.add(node.name)
    return names


def read_names(tree: ast.AST, strings: bool = False) -> set[str]:
    """The module-level names the tree uses: a bare name where no enclosing
    function binds it, an attribute only as `module.name` for a module of
    the package, and every name a `from ... import` brings in; with
    strings, its string constants too (perfbench patches functions by
    name)."""
    out = set()

    def visit(node, bound):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            bound = bound | _bound_in(node)
        if isinstance(node, ast.Name):
            if node.id not in bound:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        for child in ast.iter_child_nodes(node):
            visit(child, bound)

    visit(tree, frozenset())
    return out


# public functions of src/ltireach that no code calls and that the span
# table of perfbench/spans.py names, (module, function): the table patches
# them by name, so they go when the benchmark changes
SPAN_ONLY = {
    ("certify", "sup_in_direction"): "waits for the benchmark change",
    ("certify", "recompute_sup_from_certificate"): "waits for the benchmark change",
}


def test_no_public_function_is_called_only_by_tests():
    """A public module-level function of src/ltireach needs a use in src
    outside its own definition, or in perfbench.  A re-export in
    __init__.py is not a use, and neither is a local variable or a method
    that shares the function's name.  A function that only the span table
    names as a string is listed in SPAN_ONLY, and every entry there must
    still be such a function, so the list cannot go stale."""
    defined = []
    called = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((path.stem, node.name))
                called |= read_names(node) - {node.name}
            else:
                called |= read_names(node)
    named = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        called |= read_names(tree)
        named |= read_names(tree, strings=True)
    test_only = [f"{module}.{name}" for module, name in defined
                 if name not in called | named and name not in PROMISED_API]
    assert test_only == []
    span_named = read_names(ast.parse(SPANS_PATH.read_text()), strings=True)
    span_only = {(module, name) for module, name in defined if name not in called and name in span_named}
    assert span_only == set(SPAN_ONLY)
    assert set(SPAN_ONLY.values()) == {"waits for the benchmark change"}


def test_no_private_helper_is_orphaned():
    """A module-level function or class of src/ltireach whose name starts
    with an underscore needs a use in src outside its own definition: one
    that only tests use belongs in the tests."""
    defined = []
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.append((path.stem, node.name))
                used |= read_names(node) - {node.name}
            else:
                used |= read_names(node)
    assert [f"{module}.{name}" for module, name in defined if name not in used] == []


# defaults kept for callers outside the package, (module, qualified name,
# parameter)
OUTSIDE_DEFAULTS = {
    ("cli", "main", "argv"),  # the console script calls main(), which reads sys.argv
    ("driver", "decide", "budgets"),  # library users decide under the default budgets
    ("render", "render_partial_reach", "certificate"),  # library users draw a figure without a verdict
    ("geometry", "GenPolyhedron.polytope", "dim"),  # the benchmark builds polytopes from vertices alone
    ("gadgets", "ZeroTestLti.first_zero", "min_power"),  # the benchmark's horizon oracle takes the default
    ("exactnum", "RealAlg.__init__", "_trusted"),  # a RealAlg built outside the package is validated
}


def defaulted_parameters():
    """(module, qualified name, [(position or None, parameter)]) for
    each function or method of src/ltireach with defaulted parameters.  The
    position counts the arguments a call writes, so a method's self is
    not counted; a keyword-only parameter has none.  A closure binding
    such as lam=lam in a nested function is not an option."""
    out = []

    def visit(node, module, prefix, in_class, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".", True, nested)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                shift = 1 if in_class and not static else 0
                first = len(positional) - len(args.defaults)
                params = [(i - shift, arg.arg, default)
                          for i, (arg, default) in enumerate(zip(positional[first:], args.defaults), first)]
                params += [(None, arg.arg, default) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None]
                params = [(i, name) for i, name, default in params
                          if not (nested and isinstance(default, ast.Name) and default.id == name)]
                if params:
                    out.append((module, prefix + child.name, params))
                visit(child, module, prefix + child.name + ".", False, True)
            else:
                visit(child, module, prefix, in_class, nested)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", False, False)
    return out


def test_every_default_serves_a_library_caller():
    """For each defaulted parameter of a function or method in src/ltireach,
    some call in src passes it and some call in src leaves it out.  Calls
    are matched by name, so a method and a function of one name share
    their calls; a call that spreads *args or **kwargs counts as passing.
    A table that every caller has goes in as a required argument, and a
    value that no caller sets is a constant."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    flagged = []
    for module, qualname, params in defaulted_parameters():
        *owner, name = qualname.split(".")
        if name == "__init__":
            name = owner[-1]
        for position, param in params:
            passed = omitted = False
            for call in calls.get(name, []):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg in (None, param) for k in call.keywords)
                        or (position is not None and len(call.args) > position)):
                    passed = True
                else:
                    omitted = True
            if not (passed and omitted) and (module, qualname, param) not in OUTSIDE_DEFAULTS:
                flagged.append(f"{module}.{qualname}({param})")
    assert flagged == []


# dataclass fields kept without a reader in src or perfbench, (module,
# class, field)
UNREAD_FIELDS = {
    # the LP oracle tests compare optimal values, and optimization LPs
    # (ROADMAP items 4 and 11) will read it
    ("geometry", "LpResult", "value"),
}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    f = node.func if isinstance(node, ast.Call) else node
    return (isinstance(f, ast.Name) and f.id == "dataclass") or \
        (isinstance(f, ast.Attribute) and f.attr == "dataclass")


def test_every_dataclass_field_is_read():
    """Each field of a @dataclass in src/ltireach is read as an attribute
    (`x.field`) somewhere in src or perfbench.  Reads are matched by name,
    so a read of another object's attribute of the same name counts."""
    fields = []
    read = set()
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (path.parent == SRC and isinstance(node, ast.ClassDef)
                  and any(map(_is_dataclass_decorator, node.decorator_list))):
                fields += [(path.stem, node.name, item.target.id) for item in node.body
                           if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    assert [f for f in fields if f[2] not in read and f not in UNREAD_FIELDS] == []


# public methods kept without a reader in src or perfbench, (module,
# class, method): the reduction API that the gadgets module documents, which
# only the tests exercise
UNREAD_METHODS = {
    ("gadgets", "PoweringFragment", "relation_holds"),  # checks a gadget's defining relation
    ("gadgets", "PoweringFragment", "identity_holds"),  # checks the powering identity it encodes
    ("gadgets", "VectorReachLti", "schedule_witness"),  # turns a vector-reachability schedule into a witness
}


def test_every_public_method_is_read():
    """Each public method (or property) of a class in src/ltireach is read
    as an attribute (`x.method`) somewhere in src outside its own body, or
    in perfbench, which may also name it in a string.  Reads are matched by
    name, so a read of another object's attribute of the same name counts;
    a method that only tests call is computed for no user of the library."""
    methods = []
    read = set()

    def visit(node, own):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr != own:
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        if not item.name.startswith("_"):
                            methods.append((path.stem, node.name, item.name))
                        visit(item, item.name)
                    else:
                        visit(item, None)
            elif node in tree.body and not isinstance(node, ast.ClassDef):
                visit(node, None)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        visit(tree, None)
        read.update(n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str))
    assert [m for m in methods if m[2] not in read and m not in UNREAD_METHODS] == []


def test_no_module_but_exactnum_reads_a_realalg_slot():
    """RealAlg's slots (its minimal polynomial, interval and quadratic
    coordinates) are read and written only in exactnum: every other module
    goes through its methods, so the representation can change in one
    place.  An attribute of a slot's name, or a string naming one (for
    getattr), counts as a read."""
    slots = set(RealAlg.__slots__)
    assert slots == {"_minpoly", "_lo", "_hi", "_quad"}
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "exactnum":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in slots or \
                    isinstance(node, ast.Constant) and node.value in slots:
                readers.add((path.stem, node.attr if isinstance(node, ast.Attribute) else node.value))
    assert readers == set()


def test_one_function_clears_denominators():
    """Exactly one function of src/ltireach takes an lcm over `.denominator`
    attributes, exactnum.cleared: every other place that needs rationals
    as integers over one denominator calls it, or reads a RatMatrix, which
    holds that form.  A call is charged to the innermost function around
    it, or to the module when no function is."""
    clearing = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lcm":
            if any(isinstance(n, ast.Attribute) and n.attr == "denominator"
                   for arg in node.args for n in ast.walk(arg)):
                clearing.add((path.stem, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), "<module>")
    assert clearing == {("exactnum", "cleared")}


# the state that src/ltireach keeps from one call to the next in a process,
# (module, name), each with its reason: any other table lives for the one
# call that builds it, so a second parse, hash or audit in one process
# costs what the first did, as a fresh `ltireach` process sees it
PROCESS_CACHES = {
    ("exactnum", "factor_int_poly"): "sympy factoring takes milliseconds, and the polynomials of one matrix "
                                     "recur across the decisions of a batch; the result is an immutable tuple",
    ("exactnum", "_sturm_chain_cached"): "every comparison of two algebraic numbers runs the Sturm chains of the "
                                         "same few minimal polynomials; the result is an immutable tuple",
    ("exactnum", "_isolate_squarefree"): "a root's canonical interval is its minimal polynomial's isolation, read "
                                         "again at each serialization; the result is an immutable tuple",
    ("cli", "_PARSER"): "building the argparse tree costs more than auditing a rational certificate, "
                        "and parsing leaves it as it was",
}

_MUTATORS = {"append", "add", "update", "setdefault", "pop", "popitem", "clear", "extend", "insert", "remove",
             "discard", "__setitem__"}


def _is_memo_decorator(node: ast.expr) -> bool:
    f = node.func if isinstance(node, ast.Call) else node
    return (isinstance(f, ast.Name) and f.id in ("lru_cache", "cache")) or \
        (isinstance(f, ast.Attribute) and f.attr in ("lru_cache", "cache"))


def _is_mutable_container(node: ast.expr) -> bool:
    return isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)) or \
        (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
         and node.func.id in ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"))


def test_every_process_wide_cache_is_listed():
    """The process-wide state of src/ltireach is exactly PROCESS_CACHES: a
    function memoized by functools (lru_cache or cache), a module-level
    name that a function rebinds through `global`, a module-level
    container that the module mutates (an item assigned or deleted, or a
    mutating method called on it), and a module-level instance of a src
    class that subclasses dict, list or set, which may fill itself on a
    lookup as `instances.Rationals` does.  A new cache fails here until it
    is listed with its reason; a removed one must leave the list."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    container_classes = {node.name for tree in trees.values() for node in ast.walk(tree)
                         if isinstance(node, ast.ClassDef)
                         and any(isinstance(b, ast.Name) and b.id in ("dict", "list", "set") for b in node.bases)}
    found = set()
    for stem, tree in trees.items():
        containers = set()
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) and node.value is not None else []
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if targets and _is_mutable_container(node.value):
                containers |= names
            if targets and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name) \
                    and node.value.func.id in container_classes:
                found |= {(stem, name) for name in names}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(map(_is_memo_decorator, node.decorator_list)):
                found.add((stem, node.name))
            elif isinstance(node, ast.Global):
                found |= {(stem, name) for name in node.names}
            elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                if isinstance(node.value, ast.Name) and node.value.id in containers:
                    found.add((stem, node.value.id))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATORS and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in containers:
                found.add((stem, node.func.value.id))
    assert found == set(PROCESS_CACHES)
    assert all(reason for reason in PROCESS_CACHES.values())
