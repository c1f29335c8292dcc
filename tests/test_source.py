"""Guards on the shape of the source itself, read with ``ast``, and on the
names the benchmark's tracer looks up in it."""

import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bipham"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _calls(tree, callee):
    """(call, enclosing functions, innermost last) for every call of the
    plain name ``callee``; a class body starts a fresh scope chain."""
    def visit(node, scopes):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == callee):
                yield child, scopes
            if isinstance(child, FUNCTIONS):
                yield from visit(child, scopes + [child])
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, [])
            else:
                yield from visit(child, scopes)

    yield from visit(tree, [])


def _nested_functions(tree):
    """Every function defined inside another function, once."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = {}
    for node in ast.walk(tree):
        if isinstance(node, defs):
            for child in ast.walk(node):
                if child is not node and isinstance(child, defs):
                    nested[id(child)] = child
    return list(nested.values())


def test_package_holds_only_python_source():
    # no generated C, Cython sources or recorded digests beside the modules
    found = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        and path.suffix != ".py"
    ]
    assert not found


def test_no_nested_function_calls_itself():
    # a closure that calls itself holds a reference to its own cell: every
    # call leaves a reference cycle, which keeps the search state it closes
    # over (graphs, pools, matchings) alive until a full garbage collection
    found = []
    for name, tree in _modules():
        for fn in _nested_functions(tree):
            if any(True for _ in _calls(fn, fn.name)):
                found.append(f"{name}: {fn.name} (line {fn.lineno})")
    assert not found


def test_cycle_searches_are_peel_levels():
    # every Hamilton-cycle peel runs on solvers.peel_cycles: outside the
    # search layer itself, a CycleSearch is built only inside a level
    # search that is handed to peel_cycles
    stray = []
    for name, tree in _modules():
        if name == "search.py":
            continue
        levels = {
            call.args[0].id
            for call, _ in _calls(tree, "peel_cycles")
            if call.args and isinstance(call.args[0], ast.Name)
        }
        for call, scopes in _calls(tree, "CycleSearch"):
            inner = getattr(scopes[-1], "name", None) if scopes else None
            if inner not in levels:
                stray.append(f"{name}: line {call.lineno} in {inner}")
    assert not stray


def test_peels_run_on_the_cap_schedule():
    # peel_cycles restarts a level's item orders on its own cap schedule;
    # no caller picks a number of orders
    found = [
        f"{name}: line {call.lineno}"
        for name, tree in _modules()
        for call, _ in _calls(tree, "peel_cycles")
        if any(kw.arg == "orders" for kw in call.keywords)
    ]
    assert not found


def test_no_indented_json_encoding():
    # json.dump(s) with indent= runs the pure-Python encoder, whose
    # self-recursive closures leave a reference cycle on every call;
    # report.format_json writes the same text without one
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callee = (func.attr if isinstance(func, ast.Attribute)
                      else getattr(func, "id", None))
            if callee in ("dump", "dumps") and any(
                    kw.arg == "indent" for kw in node.keywords):
                found.append(f"{name}: line {node.lineno}")
    assert not found


def _parameters(tree, name, cls=None):
    """The parameter list, defaults included, of the function ``name`` in
    ``tree`` (a method of the class ``cls``, without ``self``), at any
    depth, as source text."""
    if cls is not None:
        tree = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) and node.name == cls)
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == name)
    text = ast.unparse(fn.args)
    return text if cls is None else text.removeprefix("self, ")


def test_kernel_entry_points_take_one_parameter_list():
    # the tests that compare kernels swap one entry point for another, so
    # the entry point and both graph enumerators take the same parameters
    modules = dict(_modules())
    loader, pure = modules["hamkernel/__init__.py"], modules["hamkernel/_pure.py"]
    assert (_parameters(loader, "cycle_enumerator")
            == _parameters(loader, "__init__", "CGraphEnum")
            == _parameters(pure, "__init__", "GraphEnum")
            == "n, edges, items, max_nodes=None, sides=None, excluded=()")


REGULARITY = ("regularity.py, which nothing in the package calls since the "
              "oriented scheme went; it and its tests wait for a change of "
              "their own (ROADMAP item 1)")

# public names kept although nothing in the package or the benchmark uses
# them, each with its reason
UNCALLED = {
    "check_matching": "referee for the matchings the pipeline builds",
    "naive_regular_pair": "brute-force referee of check_regular_pair",
    "check_regular_pair": REGULARITY,
    "verify_eps_bipartite": "referee of the near-bipartite generators",
}


def _mentions(tree, skip=None):
    """(plain names, attribute names) used in ``tree``, outside the subtree
    ``skip``."""
    names, attrs = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names, attrs


def _public_defs(tree):
    """(name, node) of every public module-level function and class, and of
    every public method of a public class, as ``Class.method``."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", item


def test_public_names_have_a_caller():
    # a public module-level function or class, or a public method of a
    # public class, is named somewhere in the package outside its own
    # definition, or in the benchmark; tests alone do not keep a name
    # alive.  Imports and __all__ do not count.  A method counts as named
    # only as an attribute (``.xs``): a plain name ``xs`` elsewhere does
    # not call it
    modules = dict(_modules())
    used = {name: _mentions(tree) for name, tree in modules.items()}
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py")))
    orphans = []
    for name, tree in modules.items():
        other_names = set().union(*(u[0] for m, u in used.items() if m != name))
        other_attrs = set().union(*(u[1] for m, u in used.items() if m != name))
        for qualified, node in _public_defs(tree):
            names, attrs = _mentions(tree, skip=node)
            seen = attrs | other_attrs
            method = "." in qualified
            if not method:
                seen |= names | other_names
            pattern = rf"\.{node.name}\b" if method else rf"\b{node.name}\b"
            if (qualified not in UNCALLED and node.name not in seen
                    and not re.search(pattern, bench)):
                orphans.append(f"{name}: {qualified}")
    assert not orphans


# optional parameters that no call in the package or the benchmark passes,
# each with its reason
UNPASSED = {
    "cli.py: main(argv)":
        "the console script calls main(); the tests pass their own argv",
    "hamkernel/__init__.py: _load(build_dir)":
        "the loader tests build into a temporary directory",
    "hamkernel/__init__.py: _load(compiler)":
        "the fallback tests substitute a missing compiler",
    "hamkernel/__init__.py: _load(source)":
        "the fallback tests substitute another kernel source",
    "regularity.py: check_regular_pair(d)": REGULARITY,
}


def _optional_parameters(fn):
    """(name, position or None) of every parameter of ``fn`` with a
    default; the position counts after ``self`` or ``cls``, and a
    keyword-only parameter has none."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    """Whether ``call`` passes the parameter ``name`` at ``position``; an
    unpacked ``*args`` or ``**kwargs`` may pass any."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or position is not None and len(call.args) > position)


def _package_module(modules, parts):
    """The package module at the dotted path ``parts`` below ``bipham``,
    or None."""
    for path in ("/".join(parts) + ".py", "/".join(parts + ["__init__.py"])):
        if path in modules:
            return path
    return None


def _bindings(modules, name, tree):
    """What each name that an import in ``tree`` binds to the package is:
    ``(module, None)`` for a package module, ``(module, attr)`` for a name
    imported from one.  ``name`` is the module of ``tree``, or "" for a
    file outside the package."""
    package = name.split("/")[:-1]
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            dotted = node.module.split(".") if node.module else []
            if node.level:
                base = package[:len(package) + 1 - node.level] + dotted
            elif dotted[:1] == ["bipham"]:
                base = dotted[1:]
            else:
                continue
            for alias in node.names:
                sub = _package_module(modules, base + [alias.name])
                found[alias.asname or alias.name] = (
                    (sub, None) if sub else (_package_module(modules, base), alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                dotted = alias.name.split(".")
                if dotted[0] == "bipham" and alias.asname:
                    found[alias.asname] = (_package_module(modules, dotted[1:]), None)
    return found


def _resolve(bindings, defined, module, attr):
    """``(module, attr)`` where the name ``attr`` read from the package
    module ``module`` is defined, through re-exports; None when it is
    neither defined nor imported there."""
    while attr not in defined.get(module, ()):
        module, attr = bindings.get(module, {}).get(attr, (None, None))
        if attr is None:
            return None
    return module, attr


def _callee(func, name, bound, bindings, defined):
    """What a call of ``func`` in module ``name`` (bindings ``bound``)
    reaches: ``(module, function)``, ``("*", function)`` for a method call
    on any other receiver, which may reach every function of that name, or
    None outside the package."""
    if isinstance(func, ast.Name):
        if func.id in bound:
            module, attr = bound[func.id]
            return attr and _resolve(bindings, defined, module, attr)
        return (name, func.id) if func.id in defined.get(name, ()) else None
    if isinstance(func, ast.Attribute):
        target = bound.get(func.value.id) if isinstance(func.value, ast.Name) else None
        if target is not None and target[1] is None:
            return _resolve(bindings, defined, target[0], func.attr)
        return "*", func.attr
    return None


def test_optional_parameters_have_a_caller():
    # an optional parameter of a function or method in the package is
    # passed, by keyword or position, by some call that resolves to it in
    # the package or the benchmark: a value only tests turn is a constant,
    # which a test patches in the module.  A plain-name call resolves
    # through its module's imports and definitions, and ``m.f()`` through
    # the module ``m`` it imports; a call on any other receiver, a method
    # call, may reach every function of that name
    modules = dict(_modules())
    defined = {name: {node.name for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
        for name, tree in modules.items()}
    bindings = {name: _bindings(modules, name, tree)
                for name, tree in modules.items()}
    callers = [(name, tree, bindings[name]) for name, tree in modules.items()]
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        tree = ast.parse(path.read_text())
        callers.append(("", tree, _bindings(modules, "", tree)))
    calls = {}
    for name, tree, bound in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                target = _callee(node.func, name, bound, bindings, defined)
                if target is not None:
                    calls.setdefault(target, []).append(node)
    unpassed = []
    for name, tree in modules.items():
        for fn in ast.walk(tree):
            if (not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            reaching = calls.get((name, fn.name), []) + calls.get(("*", fn.name), [])
            for param, position in _optional_parameters(fn):
                if not any(_passes(call, param, position) for call in reaching):
                    unpassed.append(f"{name}: {fn.name}({param})")
    assert set(unpassed) == set(UNPASSED), sorted(set(unpassed) ^ set(UNPASSED))


def _imported_names(tree):
    """(name, line) of every name an import statement binds in ``tree``,
    at any depth; ``from __future__`` imports bind nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The names listed in a module-level ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def test_no_unused_imports():
    # every name an import binds is read somewhere in its module, or listed
    # in __all__: an import left behind by a deletion keeps a dead
    # dependency between modules
    unused = []
    for name, tree in _modules():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _exported(tree)
        unused += [f"{name}: {bound} (line {line})"
                   for bound, line in _imported_names(tree) if bound not in used]
    assert not unused


# traced entry points that no longer exist in the package, each with its
# reason; the benchmark's per-layer figure for each reads zero
STALE_ENTRY_POINTS = {
    "bipham.solvers.bip_hamilton_with_prescribed":
        "deleted from the package; the benchmark's list still names it",
    "bipham.fictive.consistent_cycle_search":
        "deleted with the fictive-edge search: the approximate decomposition "
        "prescribes each system's own paths; the benchmark's list still "
        "names it",
    "bipham.fictive.substitute":
        "deleted with the exceptional branch of the balanced exceptional path "
        "systems: a framework with exceptional vertices packs the whole host; "
        "the benchmark's list still names it",
    "bipham.fictive.build_fictive":
        "deleted with the balanced exceptional systems of the path systems: "
        "the robust front sees only empty ones, and its path systems chain "
        "perfect matchings between rows; the benchmark's list still names "
        "it, and imports the now empty module",
    "bipham.walks.RobustDecomposition.build_chord_absorber":
        "deleted with the robust decomposition front; the benchmark's list "
        "still names it, and imports the now empty module",
    "bipham.walks.RobustDecomposition.build_parity_switcher":
        "deleted with the robust decomposition front; the benchmark's list "
        "still names it, and imports the now empty module",
    "bipham.partitioning.orient_scheme":
        "deleted with the oriented scheme: every 1-factorization packs its "
        "host around itself; the benchmark's list still names it",
    "bipham.beps.build_bf_family":
        "deleted with the balanced factors of the oriented scheme; the "
        "benchmark's list still names it, and imports the now empty module",
    "bipham.walks.RobustDecomposition.closure":
        "deleted with the robust decomposition front; its split-and-switch "
        "engine moved to switches.split_and_switch, which the approximate "
        "decomposition runs and the benchmark's solvers.approx layer times; "
        "the benchmark's list still names it",
}


def _bench_list(name):
    """The module-level list ``name`` of the benchmark's tracer, read with
    ``ast`` so that no tracer is built or installed."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def test_traced_entry_points_resolve():
    # the tracer wraps each entry point by module and attribute name and
    # records one it cannot find as missing, so a renamed function would
    # silently zero its layer in the benchmark
    missing = []
    points = [(mod, attr) for _, mod, attr, _ in _bench_list("ENTRY_POINTS")]
    points += [(mod, attr) for _, mod, attr in _bench_list("COUNTED")]
    for modname, attr in points:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{modname}.{attr}")
    assert set(missing) <= set(STALE_ENTRY_POINTS), missing
    # the tracer's approximate-decomposition counter reads the family as
    # the third positional argument
    from bipham.solvers import approx_decomposition

    params = list(inspect.signature(approx_decomposition).parameters)
    assert params[2] == "family"
