"""The layer diagram as a test: who may import whom, read off the AST
(function-level imports included), so an upward import fails here instead
of surfacing as an import cycle somewhere else.

Three rules, the ones the package docstrings promise:

* the heap-side layers (``heap`` … ``delta``, ``policy``) import nothing
  from the layers that move bytes between processes or sit above them;
* ``policy`` and ``obs`` import only the stdlib and ``repro.obs`` (their
  "import discipline": every layer may consume them without a cycle);
* ``transport`` imports nothing from ``exchange``, ``spark`` or ``cluster``.

And four rules about where code goes rather than what it imports:
``repro.transport`` imports ``repro.*`` only at module top (a deferred
import only ever dodged a cycle or a layer), ``repro.delta`` holds no
per-object interpreter — it reads the compiled kernels of ``repro.core`` —
every module under ``src/repro`` is reached from production: the
benchmarks, the examples or a ``python -m`` entry point — and every wire
frame type is spoken by some module besides the one defining it.
"""

import ast
import functools
import pathlib
import sys

import repro

SRC = pathlib.Path(repro.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

LOWER = {"heap", "types", "simtime", "jvm", "net", "serial", "core", "delta",
         "policy"}
UPPER = {"exchange", "transport", "cluster", "spark", "flink", "apps", "jsbs",
         "bench"}
STDLIB_AND_OBS_ONLY = {"policy", "obs"}
TRANSPORT_MAY_NOT = {"exchange", "spark", "cluster"}

#: The back-edges that exist today, ``(importer, imported)``.  This list
#: may only shrink: remove an entry with the import it excuses (a stale
#: entry fails the test below), and never add one.
ALLOWED = set()


def _imports():
    """Every ``(importing module, imported module)`` pair under ``src/``."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).with_suffix("")
        module = ".".join(("repro",) + rel.parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield module, alias.name
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, f"{module}: relative import"
                if node.module == "repro":
                    # ``from repro import obs`` names a package.
                    for alias in node.names:
                        yield module, f"repro.{alias.name}"
                else:
                    yield module, node.module


def _package(module):
    """``repro.delta.channel`` -> ``delta``; anything else -> None."""
    parts = module.split(".")
    return parts[1] if parts[0] == "repro" and len(parts) > 1 else None


@functools.lru_cache(maxsize=None)
def _back_edges():
    found = set()
    for module, imported in _imports():
        here, there = _package(module), _package(imported)
        top = imported.split(".")[0]
        if here in LOWER and there in UPPER:
            found.add((module, imported))
        if here in STDLIB_AND_OBS_ONLY and not (
                there in (here, "obs") if top == "repro"
                else top in sys.stdlib_module_names):
            found.add((module, imported))
        if here == "transport" and there in TRANSPORT_MAY_NOT:
            found.add((module, imported))
    return found


def test_no_layer_imports_upward():
    unexpected = _back_edges() - ALLOWED
    assert not unexpected, "\n".join(
        f"{module} imports {imported}"
        for module, imported in sorted(unexpected))


def test_allow_list_only_shrinks():
    stale = ALLOWED - _back_edges()
    assert not stale, f"no longer imported, delete from ALLOWED: {stale}"


def test_transport_defers_no_repro_import():
    found = set()
    for path in sorted((SRC / "transport").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                found.update(f"{path.name}:{node.lineno} imports {name}"
                             for name in names
                             if name.split(".")[0] == "repro")
    assert not found, "\n".join(sorted(found))


#: What a per-slot / per-object interpreter is made of.  ``repro.delta``
#: encodes through ``CloneKernel`` and applies through the receiver's
#: ``kernel_for`` / ``absolutize``; none of these may come back.
INTERPRETER_CALLS = {"reference_offsets", "klass_of", "read_word",
                     "write_word", "write_klass_word", "name_for"}


def test_delta_calls_no_per_object_interpreter():
    found = []
    for path in sorted((SRC / "delta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            name, owner = node.func.attr, node.func.value
            owner = getattr(owner, "attr", getattr(owner, "id", None))
            if name in INTERPRETER_CALLS or (name, owner) == ("load", "loader"):
                found.append(f"{path.name}:{node.lineno} calls .{name}()")
    assert not found, "\n".join(found)


#: What production runs: every benchmark and example, and the two CLIs.
ENTRY_DIRS = ("benchmarks", "examples")
ENTRY_MODULES = ("repro.obs.__main__", "repro.cluster.__main__")

#: Modules no entry point reaches.  This list may only shrink: give a
#: module a production caller or delete it (a stale entry fails the test
#: below), and never add one.
UNREACHED_ALLOWED = {
    # Wait for the ledger's fleet_shuffle workload (ROADMAP item 7).
    "repro.cluster.coordinator",
    "repro.cluster.fleet",
    "repro.cluster.harness",
    # The heap checker the tests use.
    "repro.heap.verify",
}


@functools.lru_cache(maxsize=None)
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _modules():
    """``{module name: path}`` for every module under ``src/repro``."""
    found = {}
    for path in SRC.rglob("*.py"):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _lazy_exports(modules):
    """Each package's ``_LAZY`` map, name -> the module its ``__getattr__``
    imports (``from repro.cluster import Fleet`` runs ``cluster.fleet``)."""
    lazy = {}
    for module, path in modules.items():
        for node in _tree(path).body:
            if (isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "_LAZY"):
                lazy[module] = ast.literal_eval(node.value)
    return lazy


def _reached(path, modules, lazy):
    """The ``repro`` modules importing ``path`` runs (function-level
    imports included; importing ``a.b.c`` runs ``a`` and ``a.b`` too)."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            for alias in node.names:
                names.add(f"{node.module}.{alias.name}")
                names.add(lazy.get(node.module, {}).get(alias.name,
                                                        node.module))
    prefixes = set()
    for name in names:
        parts = name.split(".")
        prefixes.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return prefixes & modules.keys()


@functools.lru_cache(maxsize=None)
def _unreached():
    modules = _modules()
    lazy = _lazy_exports(modules)
    roots = [path for entry in ENTRY_DIRS
             for path in (ROOT / entry).rglob("*.py")]
    roots += [modules[module] for module in ENTRY_MODULES]
    seen = set(ENTRY_MODULES)
    todo = set()
    for path in roots:
        todo |= _reached(path, modules, lazy)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo |= _reached(modules[module], modules, lazy)
    return frozenset(modules.keys() - seen)


def test_every_module_is_reached_from_an_entry_point():
    unexpected = _unreached() - UNREACHED_ALLOWED
    assert not unexpected, "no entry point imports:\n" + "\n".join(
        sorted(unexpected))


def test_unreached_allow_list_only_shrinks():
    stale = UNREACHED_ALLOWED - _unreached()
    assert not stale, f"now reached, delete from UNREACHED_ALLOWED: {stale}"


def test_every_frame_type_is_spoken_outside_frames():
    """Every frame type in ``frames.FRAME_NAMES`` is named (``frames.X``)
    by some ``src/repro`` module other than ``frames.py``: a type nothing
    sends or handles is a dead framing waiting to become a second one."""
    from repro.transport import frames

    spoken = set()
    for path in SRC.rglob("*.py"):
        if path == SRC / "transport" / "frames.py":
            continue
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) == "frames"):
                spoken.add(node.attr)
    unspoken = set(frames.FRAME_NAMES.values()) - spoken
    assert not unspoken, f"frame types no module speaks: {sorted(unspoken)}"
