"""The layer diagram as a test: who may import whom, read off the AST
(function-level imports included), so an upward import fails here instead
of surfacing as an import cycle somewhere else.

Three rules, the ones the package docstrings promise:

* the heap-side layers (``heap`` … ``delta``, ``policy``) import nothing
  from the layers that move bytes between processes or sit above them;
* ``policy`` and ``obs`` import only the stdlib and ``repro.obs`` (their
  "import discipline": every layer may consume them without a cycle);
* ``transport`` imports nothing from ``exchange``, ``spark`` or ``cluster``.

And two rules about where code goes rather than what it imports:
``repro.transport`` imports ``repro.*`` only at module top (a deferred
import only ever dodged a cycle or a layer), and ``repro.delta`` holds no
per-object interpreter — it reads the compiled kernels of ``repro.core``.
"""

import ast
import functools
import pathlib
import sys

import repro

SRC = pathlib.Path(repro.__file__).parent

LOWER = {"heap", "types", "simtime", "jvm", "net", "serial", "core", "delta",
         "policy"}
UPPER = {"exchange", "transport", "cluster", "spark", "flink", "apps", "jsbs",
         "bench"}
STDLIB_AND_OBS_ONLY = {"policy", "obs"}
TRANSPORT_MAY_NOT = {"exchange", "spark", "cluster"}

#: The back-edges that exist today, ``(importer, imported)``.  This list
#: may only shrink: remove an entry with the import it excuses (a stale
#: entry fails the test below), and never add one.
ALLOWED = {
    ("repro.obs.__main__", "repro.cluster.membership"),
}


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
