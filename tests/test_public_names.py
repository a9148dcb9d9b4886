"""Every public name in ``src/vnfcmap`` is reached by the package itself, by the
acceptance gate or by the benchmark; a name only the other tests reach belongs
in the tests.

The check is by name, not by type: a method counts as reached when any
attribute of that name is read anywhere outside its own definition. For the
same reason dataclass fields are left out: a field such as ``variant`` would
count as read wherever any object's ``variant`` is.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnfcmap"
GATE = ROOT / "tests" / "test_acceptance.py"
BENCHMARK = ROOT / "perfbench"

# Called by the standard library, which looks them up by name: the http.server
# and socketserver hooks that service._Handler and service.MappingServer
# override, and the io methods of service._DeadlineReader.
SERVER_CALLBACKS = {
    "do_GET", "do_POST", "log_message", "setup", "process_request", "server_close",
    "service_actions", "readable", "readinto",
}


def _public(name: str) -> bool:
    return not name.startswith("_") and name not in SERVER_CALLBACKS


def _definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and class,
    and of each public method and property of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if _public(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and _public(member.name):
                    yield f"{node.name}.{member.name}", member


def _references(tree: ast.Module):
    """(name, line) of every name, attribute and import alias in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def _wrapped_names(tree: ast.Module):
    """The attribute names given as strings to ``tracer.timed(owner, "name", ...)``
    and ``tracer.counted(owner, "name", ...)``, which look them up by name."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("timed", "counted")
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreached_names(package: Path = PACKAGE, gate: Path = GATE, benchmark: Path = BENCHMARK) -> list[str]:
    """``module.name`` of each public definition in ``package`` that neither
    ``package`` nor ``gate`` references and no module in ``benchmark`` wraps."""
    modules = {path: _parse(path) for path in sorted(package.glob("*.py"))}
    referencing = dict(modules)
    referencing[gate] = _parse(gate)
    references = {
        path: list(_references(tree)) for path, tree in referencing.items()
    }
    wrapped_by_name = {
        name for path in benchmark.glob("*.py") for name in _wrapped_names(_parse(path))
    }

    unreached = []
    for path, tree in modules.items():
        for qualname, node in _definitions(tree):
            name = node.name
            if name in wrapped_by_name:
                continue
            own_lines = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and (ref_path != path or line not in own_lines)
                for ref_path, refs in references.items()
                for ref, line in refs
            ):
                unreached.append(f"{path.stem}.{qualname}")
    return unreached


def test_every_public_name_is_reached_outside_the_tests():
    assert unreached_names() == []


def test_the_check_sees_a_name_only_tests_reach(tmp_path):
    package = tmp_path / "vnfcmap"
    package.mkdir()
    (package / "used.py").write_text(
        "def used():\n    return used\n\n\nclass Box:\n    def unused(self):\n        return self.unused\n"
    )
    (package / "caller.py").write_text("from .used import used\n")
    gate = tmp_path / "test_acceptance.py"
    gate.write_text("import vnfcmap\n")
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "layers.py").write_text("tracer.timed(used, 'Box', 'span')\nprint('unused')\n")
    # ``used`` is imported by another module and ``Box`` is wrapped by name;
    # ``Box.unused`` reads itself only inside its own body, and the benchmark
    # names it only in a string it does not wrap.
    assert unreached_names(package, gate, bench) == ["used.Box.unused"]
