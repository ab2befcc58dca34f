"""Every public function and method of the library has a caller in it.

The check matches by name, not by resolved binding.  A public function
counts as used when some `ast.Name`, `ast.Attribute` or import alias
spelled the same way appears anywhere in `src/artinhom` outside that
name's own definition.  A public method is reached through an object,
so only an `ast.Attribute` or import alias of its name counts: a bare
`ast.Name`, such as a local variable that happens to share the name, is
no call of the method.  So a name shared with a live attribute passes; a
name that only the tests reach fails.  Dunders and methods overriding a
base-class attribute (such as `Parser.error`) are called by the
framework and are skipped.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import artinhom

SRC = Path(artinhom.__file__).resolve().parent


def public_definitions():
    """(module, qualified name, name) of each public function and method."""
    for info in pkgutil.iter_modules(artinhom.__path__):
        module = importlib.import_module(f"artinhom.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield info.name, name, name
            elif inspect.isclass(value):
                bases = value.__mro__[1:]
                for method, attr in vars(value).items():
                    if method.startswith("_") or any(hasattr(b, method) for b in bases):
                        continue
                    if inspect.isfunction(attr) or isinstance(attr, property):
                        yield info.name, f"{name}.{method}", method


def definition_node(tree, qualified):
    body = tree.body
    *owners, name = qualified.split(".")
    for owner in owners:
        body = next(n.body for n in body if isinstance(n, ast.ClassDef) and n.name == owner)
    return next(
        n for n in body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == name
    )


def references(trees):
    """Name -> the nodes that mention it, over every module."""
    found = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            else:
                continue
            found.setdefault(name, []).append(node)
    return found


def test_every_public_name_has_a_caller_in_the_library():
    trees = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    mentions = references(trees)
    unused = []
    for module, qualified, name in public_definitions():
        inside = {id(n) for n in ast.walk(definition_node(trees[module], qualified))}
        is_method = "." in qualified
        if all(
            id(node) in inside or (is_method and isinstance(node, ast.Name))
            for node in mentions.get(name, [])
        ):
            unused.append(f"{module}.{qualified}")
    assert not unused, f"public names no library code refers to: {unused}"
