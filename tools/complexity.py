"""Line and branch counts of the two narrow-phase backends.

Usage::

    python tools/complexity.py [SRC_DIR]    # SRC_DIR defaults to src/contactsim

Prints, for ``sat.py`` and ``convex.py``, the module's line count and branch
count, then the same two numbers for each pairing function: alone, and
together with every function of the package that it calls, directly or
through another such function.  A called function is one defined in the
caller's module or imported into it from another module of the package
(``from .contact import local_contact_2d``); each counts once per pairing.
A line is a physical line, as ``wc -l`` counts it.  A branch is an ``if``
statement or comprehension filter, a loop (``for``, ``while`` or a
comprehension clause), a ``try`` statement, a boolean operation
(``a and b and c`` is one) or a conditional expression.  The pairing
functions are sat's ``detect_*`` functions and the entries of
``convex._PAIRINGS``.

Standard library only; it parses the sources and imports nothing from them.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

BRANCHES = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.comprehension,
            ast.Try, ast.BoolOp, ast.IfExp) + ((ast.TryStar,)
                                               if hasattr(ast, "TryStar") else ())


def branch_count(node: ast.AST) -> int:
    return sum(isinstance(child, BRANCHES)
               + len(child.ifs if isinstance(child, ast.comprehension) else ())
               for child in ast.walk(node))


def line_count(node: ast.AST) -> int:
    return node.end_lineno - node.lineno + 1


def module_functions(tree: ast.Module) -> dict:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def package_scopes(src: Path) -> tuple:
    """The functions of each module of the package, and each module's scope:
    local name -> (module, function name) of every function it defines or
    imports from another module of the package."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    functions = {module: module_functions(tree) for module, tree in trees.items()}
    scopes = {}
    for module, tree in trees.items():
        scope = {name: (module, name) for name in functions[module]}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                other = f"{node.module}.py"
                for alias in node.names:
                    if alias.name in functions.get(other, {}):
                        scope[alias.asname or alias.name] = (other, alias.name)
        scopes[module] = scope
    return functions, scopes


def reached(module: str, name: str, functions: dict, scopes: dict) -> list:
    """(module, function) of ``name`` and of every package function it
    calls, directly or not."""
    seen = [(module, name)]
    for current_module, current in seen:
        scope = scopes[current_module]
        for node in ast.walk(functions[current_module][current]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                target = scope.get(node.func.id)
                if target is not None and target not in seen:
                    seen.append(target)
    return seen


def pairings(module: str, tree: ast.Module) -> dict:
    """Pairing name -> function name."""
    if module == "sat.py":
        return {name[len("detect_"):].replace("_", "-"): name
                for name in module_functions(tree) if name.startswith("detect_")}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "_PAIRINGS"):
            return {entry.elts[0].value: entry.elts[1].id
                    for entry in node.value.values}
    raise SystemExit(f"{module}: no _PAIRINGS table")


def report(src: Path) -> str:
    rows = [f"{'':<44}{'lines':>6}{'branches':>10}"
            f"{'with helpers: lines':>21}{'branches':>10}"]
    functions, scopes = package_scopes(src)
    for module in ("sat.py", "convex.py"):
        text = (src / module).read_text(encoding="utf-8")
        tree = ast.parse(text)
        rows.append(f"{module:<44}{len(text.splitlines()):>6}"
                    f"{branch_count(tree):>10}")
        own = functions[module]
        for pairing, name in sorted(pairings(module, tree).items()):
            group = [functions[m][f] for m, f in reached(module, name, functions, scopes)]
            rows.append(
                f"  {f'{pairing} ({name})':<42}{line_count(own[name]):>6}"
                f"{branch_count(own[name]):>10}"
                f"{sum(map(line_count, group)):>21}"
                f"{sum(map(branch_count, group)):>10}")
    return "\n".join(rows)


def main(argv: list) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "contactsim"
    src = Path(argv[0]) if argv else default
    print(report(src))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
