"""Line and branch counts of the two narrow-phase backends and their
shared contact rules.

Usage::

    python tools/complexity.py [SRC_DIR]    # SRC_DIR defaults to src/contactsim

Prints, for ``sat.py`` and ``convex.py``, the module's line count and branch
count, then one row per pairing of sat's table, ``sat.PAIRINGS``: the same
two numbers for the backend's own functions of the pairing, alone, and
together with every function of the package that they call, directly or
through another such function.  A called function is one defined in the
caller's module or imported into it from another module of the package
(``from .contact import local_contact_2d``); each counts once per pairing.
A line is a physical line, as ``wc -l`` counts it.  A branch is an ``if``
statement or comprehension filter, a loop (``for``, ``while`` or a
comprehension clause), a ``try`` statement, a boolean operation
(``a and b and c`` is one) or a conditional expression.

A pairing's functions follow ``convex.detect_convex``.  In sat they are the
table's detector.  In co, rect-rect is ``_convex_rect_rect``, and every
other pairing, whose B is a ball, is sat's detector plus the margin,
``_with_margin`` and ``_resolve_margin``: those two count alone, and the
detector with its helpers counts among the helpers.  A last row gives the
line and branch counts of ``contact.py``, whose shared rules both backends
call.

Standard library only; it parses the sources and imports nothing from them.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

MARGIN = ("_with_margin", "_resolve_margin")  # what co adds to sat's detector
SOLVERS = {"rect-rect": "_convex_rect_rect"}  # the pairing co solves itself

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


def reached(roots: list, functions: dict, scopes: dict) -> list:
    """The (module, function) roots and every package function they call,
    directly or not."""
    seen = list(roots)
    for current_module, current in seen:
        scope = scopes[current_module]
        for node in ast.walk(functions[current_module][current]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                target = scope.get(node.func.id)
                if target is not None and target not in seen:
                    seen.append(target)
    return seen


def pairings(tree: ast.Module) -> list:
    """(pairing name, detector name) of every entry of sat's ``PAIRINGS``
    table, by pairing name."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "PAIRINGS"):
            return sorted((entry.elts[0].value, entry.elts[1].id)
                          for entry in node.value.values)
    raise SystemExit("sat.py: no PAIRINGS table")


def pairing_row(module: str, pairing: str, detector: str) -> tuple:
    """The row label of a pairing in ``module``, the backend's own functions
    of it there, and the (module, function) roots of its helpers."""
    if module == "sat.py":
        return detector, [detector], [(module, detector)]
    solver = SOLVERS.get(pairing)
    if solver is not None:
        return solver, [solver], [(module, solver)]
    return (f"{detector} + margin", list(MARGIN),
            [("sat.py", detector)] + [(module, name) for name in MARGIN])


def report(src: Path) -> str:
    rows = [f"{'':<50}{'lines':>6}{'branches':>10}"
            f"{'with helpers: lines':>21}{'branches':>10}"]
    functions, scopes = package_scopes(src)
    table = pairings(ast.parse((src / "sat.py").read_text(encoding="utf-8")))
    for module in ("sat.py", "convex.py", "contact.py"):
        text = (src / module).read_text(encoding="utf-8")
        rows.append(f"{module:<50}{len(text.splitlines()):>6}"
                    f"{branch_count(ast.parse(text)):>10}")
        if module == "contact.py":
            break
        for pairing, detector in table:
            label, own, roots = pairing_row(module, pairing, detector)
            own = [functions[module][name] for name in own]
            group = [functions[m][f] for m, f in reached(roots, functions, scopes)]
            rows.append(
                f"  {f'{pairing} ({label})':<48}{sum(map(line_count, own)):>6}"
                f"{sum(map(branch_count, own)):>10}"
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
