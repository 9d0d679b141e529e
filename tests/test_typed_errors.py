"""Every refusal the package raises is typed, except a short documented list.

Input that a config or a library caller can supply is refused with a
``ValidationError`` or another ``MeanrevError`` subclass, which the CLI maps to
its exit codes.  This walks every module of the package and collects each
place that makes a plain ``ValueError``, ``TypeError`` or ``RuntimeError``;
they must be exactly the sites below, each with its reason, so a plain error
cannot come back unnoticed.
"""

import ast
from pathlib import Path

import meanrev

PLAIN = {"ValueError", "TypeError", "RuntimeError"}

# (module, enclosing function, exception) -> why it stays a plain error.
ALLOWED = {
    ("_fork", "fork_map", "RuntimeError"):
        "a worker process that dies is a process failure, reported with its exit code",
    ("analysis", "psi_closed_form", "ValueError"):
        "closed form for the oracles; no config reaches it",
    ("analysis", "psi_integral", "ValueError"):
        "closed form for the oracles; no config reaches it",
    ("grids", "SensitivityGrid.__post_init__", "ValueError"):
        "the sweeps build every grid, so a bad shape or an unexplained NaN is a defect",
    ("oracles", "phi_diagonal", "ValueError"):
        "argument check of an oracle, which only verify and the tests call",
    ("oracles", "phi_diagonal", "RuntimeError"):
        "a failed reference integration inside an oracle",
    ("riccati", "d_scalar_closed_form", "ValueError"):
        "closed form for the oracles; no config reaches it",
    ("riccati", "d_single_mr", "ValueError"):
        "closed form for the oracles; no config reaches it",
}


class _Collector(ast.NodeVisitor):
    """(enclosing function, exception) for each call or raise of a plain error."""

    def __init__(self):
        self.scope: list[str] = []
        self.sites: list[tuple[str, str]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _enter

    def _record(self, name):
        if name in PLAIN:
            self.sites.append((".".join(self.scope) or "<module>", name))

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name):
            self._record(node.func.id)
        self.generic_visit(node)

    def visit_Raise(self, node):
        if isinstance(node.exc, ast.Name):  # ``raise ValueError`` without a call
            self._record(node.exc.id)
        self.generic_visit(node)


def plain_error_sites() -> set:
    sites = set()
    for path in sorted(Path(meanrev.__file__).parent.glob("*.py")):
        collector = _Collector()
        collector.visit(ast.parse(path.read_text(), filename=str(path)))
        sites.update((path.stem, scope, name) for scope, name in collector.sites)
    return sites


def test_plain_errors_are_exactly_the_documented_sites():
    sites = plain_error_sites()
    assert sites - ALLOWED.keys() == set(), "plain errors outside the allowlist"
    assert ALLOWED.keys() - sites == set(), "allowlist entries with no such error left"
