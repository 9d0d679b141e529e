"""Every refusal the package raises is typed, except a short documented list.

Input that a config or a library caller can supply is refused with a
``ValidationError`` or another ``MeanrevError`` subclass, which the CLI maps to
its exit codes.  This walks every module of the package and collects each
place that makes a plain ``ValueError``, ``TypeError`` or ``RuntimeError``;
they must be exactly the sites below, each with its reason, so a plain error
cannot come back unnoticed.  The same walk holds ``NonFinite`` and
``ShapeMismatch`` to ``model``, where the one state rule and the one
positive-scalar rule live, and a table of bad states, horizons and models
runs through every entry that takes one.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import meanrev
from meanrev.control import log_utility_value, optimal_strategy, solve_value, value_function
from meanrev.errors import (
    AllKappaZero,
    NonFinite,
    NonPositiveSigma,
    NotPositiveDefinite,
    NotSymmetric,
    NotUnitDiagonal,
    OutOfDomain,
    ShapeMismatch,
)
from meanrev.analysis import value_vs_kappa2_rho
from meanrev.misspec import misspec_sweep, p_epsilon, solve_Q
from meanrev.model import OUParams, Preferences
from meanrev.wealth import simulate

from conftest import two_asset

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
    """(enclosing function, exception) for each call or raise of one of ``names``."""

    def __init__(self, names):
        self.names = names
        self.scope: list[str] = []
        self.sites: list[tuple[str, str]] = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_ClassDef = _enter

    def _record(self, name):
        if name in self.names:
            self.sites.append((".".join(self.scope) or "<module>", name))

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name):
            self._record(node.func.id)
        self.generic_visit(node)

    def visit_Raise(self, node):
        if isinstance(node.exc, ast.Name):  # ``raise ValueError`` without a call
            self._record(node.exc.id)
        self.generic_visit(node)


def error_sites(names=PLAIN) -> set:
    """(module, enclosing function, exception) for every error of ``names`` the package makes."""
    sites = set()
    for path in sorted(Path(meanrev.__file__).parent.glob("*.py")):
        collector = _Collector(names)
        collector.visit(ast.parse(path.read_text(), filename=str(path)))
        sites.update((path.stem, scope, name) for scope, name in collector.sites)
    return sites


def test_plain_errors_are_exactly_the_documented_sites():
    sites = error_sites()
    assert sites - ALLOWED.keys() == set(), "plain errors outside the allowlist"
    assert ALLOWED.keys() - sites == set(), "allowlist entries with no such error left"


def test_state_and_finiteness_errors_are_raised_only_by_the_model():
    # A second copy of the state or positive-scalar rule would raise them elsewhere.
    sites = error_sites({"NonFinite", "ShapeMismatch"})
    assert {module for module, _, _ in sites} == {"model"}, sorted(sites)


MODEL, PREFS, HORIZON = two_asset(sigma=(0.5, 2.0), theta=(0.1, -0.3)), Preferences(gamma=-1.0), 1.0
SPEC = optimal_strategy(MODEL, PREFS, HORIZON)
A_SOLUTION = solve_value(MODEL, PREFS, HORIZON)
Q_SOLUTION = solve_Q(PREFS.gamma, SPEC)

# Every library entry that takes a state, called at (w, x, t) = (1, x, 0).
STATE_ENTRIES = {
    "value_function": lambda x: value_function(1.0, x, 0.0, A_SOLUTION, PREFS, MODEL),
    "p_epsilon": lambda x: p_epsilon(1.0, x, 0.0, PREFS.gamma, Q_SOLUTION, MODEL),
    "position": lambda x: SPEC.position(1.0, x, 0.0),
    "log_utility_value": lambda x: log_utility_value(1.0, x, 0.0, MODEL, HORIZON),
    "simulate": lambda x: simulate(MODEL, PREFS, SPEC, HORIZON, 4, 2, 0, x0=x),
}


@pytest.mark.parametrize("state, error, message", [
    (0.3, ShapeMismatch, "^a state must be"),
    ([0.3], ShapeMismatch, "^a state must be"),
    ([0.3, 0.1, 0.2], ShapeMismatch, "^a state must be"),
    ([math.nan, 0.1], NonFinite, "^a state has a non-finite entry"),
    ([0.1, math.inf], NonFinite, "^a state has a non-finite entry"),
], ids=["scalar", "short", "long", "nan", "inf"])
@pytest.mark.parametrize("entry", STATE_ENTRIES)
def test_every_state_entry_refuses_a_bad_state(entry, state, error, message):
    # The model's one state rule, not a broadcast or a NaN result.
    with pytest.raises(error, match=message):
        STATE_ENTRIES[entry](state)


@pytest.mark.parametrize("entry", sorted(set(STATE_ENTRIES) - {"position"}))
def test_an_entry_of_one_state_refuses_a_stack(entry):
    # Only the position rule reads a stack of states, one row each; the
    # others evaluate one state, and simulate flattens its start to four entries.
    stack = [[0.1, 0.2], [0.3, 0.4]]
    with pytest.raises(ShapeMismatch, match="^a state must be"):
        STATE_ENTRIES[entry](stack)
    assert STATE_ENTRIES["position"](stack).shape == (2, 2)


HORIZON_ENTRIES = {
    "simulate": lambda h: simulate(MODEL, PREFS, SPEC, h, 4, 2, 0),
    "log_utility_value": lambda h: log_utility_value(1.0, MODEL.theta, 0.0, MODEL, h),
}


@pytest.mark.parametrize("horizon, error", [(-1.0, OutOfDomain), (0.0, OutOfDomain),
                                            (math.nan, NonFinite)])
@pytest.mark.parametrize("entry", HORIZON_ENTRIES)
def test_simulate_and_log_utility_refuse_a_bad_horizon(entry, horizon, error):
    with pytest.raises(error, match="^horizon must be"):
        HORIZON_ENTRIES[entry](horizon)


# Every sweep entry with an axis, called with one axis empty.
EMPTY_AXES = {
    "misspec_sweep multipliers1": lambda: misspec_sweep(MODEL, PREFS, HORIZON, [], [1.0]),
    "misspec_sweep multipliers2": lambda: misspec_sweep(MODEL, PREFS, HORIZON, [1.0], []),
    "value_vs_kappa2_rho kappa2": lambda: value_vs_kappa2_rho(MODEL, PREFS, HORIZON, [], [0.5]),
    "value_vs_kappa2_rho rho": lambda: value_vs_kappa2_rho(MODEL, PREFS, HORIZON, [0.5], []),
}


@pytest.mark.parametrize("entry", EMPTY_AXES)
def test_a_sweep_refuses_an_empty_axis(entry):
    # Not a header-only grid, which plot_heatmap divided by zero on.
    with pytest.raises(OutOfDomain, match="at least one value"):
        EMPTY_AXES[entry]()


def test_simulate_refuses_another_models_rule():
    other = two_asset(sigma=(1.0, 1.0), theta=(0.0, 0.0))
    with pytest.raises(OutOfDomain, match="spec.params"):
        simulate(other, PREFS, SPEC, HORIZON, 4, 2, 0)
    # An equal copy of the rule's model is the same model.
    copy = OUParams(n=2, kappa=MODEL.kappa.copy(), sigma=MODEL.sigma.copy(),
                    theta=MODEL.theta.copy(), corr=MODEL.corr.copy())
    assert simulate(copy, PREFS, SPEC, HORIZON, 4, 2, 0).n_paths == 2


# (field, breakage) -> the typed error of the invariant it breaks; the
# breakages that need an off-diagonal entry are drawn at n >= 2.
BREAKAGES = {
    ("kappa", "nan"): NonFinite,
    ("sigma", "inf"): NonFinite,
    ("theta", "nan"): NonFinite,
    ("corr", "nan"): NonFinite,
    ("kappa", "length"): ShapeMismatch,
    ("sigma", "length"): ShapeMismatch,
    ("theta", "length"): ShapeMismatch,
    ("corr", "shape"): ShapeMismatch,
    ("kappa", "negative"): OutOfDomain,
    ("kappa", "all-zero"): AllKappaZero,
    ("sigma", "non-positive"): NonPositiveSigma,
    ("corr", "diagonal"): NotUnitDiagonal,
    ("corr", "asymmetric"): NotSymmetric,
    ("corr", "singular"): NotPositiveDefinite,
}


@settings(max_examples=60, deadline=None)
@given(breakage=st.sampled_from(sorted(BREAKAGES)), n=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), size=st.floats(0.01, 5.0))
def test_a_model_with_a_broken_field_raises_its_typed_error(breakage, n, seed, size):
    field, how = breakage
    if field == "corr" and how in ("asymmetric", "singular"):
        n = max(n, 2)
    rng = np.random.default_rng(seed)
    fields = dict(kappa=rng.uniform(0.3, 2.0, n), sigma=rng.uniform(0.2, 1.5, n),
                  theta=rng.uniform(-0.5, 0.5, n), corr=np.eye(n))
    value = fields[field]
    i = int(rng.integers(n))
    if how in ("nan", "inf"):
        value.flat[int(rng.integers(value.size))] = math.nan if how == "nan" else -math.inf
    elif how in ("length", "shape"):
        value = np.resize(value, (n + 1, n + 1) if value.ndim == 2 else n + 1)
    elif how == "negative":
        value[i] = -size
    elif how == "all-zero":
        value[:] = 0.0
    elif how == "non-positive":
        value[i] = -size if rng.integers(2) else 0.0
    elif how == "diagonal":
        value[i, i] = 1.0 + size
    elif how == "asymmetric":
        value[0, 1] = min(size, 0.9)
    elif how == "singular":
        value[0, 1] = value[1, 0] = 1.0
    fields[field] = value
    with pytest.raises(BREAKAGES[breakage]):
        OUParams(n=n, **fields)
