"""Structural guards on the package.

The phase frame of a density matrix is private to `bmc.fock`. A state is a
frame Q and a core C with entries = Q C Q+, formed on first read: the real
R of a state built in a displacement's frame (`_framed`), or the entries of
a state given by them, whose frame is the identity. Other modules see only
`_core` and `_with_core`. The frame test fails when another module names
the frame's parts again, so the frame's format cannot leak out of `fock`
unnoticed.

Every public number and amplitude is read through `fock._check_real`,
`_check_time` or `_check_amplitude`. The coercion test fails when a public
function applies `float()` or `complex()` to one of its own parameters, the
hand-rolled guard that let a str or a bool through.

Every weight lost to truncation is reported by
`fock._check_truncation(what, alpha, n_th, dim, error=None)`, which takes the
state D(alpha) thermal(n_th) D+(alpha) and forms the weight it loses itself:
the one place that compares a loss against `COHERENT_LOSS_TOL`. The report
test fails when another module names the tolerance, or `fock` compares
against it a second time: a hand-rolled report again. The call test fails
when a report is handed anything but the state: more than five arguments, a
keyword other than `error`, or a fourth argument that is not the dimension,
as in the old calls that passed a loss the caller had formed. The warning
test fails when a module other than `fock` issues a TruncationWarning
itself: a second truncation rule.

A state is read through its core everywhere: `trace_distance` compares two
frames by their cores and `lindblad_rhs` steps the packed core, so the
entries test fails when any function in the package reads `.entries`, which
is formed only for callers outside it.

The channel is the thermal attenuator: `ChannelParams` has no field beyond
the decay rate, the thermal noise rate and the ensemble's mean photon number.

A public name means one thing: the clash test fails when a name is bound to
two different callables across the package and its modules, as
`bmc.suggested_dim(mean, variance)` once was beside
`bmc.analytic.suggested_dim(state)`. `bmc.__all__` lists exactly the public
names `bmc/__init__.py` binds.
"""

import ast
import dataclasses
import importlib
import math
import types
from pathlib import Path

import pytest

import bmc
from bmc import ChannelParams, InvalidParameterError, capacity

SRC = Path(__file__).parent.parent / "src" / "bmc"
# `_alpha` is where a state keeps its frame's displacement.
FRAME_NAMES = {"_phases", "_alpha", "_framed", "_displacement_phases"}


def _names(tree: ast.AST) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update((node.name, node.asname))
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "fock.py"), ids=lambda p: p.name
)
def test_only_fock_names_the_phase_frame(path):
    assert _names(ast.parse(path.read_text(), filename=str(path))) & FRAME_NAMES == set()


def test_the_guard_sees_the_names():
    # a phase test of the kind `evolve_trajectory` once held
    snippet = "steps = rho0._phases[1:]\nstate = DensityMatrix._framed(rho0._phases, y)\n"
    assert _names(ast.parse(snippet)) & FRAME_NAMES == {"_phases", "_framed"}
    assert _names(ast.parse("from .fock import _displacement_phases")) & FRAME_NAMES == {
        "_displacement_phases"
    }


COERCIONS = {"float", "complex"}


def _coerced_parameters(tree: ast.AST) -> set[str]:
    """`function:parameter` for each public function that applies float() or
    complex() to one of its own parameters, directly or through map()."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        if func.name.startswith("_") and not func.name.endswith("__"):
            continue
        params = {a.arg for a in ast.walk(func.args) if isinstance(a, ast.arg)}
        for call in ast.walk(func):
            if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Name):
                continue
            args = call.args
            if call.func.id == "map" and args and isinstance(args[0], ast.Name):
                coercion, args = args[0].id, args[1:]
            else:
                coercion = call.func.id
            if coercion in COERCIONS:
                names = {a.id for a in args if isinstance(a, ast.Name)}
                found.update(f"{func.name}:{name}" for name in names & params)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_public_function_coerces_its_own_parameters(path):
    assert _coerced_parameters(ast.parse(path.read_text(), filename=str(path))) == set()


def test_the_guard_sees_the_coercions():
    # the guards `g_entropy` and `theta_curve` once held
    snippet = (
        "def g_entropy(x):\n    x = float(x)\n"
        "def theta_curve(params, t, n_bars):\n    for n in map(float, n_bars):\n        pass\n"
        "def _private(x):\n    return complex(x)\n"
        "def field(rho):\n    return complex(sum(rho))\n"
    )
    assert _coerced_parameters(ast.parse(snippet)) == {"g_entropy:x", "theta_curve:n_bars"}


LOSS_TOL = "COHERENT_LOSS_TOL"


def _loss_tol_comparisons(tree: ast.AST) -> int:
    return sum(
        isinstance(node, ast.Compare) and LOSS_TOL in _names(node) for node in ast.walk(tree)
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_truncation_report(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    if path.name == "fock.py":
        assert _loss_tol_comparisons(tree) == 1
    else:
        assert LOSS_TOL not in _names(tree)


def test_the_guard_sees_the_loss_tolerance():
    # the checks `run_validation` and `_warn_if_truncated` once held
    snippet = (
        "if loss > fock.COHERENT_LOSS_TOL:\n    raise TruncationError(loss)\n"
        "if not COHERENT_LOSS_TOL >= tail:\n    warn(tail)\n"
        "tol = COHERENT_LOSS_TOL\n"
    )
    tree = ast.parse(snippet)
    assert _loss_tol_comparisons(tree) == 2
    assert LOSS_TOL in _names(ast.parse("from .fock import COHERENT_LOSS_TOL"))


def _misshapen_reports(tree: ast.AST) -> list[str]:
    """The `_check_truncation` calls not of the shape (what, alpha, n_th, dim[, error])."""
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "_check_truncation" in _names(node.func)
        and (
            len(node.args) + len(node.keywords) > 5
            or any(keyword.arg != "error" for keyword in node.keywords)
            or len(node.args) < 4
            or "dim" not in _names(node.args[3])
        )
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_report_takes_the_state(path):
    assert _misshapen_reports(ast.parse(path.read_text(), filename=str(path))) == []


def test_the_guard_sees_the_old_report_shapes():
    # the calls `run_validation`, `_check_displacement` and `coherent_state` once made
    old = [
        "_check_truncation('input |{}>', loss, dim, eta, 0.0, error=TruncationError, args=(eta,))",
        "_check_truncation(what, bound, dim, alpha, n_th, args=(alpha, n_th), exact=exact)",
        "_check_truncation('coherent state |{}>', loss, dim, eta, 0.0)",
    ]
    new = [
        "fock._check_truncation('input |{0}>', eta, 0.0, dim, TruncationError)",
        "_check_truncation('fidelity with |{0}>', eta, 0.0, rho.dim, error=ValueError)",
    ]
    assert _misshapen_reports(ast.parse("\n".join(old + new))) == old


def _truncation_warnings(tree: ast.AST) -> int:
    """The `warn` calls that name TruncationWarning."""
    return sum(
        isinstance(node, ast.Call)
        and "warn" in _names(node.func)
        and "TruncationWarning" in _names(node)
        for node in ast.walk(tree)
    )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_fock_warns_of_truncation(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _truncation_warnings(tree) == (path.name == "fock.py")


def test_the_guard_sees_the_truncation_warnings():
    # the warning `to_density_matrix` once issued, and two spellings of it
    snippet = (
        "warnings.warn(f'dim={dim} is below the suggested {needed}', TruncationWarning)\n"
        "warn(message, category=errors.TruncationWarning, stacklevel=2)\n"
        "warnings.warn(message, UserWarning)\n"
        "raise TruncationError(message)\n"
    )
    assert _truncation_warnings(ast.parse(snippet)) == 2


def _entries_readers(tree: ast.AST) -> set[str]:
    return {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "entries"
    }


def test_no_function_reads_the_entries():
    found = set()
    for path in SRC.glob("*.py"):
        found |= _entries_readers(ast.parse(path.read_text(), filename=str(path)))
    assert found == set()


def test_the_guard_sees_the_entries_readers():
    # the reader `mean_photon_number` once was
    snippet = "def mean_photon_number(rho):\n    return np.diagonal(rho.entries) @ n\n"
    assert _entries_readers(ast.parse(snippet)) == {"mean_photon_number"}


def test_channel_params_has_the_thermal_attenuator_fields_only():
    assert [f.name for f in dataclasses.fields(ChannelParams)] == ["gamma", "beta_rate", "n_bar"]
    # keyword-only after gamma: a third positional value is not read as n_bar
    with pytest.raises(TypeError):
        ChannelParams(0.1, 0.01, 0.2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["gamma", "beta_rate", "n_bar"])
def test_channel_params_rejects_non_finite_fields(field, value):
    with pytest.raises(InvalidParameterError):
        ChannelParams(**{"gamma": 0.1, field: value})


MODULES = ("bmc", "bmc.fock", "bmc.lindblad", "bmc.analytic", "bmc.capacity", "bmc.cli")


def _clashing_names(modules) -> set[str]:
    """The public names bound to two or more different callables across `modules`."""
    bound = {}
    for module in modules:
        for name, value in vars(module).items():
            if not name.startswith("_") and callable(value):
                bound.setdefault(name, set()).add(id(value))
    return {name for name, values in bound.items() if len(values) > 1}


def test_no_public_name_is_bound_to_two_callables():
    assert _clashing_names([importlib.import_module(name) for name in MODULES]) == set()


def test_the_guard_sees_the_clash():
    # the two functions named `suggested_dim` bmc once exported
    fock, analytic = types.ModuleType("fock"), types.ModuleType("analytic")
    fock.suggested_dim = lambda mean, variance: 18
    analytic.suggested_dim = lambda state: 18
    fock.beta_t = analytic.beta_t = lambda params, t: 0.0
    assert _clashing_names([fock, analytic]) == {"suggested_dim"}


def test_the_package_exports_what_it_binds():
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    bound |= {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert sorted(bmc.__all__) == sorted(name for name in bound if not name.startswith("_"))
    # perfbench traces capacity.theta_at_nbar by module attribute, which a
    # package binding would bypass
    assert not hasattr(bmc, "theta_at_nbar") and callable(capacity.theta_at_nbar)
