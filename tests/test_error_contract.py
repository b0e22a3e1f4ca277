"""The error contract at the library boundary: a bad argument to a public
call raises a ProbsensError subtype or the call returns; nothing else
escapes."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from probsens.cli import main

_MODEL = ps.InputModel((ps.normal(1.0, 0.2),))
_BATCH = ps.sample(_MODEL, 2000, 1)
_G = _BATCH.draws[:, 0]
_F = ps.FisherMatrix(np.diag([25.0, 50.0]))
_GRID = (np.linspace(0.0, 2.0, 64),)
_CURVE = ps.sensitivity_curve(_G, _BATCH.scores, [10.0, 50.0])
_DENSITY = ps.estimate_output_density(_G, _BATCH.scores, [0.04], _GRID)
_DENSITY_FIELDS = {"axes": _GRID, "density": _DENSITY.density, "density_grad": _DENSITY.density_grad, "bandwidth": [0.04]}

# (name, call, valid arguments by name): each call returns cleanly on its
# valid arguments, and every argument named here is replaced by bad values
TABLE = (
    # each of these once let a bad argument escape as a numpy or Python error
    ("titu", ps.titu, {"u": [1.0, 2.0], "v": [1.0, 1.0]}),
    (
        "discrete_simplex_oracle",
        lambda b, db, sets: ps.discrete_simplex_oracle(ps.binomial_family(2), b, db, sets),
        {"b": [0.5], "db": [1e-3], "sets": [[1, 0, 1]]},
    ),
    ("discrete_kl", ps.discrete_kl, {"p": [0.5, 0.5], "q": [0.4, 0.6]}),
    ("evaluate_outputs", lambda draws: ps.evaluate_outputs(lambda x: x[:, 0], draws), {"draws": _BATCH.draws}),
    (
        "estimate_output_density",
        ps.estimate_output_density,
        {"outputs": _G, "scores": _BATCH.scores, "bandwidth": [0.04], "axes": _GRID},
    ),
    ("FisherMatrix", ps.FisherMatrix, {"matrix": np.eye(2)}),
    ("DensityGrid", ps.DensityGrid, _DENSITY_FIELDS),
    ("normal", ps.normal, {"mu": 1.0, "sigma": 0.2}),
    ("binomial_family(2).pmf", ps.binomial_family(2).pmf, {"b": [0.5]}),
    # these refused wrong shapes, sigma = 0 and n = 0 all along; most let a string escape
    ("lognormal", ps.lognormal, {"mu": 0.0, "sigma": 1.0}),
    ("sample", lambda n, seed: ps.sample(_MODEL, n, seed), {"n": 10, "seed": 1}),
    ("InputModel.shifted", _MODEL.shifted, {"db": [0.01, 0.01]}),
    ("InputModel.from_standard", _MODEL.from_standard, {"normals": _BATCH.normals[:10]}),
    ("InputModel.scores", _MODEL.scores, {"draws": _BATCH.draws[:10]}),
    ("sensitivity_curve", ps.sensitivity_curve, {"gvals": _G, "scores": _BATCH.scores, "percentiles": [10.0, 50.0]}),
    (
        "estimate_gradient_fd",
        lambda gvals, zs: ps.estimate_gradient_fd(gvals, zs, _MODEL, _BATCH, "below"),
        {"gvals": _G, "zs": [0.9, 1.1]},
    ),
    (
        "check_perturbation_bound",
        lambda p, q, db: ps.check_perturbation_bound(p, q, db, _F),
        {"p": [0.1, 0.5], "q": [0.11, 0.49], "db": [1e-3, 1e-3]},
    ),
    ("pinsker_check", ps.pinsker_check, {"p": [0.5, 0.5], "q": [0.4, 0.6]}),
    (
        "kl_quadratic_consistency",
        lambda db, kl: ps.kl_quadratic_consistency(_F, db, kl),
        {"db": [1e-2, 1e-2], "kl": 0.004},
    ),
    ("FisherMatrix.quad_form", _F.quad_form, {"db": [1.0, 1.0]}),
    # the public names that take objects of the package: a wrong-type
    # stand-in for one once escaped as an AttributeError
    ("check_sensitivity_bound", ps.check_sensitivity_bound, {"curve": _CURVE, "f_y": _F}),
    ("info_processing_check", ps.info_processing_check, {"f_y": _F, "f_x": _F}),
    ("estimate_kl", ps.estimate_kl, {"dg_b": _DENSITY, "dg_b_plus": _DENSITY}),
    ("estimate_output_fim", ps.estimate_output_fim, {"dg": _DENSITY}),
    (
        "check_perturbation_bound(fim)",
        lambda fim: ps.check_perturbation_bound([0.1], [0.11], [1e-3, 1e-3], fim),
        {"fim": _F},
    ),
    ("kl_quadratic_consistency(fim)", lambda fim: ps.kl_quadratic_consistency(fim, [1e-2, 1e-2], 0.004), {"fim": _F}),
    (
        "estimate_gradient_fd(model, batch)",
        lambda model, batch: ps.estimate_gradient_fd(_G, [0.9, 1.1], model, batch, "below"),
        {"model": _MODEL, "batch": _BATCH},
    ),
    # the public names that take objects, with the arrays inside them spoiled
    (
        "ScoredSampleBatch",
        ps.ScoredSampleBatch,
        {"draws": _BATCH.draws[:10], "scores": _BATCH.scores[:10], "normals": _BATCH.normals[:10], "seed": 1},
    ),
    (
        "DiscretePmfFamily.probs",
        lambda b, p: ps.DiscretePmfFamily(2, lambda _: p).probs(b),
        {"b": [0.5], "p": [0.4, 0.6]},
    ),
    (
        "DiscretePmfFamily.jacobian",
        lambda b, jac: ps.DiscretePmfFamily(2, lambda _: [0.4, 0.6], lambda _: jac).jacobian(b),
        {"b": [0.5], "jac": [[1.0], [-1.0]]},
    ),
)


def _is_object(value) -> bool:
    """Whether ``value`` is an object of the package, not a number, a list,
    a tuple of axes or an array."""
    return not isinstance(value, (list, tuple, np.ndarray, int, float))


def _bad(kind: str, value):
    """A bad stand-in for ``value``, built from it: one entry NaN, +-inf,
    negative or zero, every entry a bool, no rows, one rank more or less,
    one row more or less, or a string.  A number keeps its type when made
    negative or zero, and an object of the package is replaced by a list of
    floats spoiled in the same way."""
    if kind == "string":
        return "x"
    if isinstance(value, tuple):  # a tuple of axes: spoil the first
        return (_bad(kind, value[0]), *value[1:])
    if _is_object(value):
        return _bad(kind, [1.0, 1.0])
    if isinstance(value, (int, float)) and kind in ("negative", "zero", "bool"):
        return {"negative": -abs(value) - 1, "zero": 0 * value, "bool": True}[kind]
    a = np.array(value, dtype=float)
    if kind in ("nan", "inf", "-inf"):
        a.flat[0] = float(kind)
        return a
    if kind in ("negative", "zero"):
        a.flat[0] = -abs(a.flat[0]) - 1.0 if kind == "negative" else 0.0
        return a
    if kind == "bool":
        return a.astype(bool)
    if kind == "empty":
        return np.empty((0,) + a.shape[1:])
    if kind == "rank up":
        return a[None]
    if kind == "rank down":
        return a.reshape(-1)[0] if a.ndim else a.reshape(1, 1)
    if kind == "row more":
        return np.concatenate([a, a[:1]]) if a.ndim else np.array([a, a])
    return a[:-1] if a.ndim else a[None]  # row less


_KINDS = (
    "nan", "inf", "-inf", "negative", "zero", "bool", "empty", "rank up", "rank down", "row more", "row less", "string"
)


@pytest.mark.parametrize("name, call, args", TABLE, ids=[row[0] for row in TABLE])
def test_table_calls_are_valid(name, call, args):
    call(**args)


def _call(call, args, bad):
    """``call`` with the arguments named in ``bad`` replaced by their bad
    kinds; a ProbsensError counts as a clean refusal."""
    try:
        call(**{**args, **{arg: _bad(kind, args[arg]) for arg, kind in bad.items()}})
    except ps.ProbsensError:
        pass


# a bad value may warn on its way to the error or the return; only exceptions count
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_bad_arguments_raise_only_probsens_errors(data):
    name, call, args = data.draw(st.sampled_from(TABLE), label="call")
    # each argument keeps its valid value or gets a bad kind of its own; one at least is bad
    kinds = st.sampled_from((None,) + _KINDS)
    bad = data.draw(
        st.fixed_dictionaries({arg: kinds for arg in args}).filter(lambda d: any(d.values())), label="bad values"
    )
    _call(call, args, {arg: kind for arg, kind in bad.items() if kind})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_kind_of_bad_value_in_one_or_all_arguments():
    # no draws: every kind in each argument alone and in all of them at once,
    # since some calls (titu([], [])) escape only when every argument is bad
    for name, call, args in TABLE:
        for kind in _KINDS:
            for names in [[arg] for arg in args] + ([list(args)] if len(args) > 1 else []):
                _call(call, args, dict.fromkeys(names, kind))


_OBJECT_ROWS = [row for row in TABLE if any(map(_is_object, row[2].values()))]


@pytest.mark.parametrize("name, call, args", _OBJECT_ROWS, ids=[row[0] for row in _OBJECT_ROWS])
def test_wrong_type_objects_raise_contract_errors(name, call, args):
    # a string, an array or a number where an object of the package belongs
    # is refused by the function that owns the argument
    for arg in [arg for arg, value in args.items() if _is_object(value)]:
        for stand_in in ("x", np.eye(2), 1.0, _BATCH.draws):
            with pytest.raises(ps.ContractError, match=" must be a "):
                call(**{**args, arg: stand_in})


@pytest.mark.parametrize(
    "field, value",
    [
        # each of these once built a grid: the first two then escaped the
        # quadratures as a broadcast ValueError, the third cell_weights as an
        # IndexError and the string mass() as a UFuncTypeError, and the NaN
        # density gave F_y = [[0.]], which passes every bound
        ("density", np.ones(63)),
        ("density_grad", np.ones((2, 63))),
        ("axes", (np.array([0.0]),)),
        ("density", np.full(64, "x")),
        ("density", np.full(64, np.nan)),
        ("density_grad", np.full((2, 64), np.inf)),
        ("bandwidth", [0.04, 0.04]),
        ("bandwidth", [-0.04]),
    ],
    ids=[
        "short-density", "short-derivatives", "one-point-axis", "string", "nan", "inf-derivatives", "two-widths",
        "negative-width",
    ],
)
def test_density_grid_refuses_fields_that_do_not_fit(field, value):
    with pytest.raises(ps.ProbsensError):
        ps.DensityGrid(**{**_DENSITY_FIELDS, field: value})


def _rows_then_columns(x):
    # (rows,) on the first chunk, (rows, 1) on every later one
    return x[:, 0] if x[0, 0] == 0.0 else x[:, :1]


@pytest.mark.parametrize(
    "h, draw_range",
    [
        # each of these once escaped: the first two as a raw ValueError from
        # np.concatenate, the third as 4 outputs for 5000 draws
        (lambda x: 1.0, r"\[0, 4096\)"),
        (_rows_then_columns, r"\[4096, 5000\)"),
        (lambda x: x[:2, 0], r"\[0, 4096\)"),
    ],
    ids=["scalar", "rows-then-columns", "two-rows"],
)
def test_evaluate_outputs_refuses_a_malformed_forward_map(h, draw_range):
    draws = np.ones((5000, 1))
    draws[0, 0] = 0.0  # marks the first chunk
    with pytest.raises(ps.EvaluationError, match=r"forward map returned shape .* on draws " + draw_range):
        ps.evaluate_outputs(h, draws)


@pytest.mark.parametrize(
    "bandwidth, axes",
    [
        # the default axes, 3 widths past the outputs, overflow to +-inf
        (1e308, None),
        (3e307, None),
        # a fixed axis: more kernel taps than an array holds, or than memory does
        (1e300, (np.linspace(-3.0, 3.0, 512),)),
        (1e10, (np.linspace(-3.0, 3.0, 512),)),
    ],
)
def test_a_bandwidth_without_a_lattice_is_a_domain_error(bandwidth, axes):
    with pytest.raises(ps.ParameterDomainError, match="bandwidth"):
        ps.estimate_output_density(_G, _BATCH.scores, bandwidth=bandwidth, axes=axes)


@pytest.mark.parametrize(
    "outputs, bandwidth",
    # outputs of one value under a fixed width, or two values one ulp
    # apart under the default width: the default axes repeat their nodes.
    # The first once escaped as a ZeroDivisionError, the second returned
    # a density of mass 0.0
    [(np.ones(_G.size), 1e-20), (1.0 + (np.arange(_G.size) % 2) * 2.0**-52, None)],
    ids=["one-value", "one-ulp-apart"],
)
def test_default_axes_with_repeated_nodes_are_a_domain_error(outputs, bandwidth):
    with pytest.raises(ps.ParameterDomainError, match="bandwidth"):
        ps.estimate_output_density(outputs, _BATCH.scores, bandwidth=bandwidth)


def test_a_bandwidth_without_a_lattice_exits_2(tmp_path, capsys):
    # exit 1 means a violated bound; this once escaped as a raw ValueError with exit 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": "identity", "n_samples": 2000, "bandwidth": [1e308]}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err


# counts past what an array can hold, so both are refused before anything
# is allocated; a count that memory merely lacks room for is not tested, as
# whether it allocates depends on the machine's overcommit policy
@pytest.mark.parametrize("n", [10**20, 2**62], ids=["1e20", "2**62"])
def test_an_unallocatable_sample_count_is_a_domain_error(n):
    # these once escaped as numpy's ValueError ("Maximum allowed dimension
    # exceeded", "array is too big")
    with pytest.raises(ps.ParameterDomainError, match="sample count"):
        ps.sample(_MODEL, n, 1)


def test_an_unallocatable_sample_count_exits_2(tmp_path, capsys):
    # this once escaped the CLI with exit 1, the code of a violated bound
    with pytest.raises(SystemExit) as exc:
        main(["run", "--case", "identity", "--samples", str(10**20), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "sample count" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "call", [ps.models.beam_rms_ensemble, ps.models.beam_natural_frequencies], ids=["rms", "natural-frequencies"]
)
@pytest.mark.parametrize(
    "e, rho",
    # a NaN or infinite E or rho, and a speed sqrt(E/rho) that overflows
    [(np.nan, 2700.0), (69e9, np.inf), (1e300, 1e-300)],
    ids=["nan", "inf", "overflowing-speed"],
)
def test_beam_rows_without_a_finite_speed_are_domain_errors(call, e, rho):
    # these once reached the closed form: the ensemble refused them as an
    # EvaluationError with a NaN rounding bound, and the natural
    # frequencies came back NaN, infinite or zero
    with pytest.raises(ps.ParameterDomainError, match=re.escape(f"row 1 has E={e!r}, rho={rho!r}")):
        call(np.array([69e9, e]), np.array([2700.0, rho]), ps.models.BeamConfig())


def test_beam_frequencies_of_shapes_that_do_not_broadcast_are_contract_errors():
    with pytest.raises(ps.ContractError, match="do not broadcast"):
        ps.models.beam_natural_frequencies([69e9, 70e9], [2700.0, 2700.0, 2700.0], ps.models.BeamConfig())
