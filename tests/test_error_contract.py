"""The error contract at the library boundary: a bad argument to a public
call raises a ProbsensError subtype or the call returns; nothing else
escapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps

_MODEL = ps.InputModel((ps.normal(1.0, 0.2),))
_BATCH = ps.sample(_MODEL, 2000, 1)
_G = _BATCH.draws[:, 0]
_F = ps.FisherMatrix(np.diag([25.0, 50.0]))
_GRID = (np.linspace(0.0, 2.0, 64),)

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
    (
        "evaluate_outputs",
        lambda draws, workers: ps.evaluate_outputs(lambda x: x[:, 0], draws, workers),
        {"draws": _BATCH.draws, "workers": 2},
    ),
    (
        "estimate_output_density",
        ps.estimate_output_density,
        {"outputs": _G, "scores": _BATCH.scores, "bandwidth": [0.04], "axes": _GRID},
    ),
    ("FisherMatrix", ps.FisherMatrix, {"matrix": np.eye(2)}),
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
)


def _bad(kind: str, value):
    """A bad stand-in for ``value``, built from it: one entry NaN or +-inf,
    no rows, one rank more or less, one row more or less, or a string."""
    if kind == "string":
        return "x"
    if isinstance(value, tuple):  # a tuple of axes: spoil the first
        return (_bad(kind, value[0]), *value[1:])
    a = np.array(value, dtype=float)
    if kind in ("nan", "inf", "-inf"):
        a.flat[0] = float(kind)
        return a
    if kind == "empty":
        return np.empty((0,) + a.shape[1:])
    if kind == "rank up":
        return a[None]
    if kind == "rank down":
        return a.reshape(-1)[0] if a.ndim else a.reshape(1, 1)
    if kind == "row more":
        return np.concatenate([a, a[:1]]) if a.ndim else np.array([a, a])
    return a[:-1] if a.ndim else a[None]  # row less


_KINDS = ("nan", "inf", "-inf", "empty", "rank up", "rank down", "row more", "row less", "string")


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
