import copy
import dataclasses
import json
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probsens as ps
from conftest import peak_bytes
from probsens.mclr import DensityGrid
from probsens.cli import main
from probsens import criteria, runner
from probsens.runner import RunConfig, run, run_case, verify, write_outputs

FAST = dict(n_samples=4000, percentiles=list(range(10, 100, 10)))


def test_config_rejects_unknown_keys():
    with pytest.raises(ps.ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"case": "identity", "samples": 10})
    with pytest.raises(ps.ConfigError, match="unknown oracle keys"):
        RunConfig(case="discrete-oracle", oracle={"n_trails": 3})
    # each case study's model is fixed: no beam overrides, no FD step
    for key, value in (("beam", {"length": 2.0}), ("fd_rel_step", 1e-2)):
        with pytest.raises(ps.ConfigError, match=f"unknown config keys \\['{key}'\\]"):
            RunConfig.from_dict({"case": "beam", key: value})


def test_config_has_twelve_settable_values():
    # nine fields set directly, and the oracle's three keys
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "case",
        "n_samples",
        "seed",
        "percentiles",
        "perturbation_scale",
        "perturbations",
        "bandwidth",
        "oracle",
        "out_dir",
        "workers",
    ]
    assert list(runner._ORACLE_DEFAULTS) == list(runner._ORACLE_KEYS) == ["n_trials", "thetas", "dtheta"]


def test_config_validation():
    with pytest.raises(ps.ConfigError):
        RunConfig(case="nope")
    with pytest.raises(ps.ConfigError):
        RunConfig(case="identity", percentiles=[0.0])
    with pytest.raises(ps.ConfigError):
        RunConfig(case="identity", n_samples=500)  # too small for density grids
    with pytest.raises(ps.ConfigError):
        RunConfig(case="identity", workers=0)
    # no silent truncation of a fractional count, no raw TypeError for a string
    for key, bad in (("n_samples", 4000.5), ("n_samples", "4000"), ("workers", 1.5), ("workers", "2")):
        with pytest.raises(ps.ConfigError, match=f"{key} must be an integer"):
            RunConfig(case="identity", **{key: bad})
    assert RunConfig(case="identity", n_samples=np.int64(4000)).to_dict()["n_samples"] == 4000
    # every numeric field is converted once; a string is never a number or a list
    for key, bad in (
        ("perturbation_scale", "0.1"),
        ("percentiles", "57"),
        ("percentiles", ["abc"]),
        ("bandwidth", "ab"),
        ("bandwidth", [None]),
        ("perturbations", [0.1, 0.2]),
        ("perturbations", [["0.1"]]),
        ("oracle", {"n_trials": "x"}),
        ("oracle", {"n_trials": 3.7}),
        ("oracle", {"thetas": "0.5"}),
        ("oracle", {"dtheta": "1e-3"}),
        # the oracle must finish and certify something
        ("oracle", {"n_trials": 17}),
        ("oracle", {"n_trials": -1}),
        ("oracle", {"thetas": []}),
        ("oracle", {"thetas": [0.0]}),
        ("oracle", {"thetas": [0.5, 1.0]}),
        ("oracle", {"dtheta": 0.0}),
        ("oracle", ["n_trials"]),
    ):
        with pytest.raises(ps.ConfigError, match=key):
            RunConfig(case="identity", **{key: bad})
    cfg = RunConfig(case="identity", perturbation_scale=1, bandwidth=[np.float32(0.5)], perturbations=[[1, 0]])
    assert (cfg.perturbation_scale, cfg.bandwidth, cfg.perturbations) == (1.0, [0.5], [[1.0, 0.0]])
    assert type(RunConfig(case="discrete-oracle", oracle={"n_trials": np.int64(3)}).oracle["n_trials"]) is int


def test_config_rejects_empty_percentiles():
    for empty in ([], np.array([])):
        with pytest.raises(ps.ConfigError, match="percentiles"):
            RunConfig(case="identity", percentiles=empty)


def test_config_rejects_seed_outside_uint64():
    for seed in (-1, 2**64, 2**70):
        with pytest.raises(ps.ConfigError, match="seed"):
            RunConfig(case="identity", seed=seed)
    for seed in (1.5, "7"):
        with pytest.raises(ps.ConfigError, match="seed"):
            RunConfig(case="identity", seed=seed)
    assert RunConfig(case="identity", seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_cli_rejects_out_of_range_seed(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--case", "identity", "--seed", seed])
    assert exc.value.code == 2
    assert "seed must be in" in capsys.readouterr().err


def test_default_config_round_trip():
    cfg = RunConfig(case="sho")
    assert RunConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


def test_identity_run_report_content(tmp_path):
    cfg = RunConfig(case="identity", out_dir=str(tmp_path), **FAST)
    report, code = run(cfg)
    assert code == 0
    assert report["all_bounds_satisfied"]
    assert report["tr_fx"] == pytest.approx(75.0)
    assert len(report["rows"]) == 9
    assert (tmp_path / "curve.csv").exists()
    assert (tmp_path / "density.csv").exists()
    assert (tmp_path / "report.json").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["provenance"]["seed"] == 1
    # the chain is judged in one comparison; each row reads as its scalar call
    for row in on_disk["rows"]:
        rep = ps.BoundReport.of("grad_norm_sq<=tr_Fy", row["grad_norm_sq"], on_disk["tr_fy"])
        assert (row["norm_le_tr_fy"], row["margin"]) == (rep.satisfied, rep.margin)
    # curve.csv columns per the interface contract
    header = (tmp_path / "curve.csv").read_text().splitlines()[0].split(",")
    assert header[:4] == ["percentile", "z", "p_f", "std_err_pf"]
    assert header[-3:] == ["grad_norm_sq", "tr_fy", "tr_fx"]


def test_reproducibility_across_runs_and_workers(tmp_path):
    outs = []
    # 8193 samples make three CHUNK-row chunks, so workers=3 starts threads
    for name, workers in (("a", 1), ("b", 1), ("c", 3)):
        d = tmp_path / name
        cfg = RunConfig(case="identity", out_dir=str(d), workers=workers, **{**FAST, "n_samples": 8193})
        run(cfg)
        outs.append(d)
    ref_curve = (outs[0] / "curve.csv").read_bytes()
    ref_report = (outs[0] / "report.json").read_bytes()
    ref_density = (outs[0] / "density.csv").read_bytes()
    for d in outs[1:]:
        assert (d / "curve.csv").read_bytes() == ref_curve
        assert (d / "report.json").read_bytes() == ref_report
        assert (d / "density.csv").read_bytes() == ref_density


def test_curve_csv_rows_match_report_rows(tmp_path):
    # reference: one line per report row, every number as repr(float),
    # the two traces repeated on every line
    run(RunConfig(case="sho", out_dir=str(tmp_path), **FAST))
    report = json.loads((tmp_path / "report.json").read_text())
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    grads = [f"grad_{name}" for name in report["param_names"]]
    assert lines[0] == ",".join(["percentile", "z", "p_f", "std_err_pf", *grads, "grad_norm_sq", "tr_fy", "tr_fx"])
    expected = []
    for row in report["rows"]:
        values = [row["percentile"], row["z"], row["p_f"], row["std_err_pf"], *row["gradient"], row["grad_norm_sq"]]
        expected.append(",".join(repr(float(v)) for v in values + [report["tr_fy"], report["tr_fx"]]))
    assert len(expected) == 9 and lines[1:] == expected


# (2, 7) ends on a 7-row block; (4099,) and (65, 130) span two and three
# default blocks, the last one partial
@pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 7), (4099,), (65, 130)])
def test_density_csv_rows_match_per_point_loop(tmp_path, monkeypatch, shape):
    # reference: one row per grid point in C order, every number as repr(float),
    # whatever the block the writer formats at a time
    rng = np.random.default_rng(4)
    axes = tuple(np.linspace(-1.0, 2.0, n) / 3.0 for n in shape)
    density = rng.lognormal(size=shape) * 1e-7
    grads = rng.normal(size=(2,) + shape)
    grads[0].flat[0] = -0.0
    dg = DensityGrid(axes=axes, density=density, density_grad=grads, bandwidth=np.ones(len(shape)))
    labels = ["y"] if len(shape) == 1 else ["y1", "y2"]
    expected = [",".join(labels + ["density", "d_density_mu", "d_density_sigma"])]
    for idx in np.ndindex(*shape):
        values = [ax[i] for ax, i in zip(axes, idx)] + [density[idx], grads[0][idx], grads[1][idx]]
        expected.append(",".join(repr(float(v)) for v in values))
    for block in (1, 7, runner._BLOCK_ROWS):
        monkeypatch.setattr(runner, "_BLOCK_ROWS", block)
        write_outputs({"param_names": ["mu", "sigma"], "_density_grid": dg}, str(tmp_path))
        assert (tmp_path / "density.csv").read_text().splitlines() == expected


# the shortest round-trip form switches between exponent and positional
# notation at 1e16 and 1e-4
_EDGE_FLOATS = [
    -0.0,
    5e-324,
    -2.225073858507201e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    *(float(np.nextafter(edge, towards)) for edge in (1e16, 1e-4) for towards in (0.0, np.inf)),
    1e16,
    1e-4,
]


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS), min_size=3, max_size=3),
        max_size=12,
    ),
    block=st.sampled_from([1, 5, runner._BLOCK_ROWS]),
)
def test_write_csv_lines_are_float_reprs(rows, block):
    table = np.array(rows, dtype=float).reshape(len(rows), 3)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "_BLOCK_ROWS", block)
        path = Path(tmp) / "t.csv"
        runner._write_csv(path, ["a", "b", "c"], table)
        lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1:] == [",".join(map(repr, row)) for row in table.tolist()]
    read_back = np.array([[float(f) for f in line.split(",")] for line in lines[1:]]).reshape(table.shape)
    assert np.array_equal(read_back.view(np.uint64), table.view(np.uint64))


def test_density_csv_writer_memory_does_not_grow_with_the_grid(tmp_path):
    # the beam's grid: 256 x 256 points, four parameter derivatives (7.3 MB
    # of text); holding every line's strings at once takes about 29 MB
    rng = np.random.default_rng(5)
    shape = (256, 256)
    dg = DensityGrid(
        axes=tuple(np.linspace(0.0, 1.0, n) for n in shape),
        density=rng.lognormal(size=shape),
        density_grad=rng.normal(size=(4,) + shape),
        bandwidth=np.ones(2),
    )
    report = {"param_names": ["a", "b", "c", "d"], "_density_grid": dg}
    assert peak_bytes(lambda: write_outputs(report, str(tmp_path))) < 10e6


def test_identity_run_memory():
    # the finite-difference check formed every row's likelihood ratios before
    # its sweep and was the run's peak, 12.1 MB traced; then the KL batch's
    # density grid was, 8.5 MB, with the whole base batch still alive.  The
    # peak is now the threshold sweep's and the base density's, 6.15 MB
    config = RunConfig(case="identity", bandwidth=[0.04], seed=1)
    assert peak_bytes(lambda: run_case(config)) < 6.5e6


def test_perturbation_loop_holds_only_the_normals_of_the_base_batch(monkeypatch):
    # the loop maps the base batch's standard normals; the batch, its draws
    # and its scores have had their last reader by then
    refs = []
    real_sample, real_kl = runner.sample, runner.estimate_kl
    seen = []

    def spy_sample(*args, **kwargs):
        batch = real_sample(*args, **kwargs)
        refs.extend(weakref.ref(obj) for obj in (batch, batch.draws, batch.scores))
        return batch

    def spy_kl(*args, **kwargs):
        seen.append([ref() is None for ref in refs])
        return real_kl(*args, **kwargs)

    monkeypatch.setattr(runner, "sample", spy_sample)
    monkeypatch.setattr(runner, "estimate_kl", spy_kl)
    run_case(RunConfig(case="identity", n_samples=2000))
    assert len(refs) == 3
    assert seen == [[True] * 3] * 2


def test_discrete_oracle_case(tmp_path):
    cfg = RunConfig(case="discrete-oracle", out_dir=str(tmp_path))
    report, code = run(cfg)
    assert code == 0
    assert report["instances"] == 3 * 2**6
    assert report["violations"] == 0
    assert not (tmp_path / "curve.csv").exists()
    assert (tmp_path / "report.json").exists()


def test_run_case_sho_fast():
    report = run_case(RunConfig(case="sho", **FAST))
    assert report["all_bounds_satisfied"]
    assert report["tr_fx"] == pytest.approx(30300.0)
    assert report["tr_fy"] < report["tr_fx"]
    assert report["gradient_fd_check"]["max_rel_err"] < 0.02
    norms = [r["grad_norm_sq"] for r in report["rows"]]
    assert max(norms) <= report["tr_fy"]


def test_run_case_beam_fast():
    # small ensemble, explicit perturbation list: exercises the 2-D density
    # path, ensemble-normalised performance, and the paired-run machinery
    db = [0.0047, 0.0, 0.0, 0.0]  # 0.01 * sigma_E on mu_E only
    report = run_case(
        RunConfig(
            case="beam",
            n_samples=1500,
            percentiles=[25.0, 50.0, 75.0],
            perturbations=[db, [v * -1 for v in db]],
        )
    )
    assert report["all_bounds_satisfied"]
    assert report["tr_fx"] == pytest.approx(3 / 0.47**2 + 3 / 0.2**2)
    assert report["tr_fy"] < report["tr_fx"]
    assert len(report["perturbations"]) == 2
    assert report["perturbations"][0]["db"] == db
    assert all(p["violations_fx"] + p["violations_fy"] == 0 for p in report["perturbations"])
    assert report["kl_consistency"] is None  # no all-positive vector supplied
    assert report["density"]["mass"] > 0.98
    assert report["direction"] == "above"


def test_verify_passes_and_mutation_fails(capsys, monkeypatch):
    assert verify(RunConfig(n_samples=4000), cases=("identity",)) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    # a corrupted score sign must trip the gradient/finite-difference check
    real_sample = runner.sample

    def negated(*args, **kwargs):
        batch = real_sample(*args, **kwargs)
        return dataclasses.replace(batch, scores=-batch.scores)

    monkeypatch.setattr(runner, "sample", negated)
    assert verify(RunConfig(n_samples=4000), cases=("identity",)) == 1
    out = capsys.readouterr().out
    assert "[FAIL] identity: gradient vs finite differences" in out
    # a theorem suite that reports a violation fails the suite too
    monkeypatch.undo()
    monkeypatch.setattr(criteria, "titu", lambda u, v: (1.0, 0.0, False))
    assert verify(RunConfig(n_samples=4000), cases=("identity",)) == 1
    out = capsys.readouterr().out
    assert "[FAIL] Titu" in out


def test_verify_samples_each_case_once(monkeypatch):
    # the zero-mean score check reads the batch run_case draws
    calls = []
    real_sample = runner.sample

    def spy(*args, **kwargs):
        calls.append(args)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(runner, "sample", spy)
    assert verify(RunConfig(n_samples=4000), cases=("identity", "sho")) == 0
    assert len(calls) == 2


def test_cli_verify_runs_the_whole_config(tmp_path, monkeypatch):
    # every field of the file reaches run_case; --samples overrides the file,
    # and without a file the suite runs at 2e4 samples
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": "identity", "n_samples": 5000, "percentiles": [50], "seed": 3}))
    seen = []
    real_run_case = runner.run_case

    def spy(config):
        seen.append(config)
        return real_run_case(config)

    monkeypatch.setattr(runner, "run_case", spy)
    for argv, n in ((["--config", str(cfg_path)], 5000), (["--config", str(cfg_path), "--samples", "4000"], 4000)):
        seen.clear()
        main(["verify", *argv])
        (identity,) = [c for c in seen if c.case == "identity"]
        assert (identity.n_samples, identity.percentiles, identity.seed) == (n, [50.0], 3)
        assert {c.seed for c in seen} == {3}
    seen.clear()
    main(["verify", "--case", "identity"])
    assert [c.n_samples for c in seen if c.case == "identity"] == [20000]


@pytest.mark.parametrize("bandwidth", [[], [0.04, 0.05, 0.06], [-0.04], [float("nan")]])
def test_cli_refuses_bad_bandwidth_before_sampling(bandwidth, tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the bandwidth was checked")

    monkeypatch.setattr(runner, "sample", no_sampling)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": "beam", "n_samples": 2000, "bandwidth": bandwidth}))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "case, db",
    [
        ("identity", [0.1, -0.3]),  # sigma 0.2 shifted below zero
        ("identity", [0.1]),
        ("identity", [float("nan"), 0.01]),
        ("beam", [0.0, 0.0, 0.1, -0.3]),  # the density's sigma 0.2 shifted below zero
        ("beam", [0.1, 0.01]),
    ],
)
def test_run_refuses_bad_perturbation_before_sampling(case, db, monkeypatch):
    # every shifted model is built before the base batch is drawn
    calls = []
    real_sample = runner.sample

    def spy(*args, **kwargs):
        calls.append(args)
        return real_sample(*args, **kwargs)

    monkeypatch.setattr(runner, "sample", spy)
    with pytest.raises(ps.ProbsensError):
        run_case(RunConfig(case=case, n_samples=2000, perturbations=[db]))
    assert calls == []


@pytest.fixture(scope="module")
def small_report():
    report = run_case(RunConfig(case="identity", n_samples=4000))
    assert all(o.ok for o in criteria.evaluate(report))
    return report


@pytest.fixture(scope="module")
def oracle_report():
    report = run_case(RunConfig(case="discrete-oracle"))
    assert all(o.ok for o in criteria.evaluate(report))
    return report


# one edit per criterion that moves its measure, and no other, past the tolerance
_BREAK = {
    "zero-mean scores": lambda r: r["_scores"].update(mean=[6.0 * se for se in r["_scores"]["std_err"]]),
    "tr_Fx vs closed form": lambda r: r.update(tr_fx=r["tr_fx"] + 1e-6),
    "sensitivity chain violations": lambda r: r["rows"][50].update(norm_le_tr_fy=False),
    "perturbation bound violations": lambda r: r["perturbations"][0].update(violations_fy=1),
    "gradient vs finite differences": lambda r: r["gradient_fd_check"].update(max_rel_err=0.5),
    # the 10th-percentile row lies inside the p_f window and well below the peak
    "norm^2 vs closed form": lambda r: r["rows"][9].update(grad_norm_sq=1.5 * r["rows"][9]["grad_norm_sq"]),
    # the 1st-percentile row lies outside the p_f window; the median row is near the peak
    "peak norm^2 vs closed form": lambda r: r["rows"][0].update(grad_norm_sq=2.0 * r["rows"][49]["grad_norm_sq"]),
    "KL quadratic consistency": lambda r: r["kl_consistency"].update(rel_err_reverse_fx=2.0),
    "discrete simplex oracle violations": lambda r: r.update(violations=1),
}


@pytest.mark.parametrize("criterion", criteria.CRITERIA, ids=lambda c: c.name)
def test_every_criterion_can_fail(criterion, small_report, oracle_report):
    report = copy.deepcopy({"identity": small_report, "discrete-oracle": oracle_report}[criterion.cases[0]])
    _BREAK[criterion.name](report)
    failed = [o.name for o in criteria.evaluate(report) if not o.ok]
    assert failed == [criterion.name]


def test_cli_print_config_round_trip(tmp_path, capsys):
    assert main(["print-config", "--case", "beam", "--samples", "5000"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["case"] == "beam"
    assert cfg["n_samples"] == 5000
    RunConfig.from_dict(cfg)  # validates
    # a config file is read, not replaced by the identity default
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": "beam", "seed": 3}))
    assert main(["print-config", "--config", str(cfg_path)]) == 0
    assert json.loads(capsys.readouterr().out) == RunConfig(case="beam", seed=3).to_dict()


def test_cli_run_with_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": "identity", **FAST}))
    code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "curve.csv").exists()
    assert "bounds_satisfied=True" in capsys.readouterr().out


def test_cli_flag_overrides_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"case": "identity", "seed": 1, **FAST}))
    code = main(["run", "--config", str(cfg_path), "--seed", "2", "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["provenance"]["seed"] == 2


def test_cli_rejects_invalid_config(tmp_path, capsys):
    # exit 1 means a violated bound; every invalid input exits 2 with one error line
    cfg_path = tmp_path / "cfg.json"
    for bad in (
        {"bogus_key": 1},
        {"bandwidth": [0.0]},
        {"bandwidth": "ab"},
        {"bandwidth": [0.04, 0.05]},
        {"bandwidth": [float("nan")]},
        {"bandwidth": [float("inf")]},
        {"bandwidth": []},
        {"perturbations": [[0.1]]},
        # a shifted sigma below zero, or a NaN shift
        {"perturbations": [[0.1, -0.3]]},
        {"perturbations": [[float("nan"), 0.01]]},
        {"percentiles": ["abc"]},
        {"percentiles": "57"},
        {"case": "discrete-oracle", "oracle": {"thetas": [1.5]}},
        {"case": "discrete-oracle", "oracle": {"n_trials": "x"}},
        {"case": "discrete-oracle", "oracle": {"n_trials": 3.7}},
        {"case": "discrete-oracle", "oracle": {"n_trials": 40}},
        {"case": "discrete-oracle", "oracle": {"thetas": []}},
        {"case": "discrete-oracle", "oracle": {"thetas": [0.0]}},
        {"case": "discrete-oracle", "oracle": {"dtheta": 0}},
        # the gradient check's finite-difference step is fixed
        {"fd_rel_step": 1e-2},
        # an output Fisher information or a quadratic form that is infinite or NaN
        {"n_samples": 2000, "bandwidth": [1e300]},
        {"n_samples": 2000, "perturbations": [[1e308, 0]]},
        # JSON booleans are not numbers
        {"seed": True},
        {"workers": True},
        {"perturbation_scale": True},
        {"percentiles": [True, 50]},
        {"bandwidth": [True]},
        {"case": "discrete-oracle", "oracle": {"n_trials": True}},
    ):
        cfg_path.write_text(json.dumps({"case": "identity", "n_samples": 4000, **bad}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path)])
        assert exc.value.code == 2, bad
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err, bad
    # a config file that cannot be read, an output directory that cannot be made
    unreadable = ["--config", str(tmp_path / "missing.json")]
    unwritable = ["--case", "discrete-oracle", "--out", str(cfg_path / "d")]
    for argv in (unreadable, unwritable):
        with pytest.raises(SystemExit) as exc:
            main(["run", *argv])
        assert exc.value.code == 2, argv


def test_cli_verify_subcommand_exit_zero():
    assert main(["verify", "--samples", "4000", "--case", "identity"]) == 0


def test_cli_verify_discrete_oracle_runs_theorem_suites(capsys):
    assert main(["verify", "--case", "discrete-oracle"]) == 0
    out = capsys.readouterr().out
    assert "discrete simplex oracle" in out
    assert "identity:" not in out  # no sampled case needed


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "probsens.cli", "print-config"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["case"] == "identity"


def test_exit_nonzero_on_bound_violation(monkeypatch):
    # force a violation by shrinking the reported input information
    real_fim = ps.InputModel.fim

    def tiny_fim(self):
        return ps.FisherMatrix(real_fim(self).matrix * 1e-9)

    monkeypatch.setattr(ps.InputModel, "fim", tiny_fim)
    report, code = run(RunConfig(case="identity", **FAST))
    assert code == 1
    assert not report["all_bounds_satisfied"]
    monkeypatch.undo()
    # unpatched, a perturbation violation alone: at 2000 beam samples, seed 1,
    # one F_y perturbation bound fails at a p_f resolution of 1/N
    report, code = run(RunConfig(case="beam", n_samples=2000, seed=1))
    assert all(row["norm_le_tr_fy"] for row in report["rows"])
    assert report["info_processing"]["satisfied"]
    assert any(p["violations_fx"] + p["violations_fy"] for p in report["perturbations"])
    assert not report["all_bounds_satisfied"]
    assert code == 1
