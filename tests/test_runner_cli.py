import copy
import json
import subprocess
import sys

import numpy as np
import pytest

import probsens as ps
from probsens.mclr import DensityGrid
from probsens.cli import main
from probsens import criteria, runner
from probsens.runner import RunConfig, run, run_case, verify, write_outputs

FAST = dict(n_samples=4000, percentiles=list(range(10, 100, 10)))


def test_config_rejects_unknown_keys():
    with pytest.raises(ps.ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"case": "identity", "samples": 10})
    with pytest.raises(ps.ConfigError, match="unknown beam keys"):
        RunConfig(case="beam", beam={"lenght": 2.0})


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
        ("fd_rel_step", "x"),
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
        ("beam", {"length": "x"}),
        ("beam", {"n_freq": 100.5}),
        ("beam", ["length"]),
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


@pytest.mark.parametrize("shape", [(7,), (3, 5)])
def test_density_csv_rows_match_per_point_loop(tmp_path, shape):
    # reference: one row per grid point in C order, every number as repr(float)
    rng = np.random.default_rng(4)
    axes = tuple(np.linspace(-1.0, 2.0, n) / 3.0 for n in shape)
    density = rng.lognormal(size=shape) * 1e-7
    grads = rng.normal(size=(2,) + shape)
    grads[0].flat[0] = -0.0
    dg = DensityGrid(axes=axes, density=density, density_grad=grads, bandwidth=np.ones(len(shape)))
    write_outputs({"param_names": ["mu", "sigma"], "_density_grid": dg}, str(tmp_path))
    lines = (tmp_path / "density.csv").read_text().splitlines()
    labels = ["y"] if len(shape) == 1 else ["y1", "y2"]
    assert lines[0] == ",".join(labels + ["density", "d_density_mu", "d_density_sigma"])
    expected = []
    for idx in np.ndindex(*shape):
        values = [ax[i] for ax, i in zip(axes, idx)] + [density[idx], grads[0][idx], grads[1][idx]]
        expected.append(",".join(repr(float(v)) for v in values))
    assert lines[1:] == expected


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
    assert verify(n_samples=4000, cases=("identity",)) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    # a corrupted score sign must trip the gradient/finite-difference check
    real_sample = runner.sample

    def negated(*args, **kwargs):
        batch = real_sample(*args, **kwargs)
        return ps.ScoredSampleBatch(draws=batch.draws, scores=-batch.scores, seed=batch.seed)

    monkeypatch.setattr(runner, "sample", negated)
    assert verify(n_samples=4000, cases=("identity",)) == 1
    out = capsys.readouterr().out
    assert "[FAIL] identity: gradient vs finite differences" in out


@pytest.fixture(scope="module")
def small_report():
    report = run_case(RunConfig(case="identity", n_samples=4000))
    assert all(o.ok for o in criteria.evaluate(report))
    return report


# one edit per criterion that moves its measure, and no other, past the tolerance
_BREAK = {
    "tr_Fx vs closed form": lambda r: r.update(tr_fx=r["tr_fx"] + 1e-6),
    "sensitivity chain violations": lambda r: r["rows"][50].update(norm_le_tr_fy=False),
    "perturbation bound violations": lambda r: r["perturbations"][0].update(violations_fy=1),
    "gradient vs finite differences": lambda r: r["gradient_fd_check"].update(max_rel_err=0.5),
    # the 10th-percentile row lies inside the p_f window and well below the peak
    "norm^2 vs closed form": lambda r: r["rows"][9].update(grad_norm_sq=1.5 * r["rows"][9]["grad_norm_sq"]),
    # the 1st-percentile row lies outside the p_f window; the median row is near the peak
    "peak norm^2 vs closed form": lambda r: r["rows"][0].update(grad_norm_sq=2.0 * r["rows"][49]["grad_norm_sq"]),
    "KL quadratic consistency": lambda r: r["kl_consistency"].update(rel_err_reverse_fx=2.0),
}


@pytest.mark.parametrize("criterion", criteria.CRITERIA, ids=lambda c: c.name)
def test_every_criterion_can_fail(criterion, small_report):
    report = copy.deepcopy(small_report)
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


def test_cli_rejects_invalid_config(tmp_path):
    # exit 1 means a violated bound; every invalid input exits 2
    cfg_path = tmp_path / "cfg.json"
    for bad in (
        {"bogus_key": 1},
        {"bandwidth": [0.0]},
        {"bandwidth": "ab"},
        {"perturbations": [[0.1]]},
        {"percentiles": ["abc"]},
        {"percentiles": "57"},
        {"case": "discrete-oracle", "oracle": {"thetas": [1.5]}},
        {"case": "discrete-oracle", "oracle": {"n_trials": "x"}},
        {"case": "discrete-oracle", "oracle": {"n_trials": 3.7}},
        {"case": "discrete-oracle", "oracle": {"n_trials": 40}},
        {"case": "discrete-oracle", "oracle": {"thetas": []}},
        {"case": "discrete-oracle", "oracle": {"thetas": [0.0]}},
        {"case": "discrete-oracle", "oracle": {"dtheta": 0}},
    ):
        cfg_path.write_text(json.dumps({"case": "identity", "n_samples": 4000, **bad}))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path)])
        assert exc.value.code == 2, bad
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
