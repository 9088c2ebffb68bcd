import json
import os

import numpy as np
import pytest

from linkprop.cli import THREAD_VARS, _apply_thread_env, main
from linkprop.data_io import dataset_from_graph, load_edge_list
from linkprop.experiment import (CONFIG_DEFAULTS, ExperimentError, RunConfig,
                                 run_experiment)
from linkprop.synthetic import block_bipartite


@pytest.fixture
def raw_dataset(tmp_path):
    """Plain pair file (no canonical header) for a small block graph."""
    graph = block_bipartite(12, 10, 2, mean_degree=6, seed=0)
    ds = dataset_from_graph(graph)
    path = tmp_path / "raw.tsv"
    rows = sorted(ds.label_pair(e) for e in ds.edges)
    path.write_text("".join(f"{u}\t{i}\n" for u, i in rows))
    return path, ds


def write_ini(tmp_path, dataset_path, outdir, train_extra=""):
    path = tmp_path / "run.ini"
    path.write_text(f"""[data]
path = {dataset_path}
name = toy

[split]
ratios = 0.6 0.2 0.2

[train]
alpha = 0.05
dim = 8
max_epochs = 4
patience = 2
{train_extra}
[eval]
k = 3
seeds = 0 1

[output]
outdir = {outdir}
""")
    return path


class TestPipelineChain:
    def test_ingest_split_train_evaluate(self, raw_dataset, tmp_path, capsys):
        raw, ds = raw_dataset
        canon = tmp_path / "canon.tsv"
        assert main(["ingest", "--input", str(raw), "--output", str(canon)]) == 0
        assert "density" in capsys.readouterr().out
        assert load_edge_list(canon).partition == ds.partition

        splitdir = tmp_path / "splits"
        assert main(["split", "--input", str(canon), "--outdir", str(splitdir),
                     "--ratios", "0.6", "0.2", "0.2", "--seed", "1"]) == 0
        for name in ("dataset.tsv", "train.tsv", "val.tsv", "test.tsv",
                     "split.json"):
            assert (splitdir / name).exists()

        rundir = tmp_path / "run"
        assert main(["train", "--splits", str(splitdir), "--model", "mf",
                     "--alpha", "0.05", "--dim", "8", "--epochs", "5",
                     "--k", "3", "--outdir", str(rundir)]) == 0
        emb = rundir / "embeddings_mf_seed0.npy"
        assert emb.exists()
        assert np.load(emb).shape == (22, 8)
        assert (rundir / "trajectory_mf_seed0.csv").exists()

        csv_path = tmp_path / "metrics.csv"
        assert main(["evaluate", "--splits", str(splitdir), "--embeddings",
                     str(emb), "--model", "mf", "--k", "3",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "recall@3" in out
        assert csv_path.read_text().startswith("dataset,model,seed,k,")

    def test_train_bad_exponent_is_an_error_not_a_traceback(
            self, raw_dataset, tmp_path, capsys):
        raw, _ = raw_dataset
        splitdir = tmp_path / "splits"
        assert main(["split", "--input", str(raw), "--outdir", str(splitdir),
                     "--ratios", "0.6", "0.2", "0.2"]) == 0
        assert main(["train", "--splits", str(splitdir), "--model", "mf",
                     "--neg-strategy", "degree_power", "--neg-exponent", "nan",
                     "--outdir", str(tmp_path / "run")]) == 2
        assert "exponent must be finite" in capsys.readouterr().err

    def test_train_kernel_path_matches_gradient_artifacts(self, raw_dataset,
                                                          tmp_path):
        raw, _ = raw_dataset
        splitdir = tmp_path / "sp"
        main(["split", "--input", str(raw), "--outdir", str(splitdir),
              "--ratios", "0.6", "0.2", "0.2"])
        for path_mode, subdir in (("gradient", "g"), ("kernel", "k")):
            assert main(["train", "--splits", str(splitdir), "--model",
                         "lightgcn", "--layers", "2", "--alpha", "0.05",
                         "--dim", "4", "--epochs", "6", "--k", "3",
                         "--path", path_mode,
                         "--outdir", str(tmp_path / subdir)]) == 0
        a = np.load(tmp_path / "g" / "embeddings_lightgcn_seed0.npy")
        b = np.load(tmp_path / "k" / "embeddings_lightgcn_seed0.npy")
        assert float(np.abs(a - b).max()) < 1e-8


class TestVerifyEquivalence:
    def test_small_run_passes(self, capsys):
        assert main(["verify-equivalence", "--model", "mf", "--graphs", "2",
                     "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "per-step max dev" in out

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["verify-equivalence", "--model", "mf", "--graphs", "1",
                     "--steps", "2", "--tolerance", "0.0"]) == 1
        assert "EXCEEDS" in capsys.readouterr().out

    def test_unknown_model(self, capsys):
        assert main(["verify-equivalence", "--model", "sage"]) == 2


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["ingest", "--input", str(tmp_path / "absent.tsv"),
                     "--output", str(tmp_path / "out.tsv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_ratios(self, raw_dataset, tmp_path, capsys):
        raw, _ = raw_dataset
        code = main(["split", "--input", str(raw), "--outdir",
                     str(tmp_path / "s"), "--ratios", "0.5", "0.4", "0.3"])
        assert code == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestEnvironment:
    def test_thread_var_fanout(self, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("LINKPROP_THREADS", "1")
        _apply_thread_env()
        assert all(os.environ[var] == "1" for var in THREAD_VARS)

    def test_existing_thread_vars_win(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.setenv("LINKPROP_THREADS", "1")
        _apply_thread_env()
        assert os.environ["OMP_NUM_THREADS"] == "4"

    def test_outdir_env_default(self, raw_dataset, tmp_path, monkeypatch):
        raw, _ = raw_dataset
        splitdir = tmp_path / "sp"
        main(["split", "--input", str(raw), "--outdir", str(splitdir),
              "--ratios", "0.6", "0.2", "0.2"])
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("LINKPROP_OUTDIR", str(envdir))
        assert main(["train", "--splits", str(splitdir), "--model", "mf",
                     "--alpha", "0.05", "--dim", "4", "--epochs", "2",
                     "--k", "3"]) == 0
        assert (envdir / "embeddings_mf_seed0.npy").exists()


class TestRunConfig:
    def test_defaults_from_minimal_ini(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[data]\npath = data.tsv\n")
        cfg = RunConfig.from_ini(path)
        assert cfg.models == ("mf",)
        assert cfg.alpha == 0.01
        assert cfg.seeds == (0,)
        assert cfg.k == 20
        assert cfg.outdir == "runs/out"
        assert cfg.dataset_name == "data"

    def test_name_override_and_lists(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[data]\npath = x.tsv\nname = custom\n"
                        "[model]\nmodels = mf, lightgcn\n"
                        "[eval]\nseeds = 0 1 2\n")
        cfg = RunConfig.from_ini(path)
        assert cfg.dataset_name == "custom"
        assert cfg.models == ("mf", "lightgcn")
        assert cfg.seeds == (0, 1, 2)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\npath = x\n[tuning]\nlr = 1\n")
        with pytest.raises(ValueError, match="unknown config section"):
            RunConfig.from_ini(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nalpha = 0.1\nmomentum = 0.9\n")
        with pytest.raises(ValueError, match="unknown keys"):
            RunConfig.from_ini(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunConfig.from_ini(tmp_path / "absent.ini")

    def test_every_default_key_is_consumed(self, tmp_path):
        # writing out every default produces the same config as writing none
        lines = []
        for section, keys in CONFIG_DEFAULTS.items():
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in keys.items() if v != ""]
        full = tmp_path / "full.ini"
        full.write_text("\n".join(lines) + "\n")
        minimal = tmp_path / "min.ini"
        minimal.write_text("[data]\npath =\n")
        assert RunConfig.from_ini(full) == RunConfig.from_ini(minimal)


    @pytest.mark.parametrize("kwargs, field", [
        ({"alpha": float("nan")}, "alpha"), ({"k": 0}, "eval_k"),
        ({"models": ("mf", "nope")}, "unknown model"),
        ({"layers": 17}, "layers"), ({"models": ()}, "models"),
        ({"seeds": ()}, "seeds"), ({"beta": float("nan")}, "beta"),
        ({"lam": float("inf")}, "lam"), ({"neg_strategy": "zipf"}, "strategy"),
        ({"per_positive": 0}, "per_positive"),
        ({"neg_exponent": float("nan")}, "exponent")])
    def test_rejected_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(dataset_path="x", **kwargs)

    def test_bad_train_key_fails_before_ingest(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(f"[data]\npath = {tmp_path / 'absent.tsv'}\n"
                        "[train]\nalpha = nan\n")
        assert main(["report", "--config", str(path)]) == 2
        assert "alpha must be positive and finite" in capsys.readouterr().err


class TestRunExperiment:
    def test_artifacts_and_bit_identity(self, raw_dataset, tmp_path):
        raw, _ = raw_dataset
        outdir = tmp_path / "exp"
        cfg = RunConfig.from_ini(write_ini(tmp_path, raw, outdir))
        report = run_experiment(cfg)
        files = ["report.json", "report.txt", "metrics.csv",
                 "trajectory_mf_seed0.csv", "trajectory_mf_seed1.csv"]
        for name in files:
            assert (outdir / name).exists()
        assert set(report.models) == {"mf"}
        assert len(report.models["mf"]["per_seed"]) == 2
        payload = json.loads((outdir / "report.json").read_text())
        assert payload["versions"]["linkprop"]

        before = {name: (outdir / name).read_bytes() for name in files}
        run_experiment(cfg)
        after = {name: (outdir / name).read_bytes() for name in files}
        assert before == after

    def test_grid_mode_reports_points(self, raw_dataset, tmp_path):
        raw, _ = raw_dataset
        outdir = tmp_path / "grid"
        cfg = RunConfig.from_ini(write_ini(
            tmp_path, raw, outdir, train_extra="grid = true\n"))
        assert cfg.grid
        report = run_experiment(cfg)
        grid = report.models["mf"]["grid"]
        assert len(grid["points"]) == 5
        assert grid["best_alpha"] in [p["alpha"] for p in grid["points"]]
        assert report.models["mf"]["config"]["alpha"] == grid["best_alpha"]

    def test_ingest_stage_error(self, tmp_path):
        cfg = RunConfig(dataset_path=str(tmp_path / "absent.tsv"),
                        outdir=str(tmp_path / "o"))
        with pytest.raises(ExperimentError, match="ingest"):
            run_experiment(cfg)

    def test_split_stage_error(self, raw_dataset, tmp_path):
        raw, _ = raw_dataset
        cfg = RunConfig(dataset_path=str(raw), ratios=(0.5, 0.4, 0.3),
                        outdir=str(tmp_path / "o"))
        with pytest.raises(ExperimentError, match="split"):
            run_experiment(cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_train_stage_error_names_model(self, raw_dataset, tmp_path):
        raw, _ = raw_dataset
        cfg = RunConfig(dataset_path=str(raw), alpha=1e100, init_scale=1.0,
                        max_epochs=12, dim=4, ratios=(0.6, 0.2, 0.2), k=3,
                        outdir=str(tmp_path / "o"))
        with pytest.raises(ExperimentError, match=r"train\[mf\]"):
            run_experiment(cfg)


class TestReportCommand:
    def test_report_subcommand_and_outdir_flag(self, raw_dataset, tmp_path,
                                               capsys):
        raw, _ = raw_dataset
        ini = write_ini(tmp_path, raw, tmp_path / "ignored")
        override = tmp_path / "flagged"
        assert main(["report", "--config", str(ini),
                     "--outdir", str(override)]) == 0
        out = capsys.readouterr().out
        assert "dataset toy" in out
        assert str(override) in out
        assert (override / "report.json").exists()
        payload = json.loads((override / "report.json").read_text())
        assert payload["config"]["output"]["outdir"] == str(override)
