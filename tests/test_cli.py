import inspect
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import linkprop
from linkprop import THREAD_VARS, _apply_thread_env, cli
from linkprop.cli import main
from linkprop.data_io import (FORMATS, dataset_from_graph, load_edge_list,
                              split_dataset)
from linkprop.experiment import (CONFIG_DEFAULTS, ExperimentError, RunConfig,
                                 run_experiment)
from linkprop.kernel import KernelConfig, model_config
from linkprop.losses import MODELS, ModelParams, bce_loss, model_table
from linkprop.negatives import STRATEGIES, degree_power_weights, sample_negatives
from linkprop.ranking import evaluate
from linkprop.synthetic import block_bipartite
from linkprop.training import (PATHS, TrainConfig, init_embeddings,
                               repeat_train)

from conftest import DATA_DIR

CONFIGS = DATA_DIR.rsplit("/", 1)[0] + "/configs"


@pytest.fixture
def raw_dataset(tmp_path):
    """Plain pair file (no canonical header) for a small block graph."""
    graph = block_bipartite(12, 10, 2, mean_degree=6, seed=0)
    ds = dataset_from_graph(graph)
    path = tmp_path / "raw.tsv"
    rows = sorted(ds.label_pair(e) for e in ds.edges)
    path.write_text("".join(f"{u}\t{i}\n" for u, i in rows), encoding="utf-8")
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
""", encoding="utf-8")
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
        assert csv_path.read_text(encoding="utf-8").startswith(
            "dataset,model,seed,k,")

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

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_bad_flagged_users_is_an_error_not_a_traceback(
            self, raw_dataset, tmp_path, capsys, command):
        raw, ds = raw_dataset
        splitdir = tmp_path / "splits"
        assert main(["split", "--input", str(raw), "--outdir", str(splitdir),
                     "--ratios", "0.6", "0.2", "0.2"]) == 0
        meta = json.loads((splitdir / "split.json").read_text(encoding="utf-8"))
        meta["flagged_users"] = ["nobody"]
        (splitdir / "split.json").write_text(json.dumps(meta), encoding="utf-8")
        emb = tmp_path / "emb.npy"
        np.save(emb, np.zeros((ds.partition.num_nodes, 2)))
        extra = (["--outdir", str(tmp_path / "run")] if command == "train"
                 else ["--embeddings", str(emb)])
        capsys.readouterr()
        assert main([command, "--splits", str(splitdir), "--model", "mf",
                     *extra]) == 2
        assert "split.json: flagged_users: user 'nobody' not in dataset.tsv" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["nan", "inf", "0"])
    def test_train_bad_init_scale_is_an_error(self, raw_dataset, tmp_path,
                                              capsys, scale):
        raw, _ = raw_dataset
        splitdir = tmp_path / "splits"
        assert main(["split", "--input", str(raw), "--outdir", str(splitdir),
                     "--ratios", "0.6", "0.2", "0.2"]) == 0
        assert main(["train", "--splits", str(splitdir), "--model", "mf",
                     "--init-scale", scale,
                     "--outdir", str(tmp_path / "run")]) == 2
        assert "--init-scale must be positive and finite" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "0", "--k must be >= 1, got 0"),
        ("--epochs", "0", "--epochs must be >= 1, got 0"),
        ("--neg-exponent", "nan", "--neg-exponent must be finite, got nan"),
        ("--per-positive", "0", "--per-positive must be >= 1, got 0"),
        ("--init-scale", "0",
         "--init-scale must be positive and finite, got 0.0"),
        ("--eval-every", "0", "--eval-every must be >= 1, got 0")])
    def test_train_error_names_the_flag(self, raw_dataset, tmp_path, capsys,
                                        flag, value, message):
        # the library names its setting (eval_k, max_epochs, ...); the
        # command line names the flag the user typed
        raw, _ = raw_dataset
        splitdir = tmp_path / "splits"
        assert main(["split", "--input", str(raw), "--outdir", str(splitdir),
                     "--ratios", "0.6", "0.2", "0.2"]) == 0
        capsys.readouterr()
        assert main(["train", "--splits", str(splitdir), "--model", "mf",
                     flag, value, "--outdir", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("model", ["mf", "lightgcn"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--layers", "17", "layers must be in 0..16, got 17"),
        ("--window", "17", "window must be in 1..16, got 17"),
        ("--window", "0", "window must be in 1..16, got 0")])
    def test_evaluate_bad_model_setting_names_it(self, raw_dataset, tmp_path,
                                                 capsys, model, flag, value,
                                                 message):
        raw, ds = raw_dataset
        splitdir = tmp_path / "splits"
        assert main(["split", "--input", str(raw), "--outdir", str(splitdir),
                     "--ratios", "0.6", "0.2", "0.2"]) == 0
        emb = tmp_path / "emb.npy"
        np.save(emb, np.zeros((ds.partition.num_nodes, 2)))
        capsys.readouterr()
        assert main(["evaluate", "--splits", str(splitdir), "--embeddings",
                     str(emb), "--model", model, flag, value]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["mf", "lightgcn"])
    @pytest.mark.parametrize("dtype, extra", [
        ("int64", ()), ("bool", ()), ("float64", (2,))])
    def test_evaluate_non_float_or_3d_embeddings_is_one_error_line(
            self, raw_dataset, tmp_path, capsys, model, dtype, extra):
        # every model checks X in ProximityOperator.apply, before mf's
        # identity operator would hand it on unchecked
        raw, ds = raw_dataset
        splitdir = tmp_path / "splits"
        assert main(["split", "--input", str(raw), "--outdir", str(splitdir),
                     "--ratios", "0.6", "0.2", "0.2"]) == 0
        emb = tmp_path / "emb.npy"
        shape = (ds.partition.num_nodes, 4, *extra)
        np.save(emb, np.ones(shape, dtype=dtype))
        capsys.readouterr()
        assert main(["evaluate", "--splits", str(splitdir), "--embeddings",
                     str(emb), "--model", model]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: X must be a 2-d real floating-point array, "
                       f"got shape {shape} and dtype {dtype}\n")

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
        # the smallest tolerances are positive: 0 and below are rejected
        assert main(["verify-equivalence", "--model", "mf", "--graphs", "1",
                     "--steps", "2", "--tolerance", "1e-300"]) == 1
        assert "EXCEEDS" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--graphs", "0"), ("--graphs", "-3"), ("--steps", "0"),
        ("--steps", "-2"), ("--tolerance", "nan"), ("--tolerance", "inf"),
        ("--tolerance", "0"), ("--tolerance", "-1e-8")])
    def test_rejects_vacuous_settings(self, capsys, flag, value):
        # --graphs 0 checked nothing and printed OK; --tolerance nan
        # failed every model whatever the deviation; --steps 0 was
        # reported as max_epochs, a field the user never typed
        assert main(["verify-equivalence", "--model", "mf",
                     f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"error: {flag} must be" in captured.err
        assert captured.out == ""

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

    @pytest.mark.parametrize("command", ["split", "train"])
    def test_negative_seed_names_the_seed(self, raw_dataset, tmp_path, capsys,
                                          command):
        raw, _ = raw_dataset
        assert main(["split", "--input", str(raw), "--outdir",
                     str(tmp_path / "s")]) == 0
        capsys.readouterr()
        args = (["--input", str(raw), "--outdir", str(tmp_path / "s2")]
                if command == "split" else
                ["--splits", str(tmp_path / "s"), "--model", "mf",
                 "--outdir", str(tmp_path / "t")])
        assert main([command, *args, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == \
            "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["split", "train"])
    @pytest.mark.parametrize("seed", ["True", "1.5"])
    def test_non_integer_seed_is_a_usage_error(self, raw_dataset, tmp_path,
                                               capsys, command, seed):
        raw, _ = raw_dataset
        args = (["--input", str(raw), "--outdir", str(tmp_path / "s")]
                if command == "split" else
                ["--splits", str(tmp_path / "s"), "--model", "mf"])
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--seed", seed])
        assert exc.value.code == 2
        assert f"argument --seed: invalid int value: '{seed}'" in \
            capsys.readouterr().err

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

    def test_thread_vars_are_set_before_numpy_loads(self):
        # a BLAS reads its thread count once, when numpy first loads it;
        # importing the command line must fan LINKPROP_THREADS out before
        # that, and a threaded BLAS then runs a product on one thread
        script = """if True:
            import os, sys
            seen = []

            class Spy:
                def find_spec(self, name, path=None, target=None):
                    if name == "numpy" and not seen:
                        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

            sys.meta_path.insert(0, Spy())
            import linkprop.cli
            import numpy as np
            a = np.ones((600, 600))
            a @ a
            tasks = "/proc/self/task"
            print(seen[0], len(os.listdir(tasks)) if os.path.isdir(tasks)
                  else 1)
        """
        env = {key: value for key, value in os.environ.items()
               if key not in THREAD_VARS}
        env["LINKPROP_THREADS"] = "1"
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(linkprop.__file__))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, encoding="utf-8",
                             check=True, timeout=120)
        assert out.stdout.split() == ["1", "1"]

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
        path.write_text("[data]\npath = data.tsv\n", encoding="utf-8")
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
                        "[eval]\nseeds = 0 1 2\n", encoding="utf-8")
        cfg = RunConfig.from_ini(path)
        assert cfg.dataset_name == "custom"
        assert cfg.models == ("mf", "lightgcn")
        assert cfg.seeds == (0, 1, 2)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\npath = x\n[tuning]\nlr = 1\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config section"):
            RunConfig.from_ini(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nalpha = 0.1\nmomentum = 0.9\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="unknown keys"):
            RunConfig.from_ini(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunConfig.from_ini(tmp_path / "absent.ini")

    def test_percent_is_a_literal_character(self, tmp_path):
        path = tmp_path / "pct.ini"
        path.write_text("[data]\npath = runs/100%.tsv\nname = 5%%\n"
                        "[output]\noutdir = runs/%(name)s\n",
                        encoding="utf-8")
        cfg = RunConfig.from_ini(path)
        assert (cfg.dataset_path, cfg.name, cfg.outdir) == (
            "runs/100%.tsv", "5%%", "runs/%(name)s")

    def test_every_default_key_is_consumed(self, tmp_path):
        # writing out every default produces the same config as writing none
        lines = []
        for section, keys in CONFIG_DEFAULTS.items():
            lines.append(f"[{section}]")
            lines += [f"{k} = {v}" for k, v in keys.items() if v != ""]
        full = tmp_path / "full.ini"
        full.write_text("\n".join(lines) + "\n", encoding="utf-8")
        minimal = tmp_path / "min.ini"
        minimal.write_text("[data]\npath =\n", encoding="utf-8")
        assert RunConfig.from_ini(full) == RunConfig.from_ini(minimal)


    @pytest.mark.parametrize("kwargs, field", [
        ({"alpha": float("nan")}, "alpha"), ({"k": 0}, "eval_k"),
        ({"models": ("mf", "nope")}, "model must be one of"),
        ({"layers": 17}, "layers"), ({"models": ()}, "models"),
        ({"seeds": ()}, "seeds"), ({"beta": float("nan")}, "beta"),
        ({"lam": float("inf")}, "lam"), ({"neg_strategy": "zipf"}, "strategy"),
        ({"per_positive": 0}, "per_positive"),
        ({"neg_exponent": float("nan")}, "exponent"),
        ({"ratios": (0.5, 0.2, 0.1)}, "ratios"),
        ({"ratios": (float("nan"), 0.5, 0.5)}, "ratios"),
        ({"ratios": (0.9, 0.1)}, "ratios"),
        ({"split_seed": -1}, "split_seed must be >= 0"),
        ({"split_seed": 0.5}, "split_seed must be an integer"),
        ({"seeds": (-1,)}, "seeds must be >= 0"),
        ({"seeds": (0, 1.5)}, "seeds must be an integer"),
        ({"per_positive": 1.5}, "per_positive must be an integer"),
        ({"per_positive": True}, "per_positive must be an integer"),
        ({"seeds": (0, 0, 1)}, "seeds lists 0 more than once"),
        ({"seeds": (3, 1, 3)}, "seeds lists 3 more than once"),
        ({"models": ("mf", "mf")}, "models lists 'mf' more than once"),
        ({"models": ("mf", "lightgcn", "mf")},
         "models lists 'mf' more than once"),
        ({"dataset_format": "xml"}, "format must be one of")])
    def test_rejected_at_construction(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            RunConfig(dataset_path="x", **kwargs)

    @pytest.mark.parametrize("given", [("0.8", "0.1", "0.1"),
                                       (True, False, False), [0.8, 0.1, 0.1]])
    def test_ratios_stored_as_checked_floats(self, given):
        ratios = RunConfig(dataset_path="x", ratios=given).ratios
        assert ratios == tuple(float(r) for r in given)
        assert all(type(r) is float for r in ratios)

    def test_bad_train_key_fails_before_ingest(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(f"[data]\npath = {tmp_path / 'absent.tsv'}\n"
                        "[train]\nalpha = nan\n", encoding="utf-8")
        assert main(["report", "--config", str(path)]) == 2
        assert "alpha must be positive and finite" in capsys.readouterr().err

    def test_repeated_model_and_seed_fail_before_ingest(self, tmp_path,
                                                         capsys):
        # they used to run: six metrics.csv rows, one trajectory file
        # written twice, and seed 0 counted twice in the report's mean
        path = tmp_path / "repeat.ini"
        path.write_text(f"[data]\npath = {tmp_path / 'absent.tsv'}\n"
                        "[model]\nmodels = mf mf\n[eval]\nseeds = 0 0 1\n",
                        encoding="utf-8")
        assert main(["report", "--config", str(path)]) == 2
        assert "models lists 'mf' more than once" in capsys.readouterr().err

    def test_bad_ratios_fail_before_ingest(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(f"[data]\npath = {tmp_path / 'absent.tsv'}\n"
                        "[split]\nratios = nan 0.5 0.5\n", encoding="utf-8")
        assert main(["report", "--config", str(path)]) == 2
        assert "ratios must be three finite" in capsys.readouterr().err


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
        payload = json.loads(
            (outdir / "report.json").read_text(encoding="utf-8"))
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

    def test_split_stage_error(self, raw_dataset, tmp_path, monkeypatch):
        # bad ratios fail in RunConfig now; any other split failure is
        # still reported under the stage's name
        def fail(*args):
            raise ValueError("cannot split")
        monkeypatch.setattr("linkprop.experiment.split_dataset", fail)
        raw, _ = raw_dataset
        cfg = RunConfig(dataset_path=str(raw), outdir=str(tmp_path / "o"))
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
        payload = json.loads(
            (override / "report.json").read_text(encoding="utf-8"))
        assert payload["config"]["output"]["outdir"] == str(override)


    @pytest.mark.parametrize("text, line", [
        ("[eval]\nk = 1\nk = 2\n", "{ini}: line 3: [eval] k is given twice"),
        ("[eval]\n[eval]\n", "{ini}: line 2: section [eval] is given twice"),
        ("k = 1\n[eval]\n",
         "{ini}: line 1: 'k = 1' comes before any [section] header"),
        ("[data]\npath = x.tsv\nmodels\n",
         "{ini}: line 3: neither a [section] header nor a key = value line"),
        (b"[data]\npath = \xff.tsv\n",
         "{ini}: 'utf-8' codec can't decode byte 0xff in position 14: "
         "invalid start byte"),
        ("[eval]\nk = abc\n",
         "[eval] k: invalid literal for int() with base 10: 'abc'"),
        ("[eval]\nseeds = 0 1.5\n",
         "[eval] seeds: invalid literal for int() with base 10: '1.5'"),
        ("[train]\ngrid = maybe\n", "[train] grid: Not a boolean: maybe"),
        ("[train]\nlambda = -1\n",
         "[train] lambda must be finite and nonnegative, got -1.0"),
        ("[eval]\nk = 0\n", "[eval] k must be >= 1, got 0"),
        ("[split]\nseed = -1\n", "[split] seed must be >= 0, got -1"),
        # a choice value names its key, the value and the choices; the
        # format is checked before ingest opens the (absent) data file
        ("[model]\nmodels = mf nope\n",
         f"[model] models must be one of {MODELS}, got 'nope'"),
        ("[sampling]\nstrategy = zipf\n",
         f"[sampling] strategy must be one of {STRATEGIES}, got 'zipf'"),
        ("[data]\npath = {dir}/absent.tsv\nformat = xml\n",
         f"[data] format must be one of {FORMATS}, got 'xml'"),
        ("[train]\npath = sideways\n",
         f"[train] path must be one of {PATHS}, got 'sideways'"),
        ("[data]\npath = {dir}/100%.tsv\n",
         "stage 'ingest' failed: [Errno 2] No such file or directory: "
         "'{dir}/100%.tsv'")])
    def test_bad_input_is_one_error_line(self, tmp_path, capsys, text, line):
        # each used to escape main as a traceback, or to name no key, or
        # a RunConfig field instead of the key the file spells
        ini = tmp_path / "bad.ini"
        ini.write_bytes(text if isinstance(text, bytes) else
                        text.format(dir=tmp_path).encode("utf-8"))
        assert main(["report", "--config", str(ini),
                     "--outdir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {line.format(ini=ini, dir=tmp_path)}\n"
        assert captured.out == ""


def ini_text(mapping) -> str:
    """An INI file of a `RunConfig.to_mapping()`."""
    lines = []
    for section, keys in mapping.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            if isinstance(value, list):
                value = " ".join(map(str, value))
            elif isinstance(value, bool):
                value = str(value).lower()
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# the TrainConfig field each [model], [train] and [eval] key sets; models,
# grid and seeds are the run's own
TRAIN_KEYS = {("model", "window"): "window", ("model", "layers"): "layers",
              ("train", "alpha"): "alpha", ("train", "beta"): "beta",
              ("train", "lambda"): "lam", ("train", "dim"): "dim",
              ("train", "max_epochs"): "max_epochs",
              ("train", "patience"): "patience", ("train", "path"): "path",
              ("train", "init_scale"): "init_scale",
              ("train", "eval_every"): "eval_every",
              ("train", "trace_substeps"): "trace_substeps",
              ("eval", "k"): "eval_k"}

# INI text that lives only in the config's own sections: no float drawn
# here is non-finite
words = st.text("abcxyz0189_./-%", min_size=1, max_size=12)
ratios = st.floats(0, 1).flatmap(lambda a: st.floats(0, 1 - a).map(
    lambda b: (a, b, 1 - a - b)))
run_configs = st.builds(
    RunConfig, dataset_path=words, dataset_format=st.sampled_from(FORMATS),
    name=st.just("") | words, ratios=ratios, split_seed=st.integers(0, 2**63 - 1),
    neg_strategy=st.sampled_from(STRATEGIES),
    neg_exponent=st.floats(-4, 4), per_positive=st.integers(1, 4),
    models=st.lists(st.sampled_from(MODELS), min_size=1,
                    unique=True).map(tuple),
    window=st.integers(1, 16), layers=st.integers(0, 16),
    alpha=st.floats(1e-300, 1e3), beta=st.floats(0, 1e3),
    lam=st.floats(0, 1e3), dim=st.integers(1, 512),
    max_epochs=st.integers(1, 10**6), patience=st.integers(1, 100),
    path=st.sampled_from(PATHS), init_scale=st.floats(1e-300, 10),
    eval_every=st.integers(1, 50), trace_substeps=st.booleans(),
    grid=st.booleans(), k=st.integers(1, 1000),
    seeds=st.lists(st.integers(0, 2**32), min_size=1, unique=True).map(tuple),
    outdir=words)


def defaults(function) -> dict:
    """Each parameter of `function` that has a default, with it."""
    return {name: p.default for name, p in
            inspect.signature(function).parameters.items()
            if p.default is not inspect.Parameter.empty}


class TestSingleSource:
    """Each training default is TrainConfig's (the model's own ModelParams'),
    each data, split and sampling default that of the function it goes to,
    wherever a run reads it: the engine's signatures, the INI defaults and
    the command line."""

    @pytest.mark.parametrize("function,required", [
        (model_config, ("params", "alpha")), (KernelConfig, ("lam",)),
        (model_table, ("window", "layers")), (bce_loss, ("lam", "beta")),
        (init_embeddings, ("scale", "seed")), (evaluate, ("k",)),
        (degree_power_weights, ("exponent",))])
    def test_engine_signatures_restate_no_owned_default(self, function,
                                                        required):
        parameters = inspect.signature(function).parameters
        assert set(required) <= set(parameters)
        assert not set(required) & set(defaults(function))

    def test_model_config_takes_the_params_and_the_step_size(self):
        assert list(inspect.signature(model_config).parameters) == [
            "params", "alpha"]

    def test_repeat_train_forwards_sampling_under_its_owners_names(
            self, monkeypatch):
        parameters = inspect.signature(repeat_train).parameters
        assert list(parameters) == ["graph", "splits", "config", "seeds",
                                    "sampling"]
        assert parameters["sampling"].kind is inspect.Parameter.VAR_KEYWORD
        seen = []

        def sample_spy(graph, **kwargs):
            seen.append(kwargs)
            raise ValueError("stopped before training")

        monkeypatch.setattr(linkprop.training, "sample_negatives", sample_spy)
        graph = block_bipartite(12, 10, 2, mean_degree=6, seed=0)
        splits = split_dataset(graph, (0.6, 0.2, 0.2))
        for sampling in ({}, {"strategy": "degree_power", "exponent": 0.5,
                              "per_positive": 2}):
            with pytest.raises(ValueError, match="stopped before training"):
                repeat_train(graph, splits, TrainConfig("mf"), (3,),
                             **sampling)
            assert seen.pop() == {"seed": 3, **sampling}

    def test_data_split_and_sampling_defaults_are_their_owners(self):
        sampling = defaults(sample_negatives)
        assert CONFIG_DEFAULTS["data"]["format"] == \
            defaults(load_edge_list)["fmt"]
        assert CONFIG_DEFAULTS["split"] == {
            "ratios": " ".join(map(str, defaults(split_dataset)["ratios"])),
            "seed": str(defaults(split_dataset)["seed"])}
        assert CONFIG_DEFAULTS["sampling"] == {
            key: str(sampling[key])
            for key in ("strategy", "exponent", "per_positive")}
        config = RunConfig(dataset_path="")
        assert config.sampling == {key: sampling[key] for key in
                                   ("strategy", "exponent", "per_positive")}
        assert (config.dataset_format, config.ratios, config.split_seed) == (
            defaults(load_edge_list)["fmt"], defaults(split_dataset)["ratios"],
            defaults(split_dataset)["seed"])

    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(MODELS), window=st.integers(1, 16),
           layers=st.integers(0, 16), lam=st.floats(0, 1e3),
           beta=st.floats(0, 1e3), alpha=st.floats(0, 1e3))
    def test_model_config_carries_every_params_field(self, model, window,
                                                     layers, lam, beta, alpha):
        params = ModelParams(model, window=window, layers=layers, lam=lam,
                             beta=beta)
        config = model_config(params, alpha)
        assert config.model == model
        assert config.lam == lam
        assert (config.c3, config.a1, config.b1, config.a2, config.b2,
                config.pos_norm, config.neg_norm) == params.constants
        assert config.c1 == 1 - alpha * beta
        assert config.c2 == alpha

    def test_config_defaults_unchanged(self):
        assert CONFIG_DEFAULTS == {
            "data": {"path": "", "format": "auto", "name": ""},
            "split": {"ratios": "0.8 0.1 0.1", "seed": "0"},
            "sampling": {"strategy": "uniform", "exponent": "0.75",
                         "per_positive": "1"},
            "model": {"models": "mf", "window": "5", "layers": "3"},
            "train": {"alpha": "0.01", "beta": "0.0", "lambda": "1.0",
                      "dim": "64", "max_epochs": "200", "patience": "10",
                      "path": "gradient", "init_scale": "0.01",
                      "eval_every": "1", "trace_substeps": "false",
                      "grid": "false"},
            "eval": {"k": "20", "seeds": "0"},
            "output": {"outdir": "runs/out"},
        }

    def test_ini_defaults_are_train_config_defaults(self, tmp_path):
        defaults = TrainConfig(model="mf")
        for (section, key), name in TRAIN_KEYS.items():
            value = getattr(defaults, name)
            text = str(value).lower() if isinstance(value, bool) else str(value)
            assert CONFIG_DEFAULTS[section][key] == text, key
        assert CONFIG_DEFAULTS["eval"]["seeds"] == str(defaults.seed)
        assert {key for section in ("model", "train", "eval")
                for key in CONFIG_DEFAULTS[section]} == {
            key for _, key in TRAIN_KEYS} | {"models", "grid", "seeds"}
        path = tmp_path / "min.ini"
        path.write_text("[data]\npath = x.tsv\n", encoding="utf-8")
        config = RunConfig.from_ini(path)
        for model in MODELS:
            assert config.train_config(model) == TrainConfig(model=model)
        assert config.seeds == (defaults.seed,)

    @pytest.mark.parametrize("name", ["bench.ini", "toy.ini", "walk.ini"])
    def test_mapping_reloads_equal(self, tmp_path, name):
        config = RunConfig.from_ini(f"{CONFIGS}/{name}")
        path = tmp_path / "back.ini"
        path.write_text(ini_text(config.to_mapping()), encoding="utf-8")
        assert RunConfig.from_ini(path) == config

    @settings(max_examples=60, deadline=None)
    @given(config=run_configs)
    def test_drawn_mapping_reloads_equal(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("ini") / "back.ini"
        path.write_text(ini_text(config.to_mapping()), encoding="utf-8")
        back = RunConfig.from_ini(path)
        assert back == config
        assert back.to_mapping() == config.to_mapping()

    @pytest.fixture
    def splitdir(self, raw_dataset, tmp_path):
        raw, _ = raw_dataset
        splitdir = tmp_path / "sp"
        assert main(["split", "--input", str(raw), "--outdir", str(splitdir),
                     "--ratios", "0.6", "0.2", "0.2"]) == 0
        return splitdir

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments cli.sample_negatives and cli.train are called
        with; neither runs, and the training call ends the command with
        exit code 2."""
        seen = {}

        def sample_spy(graph, **kwargs):
            seen["sampling"] = kwargs

        def train_spy(graph, negatives, config, splits=None):
            seen["config"] = config
            raise ValueError("stopped before training")

        monkeypatch.setattr(cli, "sample_negatives", sample_spy)
        monkeypatch.setattr(cli, "train", train_spy)
        return seen

    def test_omitted_train_flags_are_library_defaults(self, splitdir, calls):
        assert main(["train", "--splits", str(splitdir), "--model",
                     "lightgcn"]) == 2
        assert calls["config"] == TrainConfig(model="lightgcn")
        assert calls["sampling"] == {"seed": TrainConfig(model="mf").seed}

    def test_every_train_flag_reaches_its_setting(self, splitdir, calls):
        assert main(["train", "--splits", str(splitdir), "--model", "deepwalk",
                     "--alpha", "0.2", "--beta", "0.1", "--lam", "0.5",
                     "--dim", "7", "--window", "3", "--layers", "2",
                     "--epochs", "9", "--patience", "4", "--path", "both",
                     "--init-scale", "0.2", "--seed", "5", "--eval-every", "2",
                     "--k", "6", "--trace", "--neg-strategy", "degree_power",
                     "--neg-exponent", "0.5", "--per-positive", "2"]) == 2
        assert calls["config"] == TrainConfig(
            model="deepwalk", alpha=0.2, beta=0.1, lam=0.5, dim=7, window=3,
            layers=2, max_epochs=9, patience=4, path="both", init_scale=0.2,
            seed=5, eval_every=2, eval_k=6, trace_substeps=True)
        assert calls["sampling"] == {"seed": 5, "strategy": "degree_power",
                                     "exponent": 0.5, "per_positive": 2}

    def test_omitted_verify_alpha_is_the_library_default(self, calls):
        assert main(["verify-equivalence", "--model", "mf", "--graphs",
                     "1"]) == 2
        assert calls["config"].alpha == TrainConfig(model="mf").alpha

    def test_omitted_evaluate_flags_are_library_defaults(
            self, raw_dataset, splitdir, tmp_path, monkeypatch):
        _, ds = raw_dataset
        emb = tmp_path / "emb.npy"
        np.save(emb, np.random.default_rng(0).normal(
            size=(ds.partition.num_nodes, 3)))
        seen = []
        propagation = cli.scoring_propagation
        monkeypatch.setattr(cli, "scoring_propagation", lambda graph, params:
                            seen.append(params) or propagation(graph, params))
        csv_path = tmp_path / "m.csv"
        assert main(["evaluate", "--splits", str(splitdir), "--embeddings",
                     str(emb), "--model", "lightgcn", "--csv",
                     str(csv_path)]) == 0
        defaults = TrainConfig(model="lightgcn")
        assert seen == [defaults.params]
        row = csv_path.read_text(encoding="utf-8").splitlines()[1].split(",")
        assert row[2:4] == [str(defaults.seed), str(defaults.eval_k)]

    @pytest.mark.parametrize("command", ["ingest", "split"])
    def test_omitted_format_flag_is_the_library_default(
            self, raw_dataset, tmp_path, monkeypatch, command):
        raw, _ = raw_dataset
        seen = []
        load = cli.load_edge_list
        monkeypatch.setattr(cli, "load_edge_list", lambda path, **kwargs:
                            seen.append(kwargs) or load(path, **kwargs))
        out = ["--output", str(tmp_path / "c.tsv")] if command == "ingest" \
            else ["--outdir", str(tmp_path / "sp")]
        for flag, expected in (([], {}), (["--format", "pairs"],
                                          {"fmt": "pairs"})):
            assert main([command, "--input", str(raw), *out, *flag]) == 0
            assert seen.pop() == expected

    def test_omitted_split_flags_are_library_defaults(self, raw_dataset,
                                                      tmp_path):
        raw, _ = raw_dataset
        assert main(["split", "--input", str(raw), "--outdir",
                     str(tmp_path / "sp")]) == 0
        meta = json.loads((tmp_path / "sp" / "split.json").read_text(
            encoding="utf-8"))
        signature = inspect.signature(split_dataset).parameters
        assert meta["ratios"] == list(signature["ratios"].default)
        assert meta["seed"] == signature["seed"].default
