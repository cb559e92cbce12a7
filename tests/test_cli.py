"""End-to-end command-line tests driven through the in-process dispatcher."""

import inspect
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import consensus_irl
from consensus_irl import ClusterModel, SyntheticWorld, TrajectorySet, analyze
from consensus_irl.cli import OUT_ROOT_ENV, SPECS, dispatch
from consensus_irl.pipeline import sha256_file


def python(*argv, check=True) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this package, run on argv."""
    src = os.path.dirname(os.path.dirname(consensus_irl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, *map(str, argv)]
    return subprocess.run(argv, env=env, capture_output=True, text=True, check=check)


def test_import_loads_no_scipy():
    """scipy and the worker pool's modules are imported where they are used, not at start-up."""
    code = (
        "import sys, consensus_irl.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))"
    )
    assert python("-c", code).stdout.strip() == "[]"


def test_exported_names_resolve_and_are_not_submodules():
    exported = consensus_irl.__all__
    assert len(set(exported)) == len(exported)
    assert {"__version__", "TrajectorySet", "test_reward_loss_disparity"} <= set(exported)
    for name in exported:
        assert not isinstance(getattr(consensus_irl, name), types.ModuleType), name


def run(*argv):
    return dispatch([str(a) for a in argv])


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_peak_probe_names_the_trajectory_read(synth_dir, tmp_path):
    """tools/peaks.py runs one command and names the package calls that raised VmHWM."""
    peaks = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "peaks.py")
    done = python(peaks, "irl", "--trajectories", synth_dir / "trajectories.csv",
                  "--epochs", 2, "--out", tmp_path / "irl")
    lines = done.stderr.splitlines()
    assert lines[0].endswith("  import") and lines[-1].endswith("  ru_maxrss")
    assert "trajectories.py:TrajectorySet.from_csv" in done.stderr
    for line in lines:  # the peak, then the resident set read with it, which is no larger
        if line.startswith("warning:"):  # the command's own stderr
            continue
        peak, unit, column, now, _ = line.split(maxsplit=4)
        assert (unit, column) == ("MiB", "VmRSS") and 0 < float(now) <= float(peak), line
    assert (tmp_path / "irl" / "rewards.json").exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_peak_probe_names_the_modules_a_rise_first_imported(tmp_path):
    """numpy.random is imported on first use, by generate_world's default_rng, and
    its import raises VmHWM by more than the probe's step."""
    peaks = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "peaks.py")
    done = python(peaks, "synth", "--states", 12, "--actions", 2, "--branching", 3,
                  "--horizon", 6, "--trajectories", 40, "--out", tmp_path / "world")
    line = next(line for line in done.stderr.splitlines() if "synth.py:generate_world" in line)
    assert "(first imports " in line and "numpy.random" in line.split("(first imports ")[1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def synth_dir(workdir):
    out = workdir / "synth"
    code = run(
        "synth", "--states", 12, "--actions", 2, "--branching", 3,
        "--horizon", 6, "--trajectories", 40, "--seed", 3, "--out", out,
    )
    assert code == 0
    return out


def test_pipeline_with_world_loads_no_scipy(synth_dir, tmp_path):
    """The recovery report's Spearman correlation is computed without scipy."""
    argv = [
        "pipeline", "--trajectories", synth_dir / "trajectories.csv",
        "--world", synth_dir / "world.json", "--labels", synth_dir / "labels.csv",
        "--epochs", 10, "--permutations", 20, "--out", tmp_path / "run",
    ]
    code = (
        "import sys; from consensus_irl.cli import dispatch; "
        f"assert dispatch({[str(a) for a in argv]!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = python("-c", code)
    assert (tmp_path / "run" / "recovery.json").exists()
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_scoring_commands_load_no_numpy_ma(synth_dir, tmp_path):
    """np.unique without indices or counts imports numpy.ma (16 ms, 1.25 MiB) to
    ask whether its input is masked; no command that scores makes that call."""
    world = ["--trajectories", synth_dir / "trajectories.csv"]
    argvs = [
        ["pipeline", *world, "--world", synth_dir / "world.json", "--labels",
         synth_dir / "labels.csv", "--epochs", 10, "--permutations", 20,
         "--out", tmp_path / "run"],
        ["analyze", "--run", tmp_path / "run", *world, "--permutations", 20,
         "--out", tmp_path / "reports"],
        ["sweep", *world, "--fractions", "0.5,0.8", "--epochs", 10, "--permutations", 20,
         "--out", tmp_path / "sweep"],
    ]
    code = (
        "import sys; from consensus_irl.cli import dispatch; "
        f"assert all(dispatch(argv) == 0 for argv in {[[str(a) for a in v] for v in argvs]!r}); "
        "print('numpy.ma' in sys.modules)"
    )
    out = python("-c", code)
    assert (tmp_path / "sweep" / "sweep_summary.csv").exists()
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_no_command_makes_a_dense_kernel(tmp_path, monkeypatch):
    """synth, pipeline --world, analyze and sweep run with TransitionModel.probs, the
    dense (S, A, S) array built on demand, raising: every kernel product goes
    through the non-zeros or a block of states."""

    def dense(self):
        raise AssertionError("a command built the dense kernel")

    monkeypatch.setattr(consensus_irl.TransitionModel, "probs", property(dense))
    world = ("--trajectories", tmp_path / "world" / "trajectories.csv")
    assert run("synth", "--states", 70, "--actions", 3, "--branching", 4, "--horizon", 6,
               "--trajectories", 60, "--seed", 2, "--out", tmp_path / "world") == 0
    assert run("pipeline", *world, "--world", tmp_path / "world" / "world.json",
               "--labels", tmp_path / "world" / "labels.csv", "--epochs", 10,
               "--permutations", 20, "--out", tmp_path / "run") == 0
    assert run("analyze", "--run", tmp_path / "run", *world, "--permutations", 20,
               "--out", tmp_path / "reports") == 0
    assert run("sweep", *world, "--fractions", "0.5,0.8", "--epochs", 10,
               "--permutations", 20, "--out", tmp_path / "sweep") == 0


@pytest.fixture(scope="module")
def run1(workdir, synth_dir):
    out = workdir / "run1"
    code = run(
        "pipeline", "--trajectories", synth_dir / "trajectories.csv",
        "--epochs", 60, "--retain", 0.6, "--seed", 4, "--permutations", 200,
        "--out", out,
    )
    assert code == 0
    return out


class TestDispatchErrors:
    def test_no_command_fails(self):
        assert run() == 1

    def test_unknown_flag_is_input_error(self, capsys):
        assert run("synth", "--bogus", 1) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_named(self, capsys):
        assert run("irl") == 1
        assert "--trajectories" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, inputs",
        [
            ("ingest", ("--records", "missing.csv", "--normals", "missing.json",
                        "--bounds", "missing.json", "--features", "hr", "--condition", "sepsis")),
            ("cluster", ("--prepared", "missing.csv", "--features", "hr")),
            ("irl", ("--trajectories", "missing.csv")),
            ("prune", ("--trajectories", "missing.csv", "--rewards", "missing.json")),
            ("pipeline", ("--trajectories", "missing.csv")),
            ("analyze", ("--run", "missing", "--trajectories", "missing.csv")),
            ("sweep", ("--trajectories", "missing.csv")),
        ],
    )
    def test_missing_input_leaves_no_run_directory(self, tmp_path, capsys, command, inputs):
        out = tmp_path / "out"
        paths = [tmp_path / arg if arg.startswith("missing") else arg for arg in inputs]
        assert run(command, *paths, "--out", out) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command", [name for name, spec in SPECS.items() if "seed" in spec["defaults"]]
    )
    def test_a_negative_seed_is_one_error_line(self, tmp_path, capsys, command, source):
        """Checked with the flags, before any input is read or any output made."""
        if source == "flag":
            seed = ("--seed", -3)
        else:
            (tmp_path / "cfg.json").write_text('{"seed": -3}')
            seed = ("--config", tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert run(command, *seed, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {command}: --seed must be a non-negative integer, got -3\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize(
        "command, key",
        [
            (name, key)
            for name, spec in SPECS.items()
            for key in ("restarts", "top_k")
            if key in spec["defaults"]
        ],
    )
    def test_fewer_than_one_restart_or_top_k_is_one_error_line(
        self, tmp_path, capsys, command, key, value
    ):
        """Checked with the flags, before any input is read or any output made."""
        inputs = [a for m in SPECS[command]["required"] for a in ("--" + m, tmp_path / "missing")]
        flag = "--" + key.replace("_", "-")
        out = tmp_path / "out"
        assert run(command, *inputs, flag, value, "--out", out) == 1
        assert capsys.readouterr().err == (
            f"error: {command}: {flag} must be at least 1, got {value}\n"
        )
        assert not out.exists()

    def test_unreadable_config_fails(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert run("synth", "--config", bad) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not valid JSON: ") and "Expecting property name" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"staets": 5}')
        assert run("synth", "--config", cfg) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_config_for_other_subcommand_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"subcommand": "synth"}')
        assert run("irl", "--config", cfg, "--trajectories", "x.csv") == 1
        assert "synth" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, named",
        [
            ('"epochs": "5"', "'epochs' must be int, got str '5'"),
            ('"permutations": "200"', "'permutations' must be int"),
            ('"epochs": 5.0', "'epochs' must be int, got float"),
            ('"epochs": true', "'epochs' must be int, got bool"),
            ('"retain": false', "'retain' must be float, got bool"),
            ('"optimizer": 1', "'optimizer' must be str"),
            ('"trajectories": 3', "'trajectories' must be str"),
        ],
    )
    def test_config_value_of_wrong_type_rejected_before_any_work(
        self, tmp_path, synth_dir, capsys, entry, named
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{" + entry + "}")
        out = tmp_path / "run"
        code = run("pipeline", "--config", cfg, "--trajectories", synth_dir / "trajectories.csv",
                   "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key") and named in err
        assert not out.exists()

    def test_config_value_types_follow_the_flags(self, tmp_path, synth_dir):
        """An int stands for a float, and null for the default."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"retain": 1, "epochs": 3, "permutations": 10, "states": null}')
        out = tmp_path / "run"
        code = run("pipeline", "--config", cfg, "--trajectories", synth_dir / "trajectories.csv",
                   "--out", out)
        assert code == 0
        assert json.loads((out / "config.json").read_text())["retain"] == 1

    @pytest.mark.parametrize(
        "command, key", [("analyze", "permutations"), ("irl", "epochs"), ("cluster", "k"),
                         ("prune", "retain"), ("synth", "seed")],
    )
    def test_a_null_config_value_keeps_the_default(
        self, tmp_path, synth_dir, irl_dir, run1, command, key
    ):
        """The run of a config holding {key: null} echoes the config without that key."""
        trajectories = ("--trajectories", synth_dir / "trajectories.csv")
        inputs = {
            "analyze": ("--run", run1, *trajectories),
            "irl": trajectories,
            "cluster": ("--prepared", prepared_rows(tmp_path / "prepared.csv", 2000),
                        "--features", "heart_rate,mean_bp"),
            "prune": (*trajectories, "--rewards", irl_dir / "rewards.json"),
            "synth": ("--states", 12, "--trajectories", 40),
        }[command]
        echoes = []
        for name, config in (("null", {key: None}), ("absent", {})):
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            out = tmp_path / name
            assert run(command, "--config", tmp_path / f"{name}.json", *inputs, "--out", out) == 0
            echoes.append((out / "config.json").read_bytes())
        assert echoes[0] == echoes[1]

    def test_a_null_subcommand_in_a_config_is_absent(self, tmp_path):
        """{"subcommand": null} runs as a config without the key, as a null flag value does."""
        echoes = []
        for name, config in (("null", {"subcommand": None}), ("absent", {})):
            (tmp_path / f"{name}.json").write_text(json.dumps({**config, "states": 12}))
            out = tmp_path / name
            code = run("synth", "--config", tmp_path / f"{name}.json", "--trajectories", 40,
                       "--out", out)
            assert code == 0
            echoes.append((out / "config.json").read_bytes())
        assert echoes[0] == echoes[1]

    def test_a_config_wrapped_in_cli_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"cli": {"states": 5}}')
        out = tmp_path / "out"
        assert run("synth", "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err == "error: unknown config keys for synth: cli\n"
        assert not out.exists()

    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run("synth", "--config", cfg) == 1
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, named",
        [
            ('[{"name": "sex",', "not valid JSON"),
            ('{"name": "sex"}', "must hold a JSON list"),
            ('[{"name": "sex", "categories": ["f", "m"], "probs": [0.5, 0.5]}, 3]',
             "demographic tag 1 is not a JSON object"),
            ('[{"name": "sex", "probs": [1.0]}]', "demographic tag 0 is missing key 'categories'"),
            ('[{"name": "sex", "categories": ["f"]}]', "demographic tag 0 is missing key 'probs'"),
            ('[{"name": "sex", "categories": ["f"], "probs": [1.0], "weights": [1]}]',
             "demographic tag 0 has unknown key 'weights'"),
            ('[{"name": "sex", "categories": "fm", "probs": [1.0]}]',
             "demographic tag 0: categories must be a JSON list"),
            ('[{"name": "sex", "categories": ["f"], "probs": ["all"]}]',
             "demographic tag 0: could not convert"),
        ],
    )
    def test_bad_synth_demographics_file_is_an_input_error(self, tmp_path, capsys, content, named):
        tags = tmp_path / "tags.json"
        tags.write_text(content)
        out = tmp_path / "world"
        assert run("synth", "--states", 10, "--trajectories", 20, "--demographics", tags,
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tags}: ") and named in err
        assert not out.exists()

    def test_synth_demographics_file_tags_every_trajectory(self, tmp_path):
        tags = tmp_path / "tags.json"
        tags.write_text('[{"name": "sex", "categories": ["f", "m"], "probs": [0.5, 0.5]}]')
        out = tmp_path / "world"
        assert run("synth", "--states", 10, "--trajectories", 20, "--demographics", tags,
                   "--out", out) == 0
        tset = TrajectorySet.from_csv(out / "trajectories.csv")
        assert set(tset.demographics["sex"]) <= {"f", "m"}

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0

    def test_malformed_trajectory_csv_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "trajectory_id,step,state,action,next_state\nt0,0,0,1,x\n"
        )
        assert run("irl", "--trajectories", bad, "--out", tmp_path / "irl") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bad.csv: trajectory t0: next_state 'x'" in err

    def test_flag_defaults_follow_function_signatures(self):
        defaults = SPECS["pipeline"]["defaults"]
        assert (defaults["min_share"], defaults["k"], defaults["min_size"]) == (0.01, 200, 10)
        assert (defaults["restarts"], defaults["permutations"], defaults["top_k"]) == (
            1, 10_000, 25,
        )
        disparity = inspect.signature(analyze.test_reward_loss_disparity).parameters
        assert disparity["n_permutations"].default == defaults["permutations"]
        # each sweep fraction sets its run's retain fraction, so sweep has no --retain
        assert SPECS["sweep"]["defaults"]["fractions"] == "0.2,0.5,0.8"
        assert "retain" not in SPECS["sweep"]["defaults"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_maps_to_exit_2(self, synth_dir, workdir, capsys):
        code = run(
            "irl", "--trajectories", synth_dir / "trajectories.csv",
            "--lr0", 1e308, "--epochs", 80,
            "--out", workdir / "diverged",
        )
        assert code == 2
        assert "numeric failure" in capsys.readouterr().err

    def test_init_flag_is_gone(self, synth_dir, tmp_path, capsys):
        for command in ("irl", "pipeline", "sweep"):
            code = run(command, "--trajectories", synth_dir / "trajectories.csv",
                       "--init", "ones", "--out", tmp_path / command)
            assert code == 1
            assert "--init" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("irl", ("--lr0", "nan")),
            ("irl", ("--lr0", "inf")),
            ("irl", ("--optimizer", "lbfgs", "--grad-tolerance", "nan")),
            ("pipeline", ("--lr0", "nan")),
            ("pipeline", ("--grad-tolerance", "-1")),
            ("sweep", ("--grad-tolerance", "inf")),
        ],
    )
    def test_bad_training_knobs_fail_before_any_run(self, synth_dir, tmp_path, capsys,
                                                    command, flags):
        out = tmp_path / "out"
        code = run(command, "--trajectories", synth_dir / "trajectories.csv", *flags,
                   "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["world", "labels", "rewards", "cluster-model"])
    def test_malformed_side_file_is_an_input_error(self, synth_dir, run1, tmp_path, capsys, flag):
        trajectories = ("--trajectories", synth_dir / "trajectories.csv")
        pipeline = ("pipeline", *trajectories, "--epochs", 5)
        bad = tmp_path / f"bad_{flag}"
        if flag == "world":
            world = json.loads((synth_dir / "world.json").read_text())
            del world["n_actions"]
            bad.write_text(json.dumps(world))
            argv = (*pipeline, "--world", bad, "--labels", synth_dir / "labels.csv")
            named = "missing key 'n_actions'"
        elif flag == "labels":
            bad.write_text("trajectory_id,corrupted\nt0,yes\n")
            argv = (*pipeline, "--world", synth_dir / "world.json", "--labels", bad)
            named = "trajectory t0: corrupted 'yes' is not 0 or 1"
        elif flag == "rewards":
            bad.write_text("{not json")
            argv = ("prune", *trajectories, "--rewards", bad)
            named = "not valid JSON: Expecting property name"
        else:
            bad.write_text('{"centroids": []}')
            argv = ("analyze", "--run", run1, *trajectories, "--cluster-model", bad)
            named = "missing key 'feature_names'"
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        # a bad cell is named in the CSV reader's own message, which starts with the file
        lead = f"error: {bad}: " if flag in ("labels", "rewards") else "error: cannot read "
        assert err.startswith(lead) and f"{bad}: " in err and named in err
        assert not out.exists()


class TestSynth:
    def test_artifacts_and_manifest(self, synth_dir):
        names = {"config.json", "world.json", "trajectories.csv", "labels.csv", "manifest.json"}
        assert names <= set(os.listdir(synth_dir))
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seeds"] == {"world": 3, "population": 3}
        for name, digest in manifest["hashes"].items():
            assert sha256_file(synth_dir / name) == digest

    def test_world_matches_flags(self, synth_dir):
        world = SyntheticWorld.from_json(synth_dir / "world.json")
        assert world.n_states == 12
        assert world.n_actions == 2
        tset = TrajectorySet.from_csv(synth_dir / "trajectories.csv")
        assert len(tset) == 40

    def test_out_env_var_roots_relative_paths(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path))
        code = run(
            "synth", "--states", 8, "--actions", 2, "--branching", 2,
            "--horizon", 4, "--trajectories", 10, "--out", "nested/syn",
        )
        assert code == 0
        assert (tmp_path / "nested" / "syn" / "world.json").exists()

    def test_default_out_is_named_after_subcommand(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUT_ROOT_ENV, str(tmp_path))
        code = run(
            "synth", "--states", 8, "--actions", 2, "--branching", 2,
            "--horizon", 4, "--trajectories", 10,
        )
        assert code == 0
        assert (tmp_path / "run_synth" / "world.json").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"states": 14, "actions": 2, "branching": 2, "horizon": 4, "trajectories": 10}'
        )
        out = tmp_path / "s"
        assert run("synth", "--config", cfg, "--states", 9, "--out", out) == 0
        world = SyntheticWorld.from_json(out / "world.json")
        assert world.n_states == 9
        echo = json.loads((out / "config.json").read_text())
        assert echo["states"] == 9
        assert echo["trajectories"] == 10
        assert "out" not in echo


@pytest.fixture(scope="module")
def irl_dir(workdir, synth_dir):
    out = workdir / "irl"
    code = run(
        "irl", "--trajectories", synth_dir / "trajectories.csv",
        "--epochs", 60, "--seed", 7, "--out", out,
    )
    assert code == 0
    return out


class TestIrlAndPrune:
    def test_irl_artifacts(self, irl_dir):
        names = {"rewards.json", "training_log.csv", "expected_reward.csv",
                 "config.json", "manifest.json"}
        assert names <= set(os.listdir(irl_dir))
        manifest = json.loads((irl_dir / "manifest.json").read_text())
        assert manifest["seeds"] == {"stage1": 7}
        rewards = json.loads((irl_dir / "rewards.json").read_text())
        assert len(rewards["rewards"]) == 12

    def test_prune_partition_and_seed_offset(self, workdir, synth_dir, irl_dir):
        out = workdir / "prune"
        code = run(
            "prune", "--trajectories", synth_dir / "trajectories.csv",
            "--rewards", irl_dir / "rewards.json",
            "--retain", 0.5, "--seed", 7, "--out", out,
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"prune": 9}
        assert manifest["n_retained"] == 20
        assert manifest["n_pruned"] == 20
        retained = TrajectorySet.from_csv(out / "retained.csv")
        assert len(retained) == 20


class TestConvergenceWarnings:
    WARNING = (
        r"warning: stage{} fit{} did not converge: stopped after 5 of 5 iterations "
        r"at max\|grad\| \S+ \(tolerance 0\.0001\)"
    )

    def test_capped_fits_warn_once_per_stage(self, synth_dir, tmp_path, capsys):
        trajectories = synth_dir / "trajectories.csv"
        fit = ("--optimizer", "sga", "--epochs", 5, "--permutations", 10)
        assert run("irl", "--trajectories", trajectories, *fit[:4], "--out", tmp_path / "i") == 0
        out, err = capsys.readouterr()
        assert "warning" not in out
        assert re.fullmatch(self.WARNING.format(1, ""), err.strip())
        code = run(
            "sweep", "--trajectories", trajectories, "--fractions", "0.5,0.8", *fit,
            "--out", tmp_path / "s",
        )
        assert code == 0
        out, err = capsys.readouterr()
        assert "warning" not in out
        stage1, *stage2 = err.splitlines()
        assert re.fullmatch(self.WARNING.format(1, ""), stage1)
        assert len(stage2) == 2
        for line, fraction in zip(stage2, ("0.5", "0.8")):
            assert re.fullmatch(self.WARNING.format(2, rf" at retain {fraction}"), line)

    def test_converged_fits_do_not_warn(self, tmp_path, capsys):
        # two self-looping states visited alike: the gradient is zero at the start
        path = tmp_path / "loops.csv"
        path.write_text("trajectory_id,step,state,action,next_state\na,0,0,0,0\nb,0,1,0,1\n")
        assert run("irl", "--trajectories", path, "--out", tmp_path / "i") == 0
        rewards = json.loads((tmp_path / "i" / "rewards.json").read_text())
        assert rewards["metadata"]["converged"] is True
        code = run(
            "pipeline", "--trajectories", path, "--retain", 0.5, "--permutations", 10,
            "--out", tmp_path / "p",
        )
        assert code == 0
        assert capsys.readouterr().err == ""


class TestPipeline:
    def test_run_directory_complete(self, run1):
        names = set(os.listdir(run1))
        expected = {
            "config.json", "manifest.json", "rewards_stage1.json",
            "rewards_stage2.json", "scores.csv", "reward_delta.csv",
            "deciles.csv",
        }
        assert expected <= names
        manifest = json.loads((run1 / "manifest.json").read_text())
        assert manifest["seeds"] == {"stage1": 4, "stage2": 5, "prune": 6}
        assert manifest["n_retained"] == 24  # ceil(0.6 * 40)

    def test_echoed_config_reruns_byte_identically(self, workdir, run1):
        out2 = workdir / "run2"
        code = run("pipeline", "--config", run1 / "config.json", "--out", out2)
        assert code == 0
        assert sorted(os.listdir(run1)) == sorted(os.listdir(out2))
        for name in os.listdir(run1):
            a = (run1 / name).read_bytes()
            b = (out2 / name).read_bytes()
            assert a == b, f"{name} differs between identically configured runs"

    def test_recovery_report_against_ground_truth(self, workdir, synth_dir):
        out = workdir / "run_truth"
        code = run(
            "pipeline", "--trajectories", synth_dir / "trajectories.csv",
            "--world", synth_dir / "world.json",
            "--labels", synth_dir / "labels.csv",
            "--epochs", 60, "--retain", 0.6, "--seed", 4, "--out", out,
        )
        assert code == 0
        recovery = json.loads((out / "recovery.json").read_text())
        for key in ("spearman_stage1", "spearman_stage2", "prune_recall",
                    "prune_precision", "evd_stage1", "evd_stage2"):
            assert key in recovery
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["recovery"] == recovery

    @pytest.mark.parametrize("command", ["pipeline", "analyze", "sweep"])
    @pytest.mark.parametrize("permutations", [0, -2])
    def test_fewer_than_one_permutation_fails_before_any_work(
        self, tmp_path, synth_dir, run1, capsys, command, permutations
    ):
        out = tmp_path / command
        inputs = ("--run", run1) if command == "analyze" else ("--epochs", 5)
        code = run(
            command, "--trajectories", synth_dir / "trajectories.csv", *inputs,
            "--permutations", permutations, "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--permutations must be at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["world", "labels"])
    def test_world_and_labels_go_together(self, tmp_path, synth_dir, capsys, given):
        """Either one alone is an error, not a run without recovery.json."""
        truth = {"world": synth_dir / "world.json", "labels": synth_dir / "labels.csv"}
        for command in ("pipeline", "sweep"):
            out = tmp_path / command
            code = run(
                command, "--trajectories", synth_dir / "trajectories.csv",
                f"--{given}", truth[given], "--epochs", 5, "--out", out,
            )
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "--world and --labels" in err
            assert not list(out.glob("**/rewards_stage1.json"))


class TestGroundTruthChecks:
    """With --world, the trajectories and labels are checked against it before any fit."""

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    def test_trajectories_are_read_in_the_worlds_space(self, tmp_path, command):
        """Ten short trajectories never visit state 99, but the run spans all 100 states."""
        syn = tmp_path / "syn"
        assert run("synth", "--states", 100, "--trajectories", 10, "--horizon", 5,
                   "--seed", 3, "--out", syn) == 0
        assert TrajectorySet.from_csv(syn / "trajectories.csv").n_states < 100
        out = tmp_path / "run"
        code = run(command, "--trajectories", syn / "trajectories.csv",
                   "--world", syn / "world.json", "--labels", syn / "labels.csv",
                   "--epochs", 5, "--permutations", 20, "--out", out)
        assert code == 0
        run_dir = out / "f050" if command == "sweep" else out
        assert json.loads((run_dir / "recovery.json").read_text())["prune_recall"] >= 0
        assert len(json.loads((run_dir / "rewards_stage1.json").read_text())["rewards"]) == 100
        assert json.loads((run_dir / "config.json").read_text())["states"] is None

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    @pytest.mark.parametrize(
        "case, message",
        [
            ("more labels", "0 trajectories unlabelled, 1 labels of no trajectory"),
            ("fewer labels", "1 trajectories unlabelled, 0 labels of no trajectory"),
            ("corrupted 2", "corrupted '2' is not 0 or 1"),
            ("--states", "--states 13 disagrees with the world's 12"),
            ("--actions", "--actions 3 disagrees with the world's 2"),
            ("smaller world", "state id out of range for 4 states"),
        ],
    )
    def test_mismatched_ground_truth_fails_before_any_run(
        self, tmp_path, synth_dir, capsys, command, case, message
    ):
        world, labels = synth_dir / "world.json", tmp_path / "labels.csv"
        rows = (synth_dir / "labels.csv").read_text().splitlines()
        flags = []
        if case == "more labels":  # the labels of a larger population
            rows.append("t9999,1")
        elif case == "fewer labels":
            rows.pop()
        elif case == "corrupted 2":
            rows[3] = rows[3].split(",")[0] + ",2"
        elif case in ("--states", "--actions"):
            flags = [case, 13 if case == "--states" else 3]
        else:
            world = tmp_path / "small"
            assert run("synth", "--states", 4, "--actions", 2, "--branching", 3,
                       "--trajectories", 5, "--out", world) == 0
            world = world / "world.json"
        labels.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        out = tmp_path / "run"
        code = run(command, "--trajectories", synth_dir / "trajectories.csv",
                   "--world", world, "--labels", labels, *flags, "--epochs", 5, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err
        assert not out.exists()

    def test_labels_of_other_ids_name_both_counts(self, tmp_path, synth_dir, capsys):
        """Labels in another order are the same labels; one id renamed is one
        trajectory unlabelled and one label of no trajectory, in the whole message."""
        header, *rows = (synth_dir / "labels.csv").read_text().splitlines()
        labels = tmp_path / "labels.csv"
        truth = ("--world", synth_dir / "world.json", "--labels", labels)
        pipeline = ("pipeline", "--trajectories", synth_dir / "trajectories.csv", *truth,
                    "--epochs", 5, "--permutations", 20)
        labels.write_text("\n".join([header, *rows[::-1]]) + "\n")
        assert run(*pipeline, "--out", tmp_path / "reversed") == 0
        rows[0] = "stranger," + rows[0].split(",")[1]
        labels.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert run(*pipeline, "--out", tmp_path / "renamed") == 1
        assert capsys.readouterr().err == (
            f"error: {labels}: the labels must name exactly the trajectories' ids "
            "(1 trajectories unlabelled, 1 labels of no trajectory)\n"
        )
        assert not (tmp_path / "renamed").exists()

    @pytest.mark.parametrize("command", ["pipeline", "sweep", "analyze"])
    def test_unknown_attribute_fails_before_any_run(self, tmp_path, synth_dir, run1, capsys,
                                                    command):
        out = tmp_path / "run"
        inputs = ("--run", run1) if command == "analyze" else ("--epochs", 5)
        code = run(command, "--trajectories", synth_dir / "trajectories.csv", *inputs,
                   "--attributes", "died_in_hospital,sexx", "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --attributes sexx: not a tag") and "died_in_hospital" in err
        assert not out.exists()


RUN_RESULTS = (
    "rewards_stage1.json", "rewards_stage2.json", "scores.csv", "reward_delta.csv",
    "training_log_stage1.csv", "training_log_stage2.csv",
)


class TestSweep:
    def test_sweep_runs_each_fraction(self, workdir, synth_dir):
        out = workdir / "sweep"
        code = run(
            "sweep", "--trajectories", synth_dir / "trajectories.csv",
            "--fractions", "0.5,1.0", "--epochs", 40, "--seed", 2, "--out", out,
        )
        assert code == 0
        assert (out / "f050" / "manifest.json").exists()
        assert (out / "f100" / "manifest.json").exists()
        with open(out / "sweep_summary.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh]
        assert "fraction" in header and "agreement_rate" in header
        assert len(rows) == 2
        n_retained = [int(r[header.index("n_retained")]) for r in rows]
        assert n_retained == [20, 40]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"stage1": 2, "stage2": 3, "prune": 4, "tests": 5}
        # each leg is the pipeline run at that retain fraction, byte for byte
        for fraction, leg in (("0.5", "f050"), ("1.0", "f100")):
            alone = workdir / f"sweep_alone_{leg}"
            code = run(
                "pipeline", "--trajectories", synth_dir / "trajectories.csv",
                "--retain", fraction, "--epochs", 40, "--seed", 2,
                "--permutations", 200, "--out", alone,
            )
            assert code == 0
            for name in RUN_RESULTS:
                assert (out / leg / name).read_bytes() == (alone / name).read_bytes(), name

    def test_retain_flag_is_rejected(self, tmp_path, synth_dir, capsys):
        out = tmp_path / "sweep"
        code = run(
            "sweep", "--trajectories", synth_dir / "trajectories.csv",
            "--retain", 0.9, "--out", out,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "fractions, message",
        [
            ("0.5,abc", "must be numbers"),  # an error line, not a traceback
            ("0.2,0.201", "share run directory f020"),  # one run would overwrite the other
            ("0.5,0.5", "share run directory f050"),
            ("0.5,1.5", "retain_fraction must be in (0, 1]"),  # checked before f050 runs
        ],
    )
    def test_bad_fractions_fail_before_any_run(self, tmp_path, synth_dir, capsys,
                                               fractions, message):
        out = tmp_path / "sweep"
        code = run(
            "sweep", "--trajectories", synth_dir / "trajectories.csv",
            "--fractions", fractions, "--epochs", 5, "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "inputs, message",
        [
            ((), "provide --trajectories"),
            (("--trajectories", "no/such/dir/t.csv"), "cannot read trajectories"),
            (("--trajectories", "{synth}/trajectories.csv", "--world", "no/such/world.json",
              "--labels", "{synth}/labels.csv"), "world.json"),
        ],
    )
    def test_unreadable_input_leaves_no_fraction_directory(self, tmp_path, synth_dir, capsys,
                                                           inputs, message):
        out = tmp_path / "sweep"
        inputs = [arg.format(synth=synth_dir) for arg in inputs]
        code = run("sweep", *inputs, "--fractions", "0.5,0.8", "--epochs", 5, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not (out / "f050").exists() and not (out / "f080").exists()


def write_cluster_model(path, k, dropped=()):
    """A one-feature k-means model of k clusters, the dropped ones without statistics."""
    stats = {c: {"count": 3, "means": {"hr": float(c)}, "stds": {"hr": 1.0}}
             for c in range(k) if c not in dropped}
    ClusterModel(np.arange(k, dtype=float)[:, None], ["hr"], np.zeros(1), np.ones(1),
                 np.ones(1, dtype=bool), np.full(k, 3), set(dropped), stats, 0.0, 0).to_json(path)


class TestClusterModelOfTheRun:
    """run1 has 12 states; a --cluster-model must be a clustering into them."""

    @pytest.mark.parametrize("command", ["pipeline", "sweep", "analyze"])
    @pytest.mark.parametrize("k, named", [(20, "20 clusters that keeps cluster 12"),
                                          (6, "6 clusters")])
    def test_another_clustering_fails_before_any_run(self, synth_dir, run1, tmp_path, capsys,
                                                     command, k, named):
        model = tmp_path / "model.json"
        write_cluster_model(model, k)
        given = ["--run", run1] if command == "analyze" else ["--epochs", 5]
        out = tmp_path / "out"
        code = run(command, *given, "--trajectories", synth_dir / "trajectories.csv",
                   "--cluster-model", model, "--permutations", 20, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: --cluster-model {model}: a model of {named} "
                       "is not a clustering of the run's 12 states\n")
        assert not out.exists()

    def test_a_dropped_top_cluster_leaves_the_run_its_states(self, synth_dir, run1, tmp_path):
        model = tmp_path / "model.json"
        write_cluster_model(model, 13, dropped={12})
        out = tmp_path / "out"
        code = run("analyze", "--run", run1, "--trajectories", synth_dir / "trajectories.csv",
                   "--cluster-model", model, "--permutations", 20, "--out", out)
        assert code == 0
        table = (out / "cluster_report_stage1.csv").read_text()
        assert table.count("\n") == 1 + 2 * 12  # the header, then best and worst of 12


def shuffle_rows(source, target, key=None):
    """Write target: source's header, then its rows in a seeded random order.

    With key, the blocks of consecutive rows of one key move whole, each
    keeping the order of its rows.
    """
    header, *rows = source.read_bytes().splitlines(keepends=True)
    blocks = [b"".join(block) for _, block in itertools.groupby(rows, key)]
    order = np.random.default_rng(0).permutation(len(blocks))
    target.write_bytes(header + b"".join(blocks[i] for i in order))
    assert target.read_bytes() != source.read_bytes()


def assert_same_outputs(left, right, inputs):
    """Every file of two run directories byte for byte, but for the input path
    that config.json (and analyze's manifest.json) echo, left's inputs[0]
    and right's inputs[1], and through it config.json's hash in manifest.json."""
    names = sorted(path.name for path in left.iterdir())
    assert names == sorted(path.name for path in right.iterdir())
    echoed = [json.dumps(str(path)).encode() for path in inputs]
    for name in names:
        ours, theirs = (left / name).read_bytes(), (right / name).read_bytes()
        assert name != "config.json" or echoed[0] in ours
        if name in ("config.json", "manifest.json"):
            ours = ours.replace(*echoed)
        if name == "manifest.json":
            ours, theirs = json.loads(ours), json.loads(theirs)
            del ours["hashes"]["config.json"], theirs["hashes"]["config.json"]
        assert ours == theirs, name


class TestAnalyze:
    def test_shuffled_trajectory_rows_are_the_same_input(self, synth_dir, run1, tmp_path):
        """Every reader takes trajectories in id order, whatever the order of the rows."""
        original, shuffled = synth_dir / "trajectories.csv", tmp_path / "shuffled.csv"
        shuffle_rows(original, shuffled)

        analyses = [tmp_path / "analysis_original", tmp_path / "analysis_shuffled"]
        for trajectories, out in zip((original, shuffled), analyses):
            code = run("analyze", "--run", run1, "--trajectories", trajectories,
                       "--permutations", 100, "--out", out)
            assert code == 0
        assert_same_outputs(*analyses, (original, shuffled))

        out = tmp_path / "run"
        code = run("pipeline", "--trajectories", shuffled, "--epochs", 60, "--retain", 0.6,
                   "--seed", 4, "--permutations", 200, "--out", out)
        assert code == 0
        assert_same_outputs(run1, out, (original, shuffled))

    def test_reports_from_existing_run(self, workdir, synth_dir, run1):
        out = workdir / "analysis"
        code = run(
            "analyze", "--run", run1,
            "--trajectories", synth_dir / "trajectories.csv",
            "--permutations", 100, "--seed", 4, "--out", out,
        )
        assert code == 0
        rows = json.loads((out / "reward_delta.json").read_text())
        assert len(rows) == 12
        assert {"state", "r1", "r2", "delta", "policy1", "policy2", "agree"} <= set(rows[0])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"tests": 7}
        assert (out / "deciles.csv").exists()

    def test_analysis_deciles_match_run_scores(self, workdir, run1):
        run_deciles = (run1 / "deciles.csv").read_bytes()
        out_deciles = (workdir / "analysis" / "deciles.csv").read_bytes()
        assert run_deciles == out_deciles

    def test_state_count_defaults_to_the_run_rewards(self, workdir, synth_dir):
        """The trajectories never visit state 12, as when k-means drops the top cluster."""
        wide = workdir / "run_wide"
        code = run(
            "pipeline", "--trajectories", synth_dir / "trajectories.csv",
            "--states", 13, "--epochs", 40, "--seed", 4, "--permutations", 100,
            "--out", wide,
        )
        assert code == 0
        out = workdir / "analysis_wide"
        code = run(
            "analyze", "--run", wide,
            "--trajectories", synth_dir / "trajectories.csv",
            "--permutations", 100, "--seed", 4, "--out", out,
        )
        assert code == 0
        rows = json.loads((out / "reward_delta.json").read_text())
        assert len(rows) == 13

    def test_a_dropped_top_cluster_needs_no_state_count(self, synth_dir, tmp_path):
        """The clinical analyze without --states: a 13-cluster model that dropped
        cluster 12, a run over its 13 states and trajectories that never visit
        state 12; the reports span all 13 states and the 12 kept clusters."""
        trajectories = synth_dir / "trajectories.csv"
        assert TrajectorySet.from_csv(trajectories).n_states == 12
        model = tmp_path / "model.json"
        write_cluster_model(model, 13, dropped={12})
        wide = tmp_path / "run"
        assert run("pipeline", "--trajectories", trajectories, "--states", 13,
                   "--cluster-model", model, "--epochs", 20, "--permutations", 20,
                   "--out", wide) == 0
        out = tmp_path / "analysis"
        assert run("analyze", "--run", wide, "--trajectories", trajectories,
                   "--cluster-model", model, "--permutations", 20, "--out", out) == 0
        assert len(json.loads((out / "reward_delta.json").read_text())) == 13
        table = (out / "cluster_report_stage1.csv").read_text()
        assert table.count("\n") == 1 + 2 * 12  # the header, then best and worst of 12
        assert json.loads((out / "config.json").read_text())["states"] is None

    def test_other_trajectories_than_the_runs_are_rejected(self, run1, tmp_path, capsys):
        """run1 was fitted on 40 trajectories; a 50-trajectory set shares its first 40 ids."""
        more = tmp_path / "more"
        assert run(
            "synth", "--states", 12, "--actions", 2, "--branching", 3,
            "--horizon", 6, "--trajectories", 50, "--seed", 3, "--out", more,
        ) == 0
        given = TrajectorySet.from_csv(more / "trajectories.csv").ids
        capsys.readouterr()
        out = tmp_path / "analysis"
        code = run("analyze", "--run", run1, "--trajectories", more / "trajectories.csv",
                   "--permutations", 100, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run1}: ")
        assert f"trajectory 40 is {given[40]!r} but None in scores.csv" in err
        assert not out.exists()

    def test_same_ids_with_other_end_states_are_rejected(self, run1, synth_dir, tmp_path,
                                                         capsys):
        """A set drawn with another seed has run1's ids but ends in other states."""
        other = tmp_path / "other"
        assert run(
            "synth", "--states", 12, "--actions", 2, "--branching", 3,
            "--horizon", 6, "--trajectories", 40, "--seed", 4, "--out", other,
        ) == 0
        given = TrajectorySet.from_csv(other / "trajectories.csv")
        assert given.ids == TrajectorySet.from_csv(synth_dir / "trajectories.csv").ids
        capsys.readouterr()
        out = tmp_path / "analysis"
        code = run("analyze", "--run", run1, "--trajectories", other / "trajectories.csv",
                   "--permutations", 100, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run1}: not the trajectories of this run: trajectory ")
        assert "stage-1 reward" in err
        assert not out.exists()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs CPU affinity and at least 2 CPUs",
    )
    def test_tests_json_does_not_depend_on_cpu_count(self, tmp_path):
        """The disparity tests give the same bytes on one CPU as on all of them."""
        tagged = tmp_path / "tagged"
        tags = tmp_path / "tags.json"
        tags.write_text(json.dumps([
            {"name": "site", "categories": ["n", "s", "e"], "probs": [0.5, 0.3, 0.2]},
        ]))
        assert run(
            "synth", "--states", 12, "--actions", 2, "--branching", 3, "--horizon", 6,
            "--trajectories", 60, "--seed", 5, "--demographics", tags, "--out", tagged,
        ) == 0
        fitted = tmp_path / "run"
        assert run(
            "pipeline", "--trajectories", tagged / "trajectories.csv", "--epochs", 20,
            "--permutations", 50, "--out", fitted,
        ) == 0
        src = os.path.dirname(os.path.dirname(consensus_irl.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def analyze_tests_json(out, preexec_fn=None):
            argv = [
                sys.executable, "-m", "consensus_irl.cli", "analyze", "--run", str(fitted),
                "--trajectories", str(tagged / "trajectories.csv"),
                "--permutations", "3000", "--out", str(out),
            ]
            subprocess.run(argv, env=env, preexec_fn=preexec_fn, capture_output=True,
                           check=True, timeout=300)
            return (out / "tests.json").read_bytes()

        def pin_to_one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        one_cpu = analyze_tests_json(tmp_path / "one", preexec_fn=pin_to_one_cpu)
        assert one_cpu == analyze_tests_json(tmp_path / "all")
        assert b"reward_loss_disparity[site]" in one_cpu


RAW_CSV_HEADER = (
    "subject_id,timestamp,heart_rate,mean_bp,vasopressors,bolus_epinephrine,"
    "sex,died_in_hospital"
)


def clinical_csv(path):
    rng = np.random.default_rng(0)
    lines = [RAW_CSV_HEADER]
    for i in range(8):
        sid = f"p{i}"
        sick = i % 2 == 0
        sex = "female" if i % 3 == 0 else "male"
        died = 1 if i == 0 else 0
        for t in range(4):
            hr = rng.normal(115, 2) if sick else rng.normal(72, 2)
            bp = rng.normal(52, 2) if sick else rng.normal(88, 2)
            hr_cell = "" if (i == 1 and t == 2) else f"{hr:.1f}"
            vaso = 1 if sick and t >= 1 else 0
            bolus = 1 if sick and t == 3 else 0
            lines.append(
                f"{sid},{t},{hr_cell},{bp:.1f},{vaso},{bolus},{sex},{died}"
            )
    # one extreme outlier row that filtering must drop
    lines.append("p0,4,80.0,9999.0,0,0,female,1")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def clinical_inputs(workdir):
    records = workdir / "records.csv"
    clinical_csv(records)
    normals = workdir / "normals.json"
    normals.write_text('{"heart_rate": 75, "mean_bp": 85}')
    bounds = workdir / "bounds.json"
    bounds.write_text('{"heart_rate": [20, 300], "mean_bp": [10, 200]}')
    return records, normals, bounds


class TestClinicalFlow:
    def test_ingest_then_cluster(self, workdir, clinical_inputs):
        records, normals, bounds = clinical_inputs
        ing = workdir / "ingest"
        code = run(
            "ingest", "--records", records, "--normals", normals,
            "--bounds", bounds, "--features", "heart_rate,mean_bp",
            "--demographics", "sex", "--condition", "hypotension", "--out", ing,
        )
        assert code == 0
        report = json.loads((ing / "ingest_report.json").read_text())
        assert report["mean_bp"] == 1  # the 9999 row
        assert report["subjects_dropped"] == 0

        clus = workdir / "cluster"
        code = run(
            "cluster", "--prepared", ing / "prepared.csv",
            "--features", "heart_rate,mean_bp", "--k", 2, "--min-size", 2,
            "--out", clus,
        )
        assert code == 0
        creport = json.loads((clus / "cluster_report.json").read_text())
        assert creport["retained_clusters"] == 2
        tset = TrajectorySet.from_csv(clus / "trajectories.csv")
        assert len(tset) == 8
        # sick and stable subjects should land in different clusters
        ends = dict(zip(tset.ids, tset.end_states))
        assert ends["p0"] != ends["p1"]

    def test_pipeline_from_prepared_records(self, workdir, clinical_inputs):
        ing = workdir / "ingest"
        out = workdir / "clinical_run"
        code = run(
            "pipeline", "--prepared", ing / "prepared.csv",
            "--features", "heart_rate,mean_bp", "--k", 2, "--min-size", 2,
            "--epochs", 40, "--retain", 0.75, "--permutations", 100,
            "--out", out,
        )
        assert code == 0
        names = set(os.listdir(out))
        assert {"cluster_model.json", "trajectories.csv", "rewards_stage1.json",
                "rewards_stage2.json", "scores.csv", "manifest.json"} <= names
        assert (out / "cluster_report_stage1.csv").exists()
        assert (out / "cluster_report_stage2.csv").exists()
        assert (out / "tests.json").exists()
        payload = json.loads((out / "tests.json").read_text())
        names = [t["name"] for t in payload["tests"]]
        assert any(name.startswith("pruning_uniformity[sex]") for name in names)

    def test_an_empty_tag_cell_drops_the_same_tests_everywhere(self, tmp_path, clinical_inputs):
        """An empty sex cell is a missing tag, in the records and in every file made from them.

        The pipeline from prepared rows and analyze on the clustered
        trajectories then skip the same tests.
        """
        records, normals, bounds = clinical_inputs
        untagged = tmp_path / "records.csv"
        untagged.write_text(re.sub(r"^(p5,.*),male,", r"\1,,", records.read_text(), flags=re.M))
        features = ("--features", "heart_rate,mean_bp")
        states = ("--k", 2, "--min-size", 2, *features)
        assert run("ingest", "--records", untagged, "--normals", normals, "--bounds", bounds,
                   "--demographics", "sex", "--condition", "hypotension", *features,
                   "--out", tmp_path / "ingest") == 0
        prepared = tmp_path / "ingest" / "prepared.csv"
        assert run("cluster", "--prepared", prepared, *states, "--out", tmp_path / "states") == 0
        assert run("pipeline", "--prepared", prepared, *states, "--epochs", 40,
                   "--retain", 0.75, "--permutations", 100, "--out", tmp_path / "run") == 0
        assert run("analyze", "--run", tmp_path / "run", "--permutations", 100,
                   "--trajectories", tmp_path / "states" / "trajectories.csv",
                   "--out", tmp_path / "reports") == 0

        def tests(out):
            return [t["name"] for t in json.loads((out / "tests.json").read_text())["tests"]]

        assert tests(tmp_path / "run") == tests(tmp_path / "reports")
        assert not any("[sex]" in name for name in tests(tmp_path / "run"))

    def test_bad_clinical_cells_are_input_errors(self, workdir, tmp_path, clinical_inputs, capsys):
        records, normals, bounds = clinical_inputs
        bad = tmp_path / "records.csv"
        bad.write_text(records.read_text().replace("p0,4,80.0,9999.0", "p0,4,80.0,abc"))
        code = run(
            "ingest", "--records", bad, "--normals", normals, "--bounds", bounds,
            "--features", "heart_rate,mean_bp", "--condition", "hypotension",
            "--out", tmp_path / "ingest",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "subject p0: mean_bp 'abc' is not a finite number" in err

        # the first subject's second row repeats its first, timestamp 0 included
        lines = (workdir / "ingest" / "prepared.csv").read_text().splitlines()
        prepared = tmp_path / "prepared.csv"
        prepared.write_text("\n".join(lines[:2] + [lines[1]] + lines[3:]) + "\n")
        code = run(
            "cluster", "--prepared", prepared, "--features", "heart_rate,mean_bp",
            "--k", 2, "--min-size", 2, "--out", tmp_path / "cluster",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "timestamps must be strictly increasing" in err

    @pytest.mark.parametrize(
        "flag, text, named",
        [
            ("--normals", '{"heart_rate": "abc", "mean_bp": 85}',
             "normal value for 'heart_rate' is not a finite number: 'abc'"),
            ("--bounds", '{"heart_rate": 5}', "bound for 'heart_rate' is not a [lo, hi] pair"),
            ("--codec", '{"condition": "c", "labels": ["none", "on"], "mapping": '
                        '[{"flags": [], "label": "none"}, '
                        '{"flags": ["vasopressors"], "label": "no"}]}',
             "codec mapping entry, bad label or action: 'no' is not in list"),
            ("--regroup", '["sex"]', "must hold a JSON object"),
            ("--regroup", '{"sex": 5}', "regroup mapping for 'sex' is not a JSON object: 5"),
        ],
    )
    def test_bad_json_side_file_is_an_input_error(
        self, tmp_path, clinical_inputs, capsys, flag, text, named
    ):
        records, normals, bounds = clinical_inputs
        side = tmp_path / "side.json"
        side.write_text(text)
        files = {"--normals": normals, "--bounds": bounds, flag: side}
        out = tmp_path / "ingest"
        code = run(
            "ingest", "--records", records, *[arg for pair in files.items() for arg in pair],
            "--features", "heart_rate,mean_bp", "--demographics", "sex",
            "--condition", "hypotension", "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {side}: ") and named in err
        assert not out.exists()

    def test_cluster_and_pipeline_share_states(self, workdir):
        clus, run_dir = workdir / "cluster", workdir / "clinical_run"
        for name in ("trajectories.csv", "cluster_model.json"):
            assert (clus / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_pipeline_from_raw_records_matches_ingest(self, workdir, clinical_inputs):
        records, normals, bounds = clinical_inputs
        out = workdir / "clinical_raw_run"
        code = run(
            "pipeline", "--records", records, "--normals", normals,
            "--bounds", bounds, "--features", "heart_rate,mean_bp",
            "--demographics", "sex", "--condition", "hypotension",
            "--k", 2, "--min-size", 2, "--epochs", 40, "--retain", 0.75,
            "--permutations", 100, "--out", out,
        )
        assert code == 0
        ingested = (workdir / "ingest" / "prepared.csv").read_bytes()
        assert (out / "prepared.csv").read_bytes() == ingested

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    @pytest.mark.parametrize("source", ["--prepared", "--records"])
    @pytest.mark.parametrize("case", ["world", "attributes"])
    def test_failed_check_writes_no_clustered_inputs(
        self, synth_dir, clinical_inputs, tmp_path, capsys, command, source, case
    ):
        """The checks on the clustered trajectories run before any file is written."""
        records, normals, bounds = clinical_inputs
        inputs = ["--records", records, "--normals", normals, "--bounds", bounds,
                  "--demographics", "sex", "--condition", "hypotension"]
        if source == "--prepared":
            ingested = tmp_path / "ingest"
            assert run("ingest", *inputs, "--features", "heart_rate,mean_bp",
                       "--out", ingested) == 0
            inputs = ["--prepared", ingested / "prepared.csv"]
        if case == "world":
            check = ["--world", synth_dir / "world.json", "--labels", synth_dir / "labels.csv"]
            message = "the trajectories and the world differ in states or actions"
        else:
            check = ["--attributes", "sex,sexx"]
            message = "--attributes sexx: not a tag"
        legs = ["--fractions", "0.5,0.75"] if command == "sweep" else []
        out = tmp_path / "run"
        code = run(command, *inputs, "--features", "heart_rate,mean_bp", "--k", 2,
                   "--min-size", 2, "--epochs", 5, *check, *legs, "--out", out)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err
        assert not out.exists()

    def test_sweep_resolves_inputs_once(self, workdir):
        """Every leg holds the states the first leg clustered, byte for byte."""
        out = workdir / "clinical_sweep"
        code = run(
            "sweep", "--prepared", workdir / "ingest" / "prepared.csv",
            "--features", "heart_rate,mean_bp", "--k", 2, "--min-size", 2,
            "--epochs", 40, "--fractions", "0.5,0.75", "--permutations", 100,
            "--out", out,
        )
        assert code == 0
        for name in ("cluster_model.json", "trajectories.csv"):
            first = (out / "f050" / name).read_bytes()
            assert (out / "f075" / name).read_bytes() == first, name
            assert (workdir / "cluster" / name).read_bytes() == first, name
        # the 0.75 leg is the pipeline run from the same prepared rows
        for name in RUN_RESULTS:
            leg = (out / "f075" / name).read_bytes()
            assert leg == (workdir / "clinical_run" / name).read_bytes(), name


CLINICAL_FEATURES = ("--features", "heart_rate,mean_bp")


def prepared_rows(path, n_rows):
    """A prepared CSV of n_rows seeded vitals rows, eight per subject."""
    rng = np.random.default_rng(0)
    lines = ["subject_id,timestamp,heart_rate,mean_bp,action,died_in_hospital"]
    for i in range(n_rows):
        hr, bp = rng.normal(90, 20), rng.normal(80, 15)
        lines.append(f"s{i // 8:04d},{i % 8},{hr:.1f},{bp:.1f},{i % 3},{int(i // 8 % 7 == 0)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def lingering_rows(path):
    """A prepared CSV on which the first sga step at --lr0 1e308 overflows theta.

    Six subjects stay their eight steps in one vitals cluster under action 0;
    a seventh leaves it under action 1 for a second cluster and stays there.
    A uniform policy leaves the first cluster half the time, so at k = 2 the
    data visit it 5.0078125 times per trajectory more than the model does,
    and 1e308 times that gradient is not a float, under any rounding of the
    soft backward pass.
    """
    lines = ["subject_id,timestamp,heart_rate,mean_bp,action,died_in_hospital"]
    for i in range(7):
        for t in range(8):
            left = i == 6 and t > 0
            hr, bp = (140, 50) if left else (60, 80)
            lines.append(f"s{i},{t},{hr}.{i},{bp}.{t},{int(i == 6 and t == 0)},0")
    path.write_text("\n".join(lines) + "\n")
    return path


def ingest_into(out, clinical_inputs, records=None):
    """Run ingest on the clinical inputs, with records in place of their records.csv."""
    given, normals, bounds = clinical_inputs
    assert run("ingest", "--records", records or given, "--normals", normals, "--bounds", bounds,
               *CLINICAL_FEATURES, "--demographics", "sex", "--condition", "hypotension",
               "--out", out) == 0
    return out / "prepared.csv"


class TestNumericFailure:
    """A fit that diverges ends its command with exit 2 before anything is written."""

    @pytest.mark.parametrize("command, source", [
        ("pipeline", "--trajectories"), ("pipeline", "--prepared"), ("sweep", "--trajectories"),
    ])
    def test_a_diverging_fit_leaves_no_run_directory(
        self, synth_dir, tmp_path, capsys, command, source
    ):
        if source == "--prepared":
            prepared = lingering_rows(tmp_path / "prepared.csv")
            inputs = ["--prepared", prepared, *CLINICAL_FEATURES, "--k", 2, "--min-size", 1]
        else:
            inputs = ["--trajectories", synth_dir / "trajectories.csv"]
        out = tmp_path / "run"
        code = run(command, *inputs, "--lr0", 1e308, "--epochs", 50, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_an_overflowing_step_prints_only_the_error_line(self, tmp_path):
        """The step that overflows theta raises no numpy warning before the error line."""
        prepared = lingering_rows(tmp_path / "prepared.csv")
        states = tmp_path / "states"
        assert run("cluster", "--prepared", prepared, *CLINICAL_FEATURES, "--k", 2,
                   "--min-size", 1, "--out", states) == 0
        done = python("-m", "consensus_irl.cli", "irl",
                      "--trajectories", states / "trajectories.csv", "--lr0", 1e308,
                      "--epochs", 50, "--out", tmp_path / "irl", check=False)
        assert done.returncode == 2
        assert done.stderr == "numeric failure: maxent training diverged at epoch 0\n"
        assert not (tmp_path / "irl").exists()

    def test_an_overflowing_objective_prints_only_the_error_line(self, tmp_path):
        """The fit's J overflows before the backward pass fails: no numpy warning
        comes before the error line."""
        prepared = prepared_rows(tmp_path / "prepared.csv", 400)
        out = tmp_path / "run"
        done = python("-m", "consensus_irl.cli", "pipeline", "--prepared", prepared,
                      *CLINICAL_FEATURES, "--k", 3, "--min-size", 1, "--lr0", 1e308,
                      "--epochs", 50, "--out", out, check=False)
        assert done.returncode == 2
        assert done.stderr.startswith("numeric failure: ") and done.stderr.count("\n") == 1, (
            done.stderr
        )
        assert not out.exists()


class TestRowOrder:
    """Each CSV the CLI reads is the same input in any row order: records, prepared
    rows (whole subjects move, each in time order), labels and a run's scores."""

    def test_shuffled_records_and_prepared_rows(self, clinical_inputs, tmp_path):
        records = clinical_inputs[0]
        shuffled = tmp_path / "records.csv"
        shuffle_rows(records, shuffled)
        ingested = [tmp_path / "ingest", tmp_path / "ingest_shuffled"]
        ingest_into(ingested[0], clinical_inputs)
        ingest_into(ingested[1], clinical_inputs, records=shuffled)
        assert_same_outputs(*ingested, (records, shuffled))

        prepared = ingested[0] / "prepared.csv"
        blocks = tmp_path / "prepared.csv"
        shuffle_rows(prepared, blocks, key=lambda row: row.split(b",", 1)[0])
        clustered = [tmp_path / "states", tmp_path / "states_shuffled"]
        for rows, out in zip((prepared, blocks), clustered):
            assert run("cluster", "--prepared", rows, *CLINICAL_FEATURES, "--k", 2,
                       "--min-size", 2, "--out", out) == 0
        assert_same_outputs(*clustered, (prepared, blocks))

    def test_shuffled_labels_and_scores(self, synth_dir, run1, tmp_path):
        labels, shuffled = synth_dir / "labels.csv", tmp_path / "labels.csv"
        shuffle_rows(labels, shuffled)
        runs = [tmp_path / "run", tmp_path / "run_shuffled"]
        for given, out in zip((labels, shuffled), runs):
            assert run("pipeline", "--trajectories", synth_dir / "trajectories.csv",
                       "--world", synth_dir / "world.json", "--labels", given,
                       "--epochs", 20, "--permutations", 50, "--out", out) == 0
        assert_same_outputs(*runs, (labels, shuffled))

        copy = tmp_path / "run1_shuffled"
        shutil.copytree(run1, copy)
        shuffle_rows(run1 / "scores.csv", copy / "scores.csv")
        analyses = [tmp_path / "analysis", tmp_path / "analysis_shuffled"]
        for given, out in zip((run1, copy), analyses):
            assert run("analyze", "--run", given, "--trajectories", synth_dir / "trajectories.csv",
                       "--permutations", 100, "--out", out) == 0
        assert_same_outputs(*analyses, (run1, copy))
