"""Command-line entry point.

One executable, eight subcommands: ingest, cluster, irl, prune, pipeline,
synth, analyze, sweep. Every subcommand accepts --config pointing at a JSON
file whose keys mirror the flag names (flags win over the file, a null keeps
the default, unknown keys are rejected), takes one global --seed, and writes a
manifest.json with the echoed config, derived seeds, artifact hashes, and tool
version. Flags that set a field of IrlConfig, PruneConfig or PopulationConfig
take their default and type from that dataclass; the ingest, cluster and
analyze flags that feed a function parameter take theirs from the function's
signature, and --permutations from N_PERMUTATIONS, every test's default.

Seed derivation from the global seed S: random pruning draws with S + 2 and
permutation tests run with S + 3. The manifests also record S for stage-1 IRL
and S + 1 for stage 2, but no fit consumes them: every fit starts from the
same all-ones weights. Exit codes: 0 success, 1 input/config error, 2 numeric
failure. An input file that cannot be opened or parsed is an input error
whose message names the file. Each command does all its work first and then
writes its run directory in one call that reaches write_manifest, so a
command that fails, with exit 1 or 2, leaves no directory and no file behind.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import fields
from functools import partial

import numpy as np

from .analyze import (
    N_PERMUTATIONS,
    cluster_report,
    end_state_deciles,
    reward_delta_by_state,
    reward_loss_disparity_tests,
    test_pruning_uniformity,
    write_cluster_report_csv,
    write_deciles_csv,
    write_tests_csv,
    write_tests_json,
)
from .discretize import ClusterModel, feature_matrix, fit_state_space, trajectories_from_prepared
from .errors import InputError, NumericError, ParameterError, SchemaError
from .ingest import (
    ActionCodec,
    hypotension_codec,
    load_bounds,
    load_normal_values,
    load_records_csv,
    load_relabel,
    prepare_subjects,
    read_prepared_csv,
    regroup_demographics,
    sepsis_codec,
    write_prepared_csv,
)
from .maxent import IrlConfig, train_maxent_irl, write_training_log
from .mdp import RewardModel, estimate_transitions, greedy_policy, write_expected_reward_csv
from .pipeline import (
    load_run_directory,
    retention_sweep,
    write_manifest,
    write_run_directory,
)
from .prune import (
    PruneConfig,
    score_trajectories,
    select_retained,
    write_scores_csv,
)
from .synth import (
    PopulationConfig,
    SyntheticWorld,
    evaluate_recovery,
    generate_population,
    generate_world,
    load_demographic_tags,
    read_labels_csv,
)
from .table import read_json, write_json, write_table
from .trajectories import TrajectorySet
from .version import __version__

OUT_ROOT_ENV = "CONSENSUS_IRL_OUT"

# public flag name -> config dataclass field, where the two differ
_FLAG_OF_FIELD = {
    "retain_fraction": "retain",
    "likelihood_percentile": "percentile",
    "likelihood_threshold": "threshold",
    "corrupted_fraction": "corrupted",
    "corruption_mode": "mode",
    "n_trajectories": "trajectories",
}
# numeric flags whose default is None, so the default cannot give their type
_NONE_DEFAULT_TYPES = {
    "horizon": int,
    "states": int,
    "actions": int,
    "percentile": float,
    "threshold": float,
}


def _flag_defaults(cls, skip=()) -> dict:
    """{flag: default} for a config dataclass's fields; seed is the global --seed."""
    return {
        _FLAG_OF_FIELD.get(f.name, f.name): f.default
        for f in fields(cls)
        if f.name != "seed" and f.name not in skip
    }


def _from_flags(cls, cfg, **fixed):
    """Build a config dataclass from merged flags; `fixed` sets seed and unflagged fields."""
    return cls(
        **{
            f.name: cfg[_FLAG_OF_FIELD.get(f.name, f.name)]
            for f in fields(cls)
            if f.name not in fixed
        },
        **fixed,
    )


def _default_of(fn, parameter: str):
    """Default of one of fn's parameters, so a flag cannot drift from the function it feeds."""
    return inspect.signature(fn).parameters[parameter].default


_INGEST_DEFAULTS = {
    "records": None,
    "normals": None,
    "bounds": None,
    "codec": None,
    "condition": None,
    "features": None,
    "flags": None,
    "demographics": None,
    "regroup": None,
    "min_share": _default_of(regroup_demographics, "min_share"),
}
_CLUSTER_DEFAULTS = {
    "prepared": None,
    "k": _default_of(fit_state_space, "k"),
    "min_size": _default_of(fit_state_space, "min_size"),
    "restarts": _default_of(fit_state_space, "n_restarts"),
}
_ANALYZE_DEFAULTS = {
    "attributes": None,
    "permutations": N_PERMUTATIONS,
    "top_k": _default_of(cluster_report, "top_k"),
    "cluster_model": None,
}

SPECS = {
    "synth": {
        "defaults": {
            **_flag_defaults(PopulationConfig, skip=("demographics",)),  # tags come from a file
            "states": 100,
            "actions": 4,
            "branching": 5,
            "horizon": _default_of(generate_world, "horizon"),
            "demographics": None,
        },
        "required": [],
    },
    "ingest": {
        "defaults": dict(_INGEST_DEFAULTS),
        "required": ["records", "normals", "bounds", "features"],
    },
    "cluster": {
        "defaults": {**_CLUSTER_DEFAULTS, "features": None},
        "required": ["prepared", "features"],
    },
    "irl": {
        "defaults": {
            **_flag_defaults(IrlConfig),
            "states": None,
            "actions": None,
            "trajectories": None,
        },
        "required": ["trajectories"],
    },
    "prune": {
        "defaults": {
            **_flag_defaults(PruneConfig),
            "trajectories": None,
            "rewards": None,
            "states": None,
            "actions": None,
        },
        "required": ["trajectories", "rewards"],
    },
    "pipeline": {
        "defaults": {
            **_flag_defaults(IrlConfig),
            **_flag_defaults(PruneConfig),
            **_INGEST_DEFAULTS,
            **_CLUSTER_DEFAULTS,
            **_ANALYZE_DEFAULTS,
            "states": None,
            "actions": None,
            "trajectories": None,
            "world": None,
            "labels": None,
        },
        "required": [],
    },
    "analyze": {
        "defaults": {
            **_ANALYZE_DEFAULTS,
            "run": None,
            "trajectories": None,
            "states": None,
            "actions": None,
        },
        "required": ["run", "trajectories"],
    },
    "sweep": {
        "defaults": {},  # filled below from pipeline
        "required": [],
    },
}
SPECS["sweep"]["defaults"] = {  # each fraction is the retain fraction of one run
    **{k: v for k, v in SPECS["pipeline"]["defaults"].items() if k != "retain"},
    "fractions": ",".join(map(str, _default_of(retention_sweep, "fractions"))),
}
for _spec in SPECS.values():
    _spec["defaults"].setdefault("seed", 0)
    _spec["defaults"].setdefault("out", None)


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors surface as input errors (exit 1)."""

    def error(self, message):
        raise InputError(message)


def _flag_type(key: str, default) -> type:
    # synth's --trajectories is a count; everywhere else it is a path
    return _NONE_DEFAULT_TYPES.get(key, str) if default is None else type(default)


def _add_flags(sub: argparse.ArgumentParser, defaults: dict) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its keys")
    for key in sorted(defaults):
        kind = _flag_type(key, defaults[key])
        sub.add_argument("--" + key.replace("_", "-"), dest=key, default=None, type=kind)


def _check_config_types(loaded: dict, defaults: dict) -> None:
    """Each config value must have its flag's type, or be null for the default.

    A bool is not an int, and an int stands for a float, as JSON writes 1.0 as 1.
    """
    for key, value in sorted(loaded.items()):
        kind = _flag_type(key, defaults[key])
        accepted = (int, float) if kind is float else kind
        if value is not None and (isinstance(value, bool) or not isinstance(value, accepted)):
            raise InputError(
                f"config key {key!r} must be {kind.__name__}, got {type(value).__name__} {value!r}"
            )


def build_parser() -> _Parser:
    parser = _Parser(prog="consensus-irl", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, spec in SPECS.items():
        sub = subs.add_parser(name)
        _add_flags(sub, spec["defaults"])
    return parser


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    spec = SPECS[command]
    merged = dict(spec["defaults"])
    path = getattr(args, "config", None)
    if path:
        loaded = read_json(path)
        sub = loaded.pop("subcommand", None)
        if sub is not None and sub != command:  # a null is absent, as under a flag key
            raise InputError(
                f"config file is for subcommand {sub!r}, not {command!r}"
            )
        unknown = set(loaded) - set(merged)
        if unknown:
            raise InputError(
                f"unknown config keys for {command}: " + ", ".join(sorted(unknown))
            )
        _check_config_types(loaded, merged)
        merged.update((key, value) for key, value in loaded.items() if value is not None)
    for key in spec["defaults"]:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    seed = merged["seed"]
    if seed < 0:  # a SeedSequence takes no negative entropy
        raise InputError(f"{command}: --seed must be a non-negative integer, got {seed}")
    missing = [key for key in spec["required"] if merged.get(key) is None]
    if missing:
        raise InputError(
            f"{command}: missing required " + ", ".join("--" + m for m in missing)
        )
    # checked here, before any work: the analysis step skips a test whose
    # parameters it rejects rather than failing the run
    for key in ("permutations", "restarts", "top_k"):
        if merged.get(key, 1) < 1:
            flag = "--" + key.replace("_", "-")
            raise InputError(f"{command}: {flag} must be at least 1, got {merged[key]}")
    return merged


def _out_dir(command: str, cfg: dict) -> str:
    """The run directory's path; write_manifest makes it once the command's work is done."""
    out = cfg.get("out") or f"run_{command}"
    if not os.path.isabs(out):
        out = os.path.join(os.environ.get(OUT_ROOT_ENV, "."), out)
    return out


def _as_list(value) -> list[str]:
    if value is None:
        return []
    if isinstance(value, str):
        return [v.strip() for v in value.split(",") if v.strip()]
    return [str(v) for v in value]


def _echo(command: str, cfg: dict) -> dict:
    # the output directory names where artifacts land, not what they contain,
    # so it stays out of the echo and runs into different dirs hash identically
    return {"subcommand": command, **{k: cfg[k] for k in sorted(cfg) if k != "out"}}


def _publish(out, command, cfg, seeds, files, **extra) -> None:
    """Write the run directory: the config echo as config.json, then `files`
    ({name: writer}) and manifest.json, which hashes them all."""
    echo = _echo(command, cfg)
    write_manifest(
        out,
        {"config.json": partial(write_json, payload=echo), **files},
        {"subcommand": command, "config": echo, "seeds": seeds, **extra},
    )


def _read_input(what: str, path, read, *args, **kwargs):
    """read(path, ...), with a file that cannot be opened or parsed reported as an InputError.

    The message names the file; the package's own schema errors already start
    with it and pass through unchanged.
    """
    try:
        return read(path, *args, **kwargs)
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError) and str(exc).startswith(f"{path}:"):
            raise
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise InputError(f"cannot read {what} {path}: {reason}") from exc


def _load_trajectories(cfg) -> TrajectorySet:
    return _read_input(
        "trajectories", cfg["trajectories"], TrajectorySet.from_csv,
        n_states=cfg.get("states"), n_actions=cfg.get("actions"),
    )


def _warn_unconverged(reward: RewardModel, where: str = "") -> None:
    """One stderr line when a fit stopped above its gradient tolerance."""
    meta = reward.metadata
    if not meta["converged"]:
        print(
            f"warning: {meta['stage']} fit{where} did not converge: stopped after "
            f"{meta['epochs_run']} of {meta['epochs_requested']} iterations at "
            f"max|grad| {meta['final_grad_max']:.3g} (tolerance {meta['grad_tolerance']:g})",
            file=sys.stderr,
        )


def _irl_config(cfg) -> IrlConfig:
    return _from_flags(IrlConfig, cfg, seed=cfg["seed"])


def _prune_config(cfg) -> PruneConfig:
    return _from_flags(PruneConfig, cfg, seed=cfg["seed"] + 2)


def _codec_from_cfg(cfg) -> ActionCodec:
    if cfg["codec"]:
        return ActionCodec.from_json(cfg["codec"])
    if cfg["condition"] == "hypotension":
        return hypotension_codec()
    if cfg["condition"] == "sepsis":
        return sepsis_codec()
    raise InputError(
        "ingest: provide --codec PATH or --condition hypotension|sepsis"
    )


def _ingest(cfg) -> tuple[dict, dict, dict]:
    """Raw records -> prepared subjects; ingest and pipeline --records both run this.

    Returns (prepared, report, files) and writes nothing: files maps
    "prepared.csv" to its writer, for write_manifest once every check has passed.
    """
    codec = _codec_from_cfg(cfg)
    features = _as_list(cfg["features"])
    flags = _as_list(cfg["flags"]) or sorted(codec.known_flags)
    demographics = _as_list(cfg["demographics"])
    subjects = load_records_csv(cfg["records"], features, flags, demographics)
    relabel = load_relabel(cfg["regroup"]) if cfg["regroup"] else {}
    if demographics:
        subjects = regroup_demographics(subjects, relabel, cfg["min_share"])
    normals = load_normal_values(cfg["normals"])
    bounds = load_bounds(cfg["bounds"])
    prepared, report = prepare_subjects(subjects, normals, bounds, codec)
    files = {"prepared.csv": lambda path: write_prepared_csv(prepared, features, path)}
    return prepared, report, files


def _cluster(cfg, prepared) -> tuple[ClusterModel, TrajectorySet, dict, dict]:
    """Prepared subjects -> k-means states -> trajectories.

    Returns (model, trajectories, report, files) and writes nothing: files maps
    cluster_model.json and trajectories.csv to their writers, for
    write_manifest. cluster and pipeline --prepared/--records both run this.
    """
    features = _as_list(cfg["features"])
    rows, _ = feature_matrix(prepared, features)
    model = fit_state_space(
        rows,
        k=cfg["k"],
        min_size=cfg["min_size"],
        seed=cfg["seed"],
        feature_names=features,
        n_restarts=cfg["restarts"],
    )
    tset, report = trajectories_from_prepared(prepared, model, features)
    files = {"cluster_model.json": model.to_json, "trajectories.csv": tset.to_csv}
    return model, tset, report, files


def _load_cluster_model(cfg, n_states: int) -> ClusterModel | None:
    """The --cluster-model, which must cluster into the run's n_states states: a
    model of fewer clusters, or one that keeps a cluster id at or beyond
    n_states, would pair a cluster's vitals with another state's reward."""
    path = cfg["cluster_model"]
    if not path:
        return None
    model = _read_input("cluster model", path, ClusterModel.from_json)
    beyond = [c for c in model.retained_ids if c >= n_states]
    if model.k < n_states or beyond:
        keeps = f" that keeps cluster {beyond[0]}" if beyond else ""
        raise InputError(f"--cluster-model {path}: a model of {model.k} clusters{keeps} "
                         f"is not a clustering of the run's {n_states} states")
    return model


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_synth(cfg) -> None:
    out = _out_dir("synth", cfg)
    world = generate_world(
        cfg["states"], cfg["actions"], cfg["branching"], cfg["seed"], cfg["horizon"]
    )
    tags = load_demographic_tags(cfg["demographics"]) if cfg["demographics"] else []
    pop_cfg = _from_flags(PopulationConfig, cfg, demographics=tags, seed=cfg["seed"])
    population = generate_population(world, pop_cfg)
    _publish(out, "synth", cfg, {"world": cfg["seed"], "population": cfg["seed"]}, {
        "world.json": world.to_json,
        "trajectories.csv": population.trajectories.to_csv,
        "labels.csv": population.write_labels_csv,
    })
    print(f"synth: wrote {cfg['trajectories']} trajectories to {out}")


def cmd_ingest(cfg) -> None:
    out = _out_dir("ingest", cfg)
    prepared, report, files = _ingest(cfg)
    files["ingest_report.json"] = partial(write_json, payload=report)
    _publish(out, "ingest", cfg, {}, files)
    print(f"ingest: prepared {len(prepared)} subjects to {out}")


def cmd_cluster(cfg) -> None:
    out = _out_dir("cluster", cfg)
    prepared = read_prepared_csv(cfg["prepared"], _as_list(cfg["features"]))
    model, tset, report, files = _cluster(cfg, prepared)
    files["cluster_report.json"] = partial(write_json, payload={
        **report,
        "retained_clusters": len(model.retained_ids),
        "dropped_clusters": sorted(model.dropped_cluster_ids),
        "inertia": model.inertia,
    })
    _publish(out, "cluster", cfg, {"kmeans": cfg["seed"]}, files)
    print(
        f"cluster: {len(model.retained_ids)} retained states, "
        f"{len(tset)} trajectories to {out}"
    )


def cmd_irl(cfg) -> None:
    out = _out_dir("irl", cfg)
    config = _irl_config(cfg)
    tset = _load_trajectories(cfg)
    transitions = estimate_transitions(tset)
    reward = train_maxent_irl(tset, transitions, config)
    _warn_unconverged(reward)
    _publish(out, "irl", cfg, {"stage1": cfg["seed"]}, {
        "rewards.json": reward.to_json,
        "training_log.csv": partial(write_training_log, reward),
        "expected_reward.csv": partial(write_expected_reward_csv, transitions, reward),
    })
    print(
        f"irl: trained on {len(tset)} trajectories "
        f"({reward.metadata['epochs_run']} epochs) to {out}"
    )


def cmd_prune(cfg) -> None:
    out = _out_dir("prune", cfg)
    tset = _load_trajectories(cfg)
    transitions = estimate_transitions(tset)
    reward = _read_input("rewards", cfg["rewards"], RewardModel.from_json)
    policy = greedy_policy(transitions, reward)
    scores = score_trajectories(tset, transitions, reward, policy)
    retained = select_retained(scores, _prune_config(cfg))
    n_retained = int(retained.sum())
    files = {
        "scores.csv": partial(write_scores_csv, scores, retained, trajectories=tset),
        "retained.csv": tset.subset(retained).to_csv,
    }
    _publish(out, "prune", cfg, {"prune": cfg["seed"] + 2}, files,
             n_retained=n_retained, n_pruned=len(scores) - n_retained)
    print(f"prune: retained {n_retained}/{len(scores)} to {out}")


def _attributes(cfg, tset: TrajectorySet) -> list[str]:
    """The attributes to test: --attributes, each a tag of the set or died_in_hospital.

    Without --attributes, every tag and died_in_hospital.
    """
    known = tset.demographic_tags() + ["died_in_hospital"]
    attributes = _as_list(cfg["attributes"]) or known
    unknown = [a for a in attributes if a not in known]
    if unknown:
        raise InputError(
            f"--attributes {','.join(unknown)}: not a tag of the trajectories "
            f"(known: {','.join(known)})"
        )
    return attributes


def _analysis_files(
    tset: TrajectorySet,
    results: list,
    cfg,
    cluster_model: ClusterModel | None,
) -> list[dict]:
    """Deciles, disparity tests, and cluster tables shared by pipeline/analyze/sweep.

    results are runs fitted on tset, which differ only in their retain
    fraction. Every report is computed here; the result maps each file name
    to its writer, one map per run. The disparity tests of every run are
    computed in one call, so each permutation stream is drawn once.
    """
    test_seed = cfg["seed"] + 3
    n_perm = cfg["permutations"]
    attributes = _attributes(cfg, tset)
    disparity, _ = reward_loss_disparity_tests(
        tset, [(result.reward_stage1, result.reward_stage2) for result in results],
        [a for a in attributes if a != "died_in_hospital"],
        n_permutations=n_perm, seed=test_seed,
    )
    runs = []
    for result, tested in zip(results, disparity):
        files = {}
        try:
            deciles = end_state_deciles(result.scores)
        except ParameterError:
            deciles = None
        if deciles is not None:
            files["deciles.csv"] = partial(write_deciles_csv, deciles)

        tests = {}  # attribute -> its omnibus tests, in file order
        for attribute in attributes:
            try:
                tests[attribute] = [test_pruning_uniformity(
                    tset, result.retained, attribute, n_permutations=n_perm, seed=test_seed,
                )]
            except ParameterError:
                tests[attribute] = []
        posthoc = {}
        for attribute, (res, pairs) in tested.items():
            tests[attribute].append(res)
            posthoc[res.name] = pairs
        omnibus = [res for found in tests.values() for res in found]
        if omnibus:
            files["tests.json"] = partial(write_tests_json, omnibus, posthoc=posthoc)
            files["tests.csv"] = partial(write_tests_csv, omnibus)

        if cluster_model is not None and cluster_model.feature_stats:
            stats = cluster_model.feature_stats
            top_k = min(cfg["top_k"], len(stats))
            report1 = cluster_report(stats, result.reward_stage1, top_k)
            report2 = cluster_report(stats, result.reward_stage2, top_k, baseline=report1)
            files["cluster_report_stage1.csv"] = partial(write_cluster_report_csv, report1)
            files["cluster_report_stage2.csv"] = partial(write_cluster_report_csv, report2)
        runs.append(files)
    return runs


def _pipeline_inputs(cfg) -> tuple[TrajectorySet, ClusterModel | None, dict, tuple | None]:
    """Resolve the pipeline's entry point (raw records, prepared rows, or
    trajectories) and its ground truth, --world and --labels.

    Returns (trajectories, cluster model, files, truth): files holds the writers,
    by artifact name, of the files that ingesting and clustering made, and truth
    is (world, labels), or None without a world. Nothing is written. The
    trajectories are read first, in the space their ids imply when a world is
    to set it, and then put in the world's space with no copy of their ids: a
    world read first would leave the heap its text freed under the read's columns.
    """
    files, cluster_model, read = {}, None, not (cfg["records"] or cfg["prepared"])
    if not read:
        features = _as_list(cfg["features"])
        if not features:
            raise InputError("pipeline: --features is required with --records/--prepared")
        if cfg["records"]:
            prepared, _, files = _ingest(cfg)
        else:
            prepared = read_prepared_csv(cfg["prepared"], features)
        cluster_model, tset, _, states = _cluster(cfg, prepared)
        files = {**files, **states}
    elif cfg["trajectories"]:
        tset = _load_trajectories({**cfg, "states": None, "actions": None} if cfg["world"] else cfg)
    else:
        raise InputError("pipeline: provide --trajectories, --prepared, or --records")
    truth = None
    if cfg["world"]:  # the ground truth must describe exactly these trajectories
        world = _read_input("world", cfg["world"], SyntheticWorld.from_json)
        labels = _read_input("labels", cfg["labels"], read_labels_csv)
        space = {"states": world.n_states, "actions": world.n_actions}
        for flag, size in space.items():
            if cfg[flag] not in (None, size):
                raise InputError(f"--{flag} {cfg[flag]} disagrees with the world's {size}")
        if read:  # the same columns, checked again in the world's space, as the read would
            try:
                tset = TrajectorySet(tset.triples, tset.lengths, tset.ids, *space.values(),
                                     tset.demographics, tset.died_in_hospital)
            except SchemaError as exc:
                raise SchemaError(f"{cfg['trajectories']}: {exc}") from exc
        elif (tset.n_states, tset.n_actions) != tuple(space.values()):
            raise InputError("the trajectories and the world differ in states or actions")
        truth = world, labels
    if read:
        cluster_model = _load_cluster_model(cfg, tset.n_states)
    if truth and sorted(tset.ids) != sorted(labels):  # sets only to count the difference
        unlabelled, strangers = set(tset.ids) - set(labels), set(labels) - set(tset.ids)
        raise InputError(
            f"{cfg['labels']}: the labels must name exactly the trajectories' ids "
            f"({len(unlabelled)} trajectories unlabelled, "
            f"{len(strangers)} labels of no trajectory)"
        )
    return tset, cluster_model, files, truth


def _run_fractions(cfg, outs: dict) -> list[dict]:
    """Write one run per {retain fraction: run directory}; pipeline and sweep both run this.

    The inputs are resolved once and written into every directory;
    retention_sweep fits stage 1 once for every fraction. No directory is
    made, and no file written, until every fit has ended and every report of
    every fraction has been computed.
    """
    if bool(cfg["world"]) != bool(cfg["labels"]):
        raise InputError("--world and --labels go together: give both or neither")
    irl_config, fractions = _irl_config(cfg), tuple(outs)
    prune_config = _prune_config({**cfg, "retain": fractions[0]})
    tset, cluster_model, files, truth = _pipeline_inputs(cfg)
    _attributes(cfg, tset)  # an unknown name fails here, before any fitting
    results = retention_sweep(tset, irl_config, prune_config, fractions)
    _warn_unconverged(results[fractions[0]].reward_stage1)  # one stage 1 serves every fraction
    for fraction, result in results.items():
        _warn_unconverged(result.reward_stage2, f" at retain {fraction:g}")
    analyses = _analysis_files(tset, list(results.values()), cfg, cluster_model)
    runs = []
    for (fraction, out), analysis in zip(outs.items(), analyses):
        leg, result = {**cfg, "retain": fraction}, results[fraction]
        extra_files = {**files, **analysis}
        extra_manifest = {"subcommand": "pipeline"}
        if truth:
            world, labels = truth
            recovery = evaluate_recovery(world, result, labels)
            extra_files["recovery.json"] = partial(write_json, payload=recovery)
            extra_manifest["recovery"] = recovery
        runs.append(partial(
            write_run_directory, result, out, irl_config, _prune_config(leg), trajectories=tset,
            extra_manifest=extra_manifest, config_json=_echo("pipeline", leg),
            extra_files=extra_files,
        ))
    manifests = [write() for write in runs]
    for manifest, result in zip(manifests, results.values()):
        manifest["agreement_rate"] = float(np.mean(result.policy_agreement))
    return manifests


def cmd_pipeline(cfg) -> None:
    out = _out_dir("pipeline", cfg)
    (manifest,) = _run_fractions(cfg, {cfg["retain"]: out})
    print(
        f"pipeline: retained {manifest['n_retained']}/{manifest['n_trajectories']} "
        f"trajectories, stage agreement {manifest['agreement_rate']:.3f}, run in {out}"
    )


def cmd_sweep(cfg) -> None:
    try:
        fractions = [float(f) for f in _as_list(cfg["fractions"])]
    except ValueError as exc:
        raise InputError(f"sweep: --fractions must be numbers: {exc}") from exc
    if not fractions:
        raise InputError("sweep: --fractions must name at least one value")
    dirs = {}  # fraction -> run directory name, all checked before any work starts
    for fraction in fractions:
        _prune_config({**cfg, "retain": fraction})  # rejects a fraction outside (0, 1]
        name = f"f{int(round(fraction * 100)):03d}"
        if name in dirs.values():
            raise InputError(f"sweep: fraction {fraction} would share run directory {name}")
        dirs[fraction] = name
    out = _out_dir("sweep", cfg)
    manifests = _run_fractions(cfg, {f: os.path.join(out, name) for f, name in dirs.items()})
    summary = {  # columns by name; a ground truth adds the last two
        "agreement_rate": np.array([m["agreement_rate"] for m in manifests]),
        "fraction": np.array(fractions),
        "n_retained": np.array([m["n_retained"] for m in manifests]),
    }
    if cfg["world"]:
        for key in ("prune_recall", "spearman_stage2"):
            # an undefined metric, null in recovery.json, is nan here
            summary[key] = np.array([m["recovery"][key] for m in manifests], dtype=float)
    write = partial(write_table, header=list(summary), columns=list(summary.values()))
    seed = cfg["seed"]
    seeds = {"stage1": seed, "stage2": seed + 1, "prune": seed + 2, "tests": seed + 3}
    _publish(out, "sweep", cfg, seeds, {"sweep_summary.csv": write}, fractions=fractions)
    print(f"sweep: {len(fractions)} fractions done in {out}")


def cmd_analyze(cfg) -> None:
    out = _out_dir("analyze", cfg)
    run = cfg["run"]
    states = cfg["states"]
    if states is None:
        # the rewards span every state the run was fitted on; the trajectories
        # miss the top ids when k-means dropped the highest clusters
        rewards = os.path.join(run, "rewards_stage1.json")
        states = _read_input("rewards", rewards, RewardModel.from_json).n_states
    tset = _load_trajectories({**cfg, "states": states})
    result = _read_input("run", run, load_run_directory, tset)
    cluster_model = _load_cluster_model(cfg, states)
    _attributes(cfg, tset)
    (files,) = _analysis_files(tset, [result], cfg, cluster_model)
    table = reward_delta_by_state(result)  # written as a list of rows, one {column: value} each
    files["reward_delta.json"] = lambda path: write_json(
        path, [dict(zip(table, row)) for row in zip(*table.values())]
    )
    _publish(out, "analyze", cfg, {"tests": cfg["seed"] + 3}, files)
    print(f"analyze: {len(files)} report files in {out}")


HANDLERS = {
    "synth": cmd_synth,
    "ingest": cmd_ingest,
    "cluster": cmd_cluster,
    "irl": cmd_irl,
    "prune": cmd_prune,
    "pipeline": cmd_pipeline,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return 1
        cfg = _merge_config(args.command, args)
        HANDLERS[args.command](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
