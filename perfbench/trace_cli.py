"""Run one consensus-irl command with a span around every layer call.

    python3 perfbench/trace_cli.py SPANS_JSON COMMAND [FLAGS...]

Before dispatching the command, this wraps the public functions of each
consensus_irl module everywhere a module holds a reference to them, so calls
made through `from .x import f` bindings are caught too. Each call records a
span (name, parent span, start, end) plus counts read from its arguments and
result; the counts are taken after the span has ended. The spans are written
to SPANS_JSON when the command finishes, and the exit code is the command's.
The program's files are not touched: spans live only in this process.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

import consensus_irl.cli as cli
from consensus_irl import analyze, discretize, ingest, maxent, mdp, pipeline, prune, synth
from consensus_irl.trajectories import TrajectorySet


class Tracer:
    """In-memory span recorder; spans form a tree through parent indices."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start, end, attrs]
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = attrs(bound.arguments, result)
            return result

        return traced


def _train(a, reward):
    meta = reward.metadata
    return {
        "stage": meta["stage"],
        "final_grad_max": meta["final_grad_max"],
        "S": a["transitions"].n_states,
        "A": a["transitions"].n_actions,
        "H": meta["horizon"],
    }


def _kernel(a, model):
    return {"nnz_frac": np.count_nonzero(model.probs) / model.probs.size}


def _rows_read(a, tset):
    return {"rows": sum(len(tr) for tr in tset)}


def _rows_written(a, result):
    return {"rows": sum(len(tr) for tr in a["self"])}


def _artifacts(a, manifest):
    names = list(manifest["hashes"]) + ["manifest.json"]
    return {"bytes": sum(os.path.getsize(os.path.join(a["out_dir"], n)) for n in names)}


def _records(a, subjects):
    return {"rows": sum(len(records) for records in subjects.values())}


def _prepared(a, result):
    rows_in = sum(len(records) for records in a["subjects"].values())
    rows_out = sum(len(records) for records, _ in result[0].values())
    return {"rows_dropped": rows_in - rows_out}


def _states(a, model):
    return {"states_retained": len(model.retained_ids)}


def _omnibus(a, result):
    return {"tests": 1, "permutations": a["n_permutations"]}


def _pairwise(a, pairs):
    return {"tests": len(pairs), "permutations": a["n_permutations"] * len(pairs)}


# (span name, owner, attribute, counts) for every layer boundary the CLI crosses.
# File readers and writers get spans too, so their time counts in their own
# layer's self time rather than in the CLI's.
TARGETS = [
    ("maxent.train", maxent, "train_maxent_irl", _train),
    ("maxent.backward", maxent, "soft_backward_pass", None),
    ("maxent.forward", maxent, "expected_state_visitation", None),
    ("maxent.visitation", maxent, "empirical_state_visitation", None),
    ("maxent.visitation", maxent, "initial_state_distribution", None),
    ("maxent.io", maxent, "write_training_log", None),
    ("mdp.estimate_transitions", mdp, "estimate_transitions", _kernel),
    ("mdp.greedy_policy", mdp, "greedy_policy", None),
    ("mdp.io", mdp, "write_expected_reward_csv", None),
    ("mdp.io", mdp.RewardModel, "to_json", None),
    ("mdp.io", mdp.RewardModel, "from_json", None),
    ("trajectories.from_csv", TrajectorySet, "from_csv", _rows_read),
    ("trajectories.to_csv", TrajectorySet, "to_csv", _rows_written),
    ("trajectories.subset", TrajectorySet, "subset", None),
    ("synth.generate_world", synth, "generate_world", None),
    ("synth.generate_population", synth, "generate_population", None),
    ("synth.evaluate_recovery", synth, "evaluate_recovery", None),
    ("synth.io", synth.SyntheticWorld, "to_json", None),
    ("synth.io", synth.SyntheticWorld, "from_json", None),
    ("synth.io", synth.LabeledPopulation, "write_labels_csv", None),
    ("synth.io", synth, "read_labels_csv", None),
    ("prune.score", prune, "score_trajectories", None),
    ("prune.select", prune, "select_retained", None),
    ("prune.io", prune, "write_scores_csv", None),
    ("prune.io", prune, "read_scores_csv", None),
    ("pipeline.run_two_stage", pipeline, "run_two_stage", None),
    ("pipeline.write_run_directory", pipeline, "write_run_directory", _artifacts),
    ("ingest.load_records", ingest, "load_records_csv", _records),
    ("ingest.regroup", ingest, "regroup_demographics", None),
    ("ingest.prepare_subjects", ingest, "prepare_subjects", _prepared),
    ("ingest.write_prepared", ingest, "write_prepared_csv", None),
    ("ingest.read_prepared", ingest, "read_prepared_csv", None),
    ("ingest.io", ingest, "load_normal_values", None),
    ("ingest.io", ingest, "load_bounds", None),
    ("discretize.fit_state_space", discretize, "fit_state_space", _states),
    ("discretize.trajectories_from_prepared", discretize, "trajectories_from_prepared", None),
    ("discretize.feature_matrix", discretize, "feature_matrix", None),
    ("discretize.io", discretize.ClusterModel, "to_json", None),
    ("discretize.io", discretize.ClusterModel, "from_json", None),
    ("analyze.permutation_chi2", analyze, "permutation_chi2", _omnibus),
    ("analyze.permutation_anova", analyze, "permutation_anova", _omnibus),
    ("analyze.pairwise", analyze, "pairwise_permutation_tests", _pairwise),
    ("analyze.pruning_uniformity", analyze, "test_pruning_uniformity", None),
    ("analyze.reward_loss_disparity", analyze, "test_reward_loss_disparity", None),
    ("analyze.reports", analyze, "end_state_deciles", None),
    ("analyze.reports", analyze, "cluster_report", None),
    ("analyze.reports", analyze, "reward_delta_by_state", None),
    ("analyze.reports", analyze, "write_deciles_csv", None),
    ("analyze.reports", analyze, "write_tests_json", None),
    ("analyze.reports", analyze, "write_tests_csv", None),
    ("analyze.reports", analyze, "write_cluster_report_csv", None),
]


def install(tracer: Tracer) -> None:
    """Replace every target, and every module-level reference to it, by its span wrapper."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "consensus_irl"]
    for name, owner, attr, attrs in TARGETS:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, attrs)))
            continue
        wrapped = tracer.wrap(name, raw, attrs)
        setattr(owner, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    try:
        return tracer.wrap(f"cli.{command[0]}", cli.dispatch)(command)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
