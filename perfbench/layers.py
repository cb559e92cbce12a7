"""Per-layer metrics from the spans that trace_cli.py records.

A span's self time is its duration minus the durations of its direct child
spans. Times are summed over every command of one sequence, counts too,
except where a metric names one call (per-call medians, the pipeline
command's final gradients and kernel facts). A layer that does not run in a
workload reports 0 for all of its metrics.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("maxent", "mdp", "trajectories", "synth", "prune", "pipeline",
          "ingest", "discretize", "analyze")
COMMANDS = ("synth", "ingest", "cluster", "pipeline", "analyze", "sweep")


class _Span:
    __slots__ = ("name", "parent", "dur", "self", "attrs", "command")

    def __init__(self, raw, command):
        self.name, self.parent, start, end, attrs = raw
        self.dur = end - start
        self.self = self.dur
        self.attrs = attrs or {}
        self.command = command


def _load(commands) -> list[_Span]:
    """Flatten [(command, raw spans)] into spans with self times filled in."""
    out = []
    for command, raw_spans in commands:
        spans = [_Span(raw, command) for raw in raw_spans]
        for span in spans:
            if span.parent is not None:
                spans[span.parent].self -= span.dur
        for span in spans:
            span.parent = spans[span.parent] if span.parent is not None else None
        out += spans
    return out


def flops_per_epoch(S: int, A: int, H: int) -> int:
    """Floating-point operations of one dense training epoch, from the shapes.

    Per step, the backward pass multiplies the (S*A, S) kernel by a vector
    (2*S*S*A) and does a log-sum-exp and the policy exp over (S, A) (about
    6*S*A); the forward pass weights the policy by the state distribution
    (S*A) and contracts it with the kernel (2*S*S*A).
    """
    return H * (4 * S * S * A + 7 * S * A)


def layer_metrics(commands) -> dict[str, float]:
    """commands: [(command name, raw spans of that command)] in sequence order."""
    spans = _load(commands)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name):
        return sum(s.dur for s in by_name[name])

    def count(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self for s in spans if s.name.split(".")[0] == layer)
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = sum(s.self for s in by_name[f"cli.{command}"])

    # maxent: an epoch is one backward pass, one forward pass and the update
    trains = by_name["maxent.train"]
    epochs = sum(1 for s in by_name["maxent.backward"] if s.parent and s.parent.name == "maxent.train")
    setup = sum(s.dur for s in by_name["maxent.visitation"])
    m["maxent.train_s"] = total("maxent.train")
    m["maxent.fits"] = len(trains)
    m["maxent.epochs"] = epochs
    m["maxent.epoch_ms"] = 1000 * (m["maxent.train_s"] - setup) / epochs if epochs else 0.0
    for direction in ("backward", "forward"):
        calls = [s.dur for s in by_name[f"maxent.{direction}"]]
        m[f"maxent.{direction}_ms"] = 1000 * statistics.median(calls) if calls else 0.0
    pipeline_fits = [s for s in trains if s.command == "pipeline"] or trains
    for stage in ("stage1", "stage2"):
        fit = next((s for s in pipeline_fits if s.attrs["stage"] == stage), None)
        m[f"maxent.final_grad_max.{stage}"] = fit.attrs["final_grad_max"] if fit else 0.0
    first = pipeline_fits[0].attrs if pipeline_fits else None
    m["maxent.flops_per_epoch"] = flops_per_epoch(first["S"], first["A"], first["H"]) if first else 0
    m["maxent.kernel_bytes"] = 8 * first["S"] * first["S"] * first["A"] if first else 0

    kernels = by_name["mdp.estimate_transitions"]
    m["mdp.estimate_transitions_s"] = total("mdp.estimate_transitions")
    pipeline_kernels = [s for s in kernels if s.command == "pipeline"] or kernels
    m["mdp.kernel_nnz_frac"] = pipeline_kernels[0].attrs["nnz_frac"] if kernels else 0.0

    for op in ("from_csv", "to_csv", "subset"):
        m[f"trajectories.{op}_s"] = total(f"trajectories.{op}")
    m["trajectories.rows"] = count("trajectories.from_csv", "rows") + count("trajectories.to_csv", "rows")

    for op in ("generate_population", "generate_world", "evaluate_recovery"):
        m[f"synth.{op}_s"] = total(f"synth.{op}")

    m["prune.score_s"] = total("prune.score")
    m["prune.select_s"] = total("prune.select")

    m["pipeline.run_two_stage.self_s"] = sum(s.self for s in by_name["pipeline.run_two_stage"])
    m["pipeline.write_run_directory_s"] = total("pipeline.write_run_directory")
    writes = by_name["pipeline.write_run_directory"]
    pipeline_writes = [s for s in writes if s.command == "pipeline"] or writes
    m["pipeline.artifact_bytes"] = pipeline_writes[0].attrs["bytes"] if writes else 0

    for op in ("load_records", "prepare_subjects", "write_prepared", "read_prepared"):
        m[f"ingest.{op}_s"] = total(f"ingest.{op}")
    m["ingest.rows"] = count("ingest.load_records", "rows")
    m["ingest.rows_dropped"] = count("ingest.prepare_subjects", "rows_dropped")

    fits = by_name["discretize.fit_state_space"]
    m["discretize.fit_state_space_s"] = total("discretize.fit_state_space")
    m["discretize.fits"] = len(fits)
    m["discretize.trajectories_from_prepared_s"] = total("discretize.trajectories_from_prepared")
    m["discretize.states_retained"] = fits[0].attrs["states_retained"] if fits else 0

    tests = ("analyze.permutation_chi2", "analyze.permutation_anova", "analyze.pairwise")
    m["analyze.permutation_chi2_s"] = total("analyze.permutation_chi2")
    m["analyze.permutation_anova_s"] = total("analyze.permutation_anova")
    m["analyze.pairwise_s"] = total("analyze.pairwise")
    m["analyze.tests"] = sum(count(name, "tests") for name in tests)
    m["analyze.permutations"] = sum(count(name, "permutations") for name in tests)

    m["trace.spans"] = len(spans)
    return m
