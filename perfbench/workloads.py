"""The three command sequences the benchmark drives, and what each must produce.

Every step is one `consensus-irl` command run in a fresh interpreter from the
sequence's work directory, with paths relative to it, so two runs of the same
seed echo identical configs and must hash identically. README.md in this
directory says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import cohort

RUN_FILES = (
    "config.json",
    "rewards_stage1.json",
    "rewards_stage2.json",
    "scores.csv",
    "reward_delta.csv",
    "training_log_stage1.csv",
    "training_log_stage2.csv",
    "manifest.json",
)
REPORT_FILES = ("config.json", "deciles.csv", "tests.json", "tests.csv", "manifest.json")
CLUSTER_TABLES = ("cluster_report_stage1.csv", "cluster_report_stage2.csv")


@dataclass(frozen=True)
class Step:
    command: str
    out: str  # run directory, relative to the work directory
    flags: tuple[str, ...]
    stage: str  # end-to-end timing it counts toward: inputs, pipeline, analyze or other
    artifacts: tuple[str, ...]

    def argv(self, seed: int) -> list[str]:
        return [self.command, *self.flags, "--seed", str(seed), "--out", self.out]


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]
    retain: float
    labels: str  # ground-truth corruption labels, relative to the work directory
    # pairs of files that two different commands must write byte-identically
    same_files: tuple[tuple[str, str], ...] = field(default=())
    # writes the files the steps read as inputs/: callable(directory, seed) -> counts
    make_inputs: object = None

    @property
    def pipeline_out(self) -> str:
        return next(s.out for s in self.steps if s.command == "pipeline")


def _synth(states: int, trajectories: int) -> Step:
    flags = (
        "--states", str(states), "--actions", "4", "--branching", "5", "--horizon", "20",
        "--trajectories", str(trajectories), "--corrupted", "0.3", "--mode", "random_policy",
    )
    return Step("synth", "world", flags, "inputs",
                ("config.json", "world.json", "trajectories.csv", "labels.csv", "manifest.json"))


_WORLD = ("--trajectories", "world/trajectories.csv")
_GROUND_TRUTH = ("--world", "world/world.json", "--labels", "world/labels.csv")


def _quickstart() -> Workload:
    steps = (
        _synth(100, 2000),
        Step("pipeline", "two_stage", _WORLD + _GROUND_TRUTH + ("--retain", "0.5"), "pipeline",
             RUN_FILES + REPORT_FILES + ("recovery.json",)),
        Step("analyze", "reports", ("--run", "two_stage") + _WORLD, "analyze",
             REPORT_FILES + ("reward_delta.json",)),
        Step("sweep", "sweep", _WORLD + ("--fractions", "0.2,0.5,0.8"), "other",
             ("config.json", "sweep_summary.csv", "manifest.json")
             + tuple(f"{sub}/{name}" for sub in ("f020", "f050", "f080") for name in RUN_FILES)),
    )
    return Workload("quickstart", steps, 0.5, "world/labels.csv")


def _large_world() -> Workload:
    # 100 epochs and 2,000 permutations keep one run of the whole sequence
    # inside the benchmark's time budget; the per-epoch and per-permutation
    # work is what the larger world scales up
    fewer = ("--permutations", "2000")
    steps = (
        _synth(400, 20000),
        Step("pipeline", "two_stage",
             _WORLD + _GROUND_TRUTH + ("--retain", "0.5", "--epochs", "100") + fewer, "pipeline",
             RUN_FILES + REPORT_FILES + ("recovery.json",)),
        Step("analyze", "reports", ("--run", "two_stage") + _WORLD + fewer, "analyze",
             REPORT_FILES + ("reward_delta.json",)),
    )
    return Workload("large_world", steps, 0.5, "world/labels.csv")


def _clinical() -> Workload:
    features = ("--features", ",".join(cohort.FEATURES))
    k = ("--k", "80")
    # half the default permutations: the tests still dominate pipeline and
    # analyze, and one sequence stays near 30 s
    perms = ("--permutations", "5000")
    steps = (
        Step("ingest", "ingest",
             ("--records", "inputs/records.csv", "--normals", "inputs/normals.json",
              "--bounds", "inputs/bounds.json", "--condition", "hypotension",
              "--demographics", ",".join(cohort.DEMOGRAPHICS)) + features, "inputs",
             ("config.json", "prepared.csv", "ingest_report.json", "manifest.json")),
        Step("cluster", "states", ("--prepared", "ingest/prepared.csv") + k + features,
             "inputs",
             ("config.json", "cluster_model.json", "trajectories.csv", "cluster_report.json",
              "manifest.json")),
        Step("pipeline", "two_stage",
             ("--prepared", "ingest/prepared.csv", "--retain", "0.8") + k + features + perms,
             "pipeline",
             RUN_FILES + REPORT_FILES + CLUSTER_TABLES + ("cluster_model.json", "trajectories.csv")),
        # analyze infers the state count from the highest state id in the
        # trajectories; when k-means drops the highest cluster that disagrees
        # with the k-state rewards and the command exits 1, so it is given --states
        Step("analyze", "reports",
             ("--run", "two_stage", "--trajectories", "states/trajectories.csv",
              "--cluster-model", "states/cluster_model.json", "--states", k[1]) + perms,
             "analyze",
             REPORT_FILES + CLUSTER_TABLES + ("reward_delta.json",)),
    )
    # cluster and pipeline fit the same k-means on the same rows with the same seed
    same = (("states/trajectories.csv", "two_stage/trajectories.csv"),
            ("states/cluster_model.json", "two_stage/cluster_model.json"))
    return Workload("clinical", steps, 0.8, "inputs/labels.csv", same, cohort.write_cohort)


WORKLOADS = {w.name: w for w in (_quickstart(), _large_world(), _clinical())}
