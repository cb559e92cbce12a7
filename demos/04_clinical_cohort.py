"""Clinical-style end-to-end walk: raw vitals CSV -> outlier filter + imputation
-> k-means state space -> trajectories -> two-stage reward -> reports.

The cohort is synthesized on the fly, but the file format, codec, and every
processing step are exactly what a real extract would go through. Three arms:
stable subjects, hypotensive subjects treated straight up the severity ladder
until they stabilize, and a small erratic arm that flips treatment on and off
at random and random-walks the ladder instead. The erratic arm deviates from
the treatment consensus, so it should land in the bottom deciles and get
pruned.

Run with:  python3 demos/04_clinical_cohort.py
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from consensus_irl import (
    IrlConfig,
    PruneConfig,
    cluster_report,
    end_state_deciles,
    fit_state_space,
    hypotension_codec,
    run_two_stage,
    score_trajectories,
)
from consensus_irl.discretize import feature_matrix, trajectories_from_prepared
from consensus_irl.ingest import load_records_csv, prepare_subjects

FEATURES = ["mean_bp", "heart_rate", "lactate"]
NORMALS = {"mean_bp": 85.0, "heart_rate": 80.0, "lactate": 1.2}
BOUNDS = {"mean_bp": (30.0, 180.0), "heart_rate": (20.0, 220.0), "lactate": (0.1, 15.0)}


def arm(i):
    if i < 18:
        return "stable"
    return "treated" if i < 32 else "erratic"


def derived_vitals(bp):
    # heart rate and lactate track severity: low pressure, high both
    return 80.0 + (85.0 - bp) * 1.2, max(1.1 + (85.0 - bp) * 0.11, 0.2)


# ------------------------------------------------------------ fake the extract
# Pressors move blood pressure up one 12 mmHg rung per step, withholding them
# lets it slide back down; above 85 the patient stabilizes and stays there.
# A few cells go missing and one monitor glitch writes an impossible heart
# rate; ingest has to absorb both.
rng = np.random.default_rng(3)
workdir = tempfile.TemporaryDirectory(prefix="cohort_demo_")
raw = Path(workdir.name) / "records.csv"
with open(raw, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(
        ["subject_id", "timestamp", *FEATURES,
         "vasopressors", "bolus_epinephrine", "sex", "died_in_hospital"]
    )
    for i in range(40):
        kind = arm(i)
        sid = f"p{i:02d}"
        sex = "f" if i % 2 else "m"
        died = kind == "erratic"
        bp = 88.0 if kind == "stable" else (55.0 if kind == "treated" else 67.0)
        recovered = kind == "stable"
        for t in range(10):
            if kind == "treated" and bp >= 85.0:
                recovered = True
            if recovered:
                vaso, bolus = 0, 0
            elif kind == "treated":
                vaso, bolus = 1, 0
            else:  # erratic: both flags are coin flips, biased toward undertreating
                vaso, bolus = int(rng.random() < 0.35), int(rng.random() < 0.15)
            hr, lac = derived_vitals(bp)
            row = [
                sid, t,
                f"{bp + rng.normal(0, 1.5):.1f}",
                f"{hr + rng.normal(0, 2.5):.1f}",
                f"{max(lac + rng.normal(0, 0.15), 0.2):.2f}",
                vaso, bolus, sex, int(died),
            ]
            if i == 7 and t == 2:
                row[2] = ""  # dropped bp measurement
            if i == 31 and t == 4:
                row[3] = "999"  # monitor glitch, outside plausible bounds
            writer.writerow(row)
            if recovered:
                bp = 88.0
            elif kind == "treated":
                bp += 12.0
            elif kind == "erratic":
                up = vaso or bolus  # epinephrine props pressure up too
                bp = float(np.clip(bp + (12.0 if up else -12.0), 43.0, 79.0))
print(f"wrote {raw.name}")

# -------------------------------------------------------------------- ingest
subjects = load_records_csv(raw, FEATURES, ["vasopressors", "bolus_epinephrine"], ["sex"])
workdir.cleanup()  # the records are in memory now
prepared, drop_report = prepare_subjects(subjects, NORMALS, BOUNDS, hypotension_codec())
print(f"prepared {len(prepared)} subjects; outlier drops by feature: "
      f"{ {k: v for k, v in drop_report.items() if v} }")

# -------------------------------------------------------- discretized states
rows, _ = feature_matrix(prepared, FEATURES)
model = fit_state_space(rows, k=6, min_size=5, seed=0, feature_names=FEATURES, n_restarts=4)
print(f"\nk-means over {rows.shape[0]} rows -> {len(model.retained_ids)} states, "
      f"inertia {model.inertia:.1f}")
used_names = [n for n, u in zip(model.feature_names, model.used) if u]
print("centroids in original units:")
for c, centroid in zip(sorted(model.feature_stats), model.centroids_original_units()):
    pretty = ", ".join(f"{n}={v:.1f}" for n, v in zip(used_names, centroid))
    print(f"  state {c}: {pretty}")

trajectories, chain_report = trajectories_from_prepared(prepared, model, FEATURES)
print(f"\nchained {len(trajectories)} trajectories "
      f"({chain_report.get('excluded_short', 0)} too short to keep)")

# ------------------------------------------------------------ two-stage fit
result = run_two_stage(
    trajectories,
    IrlConfig(epochs=200, lr0=0.3, seed=0),
    PruneConfig(retain_fraction=0.8),
)
pruned = np.array(result.scores.ids)[~result.retained]
pruned_kinds = sorted(arm(int(tid[1:])) for tid in pruned)
print(f"retained {result.retained.sum()} of {len(trajectories)} trajectories; "
      f"pruned arms: {pruned_kinds}")
print("state rewards (stage 2):",
      np.array2string(result.reward_stage2.rewards, precision=2))

# ----------------------------------------------------------------- reports
# Stage 1 scores everything with the reward the corrupted arm helped shape;
# rescoring against the stage-2 fit shows how much the refit pulls the
# erratic end states down.
before = end_state_deciles(result.scores)
after = end_state_deciles(
    score_trajectories(trajectories, result.transitions,
                       result.reward_stage2, result.policy_stage2)
)
print(f"\nend-state reward, bottom vs top consensus decile:")
for stage, deciles in (("stage 1", before), ("stage 2", after)):
    means = deciles["mean_end_state_reward"]
    print(f"  scored by {stage}: {means[0]:+.3f} vs {means[-1]:+.3f}")

report = cluster_report(model.feature_stats, result.reward_stage2, top_k=3)
print("\nstates ranked by stage-2 reward (count, mean vitals):")
for i, rank in enumerate(report["rank"]):
    vitals = ", ".join(f"{f}={report[f + '_mean'][i]:.1f}" for f in model.feature_names)
    print(f"  #{rank} state {report['cluster'][i]} reward {report['reward'][i]:+.2f} "
          f"(n={report['count'][i]}): {vitals}")
