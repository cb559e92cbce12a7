"""Seeded raw-record cohort for the `clinical` workload.

Scales the three arms of demos/04_clinical_cohort.py up to a full cohort:
stable subjects who never need treatment, hypotensive subjects treated up the
pressor ladder until they stabilise, and an erratic arm that flips treatment
at random while its pressure random-walks. The erratic arm deviates from the
treatment consensus, so its subject ids are the ground truth that the pruned
set is scored against.

The extract is deliberately dirty, the way ingest has to expect: about 3 % of
vitals cells are empty, about 0.5 % of rows carry one out-of-bounds value, and
one ethnicity category is held by too few subjects to survive ingest's
`--min-share` regrouping, so it collapses into `other`. Rare in-bounds spikes
give k-means a few clusters below `--min-size`, which it drops.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

FEATURES = ["mean_bp", "heart_rate", "lactate"]
FLAGS = ["vasopressors", "bolus_epinephrine"]
DEMOGRAPHICS = ["sex", "age_band", "ethnicity"]
NORMALS = {"mean_bp": 85.0, "heart_rate": 80.0, "lactate": 1.2}
BOUNDS = {"mean_bp": [30.0, 180.0], "heart_rate": [20.0, 220.0], "lactate": [0.1, 15.0]}
# impossible readings a glitching monitor writes, one per feature
GLITCHES = {"mean_bp": 400.0, "heart_rate": 999.0, "lactate": 45.0}

N_SUBJECTS = 2000
ARM_SHARES = {"stable": 0.45, "treated": 0.35, "erratic": 0.20}
MIN_STEPS, MAX_STEPS = 4, 24
EMPTY_CELL_RATE = 0.03
OUT_OF_BOUNDS_ROW_RATE = 0.005
# rare in-bounds tachycardia spikes form k-means clusters too small to keep,
# so the state ids the program emits have gaps
SPIKE_ROW_RATE = 0.002
DIED_RATE = {"stable": 0.03, "treated": 0.15, "erratic": 0.5}
SEXES = ["f", "m"]
AGE_BANDS = (["18-44", "45-64", "65-79", "80+"], [0.2, 0.3, 0.3, 0.2])
# "e" stays below ingest's default 1 % min-share and becomes "other"
ETHNICITIES = (["a", "b", "c", "d"], [0.4, 0.3, 0.16, 0.14])
RARE_ETHNICITY, RARE_SUBJECTS = "e", 8
# Vitals sit in discrete regimes (pressure rung x heart-rate baseline x lactate
# baseline) with small measurement noise. On a continuum, the number of Lloyd
# iterations k-means needs swings 50-200 from seed to seed, which would make
# the clinical timings measure k-means luck rather than the code.
START_RUNGS = {"stable": [88.0], "treated": [43.0, 55.0], "erratic": [55.0, 67.0, 79.0]}
HR_BASELINES = [-30.0, -15.0, 0.0, 15.0, 30.0]
LACTATE_BASELINES = [0.0, 1.0, 2.0, 3.0]


def _exact_labels(rng, categories, shares, n) -> np.ndarray:
    """n labels in exactly the given proportions (rounded), shuffled."""
    counts = np.floor(np.asarray(shares) * n).astype(int)
    counts[0] += n - counts.sum()
    return rng.permutation(np.repeat(np.asarray(categories, dtype=object), counts))


def _subject_rows(arm: str, n_steps: int, rng) -> list[tuple[list[float], int, int]]:
    """(vitals, vasopressors, bolus) per time step for one subject.

    Pressors move blood pressure up one 12 mmHg rung per step and withholding
    them lets it slide down a rung; above 85 the subject stabilises at 88.
    Heart rate and lactate rise as pressure falls, on top of a per-subject
    baseline level.
    """
    hr_base = HR_BASELINES[rng.integers(len(HR_BASELINES))]
    lactate_base = LACTATE_BASELINES[rng.integers(len(LACTATE_BASELINES))]
    rungs = START_RUNGS[arm]
    bp = rungs[rng.integers(len(rungs))]
    recovered = arm == "stable"
    rows = []
    for _ in range(n_steps):
        if arm == "treated" and bp >= 85.0:
            recovered = True
        if recovered:
            vaso, bolus = 0, 0
        elif arm == "treated":
            vaso, bolus = 1, 0
        else:  # erratic: coin-flip flags, biased toward undertreating
            vaso, bolus = int(rng.random() < 0.35), int(rng.random() < 0.15)
        hr = 80.0 + (85.0 - bp) * 1.2 + hr_base
        lactate = max(1.1 + (85.0 - bp) * 0.11, 0.2) + lactate_base
        vitals = [
            round(bp + rng.normal(0, 1.0), 1),
            round(hr + rng.normal(0, 1.5), 1),
            round(lactate + rng.normal(0, 0.08), 2),
        ]
        rows.append((vitals, vaso, bolus))
        if recovered:
            bp = 88.0
        elif arm == "treated":
            bp += 12.0
        else:
            bp = float(np.clip(bp + (12.0 if (vaso or bolus) else -12.0), 43.0, 79.0))
    return rows


def write_cohort(out_dir: str, seed: int) -> dict:
    """Write records.csv, normals.json, bounds.json and labels.csv.

    labels.csv maps every subject id to 1 for the erratic arm and 0 otherwise.
    Returns row and cell counts of what was written.
    """
    rng = np.random.default_rng(seed)
    arms = _exact_labels(rng, list(ARM_SHARES), list(ARM_SHARES.values()), N_SUBJECTS)
    sexes = _exact_labels(rng, SEXES, [0.5, 0.5], N_SUBJECTS)
    ages = _exact_labels(rng, *AGE_BANDS, N_SUBJECTS)
    ethnicities = _exact_labels(rng, *ETHNICITIES, N_SUBJECTS)
    ethnicities[rng.choice(N_SUBJECTS, RARE_SUBJECTS, replace=False)] = RARE_ETHNICITY

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "normals.json"), "w") as fh:
        json.dump(NORMALS, fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "bounds.json"), "w") as fh:
        json.dump(BOUNDS, fh, indent=2, sort_keys=True)

    counts = {"subjects": N_SUBJECTS, "rows": 0, "empty_cells": 0, "out_of_bounds": 0}
    with open(os.path.join(out_dir, "records.csv"), "w", newline="") as rec_fh, \
            open(os.path.join(out_dir, "labels.csv"), "w", newline="") as lab_fh:
        records = csv.writer(rec_fh)
        labels = csv.writer(lab_fh)
        records.writerow(
            ["subject_id", "timestamp", *FEATURES, *FLAGS, *DEMOGRAPHICS, "died_in_hospital"]
        )
        labels.writerow(["trajectory_id", "corrupted"])
        for i in range(N_SUBJECTS):
            sid = f"p{i:05d}"
            arm = str(arms[i])
            died = int(rng.random() < DIED_RATE[arm])
            n_steps = int(rng.integers(MIN_STEPS, MAX_STEPS + 1))
            for t, (vitals, vaso, bolus) in enumerate(_subject_rows(arm, n_steps, rng)):
                if rng.random() < SPIKE_ROW_RATE:
                    vitals[1] = round(rng.uniform(170.0, 210.0), 1)
                    vitals[2] = round(rng.uniform(9.0, 14.0), 2)
                cells = [repr(v) for v in vitals]
                for j in np.flatnonzero(rng.random(len(FEATURES)) < EMPTY_CELL_RATE):
                    cells[j] = ""
                    counts["empty_cells"] += 1
                if rng.random() < OUT_OF_BOUNDS_ROW_RATE:
                    j = int(rng.integers(len(FEATURES)))
                    cells[j] = repr(GLITCHES[FEATURES[j]])
                    counts["out_of_bounds"] += 1
                records.writerow(
                    [sid, t, *cells, vaso, bolus, sexes[i], ages[i], ethnicities[i], died]
                )
                counts["rows"] += 1
            labels.writerow([sid, int(arm == "erratic")])
    return counts
