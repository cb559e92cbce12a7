"""Golden-run comparison of this checkout against a git ref.

    python3 tools/golden.py --against <git-ref> [--rtol R] [--workdir DIR]

Checks the ref out into a temporary directory with `git worktree` (a local
checkout; nothing is fetched), runs one fixed command set in both trees at
seeds 1 and 2, and compares every file the commands wrote. Each tree runs
its own `src/`; the inputs (two demographic tag files, a regroup mapping, a
codec file, the seeded clinical cohort of perfbench/cohort.py and the edge-case
records derived from it by write_edge_records) are written once and copied to
both. Per seed:

- the synthetic chain synth -> pipeline --world --labels -> analyze -> sweep;
- irl -> prune on the synthetic trajectories, once per selection rule:
  deviation, likelihood with --percentile 40, and likelihood with
  --threshold 0.001 (which keeps some of them but not all);
- one pipeline with --method random and the ground truth, and one with
  --optimizer lbfgs;
- a chain of 9 actions, synth -> pipeline --world --labels, since numpy sums
  a row of eight or more values pairwise, so the MaxEnt passes' sums over
  actions take another order there;
- a chain of 100 states, synth -> pipeline --world --labels -> analyze: a
  kernel's products run one dense block of 64 states at a time, and every
  other world here fits in one block;
- a chain synth --demographics -> pipeline --world --labels -> analyze whose
  tag categories a CSV must quote or could misread (a comma, quotes, a
  non-ASCII letter, a leading #), so the writer's quoting path reaches
  trajectories.csv, labels.csv, scores.csv and tests.csv;
- the clinical chain ingest -> cluster -> pipeline --prepared ->
  analyze --cluster-model, and sweep --prepared on the tagged clinical rows;
- a clinical cluster at k = 80, which drops clusters and so leaves gaps in
  the state ids, one pipeline --records straight from the raw cohort, one
  ingest --regroup that relabels tag categories before the rare ones
  collapse, and one sweep --records;
- ingest and pipeline --records on the edge-case records: a subject dropped
  whole by the bounds, a one-row subject, a feature missing on a subject's
  first rows and subjects with an empty tag cell;
- ingest --condition sepsis on the cohort with the sepsis codec's treatment
  columns (write_sepsis_records);
- a seeded shuffle of the synthetic trajectories.csv's rows, header kept
  (shuffle_rows, a step of this script), through pipeline --world --labels
  and through analyze --run on the run of the unshuffled rows: every reader
  takes trajectories in id order, so the row order should move nothing;
- synth --config fed the first synth run's own config.json, and
  ingest --codec with the built-in hypotension codec written out as a file
  (CODEC), so every JSON input a command reads is in the set;

and, once per tree, the stdout of every demos/*.py. Each command's exit code
and stdout are kept as files too, so a changed message or a failing command
shows up as a differing file.

The last line of stdout is one JSON object: the files compared, identical and
differing, and for each differing file its largest absolute and relative
numeric difference, whether anything other than numbers differs, the CSV
columns or JSON fields that moved, the decision fields among them, and the
JSON fields that only one side has ("added" in this checkout, "removed" from
the ref). CSV rows are paired by their trajectory_id or subject_id where the
header has one, and by position otherwise. A decision is an outcome that a rounding difference should never
move (DECISIONS): the retained set, both greedy policies and their agreement,
each test's p-values, and the prune precision and recall against the ground
truth. The summary's decisions_moved says whether any moved, and
decision_files lists the files where one did. Exit status: 0 when every file
is identical, or differs only in numbers within --rtol (and in the manifest
hashes of such files) with no decision moved; 1 otherwise; 2 when the ref
cannot be checked out. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TAGS = [
    {"name": "sex", "categories": ["f", "m"], "probs": [0.5, 0.5]},
    {
        "name": "site",
        "categories": ["north", "south", "east"],
        "probs": [0.5, 0.3, 0.2],
        "corrupted_probs": [0.2, 0.3, 0.5],
    },
]
# categories that CSV quoting and comment handling must keep intact
QUOTED_TAGS = [
    {"name": "unit", "categories": ["a,b", 'say "hi"', "é", "#x"],
     "probs": [0.4, 0.3, 0.2, 0.1], "corrupted_probs": [0.1, 0.2, 0.3, 0.4]},
]
# ingest --regroup's relabelling of the cohort's tags: two age bands merge and
# one ethnicity joins another
REGROUP = {"age_band": {"65-79": "65+", "80+": "65+"}, "ethnicity": {"d": "c"}}
# ingest --codec's file: the codec that --condition hypotension names
CODEC = {
    "condition": "hypotension",
    "labels": ["no_treatment", "vasopressors", "bolus_epinephrine", "combined"],
    "mapping": [
        {"flags": [], "action": 0},
        {"flags": ["vasopressors"], "action": 1},
        {"flags": ["bolus_epinephrine"], "action": 2},
        {"flags": ["vasopressors", "bolus_epinephrine"], "action": 3},
    ],
}
SEEDS = (1, 2)
PERMUTATIONS = ("--permutations", "2000")
K = "40"
# the last part of a JSON path, or a CSV column, that holds a decision: in
# scores.csv, reward_delta.*, tests.*, recovery.json, manifest.json and
# sweep_summary.csv (p_holm is the post-hoc adjusted p of tests.json before
# it was p_adjusted, so a ref from then still compares)
DECISIONS = frozenset({
    "retained", "n_retained", "policy1", "policy2", "agree", "p_value", "p_adjusted",
    "p_holm", "prune_precision", "prune_recall",
})
# the columns that name the trajectory or subject a CSV row belongs to
OWNERS = ("trajectory_id", "subject_id")


def _cohort():
    """perfbench/cohort.py, imported without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import cohort

    return cohort


def write_edge_records(directory: Path, cohort) -> None:
    """records_edges.csv: the directory's records.csv with the cases a whole-cohort
    ingest must keep, each on subjects picked in sorted-id order.

    The first subject has every mean_bp out of bounds, so ingest drops it; the
    second keeps only its first row, so it starts no step; the third has no
    lactate on its first two rows, which take the normal value; and the next
    three have an empty ethnicity cell, a missing tag.
    """
    with open(directory / "records.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    column = {name: j for j, name in enumerate(header)}
    ids = sorted({row[0] for row in rows})
    dropped, single, late, untagged = ids[0], ids[1], ids[2], set(ids[3:6])

    def first_times(sid, count):
        return sorted(int(row[1]) for row in rows if row[0] == sid)[:count]

    keep_single, late_times = first_times(single, 1), first_times(late, 2)
    edited = []
    for row in rows:
        sid, at = row[0], int(row[1])
        if sid == single and at not in keep_single:
            continue
        if sid == dropped:
            row[column["mean_bp"]] = repr(cohort.GLITCHES["mean_bp"])
        if sid == late and at in late_times:
            row[column["lactate"]] = ""
        if sid in untagged:
            row[column["ethnicity"]] = ""
        edited.append(row)
    with open(directory / "records_edges.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header, *edited])


def write_sepsis_records(directory: Path) -> None:
    """records_sepsis.csv: the directory's records.csv with the sepsis codec's
    treatment columns in place of the hypotension codec's.

    vasopressors and bolus_epinephrine become vasoactive and antibiotics;
    ventilation is set where both were, so some rows hold three flags, which
    the codec maps to its first action among them; glucocorticoids is set on
    every fifth row.
    """
    with open(directory / "records.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    pressors, bolus = header.index("vasopressors"), header.index("bolus_epinephrine")
    header[pressors], header[bolus] = "vasoactive", "antibiotics"
    with open(directory / "records_sepsis.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([header + ["ventilation", "glucocorticoids"]] + [
            row + [str(int(row[pressors] == row[bolus] == "1")), str(int(i % 5 == 0))]
            for i, row in enumerate(rows)
        ])


def commands(seed: int, cohort) -> list[tuple[str, str, tuple[str, ...]]]:
    """(command, run directory, flags) in order; every path is relative to the seed's directory."""
    world = ("--trajectories", "world/trajectories.csv")
    truth = ("--world", "world/world.json", "--labels", "world/labels.csv")
    features = ("--features", ",".join(cohort.FEATURES))
    records = (
        "--records", "inputs/records.csv", "--normals", "inputs/normals.json",
        "--bounds", "inputs/bounds.json", "--condition", "hypotension",
        "--demographics", ",".join(cohort.DEMOGRAPHICS),
    ) + features
    edges = ("--records", "inputs/records_edges.csv", *records[2:])
    sepsis = ("--records", "inputs/records_sepsis.csv", *records[2:6], "--condition", "sepsis",
              *records[8:])
    steps = [
        ("synth", "world", (
            "--states", "60", "--actions", "3", "--branching", "4", "--horizon", "12",
            "--trajectories", "600", "--corrupted", "0.3", "--mode", "random_policy",
            "--demographics", "inputs/tags.json",
        )),
        ("irl", "irl", world),
        ("prune", "prune", world + ("--rewards", "irl/rewards.json", "--retain", "0.5")),
        ("prune", "prune_percentile", world + (
            "--rewards", "irl/rewards.json", "--method", "likelihood", "--percentile", "40",
        )),
        ("prune", "prune_threshold", world + (
            "--rewards", "irl/rewards.json", "--method", "likelihood", "--threshold", "0.001",
        )),
        ("pipeline", "two_stage", world + truth + ("--retain", "0.5") + PERMUTATIONS),
        ("analyze", "reports", ("--run", "two_stage") + world + PERMUTATIONS),
        ("sweep", "sweep", world + ("--fractions", "0.2,0.5,0.8") + PERMUTATIONS),
        ("pipeline", "random", world + truth + ("--method", "random", "--retain", "0.5")
         + PERMUTATIONS),
        ("pipeline", "lbfgs", world + ("--optimizer", "lbfgs", "--retain", "0.5") + PERMUTATIONS),
        ("synth", "wide", (
            "--states", "40", "--actions", "9", "--branching", "4", "--horizon", "10",
            "--trajectories", "400", "--corrupted", "0.3", "--mode", "random_policy",
        )),
        ("pipeline", "wide_two_stage", (
            "--trajectories", "wide/trajectories.csv", "--world", "wide/world.json",
            "--labels", "wide/labels.csv", "--retain", "0.5",
        ) + PERMUTATIONS),
        ("synth", "hundred", (
            "--states", "100", "--actions", "4", "--branching", "5", "--horizon", "12",
            "--trajectories", "800", "--corrupted", "0.3", "--mode", "random_policy",
        )),
        ("pipeline", "hundred_two_stage", (
            "--trajectories", "hundred/trajectories.csv", "--world", "hundred/world.json",
            "--labels", "hundred/labels.csv", "--retain", "0.5",
        ) + PERMUTATIONS),
        ("analyze", "hundred_reports", (
            "--run", "hundred_two_stage", "--trajectories", "hundred/trajectories.csv",
        ) + PERMUTATIONS),
        ("synth", "quoted", (
            "--states", "30", "--actions", "3", "--branching", "4", "--horizon", "10",
            "--trajectories", "300", "--corrupted", "0.3", "--mode", "random_policy",
            "--demographics", "inputs/tags_quoted.json",
        )),
        ("pipeline", "quoted_two_stage", (
            "--trajectories", "quoted/trajectories.csv", "--world", "quoted/world.json",
            "--labels", "quoted/labels.csv", "--retain", "0.5",
        ) + PERMUTATIONS),
        ("analyze", "quoted_reports", (
            "--run", "quoted_two_stage", "--trajectories", "quoted/trajectories.csv",
        ) + PERMUTATIONS),
        ("ingest", "ingest", records),
        ("cluster", "states", ("--prepared", "ingest/prepared.csv", "--k", K) + features),
        ("pipeline", "clinical", (
            "--prepared", "ingest/prepared.csv", "--k", K, "--retain", "0.8",
        ) + features + PERMUTATIONS),
        ("analyze", "clinical_reports", (
            "--run", "clinical", "--trajectories", "states/trajectories.csv",
            "--cluster-model", "states/cluster_model.json", "--states", K,
        ) + PERMUTATIONS),
        ("sweep", "clinical_sweep", (
            "--prepared", "ingest/prepared.csv", "--k", K, "--fractions", "0.5,0.8",
        ) + features + PERMUTATIONS),
        ("cluster", "states_k80", ("--prepared", "ingest/prepared.csv", "--k", "80") + features),
        ("pipeline", "clinical_records", records + ("--k", K, "--retain", "0.8") + PERMUTATIONS),
        ("ingest", "ingest_regroup", records + ("--regroup", "inputs/regroup.json")),
        ("sweep", "clinical_records_sweep", records + ("--k", K, "--fractions", "0.5,0.8")
         + PERMUTATIONS),
        ("ingest", "ingest_edges", edges),
        ("ingest", "ingest_sepsis", sepsis),
        ("pipeline", "clinical_edges", edges + ("--k", K, "--retain", "0.8") + PERMUTATIONS),
        ("shuffle", "shuffled", ("world/trajectories.csv",)),
        ("pipeline", "shuffled_two_stage", (
            "--trajectories", "shuffled/trajectories.csv", *truth, "--retain", "0.5",
        ) + PERMUTATIONS),
        ("analyze", "shuffled_reports", (
            "--run", "two_stage", "--trajectories", "shuffled/trajectories.csv",
        ) + PERMUTATIONS),
        ("synth", "world_config", ("--config", "world/config.json")),
        ("ingest", "ingest_codec", ("--codec", "inputs/codec.json", *(
            arg for arg in records if arg not in ("--condition", "hypotension")
        ))),
    ]
    return [(cmd, out, flags + ("--seed", str(seed), "--out", out)) for cmd, out, flags in steps]


def shuffle_rows(source: Path, out_dir: Path, seed: int) -> None:
    """Write out_dir/<source's name>: source's rows in a seeded random order, header first."""
    header, *rows = source.read_bytes().splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / source.name).write_bytes(header + b"".join(rows))


def _env(tree: Path, tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CONSENSUS_IRL_OUT"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1", TMPDIR=str(tmp))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _record(path: Path, done: subprocess.CompletedProcess) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f"exit {done.returncode}\n{done.stdout}")
    if done.returncode != 0:
        print(f"golden: {path.name} exited {done.returncode}:\n{done.stderr}", file=sys.stderr)


def run_tree(tree: Path, out: Path, inputs: Path, cohort) -> None:
    """Run the command set with tree's src/ into out/seed<S>/ and out/demos/."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True)
    env = _env(tree, tmp)
    for seed in SEEDS:
        cwd = out / f"seed{seed}"
        shutil.copytree(inputs / f"seed{seed}", cwd / "inputs")
        for i, (cmd, run_dir, argv) in enumerate(commands(seed, cohort)):
            if cmd == "shuffle":  # a step of this script, not a command
                shuffle_rows(cwd / argv[0], cwd / run_dir, seed)
                continue
            done = subprocess.run(
                [sys.executable, "-m", "consensus_irl.cli", cmd, *argv],
                cwd=cwd, env=env, capture_output=True, text=True,
            )
            _record(cwd / "commands" / f"{i:02d}_{cmd}_{run_dir}.txt", done)
    for demo in sorted((tree / "demos").glob("*.py")):
        done = subprocess.run(
            [sys.executable, str(demo)], cwd=tmp, env=env, capture_output=True, text=True
        )
        _record(out / "demos" / f"{demo.stem}.txt", done)
    shutil.rmtree(tmp)


# ---------------------------------------------------------------------------
# comparison


def _number(token):
    """float of a number token, or None."""
    if isinstance(token, bool):
        return None
    try:
        return float(token)
    except (TypeError, ValueError):
        return None


def _json_leaves(node, path=""):
    """(path, leaf) pairs; a list entry with a "name" is keyed by it, others by index."""
    if isinstance(node, dict):
        items = sorted(node.items())
    elif isinstance(node, list):
        items = []
        for i, item in enumerate(node):
            name = item.get("name") if isinstance(item, dict) else None
            items.append((name if isinstance(name, str) else i, item))
    else:
        # strings in JSON are text, never numbers, so a hash stays a hash
        yield path, node if not isinstance(node, str) else f"'{node}'"
        return
    for key, item in items:
        yield from _json_leaves(item, f"{path}/{key}" if path else str(key))


def _csv_cells(text: str):
    """(column, cell) of every row but comments. Under an owner column (OWNERS),
    rows come in a stable sort by it, so a reorder of the rows moves no cell."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]
    header, rows = (rows[0], rows[1:]) if rows else ([], [])
    owner = next((header.index(c) for c in OWNERS if c in header), None)
    if owner is not None:
        rows.sort(key=lambda row: row[owner:owner + 1])
    for row in rows:
        for j, cell in enumerate(row):
            yield (header[j] if j < len(header) else str(j)), cell


def _text_tokens(text: str):
    for n, line in enumerate(text.splitlines(), 1):
        for token in re.split(r"[\s,;:=()\[\]{}]+", line):
            if token:
                yield f"line {n}", token


def _fields(name: str, data: bytes) -> tuple[list, bool]:
    """(field, token) pairs of a file, and whether they are the leaves of a JSON document."""
    text = data.decode("utf-8", errors="replace")
    if name.endswith(".json"):
        try:
            return list(_json_leaves(json.loads(text))), True
        except json.JSONDecodeError:
            pass
    elif name.endswith(".csv"):
        return list(_csv_cells(text)), False
    return list(_text_tokens(text)), False


def diff_file(name: str, ours: bytes, theirs: bytes) -> dict:
    """Largest numeric differences of two versions of a file, and what else moved.

    Two JSON documents are compared on the paths both have, and the paths only
    one has are listed; any other change of layout is reported as "<layout>".
    """
    (a, json_a), (b, json_b) = _fields(name, ours), _fields(name, theirs)
    report = {"file": name, "max_abs": 0.0, "max_rel": 0.0, "text_differs": False}
    if [f for f, _ in a] != [f for f, _ in b]:
        report["text_differs"] = True
        if not (json_a and json_b):
            report["fields"] = ["<layout>"]
            return report
        paths_a, paths_b = dict(a), dict(b)
        report["added"] = [f for f, _ in a if f not in paths_b]
        report["removed"] = [f for f, _ in b if f not in paths_a]
        a = [(f, x) for f, x in a if f in paths_b]
        b = [(f, paths_b[f]) for f, _ in a]
    moved = []
    for (field, x), (_, y) in zip(a, b):
        if x == y:
            continue
        if field not in moved:
            moved.append(field)
        nx, ny = _number(x), _number(y)
        if nx is None or ny is None:
            # an artifact hash in a manifest moves with its file, which is compared itself
            report["text_differs"] |= not field.startswith("hashes/")
            continue
        if nx == ny or (math.isnan(nx) and math.isnan(ny)):
            continue
        gap = abs(nx - ny)
        if math.isfinite(gap):
            rel = gap / max(abs(nx), abs(ny))
        else:
            gap = rel = math.inf
        report["max_abs"] = max(report["max_abs"], gap)
        report["max_rel"] = max(report["max_rel"], rel)
    report["fields"] = moved
    report["decisions"] = [f for f in moved if f.rsplit("/", 1)[-1] in DECISIONS]
    return report


def _files(root: Path) -> set[str]:
    # the inputs are copies of one set of files, so they are not compared
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and "inputs" not in p.relative_to(root).parts
    }


def compare_trees(ours: Path, theirs: Path) -> dict:
    """Compare every file under two output trees but their inputs/ directories."""
    names = sorted(_files(ours) | _files(theirs))
    differing = []
    for name in names:
        a, b = ours / name, theirs / name
        if not (a.is_file() and b.is_file()):
            side = "ref" if a.is_file() else "checkout"
            differing.append({"file": name, "missing_in": side, "text_differs": True})
            continue
        da, db = a.read_bytes(), b.read_bytes()
        if da != db:
            differing.append(diff_file(name, da, db))
    decision_files = [f["file"] for f in differing if f.get("decisions")]
    return {
        "compared": len(names),
        "identical": len(names) - len(differing),
        "differing": len(differing),
        "decisions_moved": bool(decision_files),
        "decision_files": decision_files,
        "files": differing,
    }


def within(summary: dict, rtol: float) -> bool:
    return not summary["decisions_moved"] and all(
        not f["text_differs"] and f["max_rel"] <= rtol for f in summary["files"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git ref to compare this checkout with")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative numeric difference that still passes")
    parser.add_argument("--workdir", help="where to check out and run (default: a temp dir)")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="golden_", dir=args.workdir))
    ref_tree = work / "ref_tree"
    added = subprocess.run(
        ["git", "-C", str(ROOT), "worktree", "add", "--detach", str(ref_tree), args.against],
        capture_output=True, text=True,
    )
    if added.returncode != 0:
        print(f"golden: cannot check out {args.against}: {added.stderr.strip()}", file=sys.stderr)
        shutil.rmtree(work)
        return 2
    try:
        cohort = _cohort()
        inputs = work / "inputs"
        for seed in SEEDS:
            cohort.write_cohort(str(inputs / f"seed{seed}"), seed)
            write_edge_records(inputs / f"seed{seed}", cohort)
            write_sepsis_records(inputs / f"seed{seed}")
            (inputs / f"seed{seed}" / "tags.json").write_text(json.dumps(TAGS))
            (inputs / f"seed{seed}" / "tags_quoted.json").write_text(json.dumps(QUOTED_TAGS))
            (inputs / f"seed{seed}" / "regroup.json").write_text(json.dumps(REGROUP))
            (inputs / f"seed{seed}" / "codec.json").write_text(json.dumps(CODEC))
        trees = {"checkout": ROOT, "ref": ref_tree}
        print(f"golden: running both trees in {work}", file=sys.stderr)
        with ThreadPoolExecutor(max_workers=2) as pool:
            jobs = [
                pool.submit(run_tree, tree, work / name, inputs, cohort)
                for name, tree in trees.items()
            ]
            for job in jobs:
                job.result()
        summary = {"against": args.against, **compare_trees(work / "checkout", work / "ref")}
    finally:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(ref_tree)],
            capture_output=True,
        )
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary, sort_keys=True))
    return 0 if within(summary, args.rtol) else 1


if __name__ == "__main__":
    sys.exit(main())
