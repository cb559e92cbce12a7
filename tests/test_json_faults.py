"""The JSON fault corpus: every JSON file the command line reads, each with one
fault, through dispatch in process.

Each input is a valid file whose text holds the token @X@ where a value is
read; the valid case puts that value back and must exit 0. Each fault must exit
1 with one stderr line, "error: ..." naming the faulty file, with no traceback
and no output directory:

- NaN and Infinity, which Python's json module reads but RFC 8259 excludes;
- 1e999, a valid literal beyond a double's range, which json reads as inf;
- the valid text cut in half;
- a top-level value of the wrong type;

and, for world.json alone, a null kernel cell (which numpy reads as NaN),
rewards one entry short and an initial distribution that sums to 3.
"""

import json
import shutil

import numpy as np
import pytest

from consensus_irl.cli import dispatch
from consensus_irl.errors import SchemaError
from consensus_irl.table import read_json, write_json

X = "@X@"
RECORDS = (
    "subject_id,timestamp,heart_rate,mean_bp,vasopressors,bolus_epinephrine,sex,died_in_hospital\n"
    + "".join(f"p{i},{t},{70 + 9 * i + t},{60 + 5 * i - t},{t % 2},{int(t == 2)},"
              f"{'fm'[i % 2]},{int(i == 0)}\n" for i in range(4) for t in range(4))
)
CODEC = (
    '{"condition": "c", "labels": ["none", "vaso", "bolus", "both"], "mapping": ['
    '{"flags": [], "action": @X@}, {"flags": ["vasopressors"], "action": 1}, '
    '{"flags": ["bolus_epinephrine"], "action": 2}, '
    '{"flags": ["vasopressors", "bolus_epinephrine"], "action": 3}]}'
)
CLUSTERS = {  # one cluster per state of the 6-state world
    "centroids": [[float(c)] for c in range(6)], "feature_names": ["a"],
    "feature_means": [0.0], "feature_stds": [1.0], "used": [1], "member_counts": [1] * 6,
    "dropped_cluster_ids": [], "feature_stats": {}, "inertia": 0.0, "seed": 0,
}


def run(*argv):
    return dispatch([str(a) for a in argv])


def _with_token(payload: dict, set_token) -> tuple[str, str]:
    """(the JSON text of payload with one value made the token, that value's JSON)."""
    value = set_token(payload)
    return json.dumps(payload).replace(f'"{X}"', X), json.dumps(value)


def _first_reward(payload: dict):
    value, payload["rewards"][0] = payload["rewards"][0], X
    return value


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A 6-state synthetic world, its trajectories and labels, one pipeline run on
    them, and a small raw cohort with valid normals and bounds."""
    root = tmp_path_factory.mktemp("json_faults")
    assert run("synth", "--states", 6, "--actions", 2, "--branching", 2, "--horizon", 5,
               "--trajectories", 30, "--seed", 1, "--out", root / "world") == 0
    assert run("pipeline", "--trajectories", root / "world" / "trajectories.csv",
               "--epochs", 5, "--permutations", 20, "--out", root / "run") == 0
    (root / "records.csv").write_text(RECORDS)
    (root / "normals.json").write_text('{"heart_rate": 75, "mean_bp": 85}')
    (root / "bounds.json").write_text('{"heart_rate": [20, 300], "mean_bp": [10, 200]}')
    return root


def _ingest(root, flag, path, out):
    files = {"--normals": root / "normals.json", "--bounds": root / "bounds.json", flag: path}
    condition = () if flag == "--codec" else ("--condition", "hypotension")
    return ("ingest", "--records", root / "records.csv", "--features", "heart_rate,mean_bp",
            "--demographics", "sex", *condition, *[a for pair in files.items() for a in pair],
            "--out", out)


def _analyze_run(root, path, out):
    """analyze --run on the copy of the run whose rewards_stage1.json is path."""
    return ("analyze", "--run", path.parent, "--trajectories",
            root / "world" / "trajectories.csv", "--permutations", 20, "--out", out)


def _place(root, tmp_path, name):
    """Where the input's text is written: run_rewards_stage1 in a copy of the run."""
    if name != "run_rewards_stage1":
        return tmp_path / f"{name}.json"
    shutil.copytree(root / "run", tmp_path / "run")
    return tmp_path / "run" / "rewards_stage1.json"


def _world_text(root):
    return _with_token(json.loads((root / "world" / "world.json").read_text()), _first_reward)


def _run_rewards_text(root):
    text = (root / "run" / "rewards_stage1.json").read_text()
    return _with_token(json.loads(text), _first_reward)


def _clusters_text(root):
    def first_centroid(payload):
        value, payload["centroids"][0][0] = payload["centroids"][0][0], X
        return value

    return _with_token(json.loads(json.dumps(CLUSTERS)), first_centroid)


# input name: (its valid text and the token's value, or a function of root that
# gives them; the top-level type it must have; argv of (root, path, out))
INPUTS = {
    "config": (('{"subcommand": "synth", "corrupted": @X@}', "0.3"), dict,
               lambda root, path, out: ("synth", "--config", path, "--states", 6,
                                        "--trajectories", 10, "--out", out)),
    "normals": (('{"heart_rate": @X@, "mean_bp": 85}', "75"), dict,
                lambda root, path, out: _ingest(root, "--normals", path, out)),
    "bounds": (('{"heart_rate": [20, @X@], "mean_bp": [10, 200]}', "300"), dict,
               lambda root, path, out: _ingest(root, "--bounds", path, out)),
    "regroup": (('{"sex": {"f": @X@}}', '"female"'), dict,
                lambda root, path, out: _ingest(root, "--regroup", path, out)),
    "codec": ((CODEC, "0"), dict, lambda root, path, out: _ingest(root, "--codec", path, out)),
    "demographics": (('[{"name": "sex", "categories": ["f", "m"], "probs": [0.5, @X@]}]', "0.5"),
                     list, lambda root, path, out: ("synth", "--states", 6, "--trajectories", 10,
                                                    "--demographics", path, "--out", out)),
    "rewards": (('{"metadata": {}, "rewards": [0.5, -0.5, 0.0, 0.25, -0.25, @X@]}', "1.0"), dict,
                lambda root, path, out: ("prune", "--trajectories",
                                         root / "world" / "trajectories.csv",
                                         "--rewards", path, "--out", out)),
    "world": (_world_text, dict,
              lambda root, path, out: ("pipeline", "--trajectories",
                                       root / "world" / "trajectories.csv", "--world", path,
                                       "--labels", root / "world" / "labels.csv",
                                       "--epochs", 5, "--permutations", 20, "--out", out)),
    "cluster_model": (_clusters_text, dict,
                      lambda root, path, out: ("analyze", "--run", root / "run",
                                               "--trajectories",
                                               root / "world" / "trajectories.csv",
                                               "--cluster-model", path, "--permutations", 20,
                                               "--out", out)),
    "run_rewards_stage1": (_run_rewards_text, dict, _analyze_run),
}
FAULTS = {
    "valid": lambda text, value, kind: text.replace(X, value),
    "nan": lambda text, value, kind: text.replace(X, "NaN"),
    "infinity": lambda text, value, kind: text.replace(X, "-Infinity"),
    "1e999": lambda text, value, kind: text.replace(X, "1e999"),
    "truncated": lambda text, value, kind: text.replace(X, value)[: len(text) // 2],
    "wrong_type": lambda text, value, kind: "{}" if kind is list else "[]",
}


def _world_fault(edit):
    def fault(text, value, kind):
        payload = json.loads(text.replace(X, value))
        edit(payload)
        return json.dumps(payload)

    return fault


def _null_kernel_cell(payload):
    row = payload["probs"][0][0]
    row[next(j for j, p in enumerate(row) if p)] = None


WORLD_FAULTS = {
    "null_kernel_cell": _world_fault(_null_kernel_cell),
    "short_rewards": _world_fault(lambda payload: payload["rewards"].pop()),
    "initial_distribution_sums_to_3": _world_fault(lambda payload: payload.update(
        initial_distribution=[3 / payload["n_states"]] * payload["n_states"])),
}
CASES = [(name, fault) for name in INPUTS for fault in FAULTS] + [
    ("world", fault) for fault in WORLD_FAULTS
]


@pytest.mark.parametrize("name, fault", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_a_json_fault_is_one_error_line_naming_its_file(root, tmp_path, capsys, name, fault):
    source, kind, argv = INPUTS[name]
    text, value = source(root) if callable(source) else source
    path, out = _place(root, tmp_path, name), tmp_path / "out"
    path.write_text({**FAULTS, **WORLD_FAULTS}[fault](text, value, kind))
    code = run(*argv(root, path, out))
    err = capsys.readouterr().err
    if fault == "valid":
        assert code == 0, err
        return
    lines = err.splitlines()
    assert code == 1 and len(lines) == 1, err
    assert lines[0].startswith("error: ") and str(path) in lines[0], err
    assert not out.exists()


# ------------------------------------------------------ the reader and the writer


@pytest.mark.parametrize("text, reason", [
    ('{"a": [1, NaN]}', "NaN is not a finite number"),
    ('{"a": {"b": Infinity}}', "Infinity is not a finite number"),
    ('{"a": -1e400}', "-1e400 is not a finite number"),
    ('{"a": 1', "Expecting ',' delimiter"),
    (b'{"a": "\xff"}', "can't decode byte 0xff"),
    ("[1, 2]", "must hold a JSON object"),
])
def test_read_json_names_the_file_and_the_reason(tmp_path, text, reason):
    path = tmp_path / "in.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(SchemaError) as exc:
        read_json(path)
    assert str(exc.value).startswith(f"{path}: ") and reason in str(exc.value)


def test_read_json_reads_what_json_load_reads(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('[{"a": [1, -0.0, 1e-320, 1.7976931348623157e308]}, null, "x"]')
    assert read_json(path, expect=list) == json.loads(path.read_text())
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "missing.json")


@pytest.mark.parametrize("indent", [2, None])
def test_write_json_is_json_dumps_of_plain_values(tmp_path, indent):
    payload = {"b": np.array([[0.1, -0.0], [1e-320, 2.5]]), "a": np.int64(3),
               "c": [np.float64(0.3), np.bool_(True), np.arange(3, dtype=np.int16)]}
    plain = {"b": [[0.1, -0.0], [1e-320, 2.5]], "a": 3, "c": [0.3, True, [0, 1, 2]]}
    write_json(tmp_path / "out.json", payload, indent=indent)
    expected = json.dumps(plain, indent=indent, sort_keys=True)
    assert (tmp_path / "out.json").read_text() == expected
