"""Discrete trajectories, stored as columns: one flat triples array per set.

A trajectory chains (state, action, next_state) triples: the next_state of
step t is the state of step t+1. A TrajectorySet holds its N trajectories in
columns: `triples`, an (M, 3) array of narrow ids (below) in which trajectory
i owns rows offsets[i] : offsets[i] + lengths[i] in step order; `lengths` and
`offsets`; the unique `ids`; `demographics`, one object array per tag with
None where a trajectory lacks the tag; and the `died_in_hospital` flags.
Every set is built from these columns by one constructor, which runs one
validation routine.

A state or action id is at least 0 and at most 2**31 - 1, the int32 range,
and ids are stored as narrow as they fit: `triples` is int16 while every id
is below 2**15, int32 otherwise (id_dtype). The constructor picks the type
from the ids, with no copy when they come in it, and range-checks ids given
in a wider dtype before its one cast, since a cast wraps (2**31 would become
-2**31). The reader (table.read_table) holds the ids int16 until a block has
one that does not fit, then widens the rows read so far to int32 once; the
sampler draws into the type its state and action counts need. Ids are only
ever indices, bins, comparisons and decimal text, never operands of
arithmetic in their own type, where int16 wraps silently: a kernel cell's
flat index, which can pass 2**31, is computed in int64 (mdp.cell_index).
numpy converts a narrow index array to intp on every fancy-index call, and
slowly for a column of the (M, 3) array, so work that indexes by a block's
ids takes each column converted once into a contiguous intp array (id_column).

Work that derives a value per step walks the set one block of whole
trajectories at a time (blocks: at most _STEP_BLOCK rows each, or one longer
trajectory alone), so no per-step array beside triples grows with the set.
Per-trajectory sums and means go through reduce_steps, which takes a function
of a block's row slice. Within a block it groups the trajectories by length
and reduces each group's contiguous (n_L, L) gather along axis 1, so each row
is summed exactly as numpy sums a 1-D array of L values (pairwise summation,
same blocking): the results are bit-identical to np.sum / np.mean over each
trajectory's slice, whatever the block size. np.add.reduceat over the flat
array adds in another order and differs in the last bits. to_csv builds its
per-step columns one block at a time and writes each block as it is built.

A selection of trajectories, such as the retained set of a prune, is a
bool mask with one entry per trajectory in set order, and subset keeps where
it is True. There is no per-trajectory object: iterating a set yields each
trajectory's block of triples, and its other fields are the columns at its
index. On disk a set is a CSV with one row per step, tags and the death flag
on every row; it is read by the package's one CSV reader (table.py), so an
empty tag cell reads as a missing tag and every row of a trajectory must carry
the same tags and death flag.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, SchemaError
from .table import BINARY, INT32, TEXT, read_table, write_blocks

# fixed leading columns of the trajectory CSV; any extra column except
# died_in_hospital is treated as a demographic tag
_CORE_COLUMNS = ("trajectory_id", "step", "state", "action", "next_state")
_DEATH_COLUMN = "died_in_hospital"
# rows of whole trajectories per block of per-step work: a block's temporaries
# stay a few MiB, and a 400k-row set is 7 blocks, as a where-reduction pays one
# numpy call per block and selected length (16k-row blocks made scoring 30 %
# slower)
_STEP_BLOCK = 1 << 16
_MAX_ID = np.iinfo(np.int32).max


def id_dtype(highest: int):
    """The narrowest type of the stored ids when the largest is `highest`:
    int16 below 2**15, int32 otherwise (up to _MAX_ID)."""
    return np.int16 if highest <= np.iinfo(np.int16).max else np.int32


class TrajectorySet:
    """Ordered trajectories over a shared state/action space, stored as columns."""

    def __init__(
        self, triples, lengths, ids, n_states=None, n_actions=None,
        demographics=None, died_in_hospital=None,
    ):
        """The set held by these columns.

        A dimension left None is inferred from the ids in triples, a missing
        demographics has no tags, and died_in_hospital defaults to all False.
        Triples are stored in id_dtype of their largest id, as a copy once
        checked unless they already are.
        """
        self.triples = np.asarray(triples)
        if self.triples.dtype not in (np.int16, np.int32):
            self.triples = np.asarray(self.triples, dtype=np.int64)
        if self.triples.ndim != 2 or self.triples.shape[1] != 3:
            raise SchemaError("triples must have shape (n_steps, 3)")
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.offsets = np.cumsum(self.lengths) - self.lengths
        self.ids = list(ids)
        # a tag that no trajectory carries is not a tag of the set
        columns = {t: np.asarray(col, dtype=object) for t, col in (demographics or {}).items()}
        self.demographics = {
            t: columns[t] for t in sorted(columns) if not np.equal(columns[t], None).all()
        }
        died = np.zeros(len(self.ids)) if died_in_hospital is None else died_in_hospital
        self.died_in_hospital = np.asarray(died, dtype=bool)
        highest = self.triples.max(axis=0, initial=-1)
        self.n_states = n_states if n_states is not None else 1 + int(max(highest[[0, 2]]))
        self.n_actions = n_actions if n_actions is not None else 1 + int(highest[1])
        self._validate()
        self.triples = self.triples.astype(id_dtype(int(highest.max())), copy=False)

    def _validate(self) -> None:
        """The one check of the columns, run by every construction path."""
        n, triples = len(self.ids), self.triples
        columns = [self.lengths, self.died_in_hospital, *self.demographics.values()]
        if any(len(col) != n for col in columns):
            raise SchemaError("trajectory columns disagree on the number of trajectories")
        if (self.lengths < 1).any():
            first = self.ids[np.argmax(self.lengths < 1)]
            raise SchemaError(f"trajectory {first}: at least one transition required")
        if self.lengths.sum() != len(triples):
            raise SchemaError("trajectory lengths do not add up to the number of triples")
        if len(set(self.ids)) != n:
            seen = set()
            duplicate = next(t for t in self.ids if t in seen or seen.add(t))
            raise SchemaError(f"duplicate trajectory id {duplicate!r}")
        # a step starts where the previous one ended, unless it starts a trajectory
        chained = np.ones(len(triples), dtype=bool)
        chained[1:] = triples[1:, 0] == triples[:-1, 2]
        chained[self.offsets] = True
        self._reject(~chained, "triples do not chain")
        self._reject(triples < 0, "negative state/action id")
        if triples.dtype == np.int64:  # checked before the cast, which would wrap
            self._reject(triples > _MAX_ID, f"state/action id above {_MAX_ID}, the int32 limit")
        self.require_space(self.n_states, self.n_actions, SchemaError)

    def require_space(self, n_states, n_actions=None, error=ParameterError) -> None:
        """Raise `error` if a state (or action) id does not fit the given space."""
        s, a, sp = self.triples.T  # views of the id columns, not copies
        self._reject((s >= n_states) | (sp >= n_states),
                     f"state id out of range for {n_states} states", error)
        if n_actions is not None:
            self._reject(a >= n_actions, f"action id out of range for {n_actions} actions", error)

    def _reject(self, bad, message, error=SchemaError) -> None:
        """Raise `error` naming the trajectory of the first row flagged in `bad`,
        a mask of the rows of triples or of their cells."""
        flagged = np.flatnonzero(bad)
        if flagged.size:
            row = flagged[0] // (bad.size // len(bad))  # a flat index over the row width
            owner = int(np.searchsorted(self.offsets, row, side="right")) - 1
            raise error(f"trajectory {self.ids[owner]}: {message}")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """Each trajectory's (L, 3) block of triples, in set order.

        The package reads the columns; this serves callers outside it that
        count rows per trajectory with `len(block) for block in tset`.
        """
        return iter(np.split(self.triples, self.offsets[1:])[: len(self)])

    @property
    def first_states(self) -> np.ndarray:
        return self.triples[self.offsets, 0]

    @property
    def end_states(self) -> np.ndarray:
        return self.triples[self.offsets + self.lengths - 1, 2]

    def max_length(self) -> int:
        return int(self.lengths.max(initial=0))

    def demographic_tags(self) -> list[str]:
        return list(self.demographics)

    def blocks(self):
        """(trajectories, rows) slice pairs covering the set in order: each block is
        whole trajectories of at most _STEP_BLOCK rows, or one longer trajectory alone."""
        ends = self.offsets + self.lengths
        first = 0
        while first < len(self):
            budget = self.offsets[first] + _STEP_BLOCK
            stop = max(first + 1, int(np.searchsorted(ends, budget, side="right")))
            yield slice(first, stop), slice(int(self.offsets[first]), int(ends[stop - 1]))
            first = stop

    def id_column(self, rows, k: int) -> np.ndarray:
        """Id column k (0 state, 1 action, 2 next state) of a slice of rows, as its
        own contiguous intp array, ready to index with."""
        return self.triples[rows, k].astype(np.intp)

    def reduce_steps(self, values, reduce, where=None) -> np.ndarray:
        """reduce (np.sum, np.mean, ...) of per-step values over each trajectory's steps.

        values maps a slice of rows of triples to one value per row; it is
        called once per block. The result is bit-identical to reducing each
        trajectory's slice on its own. With `where`, a function of the same
        slice giving one bool per row, a trajectory is reduced over its
        selected steps only, and one with none selected gets 0.0: `where` is
        called once per block, values then takes the slice and that mask and
        gives one value per selected row, and the result is the pair
        (reductions, number of selected steps per trajectory).
        """
        out = np.zeros(len(self))
        counts = np.zeros(len(self), dtype=np.int64)

        def reduce_block(owners, rows):  # its temporaries go before the next block's
            lengths = self.lengths[owners]
            if where is None:
                block = np.asarray(values(rows), dtype=float)
            else:
                keep = where(rows)
                block = np.asarray(values(rows, keep), dtype=float)
                selected = np.concatenate(([0], np.cumsum(keep)))
                starts = self.offsets[owners] - rows.start
                lengths = counts[owners] = selected[starts + lengths] - selected[starts]
            starts = np.cumsum(lengths) - lengths
            # with counts, np.unique sorts rather than hashing, the path that imports numpy.ma
            for length in np.unique(lengths[lengths > 0], return_counts=True)[0]:
                at = np.flatnonzero(lengths == length)
                gather = starts[at, None] + np.arange(length)
                out[owners.start + at] = reduce(block[gather], axis=1)

        for owners, rows in self.blocks():
            reduce_block(owners, rows)
        return out if where is None else (out, counts)

    def require_mask(self, keep) -> np.ndarray:
        """`keep` as a bool array with one entry per trajectory; ParameterError otherwise."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (len(self),):
            raise ParameterError(
                f"a trajectory mask must be {len(self)} bools, got {keep.dtype} {keep.shape}"
            )
        return keep

    def subset(self, keep) -> "TrajectorySet":
        """The trajectories where the bool mask `keep` is True, original order kept."""
        keep = self.require_mask(keep)
        return TrajectorySet(
            self.triples[np.repeat(keep, self.lengths)],
            self.lengths[keep],
            [t for t, k in zip(self.ids, keep.tolist()) if k],
            self.n_states,
            self.n_actions,
            {t: col[keep] for t, col in self.demographics.items()},
            self.died_in_hospital[keep],
        )

    def to_csv(self, path) -> None:
        """One row per step, each with its trajectory's tags and death flag; the
        per-step columns are built and written one block at a time."""
        tags = self.demographic_tags()
        ids = np.asarray(self.ids, dtype=object)

        def columns(owners, rows):
            lengths = self.lengths[owners]
            return [
                np.repeat(ids[owners], lengths),
                np.arange(rows.start, rows.stop) - np.repeat(self.offsets[owners], lengths),
                *self.triples[rows].T,
                # a missing tag (None) is an empty cell
                *(np.repeat(self.demographics[t][owners], lengths) for t in tags),
                np.repeat(self.died_in_hospital[owners], lengths).astype(np.uint8),
            ]

        header = [*_CORE_COLUMNS, *tags, _DEATH_COLUMN]
        write_blocks(path, header, (columns(*block) for block in self.blocks()))

    @classmethod
    def from_csv(cls, path, n_states=None, n_actions=None) -> "TrajectorySet":
        """Load a trajectory CSV; dimensions inferred from the data if not given.

        Rows of different ids may come in any order: trajectories come in id
        order, each one's rows in step order. The steps of an
        id must be exactly 0..L-1. Cells follow the package's one CSV grammar
        (see table.py): an empty tag cell is a missing tag, and the tags and
        the death flag must agree on every row of a trajectory.
        """
        table = read_table(
            path, "trajectory_id", dict.fromkeys(_CORE_COLUMNS[1:], INT32), rest=TEXT,
            optional={_DEATH_COLUMN: BINARY}, owned=(_DEATH_COLUMN,), sort_by="step",
            stack=_CORE_COLUMNS[2:],
        )
        if not table.ids:
            raise SchemaError(f"{path}: no trajectories")
        columns, lengths = table.columns, table.lengths
        offsets = np.cumsum(lengths) - lengths
        # a trajectory's first step is 0 and each later one its predecessor + 1, all
        # in int32: the first row that breaks this is the first whose step is not
        # its place in its trajectory
        step = columns.pop("step")
        wrong = np.empty(len(step), dtype=bool)
        np.not_equal(step[1:], step[:-1] + 1, out=wrong[1:])
        wrong[offsets] = step[offsets] != 0
        del step
        if wrong.any():
            i = int(np.searchsorted(offsets, np.argmax(wrong), side="right")) - 1
            raise SchemaError(
                f"{path}: trajectory {table.ids[i]}: steps must be 0..{lengths[i] - 1}, each once"
            )
        tags = dict(table.owned)
        died = tags.pop(_DEATH_COLUMN, None)
        triples = columns.pop(_CORE_COLUMNS[2:])  # state, action, next_state: one int32 array
        try:
            return cls(triples, lengths, table.ids, n_states, n_actions, tags, died)
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc}") from exc
