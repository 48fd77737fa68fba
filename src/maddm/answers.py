"""Answer sets, singly and as a log of distinct sets, in one layout.

Both hold the members' ids in increasing order. A set holds, aligned
with them, each member's vote as a sign: +1 for yes, -1 for no. The log
keeps each distinct set once, with the number of times it was logged,
and each member's vote as its column ``2 id + [vote is no]``.
``checked_id`` and ``checked_count`` are the one rule for what an id and
an integer count are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


def checked_id(value, kind: str = "advisor", size: int | None = None) -> int:
    """``value`` as an int id, non-negative and below ``size`` if given; ValueError otherwise."""
    # a bool is an int subclass but not of type int, nor a numpy integer
    is_int = type(value) is int or isinstance(value, np.integer)
    if is_int and 0 <= value and (size is None or value < size):
        return int(value)
    span = "a non-negative int" if size is None else f"an int in 0..{size - 1}"
    if size == 0:
        span = f"valid: there are no {kind}s"
    shown = value.item() if isinstance(value, np.generic) else value  # 5, not np.int64(5)
    raise ValueError(f"{kind} id {shown!r} is not {span}")


def checked_count(value, name: str, minimum: int) -> None:
    """ValueError unless ``value`` is an int of at least ``minimum``: no bool, float or numpy int."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an int of at least {minimum}, got {value!r}")


@dataclass(frozen=True, init=False)
class AnswerSet:
    """The advisors consulted on one decision (``ids``) and their votes (``signs``).

    Built from the two disjoint camps, yes and no. Equal sets hold equal
    tuples. An empty set is a legal value (nobody was hired) but most
    aggregation operations reject it.
    """

    ids: tuple[int, ...]
    signs: tuple[int, ...]

    def __init__(self, positives: Iterable, negatives: Iterable) -> None:
        yes, no = {checked_id(i) for i in positives}, {checked_id(i) for i in negatives}
        if yes & no:
            raise ValueError(f"advisors {sorted(yes & no)} appear on both sides of the answer set")
        object.__setattr__(self, "ids", tuple(sorted(yes | no)))
        object.__setattr__(self, "signs", tuple(1 if i in yes else -1 for i in self.ids))

    @classmethod
    def _of(cls, ids: tuple[int, ...], signs: tuple[int, ...]) -> "AnswerSet":
        """Wrap increasing non-negative ids and their +1/-1 votes; no checks."""
        answers = cls.__new__(cls)
        object.__setattr__(answers, "ids", ids)
        object.__setattr__(answers, "signs", signs)
        return answers

    def columns(self) -> list[int]:
        """Each member's vote as its column ``2 id + [vote is no]``, in id order."""
        return [2 * i + (s < 0) for i, s in zip(self.ids, self.signs)]

    @property
    def is_empty(self) -> bool:
        return not self.ids

    def __len__(self) -> int:
        return len(self.ids)


def _grown(buffer: np.ndarray, needed: int) -> np.ndarray:
    """``buffer`` itself if it holds ``needed`` entries, else a larger copy."""
    if needed <= buffer.size:
        return buffer
    out = np.empty(max(needed, 2 * buffer.size), dtype=buffer.dtype)
    out[: buffer.size] = buffer
    return out


class AnswerLog:
    """Append-only log of answer sets, kept as its distinct sets and their counts.

    A set seen for the first time is copied into growable flat arrays,
    one segment per distinct set in order of first appearance: each
    member's vote column ``2 id + [vote is no]``, the one place its id is
    kept, and the segment's index. Every logged set adds one to its
    distinct set's count and records that set's index in log order. Equal
    sets hold the same ids and votes in the same order, so a per-set
    result computed once per distinct set equals one computed for every
    logged set, and the whole-history passes (the review and the EM) sum
    per distinct set through :meth:`segment_sums`, weighted by the counts.
    The id-sorted layout keeps those sums order-identical when every
    answer is flipped.
    """

    def __init__(self) -> None:
        self._index: dict[AnswerSet, int] = {}
        self._columns = np.empty(64, dtype=np.intp)  # per distinct member, its vote column
        self._owner = np.empty(64, dtype=np.intp)  # its set's distinct index
        self._starts = np.zeros(64, dtype=np.intp)  # segment starts, end sentinel
        self._counts = np.empty(64, dtype=np.intp)  # times each distinct set was logged
        self._sets = np.empty(64, dtype=np.intp)  # distinct index per logged set
        self._logged = 0

    def __len__(self) -> int:
        return self._logged

    def append(self, answers: AnswerSet) -> int:
        """Log ``answers``; returns its distinct set's index."""
        if answers.is_empty:
            raise ValueError("cannot log an empty answer set")
        index = self._index.get(answers)
        if index is None:
            index = self._index[answers] = len(self._index)
            start = int(self._starts[index])
            end = start + len(answers)
            self._columns, self._owner = _grown(self._columns, end), _grown(self._owner, end)
            self._columns[start:end] = answers.columns()
            self._owner[start:end] = index
            self._starts = _grown(self._starts, index + 2)
            self._starts[index + 1] = end
            self._counts = _grown(self._counts, index + 1)
            self._counts[index] = 0
        self._counts[index] += 1
        self._sets = _grown(self._sets, self._logged + 1)
        self._sets[self._logged] = index
        self._logged += 1
        return index

    def distinct_arrays(self) -> tuple[np.ndarray, ...]:
        """(ids, columns, starts, counts, owner) of the distinct sets.

        ``ids`` (``columns >> 1``) and ``columns`` hold one segment per
        distinct set, in order of first appearance, and ``starts`` the
        segment starts with the end sentinel. ``counts`` gives the times
        each set was logged and ``owner`` each member's set index.
        """
        n_sets = len(self._index)
        size = self._starts[n_sets]
        columns = self._columns[:size]
        return columns >> 1, columns, self._starts[: n_sets + 1], self._counts[:n_sets], self._owner[:size]

    def segment_sums(self, table: np.ndarray) -> np.ndarray:
        """Per distinct set and row of ``table``, the sum of its members' votes' entries.

        ``table`` is ``(rows, advisors, 2)``: entry ``[r, i, 0]`` is what
        advisor ``i`` adds to row ``r`` by voting yes, ``[r, i, 1]`` by
        voting no. Returns ``(rows, distinct sets)``. Each row is gathered
        by vote column and summed by ``np.add.reduceat``, so every set adds
        its members in id order, as a 1-d reduce over that row does.
        """
        n_sets = len(self._index)
        gathered = table.reshape(table.shape[0], -1).take(self._columns[: self._starts[n_sets]], axis=1)
        return np.add.reduceat(gathered, self._starts[:n_sets], axis=1)

    def flat_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(member ids, vote signs, segment starts incl. end sentinel) in log order.

        One segment per logged set, laid out as :meth:`distinct_arrays`
        and rebuilt from it on every call.
        """
        ids, columns, starts, _, _ = self.distinct_arrays()
        sets = self._sets[: self._logged]
        sizes = (starts[1:] - starts[:-1])[sets]
        flat_starts = np.zeros(sets.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=flat_starts[1:])
        # each logged member's offset in its segment, moved to its distinct segment
        gather = np.arange(flat_starts[-1]) + np.repeat(starts[sets] - flat_starts[:-1], sizes)
        return ids[gather], 1 - 2 * (columns[gather] & 1), flat_starts
