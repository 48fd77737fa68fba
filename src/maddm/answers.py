"""Answer sets, singly and as a flat log, in one layout.

Both hold the members' ids in increasing order and, aligned with them,
each member's vote as a sign: +1 for yes, -1 for no.
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
    raise ValueError(f"{kind} id {value!r} is not {span}")


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


class _Segments:
    """Growable flat arrays of id-sorted segments: member ids, signs, starts."""

    def __init__(self) -> None:
        self.ids = np.empty(64, dtype=np.intp)
        self.signs = np.empty(64, dtype=np.int8)
        self.starts = np.zeros(64, dtype=np.intp)
        self.size = 0  # members logged
        self.count = 0  # segments logged

    def append(self, ids: tuple[int, ...], signs: tuple[int, ...]) -> None:
        end = self.size + len(ids)
        self.ids = _grown(self.ids, end)
        self.signs = _grown(self.signs, end)
        self.starts = _grown(self.starts, self.count + 2)
        self.ids[self.size : end] = ids
        self.signs[self.size : end] = signs
        self.size = end
        self.count += 1
        self.starts[self.count] = end

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.ids[: self.size], self.signs[: self.size], self.starts[: self.count + 1]


class AnswerLog:
    """Append-only flat log of answer sets, one segment per set.

    Each set's ``ids`` and ``signs`` are copied as they are into growable
    arrays, so whole-history passes run as array operations instead of
    walking the sets one by one. The id-sorted layout keeps the likelihood
    sums order-identical when every answer is flipped.

    Each set is also interned: a set seen for the first time is appended
    to a second flat log of distinct sets, every logged member records
    the index of its distinct set, every distinct member the index of its
    own set, and every distinct set counts how often it was logged. Equal
    sets hold the same ids and signs in the same order, so a per-set
    result computed once per distinct set is bit-identical to one
    computed for every logged set.
    """

    def __init__(self) -> None:
        self._log = _Segments()
        self._distinct = _Segments()
        self._index: dict[AnswerSet, int] = {}
        self._member = np.empty(64, dtype=np.intp)  # distinct index per logged member
        self._owner = np.empty(64, dtype=np.intp)  # distinct index per distinct member
        self._counts = np.empty(64, dtype=np.intp)  # times each distinct set was logged
        self.max_advisor_id = -1

    def __len__(self) -> int:
        return self._log.count

    def append(self, answers: AnswerSet) -> None:
        if answers.is_empty:
            raise ValueError("cannot log an empty answer set")
        index = self._index.get(answers)
        if index is None:
            index = self._index[answers] = self._distinct.count
            start = self._distinct.size
            self._distinct.append(answers.ids, answers.signs)
            self._owner = _grown(self._owner, self._distinct.size)
            self._owner[start : self._distinct.size] = index
            self._counts = _grown(self._counts, index + 1)
            self._counts[index] = 0
        self._counts[index] += 1
        start = self._log.size
        self._log.append(answers.ids, answers.signs)
        self._member = _grown(self._member, self._log.size)
        self._member[start : self._log.size] = index
        self.max_advisor_id = max(self.max_advisor_id, answers.ids[-1])

    def flat_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(member ids, vote signs, segment starts incl. end sentinel)."""
        return self._log.arrays()

    def distinct_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ids, signs, starts) of the distinct sets, plus the member index.

        The first three are laid out as :meth:`flat_arrays`, one segment
        per distinct set in order of first appearance; the member index
        gives, for each member of :meth:`flat_arrays`, its set's segment.
        """
        return (*self._distinct.arrays(), self._member[: self._log.size])

    def distinct_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(times each distinct set was logged, set index per distinct member).

        Both align with :meth:`distinct_arrays`: the first with its
        segments, the second with its members.
        """
        count = self._distinct.count
        return self._counts[:count], self._owner[: self._distinct.size]


def segment_log_likelihoods(
    p: np.ndarray, ids: np.ndarray, positive: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Per-segment log-likelihoods of the answers yes (row 0) and no (row 1).

    ``p`` is each advisor's probability of answering correctly, indexed by
    id; ``ids`` and ``positive`` are the logged members and their yes-vote
    mask, and ``starts`` the segment starts with the end sentinel, as
    :meth:`AnswerLog.flat_arrays` lays them out. The prior is excluded.

    The logs are taken once per advisor and gathered per member. Each row
    is summed along its contiguous last axis, so every segment adds its
    members in the same order as a 1-d ``np.add.reduceat`` over that row.
    """
    table = np.empty((2, p.size))
    np.log(p, out=table[0])
    np.log1p(-p, out=table[1])
    terms = table.take(ids, axis=1)
    # a yes vote adds log p to the yes row and log(1 - p) to the no row
    return np.add.reduceat(np.where(positive, terms, terms[::-1]), starts[:-1], axis=1)
