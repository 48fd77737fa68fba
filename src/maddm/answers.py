"""Answer sets: who said yes and who said no, singly and as a flat log."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


def _coerce_ids(ids: Iterable) -> frozenset[int]:
    out = set()
    for advisor_id in ids:
        value = int(advisor_id)
        if value != advisor_id or value < 0:
            raise ValueError(f"advisor ids must be non-negative ints, got {advisor_id!r}")
        out.add(value)
    return frozenset(out)


@dataclass(frozen=True)
class AnswerSet:
    """Advisors that answered yes (``positives``) and no (``negatives``).

    The two sides are disjoint by construction; their union is the full
    set of advisors consulted for one decision. An empty set is a legal
    value (nobody was hired) but most aggregation operations reject it.
    """

    positives: frozenset[int]
    negatives: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "positives", _coerce_ids(self.positives))
        object.__setattr__(self, "negatives", _coerce_ids(self.negatives))
        overlap = self.positives & self.negatives
        if overlap:
            raise ValueError(f"advisors {sorted(overlap)} appear on both sides of the answer set")

    @classmethod
    def empty(cls) -> "AnswerSet":
        return cls(frozenset(), frozenset())

    @property
    def members(self) -> frozenset[int]:
        return self.positives | self.negatives

    @property
    def is_empty(self) -> bool:
        return not (self.positives or self.negatives)

    def __len__(self) -> int:
        return len(self.positives) + len(self.negatives)


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

    def append(self, members: list[int], signs: list[int]) -> None:
        end = self.size + len(members)
        self.ids = _grown(self.ids, end)
        self.signs = _grown(self.signs, end)
        self.starts = _grown(self.starts, self.count + 2)
        self.ids[self.size : end] = members
        self.signs[self.size : end] = signs
        self.size = end
        self.count += 1
        self.starts[self.count] = end

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.ids[: self.size], self.signs[: self.size], self.starts[: self.count + 1]


class AnswerLog:
    """Append-only flat log of answer sets, one segment per set.

    Member ids and vote signs (+1 yes, -1 no) live in growable arrays, id
    sorted inside each segment, so whole-history passes run as array
    operations instead of walking Python sets. The id-sorted layout keeps
    the likelihood sums order-identical when every answer is flipped.

    Each set is also interned: a set seen for the first time is appended
    to a second flat log of distinct sets, and every logged member records
    the index of its distinct set. Equal sets hold the same ids and signs
    in the same order, so a per-set result computed once per distinct set
    is bit-identical to one computed for every logged set.
    """

    def __init__(self) -> None:
        self._log = _Segments()
        self._distinct = _Segments()
        self._index: dict[AnswerSet, int] = {}
        self._member = np.empty(64, dtype=np.intp)  # distinct index per logged member
        self.max_advisor_id = -1

    def __len__(self) -> int:
        return self._log.count

    def __getitem__(self, index: int) -> AnswerSet:
        if not 0 <= index < self._log.count:
            raise IndexError(f"segment {index} outside the log of {self._log.count}")
        span = slice(self._log.starts[index], self._log.starts[index + 1])
        ids, signs = self._log.ids[span], self._log.signs[span]
        return AnswerSet(frozenset(ids[signs > 0].tolist()), frozenset(ids[signs < 0].tolist()))

    def append(self, answers: AnswerSet) -> None:
        if answers.is_empty:
            raise ValueError("cannot log an empty answer set")
        members = sorted(answers.members)
        signs = [1 if m in answers.positives else -1 for m in members]
        index = self._index.get(answers)
        if index is None:
            index = self._index[answers] = self._distinct.count
            self._distinct.append(members, signs)
        start = self._log.size
        self._log.append(members, signs)
        self._member = _grown(self._member, self._log.size)
        self._member[start : self._log.size] = index
        self.max_advisor_id = max(self.max_advisor_id, members[-1])

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
