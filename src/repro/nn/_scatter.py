"""Fast, bit-identical scatter/segment kernels for the message-passing engine.

``np.add.at`` is the natural NumPy spelling of "sum rows into buckets" but its
unbuffered fancy-indexing loop is several times slower than the vectorised
schedules below.  Two kernels ship, one per owner of the output buffer:

:func:`scatter_rows_sum` (flat bincount, allocating)
    One flat ``np.bincount`` over (bucket, channel) bins.  ``data.ravel()``
    walks rows in index order and channels in order within a row, so
    duplicates of any bin accumulate in exactly ``np.add.at``'s order — the
    ``float64`` results are **bit-identical** to the seed kernels.
    ``float32`` data is accumulated through bincount's internal ``float64``
    and cast back once.  Allocates its output on every call; autograd uses
    it (``Tensor.scatter_sum`` and the backward of ``Tensor.gather_rows``),
    so training and the ``Module`` forward run on it.

:func:`scatter_rows_sum_into` (index-ordered rounds, caller-owned output)
    Accumulates into a **caller-owned** buffer through a
    :class:`RoundSchedule` — segments sorted by descending length, one
    rounds-ordered gather, then one contiguous ``np.add`` slice per round,
    and a strided copy-out into ``out``.  Round ``r`` adds the ``(r+1)``-th
    element of every still-live segment, so each bucket accumulates
    strictly in original index order: **bit-identical to ``np.add.at`` at
    float64 and float32** (hence to bincount at float64).  Degenerate
    indices (one bucket receiving more than ``_ROUNDS_CAP`` rows) take a
    per-segment ordered reduce instead.  With a :class:`ScatterWorkspace`
    supplied, the kernel performs **zero** array allocations; the compiled
    inference runtime (:mod:`repro.nn.inference`) always runs it on
    workspaces held in its arena.

``reference_kernels()`` switches the module back to the ``np.add.at`` path;
``benchmarks/floors.py`` uses it to time the seed implementation without
keeping a second copy of the code (and its ``scatter_mp_kernel`` floor
times the two kernels above against each other).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

__all__ = [
    "scatter_rows_sum",
    "scatter_rows_sum_into",
    "count_index",
    "flat_scatter_index",
    "SegmentSchedule",
    "RoundSchedule",
    "ScatterWorkspace",
    "build_segment_schedule",
    "build_round_schedule",
    "reference_kernels",
    "fast_kernels_enabled",
]

_USE_FAST = True

#: Above this many rounds (= max rows landing in one bucket) the rounds
#: kernel's per-round dispatch overhead dominates;
#: :func:`scatter_rows_sum_into` takes its per-segment ordered reduce
#: instead (still allocation-free and bit-identical).
_ROUNDS_CAP = 4096

_FLOAT_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


@contextlib.contextmanager
def reference_kernels() -> Iterator[None]:
    """Run the enclosed block with the original ``np.add.at`` kernels."""
    global _USE_FAST
    previous = _USE_FAST
    _USE_FAST = False
    try:
        yield
    finally:
        _USE_FAST = previous


def fast_kernels_enabled() -> bool:
    return _USE_FAST


# --------------------------------------------------------------------------
# Schedules
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class RoundSchedule:
    """Round-major schedule for the allocation-free sequential segment sum.

    Derived from a :class:`SegmentSchedule` by sorting segments by
    descending length (stable, so equal-length segments keep their bucket
    order).  Round ``r`` processes the ``(r+1)``-th row of every segment
    still longer than ``r`` — because segments are length-sorted, those
    form the contiguous prefix ``[0, counts[r])`` of the segment list.

    ``src`` concatenates, round by round, the *original data row* feeding
    each (round, segment) slot, so one ``np.take`` materialises every
    round's rows contiguously; ``offsets[r] : offsets[r] + counts[r]``
    slices round ``r``.  ``buckets`` maps segment slots back to output rows
    for the final strided copy-out.  Each bucket therefore accumulates its
    rows strictly in original index order — the ``np.add.at`` order.
    """

    src: np.ndarray
    counts: np.ndarray
    offsets: np.ndarray
    buckets: np.ndarray
    _take: Dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def num_rounds(self) -> int:
        return self.counts.shape[0]

    @property
    def num_segments(self) -> int:
        return self.buckets.shape[0]

    @property
    def num_rows(self) -> int:
        return self.src.shape[0]

    def take_index(self, dim_size: int) -> np.ndarray:
        """Memoised copy-out gather: output row → segment slot (or the pad).

        Maps every output row to its segment's position in the length-sorted
        segment list, and rows with no incoming segment to ``num_segments``
        — the zeroed pad row of the workspace's ``seg`` buffer — so the
        whole copy-out is one ``np.take`` instead of a zero-fill plus a
        fancy-index assignment.
        """
        cached = self._take.get(dim_size)
        if cached is None:
            cached = np.full(dim_size, self.num_segments, dtype=np.intp)
            cached[self.buckets] = np.arange(self.num_segments, dtype=np.intp)
            self._take[dim_size] = cached
        return cached


@dataclass(frozen=True)
class SegmentSchedule:
    """Sorted-segment schedule of a scatter index array.

    ``perm`` is the *stable* argsort of the scatter index array, ``starts``
    the first permuted position of each occupied bucket and ``buckets`` the
    bucket id of each segment; stability keeps each bucket's rows in their
    original index order.  The round-major :class:`RoundSchedule` derived
    by :meth:`rounds` (memoised here, so every
    :class:`~repro.nn.data.EdgePlan` relation builds it at most once) is
    what :func:`scatter_rows_sum_into` consumes.
    """

    perm: np.ndarray
    starts: np.ndarray
    buckets: np.ndarray
    #: True when the index array was already segment-sorted (``perm`` is the
    #: identity) — e.g. single-graph pooling — so ordered kernels can read
    #: ``data`` directly instead of gathering through ``perm``.
    presorted: bool = False
    _rounds: Optional[RoundSchedule] = field(
        default=None, repr=False, compare=False
    )

    def rounds(self) -> RoundSchedule:
        """The memoised :class:`RoundSchedule` of this segment schedule."""
        if self._rounds is None:
            object.__setattr__(self, "_rounds", build_round_schedule(self))
        return self._rounds


def build_segment_schedule(index: np.ndarray) -> SegmentSchedule:
    """Precompute the :class:`SegmentSchedule` of a scatter index array."""
    index = np.asarray(index, dtype=np.int64)
    perm = np.argsort(index, kind="stable")
    sorted_index = index[perm]
    if sorted_index.size:
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_index)) + 1))
        buckets = sorted_index[starts]
        # A strictly increasing permutation is the identity permutation.
        presorted = bool(np.all(perm[1:] > perm[:-1]))
    else:
        starts = np.zeros(0, dtype=np.int64)
        buckets = np.zeros(0, dtype=np.int64)
        presorted = True
    return SegmentSchedule(
        perm=perm, starts=starts, buckets=buckets, presorted=presorted
    )


def build_round_schedule(segments: SegmentSchedule) -> RoundSchedule:
    """Derive the round-major :class:`RoundSchedule` from a segment schedule."""
    perm, starts, buckets = segments.perm, segments.starts, segments.buckets
    num_rows = perm.shape[0]
    num_segments = starts.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    if num_segments == 0:
        return RoundSchedule(
            src=empty, counts=empty, offsets=np.zeros(1, dtype=np.int64), buckets=empty
        )
    lengths = np.diff(np.append(starts, num_rows))
    order = np.argsort(-lengths, kind="stable")
    sorted_starts = starts[order]
    num_rounds = int(lengths[order[0]])
    # counts[r] = segments longer than r rows = the live prefix of round r.
    histogram = np.bincount(lengths, minlength=num_rounds + 1)
    counts = (num_segments - np.cumsum(histogram)[:num_rounds]).astype(np.int64)
    src = np.concatenate(
        [perm[sorted_starts[: counts[r]] + r] for r in range(num_rounds)]
    )
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    return RoundSchedule(
        src=src, counts=counts, offsets=offsets, buckets=buckets[order]
    )


class ScatterWorkspace:
    """Caller-owned scratch for the allocation-free :func:`scatter_rows_sum_into`.

    ``gathered`` holds the schedule-ordered gather of the input rows plus
    one trailing pad row (``(num_rows + 1) × channels``).  The rounds
    kernel accumulates segment sums *in place* in the leading
    ``num_segments`` rows (round 0's gather already lands every segment's
    first row there; later rounds' source rows all sit past that prefix,
    so the in-place adds never alias), and the pad row — zeroed per call,
    the buffer may be arena-shared — feeds bucket-less output rows of the
    copy-out ``np.take``.  The compiled runtime carves the buffer out of
    its arena (sized to the largest relation) and hands per-relation
    slices here; :func:`scatter_rows_sum_into` allocates a private one
    only when the caller does not supply it.
    """

    __slots__ = ("gathered",)

    def __init__(self, gathered: np.ndarray) -> None:
        self.gathered = gathered

    @classmethod
    def for_rounds(
        cls, rounds: RoundSchedule, channels: int, dtype
    ) -> "ScatterWorkspace":
        return cls(gathered=np.empty((rounds.num_rows + 1, channels), dtype=dtype))

    @property
    def nbytes(self) -> int:
        return self.gathered.nbytes


def flat_scatter_index(index: np.ndarray, channels: int) -> np.ndarray:
    """Flattened (bucket, channel) bins for :func:`scatter_rows_sum`.

    Precompute once per (index array, channel count) — e.g. per
    :class:`~repro.nn.data.EdgePlan` relation — and pass as ``flat`` to
    amortise the index expansion across layers and training steps.
    """
    return (index[:, None] * channels + np.arange(channels)).ravel()


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------
def scatter_rows_sum_into(
    out: np.ndarray,
    data: np.ndarray,
    index: np.ndarray,
    segments: Optional[SegmentSchedule] = None,
    workspace: Optional[ScatterWorkspace] = None,
) -> np.ndarray:
    """``out[j] = sum_{i : index[i] == j} data[i]`` into a caller-owned buffer.

    The compiled runtime's kernel: ``out`` (shape ``(dim_size, channels)``,
    ``data``'s dtype) is overwritten, never allocated.  With a
    ``segments`` schedule it picks, per call, whichever of two strictly
    index-ordered sub-kernels has the shorter Python loop:

    * **rounds** (many short segments — relation scatters): one fused
      schedule-ordered gather plus one contiguous ``np.add`` per round,
      then a single padded ``np.take`` copy-out.
    * **segment reduce** (few long segments — pooling, where the rounds
      loop would degenerate to one tiny add per row): one sorted gather,
      then ``np.add.reduce`` per segment straight into its output row.
      (``np.add.reduce`` along axis 0 accumulates rows in order — unlike
      ``np.add.reduceat``, which pairwise-reassociates.)

    Both accumulate every bucket strictly in original index order:
    bit-identical to ``np.add.at`` at **both** dtypes (hence to bincount at
    float64).  Without ``segments`` (or for degenerate indices, non-2-D
    data, or under :func:`reference_kernels`) it falls back to a zeroed
    ``np.add.at`` — slower, still allocation-free, same bits.

    Supplying a :class:`ScatterWorkspace` makes the call perform **zero**
    array allocations; otherwise a private workspace is allocated.
    """
    if (
        _USE_FAST
        and segments is not None
        and data.ndim == 2
        and data.dtype in _FLOAT_DTYPES
        and segments.starts.size
    ):
        rounds = segments.rounds()
        num_segments = rounds.num_segments
        num_rounds = rounds.num_rounds
        channels = data.shape[1]
        if workspace is None:
            workspace = ScatterWorkspace.for_rounds(rounds, channels, data.dtype)
        # Schedule indices are in-bounds by construction, so every take may
        # use mode="clip" and skip NumPy's bounds pre-pass.
        if num_segments < num_rounds or num_rounds > _ROUNDS_CAP:
            # Few long segments: sorted gather, one ordered reduce each.
            starts, buckets = segments.starts, segments.buckets
            num_rows = segments.perm.shape[0]
            if segments.presorted:
                gathered = data
            else:
                gathered = workspace.gathered[:num_rows]
                data.take(segments.perm, axis=0, out=gathered, mode="clip")
            out.fill(0)
            for i in range(num_segments):
                begin = starts[i]
                end = starts[i + 1] if i + 1 < num_segments else num_rows
                np.add.reduce(gathered[begin:end], axis=0, out=out[buckets[i]])
            return out
        buffer = workspace.gathered
        gathered = buffer[: rounds.num_rows]
        data.take(rounds.src, axis=0, out=gathered, mode="clip")
        counts, offsets = rounds.counts, rounds.offsets
        # Round 0's gather already placed every segment's first row in the
        # leading prefix; later rounds' source rows all sit past it
        # (offsets[r] >= counts[0] >= live), so these adds never alias.
        for r in range(1, num_rounds):
            live = counts[r]
            start = offsets[r]
            np.add(gathered[:live], gathered[start : start + live], out=gathered[:live])
        # Pad row feeds bucket-less output rows; the buffer may be shared
        # (one arena buffer serves every relation and layer of a width), so
        # it cannot be assumed still zero from last call.
        buffer[num_segments].fill(0)
        np.take(buffer, rounds.take_index(out.shape[0]), axis=0, out=out, mode="clip")
        return out
    out.fill(0)
    np.add.at(out, index, data)
    return out


def scatter_rows_sum(
    data: np.ndarray,
    index: np.ndarray,
    dim_size: int,
    flat: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``out[j] = sum_{i : index[i] == j} data[i]`` for 2-D float ``data``.

    Falls back to ``np.add.at`` for non-2-D inputs (and under
    :func:`reference_kernels`); otherwise runs one ``np.bincount`` over
    (bucket, channel) bins: ``data.ravel()`` walks rows in index order and
    channels in order within a row, so duplicates of any bin accumulate in
    exactly ``np.add.at``'s order — the ``float64`` results are
    bit-identical.  ``flat`` optionally passes the precomputed bins (see
    :func:`flat_scatter_index`).  The output always carries ``data``'s
    dtype.
    """
    if not _USE_FAST or data.ndim != 2 or data.dtype not in _FLOAT_DTYPES:
        out_dtype = data.dtype if data.dtype in _FLOAT_DTYPES else np.float64
        out = np.zeros((dim_size,) + data.shape[1:], dtype=out_dtype)
        np.add.at(out, index, data)
        return out
    channels = data.shape[1]
    if channels == 0 or index.size == 0:
        return np.zeros((dim_size, channels), dtype=data.dtype)
    if flat is None:
        flat = flat_scatter_index(index, channels)
    summed = np.bincount(flat, weights=data.ravel(), minlength=dim_size * channels)
    return summed.reshape(dim_size, channels).astype(data.dtype, copy=False)


def count_index(
    index: np.ndarray, dim_size: int, dtype: np.dtype = np.float64
) -> np.ndarray:
    """Occurrences of each bucket in ``index`` as ``dtype`` (in-degree counts).

    Counts are integers, so they are exact in either supported precision;
    callers building :class:`~repro.nn.data.EdgePlan` normalisations pass the
    plan dtype to keep the ``1 / degree`` columns promotion-free.
    """
    if not _USE_FAST:
        counts = np.zeros(dim_size, dtype=dtype)
        np.add.at(counts, index, 1.0)
        return counts
    return np.bincount(index, minlength=dim_size).astype(dtype)
