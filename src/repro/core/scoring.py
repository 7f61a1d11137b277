"""Vectorized, cached scoring engine for the FASE heuristic.

The Eq. 1/2 scorer is the hot path of every campaign: a full-span survey
evaluates every spectrum at every shifted position ``f + h * falt_i`` —
H harmonics x N falts sub-scores over grids of up to hundreds of
thousands of bins. :class:`ShiftedPowerCache` stacks the N traces into
one ``(N, n_bins)`` power matrix and exploits the uniform grid: ``f +
shift`` lands at the same fractional bin offset for every bin, so the
interpolation collapses to two contiguous slices blended by one scalar
weight instead of a per-trace binary-search ``np.interp``. It writes into
caller-owned buffers, so the scorer streams each sub-score through two
reused vectors; what it memoizes is what is reused — each harmonic's
finished ``F_h``.

The cache is shared by :class:`~repro.core.heuristic.HeuristicScorer` and
:class:`~repro.core.detect.CarrierDetector` (whose movement verification
reads windows of the stacked power matrix); the naive per-trace
``np.interp`` path survives as the reference implementation
(``HeuristicScorer(vectorized=False)``) that tests and benchmarks compare
against.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..errors import DetectionError


def shift_valid_range(grid, shift):
    """Half-open bin range ``[lo, hi)`` whose shifted positions have data.

    A bin can only be scored where ``f + shift`` falls inside the grid's
    span; outside it the interpolation merely clamps to the edge value.
    Because the grid is uniform the in-span bins always form one
    contiguous run, so the validity test reduces to two bounds. They are
    compared with a half-resolution tolerance: the exact boundary is
    derived from float arithmetic, and a strict comparison can flip the
    first/last in-span bin in or out when ``shift`` is an exact multiple
    of the resolution. Half a bin is the natural tolerance — a shifted
    position within half a bin of the span is still covered by the edge
    bin's resolution bandwidth.
    """
    # Bin k is valid iff -0.5 <= k + shift/fres <= n_bins - 1 + 0.5.
    offset = shift / grid.resolution
    lo = int(np.ceil(-offset - 0.5))
    hi = int(np.floor(grid.n_bins - 1 - offset + 0.5)) + 1
    lo = min(max(lo, 0), grid.n_bins)
    hi = min(max(hi, lo), grid.n_bins)
    return lo, hi


def shift_valid_mask(grid, shift):
    """Boolean-mask form of :func:`shift_valid_range` over the grid."""
    lo, hi = shift_valid_range(grid, shift)
    mask = np.zeros(grid.n_bins, dtype=bool)
    mask[lo:hi] = True
    return mask


class ShiftedPowerCache:
    """Batched ``SP_i(f + shift)`` evaluation and score memo for one campaign.

    :meth:`interpolate_into` is the scorer's per-``(h, i)`` interpolation;
    :meth:`score` memoizes each harmonic's ``F_h``. ``hits``/``misses``
    count lookups in both memos (for the scorer: one per harmonic).
    :meth:`shifted_all` evaluates one shift for all traces and memoizes
    the matrix; ``max_entries`` bounds that memo (LRU eviction), the
    default ``None`` keeps every shift.
    """

    def __init__(self, traces, max_entries=None):
        traces = list(traces)
        if len(traces) < 2:
            raise DetectionError("the scoring cache needs at least two traces")
        grid = traces[0].grid
        for trace in traces:
            if trace.grid != grid:
                raise DetectionError("traces must share one grid")
        if max_entries is not None and max_entries < 1:
            raise DetectionError("max_entries must be >= 1 (or None)")
        power = np.ascontiguousarray(np.vstack([trace.power_mw for trace in traces]))
        self._setup(grid, power, max_entries)

    def _setup(self, grid, power, max_entries):
        self.grid = grid
        self.power = power
        self.max_entries = max_entries
        self._shifted = OrderedDict()
        self._scores = {}
        self._floored_sums = {}
        self._ranges = {}
        self._masks = {}
        self.hits = 0
        self.misses = 0

    @classmethod
    def from_result(cls, result, max_entries=None):
        """Build a cache over a :class:`CampaignResult`'s traces."""
        return cls(result.traces, max_entries=max_entries)

    def subset(self, indices):
        """A new cache over a row-subset of this cache's traces.

        The degraded pipeline scores leave-one-out views (a flagged falt
        index excluded, Eq. 2 renormalized over the rest); subsetting
        reuses the already-stacked power matrix instead of restacking
        the surviving traces. Memos are *not* carried over: the child's
        scores and totals cover different traces.
        """
        indices = [int(i) for i in indices]
        if len(indices) < 2:
            raise DetectionError("the scoring cache needs at least two traces")
        if len(set(indices)) != len(indices):
            raise DetectionError("subset indices must be distinct")
        for i in indices:
            if not 0 <= i < self.n_traces:
                raise DetectionError(f"trace index {i} outside 0..{self.n_traces - 1}")
        clone = object.__new__(type(self))
        clone._setup(self.grid, np.ascontiguousarray(self.power[indices]), self.max_entries)
        return clone

    @property
    def n_traces(self):
        return self.power.shape[0]

    @property
    def n_bins(self):
        return self.power.shape[1]

    # ------------------------------------------------------------------

    def shifted_all(self, shift):
        """``(N, n_bins)`` matrix of every trace evaluated at ``f + shift``.

        Matches ``np.interp`` semantics (linear interpolation, edge-value
        clamping outside the span) to within floating-point reordering.
        The returned array is shared with the cache — treat it as
        read-only.
        """
        key = float(shift)
        cached = self._shifted.get(key)
        if cached is not None:
            self._shifted.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        matrix = self._shift_matrix(self.power, key)
        matrix.flags.writeable = False
        self._shifted[key] = matrix
        if self.max_entries is not None and len(self._shifted) > self.max_entries:
            self._shifted.popitem(last=False)
        return matrix

    def shifted(self, index, shift):
        """One trace's shifted power: ``SP_index(f + shift)`` over the grid."""
        return self.shifted_all(shift)[index]

    def interpolate_into(self, index, shift, floor, row, total):
        """Write ``SP_index(f + shift)`` into ``row`` and ``sum_j max(SP_j, floor)``
        at ``f + shift`` into ``total`` (both grid-length buffers).

        Linear interpolation commutes with the sum over traces, so the
        Eq. 2 denominator needs one interpolation of a precomputed
        total-power vector instead of N per-trace interpolations. The
        floor is applied to the bin powers *before* interpolating; that
        matches flooring the interpolated values exactly wherever a trace
        does not cross the floor between adjacent bins (the floor sits
        ~7 decades below any physical noise floor, so in practice it only
        binds on all-zero synthetic traces, where both orderings agree).
        """
        floor = float(floor)
        base = self._floored_sums.get(floor)
        if base is None:
            floored = np.maximum(self.power, floor) if floor > 0.0 else self.power
            base = np.ascontiguousarray(floored.sum(axis=0))
            self._floored_sums[floor] = base
        self._shift_matrix(self.power[index : index + 1], shift, out=row[None])
        self._shift_matrix(base[None], shift, out=total[None])

    def score(self, key, compute):
        """Memoized harmonic score ``F_h``: ``compute()`` runs on a miss.

        ``key`` names everything the score depends on besides this
        cache's traces (the scorer uses ``(harmonic, falts, power_floor,
        clip_subscore)``). The stored array is read-only and shared.
        """
        score = self._scores.get(key)
        if score is not None:
            self.hits += 1
            return score
        self.misses += 1
        score = compute()
        score.flags.writeable = False
        self._scores[key] = score
        return score

    def valid_range(self, shift):
        """Memoized :func:`shift_valid_range` for this cache's grid."""
        key = float(shift)
        bounds = self._ranges.get(key)
        if bounds is None:
            bounds = shift_valid_range(self.grid, key)
            self._ranges[key] = bounds
        return bounds

    def valid_mask(self, shift):
        """Memoized :func:`shift_valid_mask` for this cache's grid."""
        key = float(shift)
        mask = self._masks.get(key)
        if mask is None:
            mask = shift_valid_mask(self.grid, key)
            mask.flags.writeable = False
            self._masks[key] = mask
        return mask

    # ------------------------------------------------------------------

    def _shift_matrix(self, power, shift, out=None):
        """Slice-blend interpolation of ``power`` rows at one shift.

        On a uniform grid ``f_k + shift`` sits at bin position
        ``k + shift/fres`` — a *constant* offset — so the interpolation is
        two contiguous slices blended by one scalar weight (plus constant
        edge clamps), with no per-point search or index gathers at all.
        ``power`` is any ``(M, n_bins)`` matrix over this cache's grid;
        ``out`` (same shape) receives the result when given.
        """
        n_bins = self.n_bins
        offset = shift / self.grid.resolution
        whole = int(np.floor(offset))
        frac = offset - whole
        if out is None:
            out = np.empty_like(power)
        # Columns k with 0 <= k+whole < n-1 interpolate between two real
        # bins; on the left of that range the shifted position is below
        # the span (clamp to the first bin), on the right at or past the
        # last bin center (clamp to the last bin, matching np.interp).
        lo = min(max(-whole, 0), n_bins)
        hi = min(max(n_bins - 1 - whole, 0), n_bins)
        if lo > 0:
            out[:, :lo] = power[:, :1]
        if hi < n_bins:
            out[:, hi:] = power[:, -1:]
        if hi > lo:
            left = power[:, lo + whole : hi + whole]
            if frac == 0.0:
                out[:, lo:hi] = left
            else:
                # left + frac*(right - left), evaluated in place so the
                # blend allocates nothing beyond the output itself.
                right = power[:, lo + whole + 1 : hi + whole + 1]
                interior = out[:, lo:hi]
                np.subtract(right, left, out=interior)
                interior *= frac
                interior += left
        return out

    def __repr__(self):
        return (
            f"ShiftedPowerCache({self.n_traces} traces x {self.n_bins} bins, "
            f"{len(self._shifted)} shifts cached, {self.hits} hits)"
        )
