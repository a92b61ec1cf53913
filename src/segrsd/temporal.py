"""Generative temporal model: subactivity orders and segment lengths.

Orders follow a Generalized Mallows distribution in its inversion-vector
parameterization: slot i (0-based, i < K-1) holds v_i, the number of
subactivities j > i placed before i, with v_i in {0..K-1-i} and

    log P(v) = sum_i [ -rho_i * v_i - log psi_i(rho_i) ],
    psi_i(rho) = (1 - exp(-n_i*rho)) / (1 - exp(-rho)),  n_i = K - i,

so slots are independent truncated geometrics. Lengths are one frame plus a
multinomial split of the remaining frames over the present subactivities.
Segmentations are resampled by Metropolis-within-Gibbs moves: boundary
shifts, adjacent order swaps, and birth/death of unit-length segments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Segmentation, _freeze

LOG_FLOOR = -745.0  # below log(smallest subnormal double); used for zero probabilities
BIRTH_DEATH_PROB = 0.1  # chance per sweep of a birth/death proposal
RHO_MAX = 50.0  # upper end of estimate_rho's bisection bracket [0, RHO_MAX]
RHO_TOL = 1e-8  # bisection stops once the bracket is this narrow

# The segmentation priors: the Mallows prior holds NU0 pseudo-observations of
# R0 inversions per slot, and the length model adds ALPHA0 pseudo-counts per
# subactivity.
NU0 = 0.1
R0 = 1.0
ALPHA0 = 1.0


@dataclass(frozen=True)
class MallowsModel:
    """Dispersion per inversion slot plus the conjugate-style prior weights.

    Immutable, rho included, so the per-slot CDF table that mallows_sample
    reads, built once here, always matches rho.
    """

    n_subactivities: int
    rho: np.ndarray = field(repr=False)  # (K-1,) non-negative
    nu0: float = NU0   # prior strength (pseudo-observation count)
    r0: float = R0     # prior mean inversion count per slot

    def __post_init__(self):
        rho = _freeze(np.array(self.rho, dtype=np.float64))
        object.__setattr__(self, "rho", rho)
        if self.n_subactivities < 1:
            raise ValueError("need at least one subactivity")
        if rho.shape != (self.n_subactivities - 1,):
            raise ValueError(
                f"rho must have {self.n_subactivities - 1} entries, got {rho.shape}"
            )
        if rho.size and rho.min() < 0:
            raise ValueError("rho entries must be non-negative")
        # row i: the CDF of slot i's truncated geometric over 0..K-1-i, +inf
        # past the slot's size
        k = self.n_subactivities
        cdf = np.full((k - 1, k), np.inf)
        for i in range(k - 1):
            n = k - i
            row = np.cumsum(np.exp(-float(rho[i]) * np.arange(n)))
            row /= row[-1]
            cdf[i, :n] = row
        object.__setattr__(self, "_cdf", _freeze(cdf))

    @classmethod
    def with_constant_rho(cls, n_subactivities, rho_value):
        return cls(n_subactivities, np.full(max(n_subactivities - 1, 0), float(rho_value)))


@dataclass(frozen=True)
class LengthModel:
    """Multinomial split of frames over present subactivities; immutable, theta included."""

    n_subactivities: int
    theta: np.ndarray = field(repr=False)  # (K,) simplex
    alpha0: float = ALPHA0

    def __post_init__(self):
        object.__setattr__(self, "theta", _freeze(np.array(self.theta, dtype=np.float64)))
        if self.theta.shape != (self.n_subactivities,):
            raise ValueError("theta must have one entry per subactivity")
        if self.theta.min() < 0 or not math.isclose(float(self.theta.sum()), 1.0, abs_tol=1e-9):
            raise ValueError("theta must be a probability vector")

    @classmethod
    def uniform(cls, n_subactivities):
        return cls(n_subactivities, np.full(n_subactivities, 1.0 / n_subactivities))


# ---------------------------------------------------------------------------
# inversion-vector calculus

def inversions_to_order(v) -> tuple[int, ...]:
    """Reconstruct the permutation whose inversion counts are v."""
    v = np.asarray(v, dtype=np.int64)
    k = v.size + 1
    order: list[int] = []
    for item in range(k - 1, -1, -1):
        slot = 0 if item == k - 1 else int(v[item])
        if not 0 <= slot <= len(order):
            raise ValueError(f"inversion count {slot} out of range for item {item}")
        order.insert(slot, item)
    return tuple(order)


def order_to_inversions(order) -> np.ndarray:
    """v_i = number of items j > i placed before item i."""
    order = tuple(int(x) for x in order)
    if sorted(order) != list(range(len(order))):
        raise ValueError("order must be a permutation of 0..K-1")
    return partial_order_inversions(order, len(order))


def partial_order_inversions(present_order, n_subactivities: int) -> np.ndarray:
    """Inversions induced by an order over a subset; absent items count zero."""
    present_order = tuple(int(x) for x in present_order)
    if len(set(present_order)) != len(present_order):
        raise ValueError("present order must not repeat subactivities")
    pos = {item: p for p, item in enumerate(present_order)}
    v = np.zeros(max(n_subactivities - 1, 0), dtype=np.int64)
    for item in present_order:
        if not 0 <= item < n_subactivities:
            raise ValueError(f"subactivity {item} out of range")
        if item < n_subactivities - 1:
            v[item] = sum(
                1 for j in present_order if j > item and pos[j] < pos[item]
            )
    return v


def _log_psi(rho: float, n: int) -> float:
    if rho == 0.0:
        return math.log(n)
    # (1 - e^{-n rho}) / (1 - e^{-rho}), written with expm1 for small rho
    return math.log(math.expm1(-n * rho) / math.expm1(-rho))


def mallows_log_prob(v, model: MallowsModel) -> float:
    v = np.asarray(v, dtype=np.int64)
    k = model.n_subactivities
    if v.shape != (k - 1,):
        raise ValueError(f"inversion vector must have {k - 1} entries")
    total = 0.0
    for i in range(k - 1):
        n = k - i
        if not 0 <= v[i] < n:
            raise ValueError(f"slot {i} inversion count {v[i]} outside [0, {n - 1}]")
        total += -float(model.rho[i]) * float(v[i]) - _log_psi(float(model.rho[i]), n)
    return total


def truncated_geometric_mean(rho: float, n: int) -> float:
    """Mean of P(x) proportional to exp(-rho*x) on x in {0..n-1}."""
    x = np.arange(n, dtype=np.float64)
    w = np.exp(-rho * x)
    return float((x * w).sum() / w.sum())


def mallows_sample(model: MallowsModel, rng: np.random.Generator) -> np.ndarray:
    """Draw an inversion vector; slots are independent truncated geometrics.

    Slot i's count is the number of its CDF entries at or below a uniform
    draw, the draws taken in slot order.
    """
    return (model._cdf <= rng.random(model.n_subactivities - 1)[:, None]).sum(axis=1)


def estimate_rho(observed, model: MallowsModel) -> np.ndarray:
    """Per-slot dispersion matching prior-smoothed mean inversion counts.

    Solves truncated_geometric_mean(rho, n) = (sum_v + nu0*r0) / (N + nu0)
    by bisection on [0, 50]; clamps to 0 when the target is at or above the
    uniform mean and to 50 when it is below the mean at the search bound.
    """
    v_obs = np.atleast_2d(np.asarray(observed, dtype=np.float64))
    k = model.n_subactivities
    if v_obs.shape[1] != k - 1:
        raise ValueError(f"observations must have {k - 1} slots")
    n_obs = v_obs.shape[0]
    if n_obs == 0:
        raise ValueError("need at least one observed inversion vector")
    out = np.zeros(k - 1, dtype=np.float64)
    for i in range(k - 1):
        n = k - i
        target = (float(v_obs[:, i].sum()) + model.nu0 * model.r0) / (n_obs + model.nu0)
        out[i] = _solve_dispersion(target, n)
    return out


def _solve_dispersion(target: float, n: int) -> float:
    if target >= (n - 1) / 2.0:
        return 0.0
    if target <= truncated_geometric_mean(RHO_MAX, n):
        return RHO_MAX
    lo, hi = 0.0, RHO_MAX
    while hi - lo > RHO_TOL:
        mid = 0.5 * (lo + hi)
        if truncated_geometric_mean(mid, n) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# length model

def sample_lengths(model: LengthModel, present, n_frames: int, rng) -> np.ndarray:
    """Lengths (aligned with `present`): one frame each plus a multinomial split."""
    present = [int(p) for p in present]
    if len(set(present)) != len(present):
        raise ValueError("present subactivities must be distinct")
    if n_frames < len(present):
        raise ValueError(f"{n_frames} frames cannot host {len(present)} segments")
    theta = model.theta[present]
    total = float(theta.sum())
    if total <= 0:
        raise ValueError("present subactivities have zero total length probability")
    counts = rng.multinomial(n_frames - len(present), theta / total)
    return counts.astype(np.int64) + 1


def update_theta(counts, model: LengthModel) -> np.ndarray:
    """Posterior-mean length proportions under a symmetric Dirichlet prior."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (model.n_subactivities,):
        raise ValueError("counts must have one entry per subactivity")
    if counts.min() < 0:
        raise ValueError("counts must be non-negative")
    denom = counts.sum() + model.n_subactivities * model.alpha0
    if denom <= 0:
        raise ValueError("all-zero counts with a zero prior leave theta undefined")
    return (counts + model.alpha0) / denom


# ---------------------------------------------------------------------------
# joint likelihood and the segmentation sampler

def _joint_scorer(probs: np.ndarray, mallows: MallowsModel, length_model: LengthModel, n_sub: int):
    """Return score(order, lengths) = log P(frames, order, lengths) for one video.

    Appearance terms are differences of per-label prefix sums of floored
    log-probabilities (a NaN probability makes its label's later sums NaN);
    the Mallows term and normalized log theta are computed once per order.
    """
    n_frames = probs.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_probs = np.where(probs <= 0.0, LOG_FLOOR, np.log(probs))
    columns = np.cumsum(np.vstack([np.zeros(probs.shape[1]), log_probs]), axis=0).T.tolist()
    per_order = {}

    def order_terms(order) -> tuple[float, list[float]]:
        key = tuple(order)
        if key not in per_order:
            theta = length_model.theta[list(key)]
            total = float(theta.sum())
            if total <= 0:  # no length mass on the present labels: impossible, as in sample_lengths
                return -math.inf, [-math.inf] * len(key)
            with np.errstate(divide="ignore"):
                log_theta = np.log(theta / total).tolist()
            order_term = mallows_log_prob(partial_order_inversions(key, n_sub), mallows)
            per_order[key] = (order_term, log_theta)
        return per_order[key]

    def score(order, lengths) -> float:
        order_term, log_theta = order_terms(order)
        app = weighted = 0.0
        log_coeff = math.lgamma(n_frames - len(lengths) + 1.0)
        end = 0
        for label, n, log_t in zip(order, lengths, log_theta):
            start, end = end, end + n
            app += columns[label][end] - columns[label][start]
            if n > 1:
                log_coeff -= math.lgamma(n)
                weighted += (n - 1) * log_t
        return app + order_term + (log_coeff + weighted)

    return score


def segmentation_log_joint(
    seg: Segmentation, probs: np.ndarray, mallows: MallowsModel, length_model: LengthModel
) -> float:
    """log P(frames, order, lengths) for one video under the current models."""
    if probs.shape[0] != seg.n_frames:
        raise ValueError("probability table must cover every frame")
    if seg.n_subactivities != mallows.n_subactivities:
        raise ValueError("segmentation and Mallows model disagree on K")
    return _joint_scorer(probs, mallows, length_model, seg.n_subactivities)(seg.order, seg.lengths)


def _accept(log_ratio: float, rng) -> bool:
    return log_ratio >= 0 or rng.random() < math.exp(log_ratio)


def sample_segmentation(
    probs: np.ndarray,
    mallows: MallowsModel,
    length_model: LengthModel,
    current: Segmentation,
    rng: np.random.Generator,
    sweeps: int = 25,
) -> Segmentation:
    """Metropolis-within-Gibbs resampling of one video's segmentation.

    Each sweep proposes, in order: a shift of every internal boundary by
    delta in {-w..w}\\{0} with w = max(1, T // 50); one swap of a random
    adjacent segment pair; and, with probability BIRTH_DEATH_PROB, a birth
    (insert an absent subactivity as a unit segment, taking a frame from the
    segment it displaces) or death (remove a unit segment, returning its
    frame) with the matching Hastings correction.
    """
    n_sub = current.n_subactivities
    n_frames = current.n_frames
    if probs.shape != (n_frames, n_sub):
        raise ValueError(f"probs shape {probs.shape} does not match T={n_frames}, K={n_sub}")
    order = list(current.order)
    lengths = list(current.lengths)
    score = _joint_scorer(probs, mallows, length_model, n_sub)
    cur = score(order, lengths)
    width = max(1, n_frames // 50)

    for _ in range(sweeps):
        # boundary shifts, one proposal per internal boundary
        for b in range(len(order) - 1):
            draw = int(rng.integers(0, 2 * width))
            delta = draw - width if draw < width else draw - width + 1
            left = lengths[b] + delta
            right = lengths[b + 1] - delta
            if left < 1 or right < 1:
                continue
            cand = lengths.copy()
            cand[b] = left
            cand[b + 1] = right
            new = score(order, cand)
            if _accept(new - cur, rng):
                lengths, cur = cand, new

        # adjacent order swap
        if len(order) >= 2:
            i = int(rng.integers(0, len(order) - 1))
            cand_order = order.copy()
            cand_lengths = lengths.copy()
            cand_order[i], cand_order[i + 1] = cand_order[i + 1], cand_order[i]
            cand_lengths[i], cand_lengths[i + 1] = cand_lengths[i + 1], cand_lengths[i]
            new = score(cand_order, cand_lengths)
            if _accept(new - cur, rng):
                order, lengths, cur = cand_order, cand_lengths, new

        # birth/death of unit-length segments
        if rng.random() < BIRTH_DEATH_PROB:
            if rng.random() < 0.5:
                result = _propose_birth(order, lengths, n_sub, score, cur, rng)
            else:
                result = _propose_death(order, lengths, n_sub, score, cur, rng)
            if result is not None:
                order, lengths, cur = result

    return Segmentation(tuple(zip(order, lengths)), n_sub)


def _propose_birth(order, lengths, n_sub, score, cur, rng):
    absent = [k for k in range(n_sub) if k not in order]
    if not absent:
        return None
    n_seg = len(order)
    newcomer = absent[int(rng.integers(len(absent)))]
    slot = int(rng.integers(n_seg + 1))
    donor = slot if slot < n_seg else n_seg - 1
    if lengths[donor] < 2:
        return None
    cand_lengths = lengths.copy()
    cand_lengths[donor] -= 1
    cand_lengths.insert(slot, 1)
    cand_order = order.copy()
    cand_order.insert(slot, newcomer)
    new = score(cand_order, cand_lengths)
    units_after = cand_lengths.count(1)
    log_ratio = new - cur + math.log(len(absent) * (n_seg + 1) / units_after)
    if _accept(log_ratio, rng):
        return cand_order, cand_lengths, new
    return None


def _propose_death(order, lengths, n_sub, score, cur, rng):
    n_seg = len(order)
    if n_seg < 2:
        return None
    units = [i for i, n in enumerate(lengths) if n == 1]
    if not units:
        return None
    victim = units[int(rng.integers(len(units)))]
    recipient = victim + 1 if victim < n_seg - 1 else victim - 1
    cand_order = order.copy()
    cand_lengths = lengths.copy()
    cand_lengths[recipient] += 1
    del cand_order[victim]
    del cand_lengths[victim]
    new = score(cand_order, cand_lengths)
    absent_after = n_sub - (n_seg - 1)
    log_ratio = new - cur + math.log(len(units) / (absent_after * n_seg))
    if _accept(log_ratio, rng):
        return cand_order, cand_lengths, new
    return None
