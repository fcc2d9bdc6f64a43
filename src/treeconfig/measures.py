"""Finite atomic measures discretizing compact subsets of R^d.

A compact set of prescribed dimension is stood in for by the depth-L
attractor of an iterated function system of similarities, carrying one
weighted atom per length-L composition word. Ball masses, measure
restriction, and an empirical mass-growth exponent (log-log fit of
mu(B(x, r)) against r) are provided on top. pair_distance, defined here,
is the library's one Euclidean distance.

Mass sums are exact: exact_sum is math.fsum's correctly rounded sum over an
array's floats, read off its buffer, so totals do not depend on atom order
or platform; finite_fsum refuses finite terms whose sum leaves the float range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRadiiError, ResourceCapError, ValidationError, json_int
from .rng import SplitMix64

DEFAULT_ATOM_CAP = 10**6


def exact_sum(values) -> float:
    """math.fsum of a float array, read off its buffer: faster than over numpy scalars or a list."""
    return math.fsum(memoryview(np.asarray(values, dtype=float)))


def finite_fsum(values, name: str) -> float:
    """exact_sum, with a ValidationError naming the sum when finite terms overflow it."""
    try:
        return exact_sum(values)
    except OverflowError:
        raise ValidationError(f"{name} overflows a float") from None


@dataclass
class IFSSpec:
    """Similarity IFS: maps x -> ratio_i * x + translation_i on R^d.

    Attributes
    ----------
    d : ambient dimension (>= 1)
    maps : list of (ratio, translation) pairs, ratio in (0, 1),
        translation a length-d vector
    depth : composition depth L (>= 0); the measure has (#maps)^L atoms
    probabilities : per-map weights, nonnegative, summing to 1;
        uniform when omitted
    """

    d: int
    maps: list[tuple[float, np.ndarray]]
    depth: int
    probabilities: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.d}")
        if self.depth < 0:
            raise ValidationError(f"depth must be >= 0, got {self.depth}")
        if not self.maps:
            raise ValidationError("IFS needs at least one map")
        norm_maps = []
        for i, (ratio, trans) in enumerate(self.maps):
            ratio = float(ratio)
            if not (0.0 < ratio < 1.0):
                raise ValidationError(f"map {i}: ratio {ratio} not in (0, 1)")
            trans = np.asarray(trans, dtype=float).reshape(-1)
            if trans.shape != (self.d,):
                raise ValidationError(
                    f"map {i}: translation has length {len(trans)}, expected {self.d}"
                )
            if not np.all(np.isfinite(trans)):
                raise ValidationError(f"map {i}: translation is not finite")
            norm_maps.append((ratio, trans))
        self.maps = norm_maps
        if self.probabilities is None:
            self.probabilities = np.full(len(self.maps), 1.0 / len(self.maps))
        else:
            self.probabilities = np.asarray(self.probabilities, dtype=float)
            if self.probabilities.shape != (len(self.maps),):
                raise ValidationError("probabilities length must match maps")
            if not np.all(np.isfinite(self.probabilities)):
                probs = self.probabilities.tolist()
                raise ValidationError(f"probabilities must be finite, got {probs}")
            if np.any(self.probabilities < 0):
                raise ValidationError("probabilities must be nonnegative")
            if abs(exact_sum(self.probabilities) - 1.0) > 1e-12:
                raise ValidationError("probabilities must sum to 1 within 1e-12")

    def similarity_dimension(self) -> float:
        """The unique s >= 0 with sum_i ratio_i^s = 1, by bisection: the sum falls strictly in s."""
        ratios = [r for r, _ in self.maps]
        if len(ratios) == 1:
            return 0.0
        lo, hi = 0.0, math.log(len(ratios)) / math.log(1.0 / max(ratios)) + 1.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # until the midpoint rounds to an end
            if math.fsum(r**mid for r in ratios) > 1.0:
                lo = mid
            else:
                hi = mid
        return mid

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "maps": [
                {"ratio": r, "translation": list(map(float, t))} for r, t in self.maps
            ],
            "depth": self.depth,
            "probabilities": list(map(float, self.probabilities)),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "IFSSpec":
        try:
            maps = [(m["ratio"], np.asarray(m["translation"], dtype=float)) for m in obj["maps"]]
            probs = obj.get("probabilities")
            return cls(
                d=json_int(obj["d"], "d"),
                maps=maps,
                depth=json_int(obj["depth"], "depth"),
                probabilities=None if probs is None else np.asarray(probs, dtype=float),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed IFS spec: {exc}") from exc


@dataclass
class AtomicMeasure:
    """Finite weighted point cloud: atoms (n, d), nonnegative weights (n,)."""

    d: int
    atoms: np.ndarray
    weights: np.ndarray
    label: str = ""
    total_mass: float = field(init=False)  # sum of weights

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.d}")
        self.atoms = np.asarray(self.atoms, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.atoms.ndim == 1:
            self.atoms = self.atoms.reshape(-1, 1)
        if self.atoms.ndim != 2 or self.atoms.shape[1] != self.d:
            raise ValidationError(
                f"atoms must be (n, {self.d}), got shape {self.atoms.shape}"
            )
        n = len(self.atoms)
        if n == 0 or self.weights.shape != (n,):
            raise ValidationError(
                f"need equal nonzero atom/weight counts, got {n} and {self.weights.shape}"
            )
        if not np.all(np.isfinite(self.atoms)):
            raise ValidationError("atom coordinates must be finite")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValidationError("weights must be finite and nonnegative")
        self.total_mass = finite_fsum(self.weights, "total mass")

    def __len__(self) -> int:
        return len(self.atoms)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "atoms": [list(map(float, a)) for a in self.atoms],
            "weights": list(map(float, self.weights)),
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "AtomicMeasure":
        try:
            return cls(
                d=json_int(obj["d"], "d"),
                atoms=np.asarray(obj["atoms"], dtype=float),
                weights=np.asarray(obj["weights"], dtype=float),
                label=str(obj.get("label", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed measure file: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "AtomicMeasure":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class FrostmanReport:
    """Empirical mass-growth fit: ball masses against radii on a log-log grid.

    C_hat is the max of mass / r^s_hat over all samples, so the growth bound
    mass <= C_hat * r^s_hat holds by construction; the constructor asserts it.
    """

    s_hat: float
    C_hat: float
    samples: list[tuple[int, float, float]]  # (center atom index, radius, mass)
    radius_range: tuple[float, float]

    def __post_init__(self):
        r_min, r_max = self.radius_range
        if not (r_min > 0 and r_max >= r_min):
            raise ValidationError("radius_range must satisfy 0 < r_min <= r_max")
        for idx, r, mass in self.samples:
            bound = self.C_hat * r**self.s_hat
            if mass > bound * (1 + 1e-9):
                raise ValidationError(
                    f"sample (center {idx}, r={r}) breaks mass <= C_hat * r^s_hat"
                )

    def to_dict(self) -> dict:
        return {
            "s_hat": self.s_hat,
            "C_hat": self.C_hat,
            "radius_range": list(self.radius_range),
            "samples": [
                {"center": int(i), "radius": float(r), "mass": float(m)}
                for i, r, m in self.samples
            ],
        }


def build_ifs_measure(spec: IFSSpec, atom_cap: int = DEFAULT_ATOM_CAP) -> AtomicMeasure:
    """One atom per depth-L word, at the word's image of the origin.

    Atom order is lexicographic in the word (outermost map index most
    significant), so atoms sharing a length-j prefix occupy a contiguous
    index block of size (#maps)^(L-j). Weight of a word is the product of
    its map probabilities; total mass is 1.
    """
    # a depth over the cap is refused before k^depth is formed or looped over
    if spec.depth > atom_cap or len(spec.maps) ** spec.depth > atom_cap:
        raise ResourceCapError(
            f"IFS enumeration to depth {spec.depth} exceeds the cap of {atom_cap} atoms"
        )
    pos = np.zeros((1, spec.d))
    wts = np.ones(1)
    for level in range(1, spec.depth + 1):
        last = pos.tobytes()
        pos = np.concatenate([t + r * pos for r, t in spec.maps])
        wts = np.concatenate([p * wts for p in spec.probabilities])
        if pos.tobytes() == last:  # a one-map IFS at its fixed point: only its weight moves
            p, w = spec.probabilities.item(), wts.item()
            for _ in range(spec.depth - level):
                w = p * w  # the level loop's IEEE product, on Python floats
            wts = np.array([w])
            break
    return AtomicMeasure(
        d=spec.d,
        atoms=pos,
        weights=wts,
        label=f"ifs[{len(spec.maps)} maps, depth {spec.depth}]",
    )


def pair_distance(a, b) -> np.ndarray:
    """The library's one Euclidean distance, broadcast over leading axes.

    sqrt of the squared direct coordinate differences, summed in coordinate
    order. Symmetric by construction, since (a - b)^2 == (b - a)^2 exactly.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    sq = 0.0  # 0.0 + x is x exactly for a square x
    for k in range(a.shape[-1]):  # each coordinate's difference broadcasts over whole rows
        diff = a[..., k] - (b if b.ndim == 0 else b[..., k])
        sq = sq + diff * diff
    return np.sqrt(sq)


def ball_mass(mu: AtomicMeasure, center, r: float) -> float:
    """Mass of the closed ball B(center, r): sum of weights at pair_distance <= r."""
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.shape != (mu.d,):
        raise ValidationError(f"center must have dimension {mu.d}")
    if not np.all(np.isfinite(center)):
        raise ValidationError("center must be finite")
    if not (r > 0):
        raise ValidationError("radius must be positive")
    dist = pair_distance(mu.atoms, center)
    return exact_sum(mu.weights[dist <= r])


def restrict_measure(mu: AtomicMeasure, keep) -> AtomicMeasure:
    """Measure restricted to the kept atom indices; weights are NOT renormalized."""
    keep = np.unique(np.asarray(keep, dtype=np.int64))
    if keep.size == 0:
        raise ValidationError("restriction kept no atoms")
    if keep[0] < 0 or keep[-1] >= len(mu):
        raise ValidationError("keep indices out of range")
    return AtomicMeasure(
        d=mu.d,
        atoms=mu.atoms[keep],
        weights=mu.weights[keep],
        label=f"{mu.label}|restricted[{keep.size}]",
    )


def estimate_frostman(
    mu: AtomicMeasure,
    n_centers: int,
    radii,
    seed: int = 0,
) -> FrostmanReport:
    """Fit mass(B(x, r)) ~ C * r^s over seeded centers and the given radii.

    Centers are distinct atom indices drawn from a splitmix64 stream seeded
    with `seed`, so reruns (in any implementation of the same stream) sample
    identical centers. The exponent is the least-squares slope of log mass
    against log r over all samples with positive mass.
    """
    radii = sorted(set(float(r) for r in radii))
    if not all(math.isfinite(r) for r in radii):
        raise ValidationError("radii must be finite")
    if any(r <= 0 for r in radii):
        raise ValidationError("radii must be strictly positive")
    if len(radii) < 3:
        raise ValidationError("need at least 3 distinct radii")
    if radii[-1] / radii[0] < 4.0:
        raise ValidationError("radii must span at least 2 octaves (max/min >= 4)")
    if not (0 < n_centers <= len(mu)):
        raise ValidationError(f"n_centers must be in [1, {len(mu)}]")

    centers = SplitMix64(seed).distinct_below(len(mu), n_centers)
    samples: list[tuple[int, float, float]] = []
    for r in radii:
        masses = [ball_mass(mu, mu.atoms[c], r) for c in centers]
        if all(m == 0.0 for m in masses):
            raise DegenerateRadiiError(
                f"all {n_centers} balls empty at radius {r}; try larger radii"
            )
        samples.extend((c, r, m) for c, m in zip(centers, masses))

    log_r = np.array([math.log(r) for _, r, m in samples if m > 0])
    log_m = np.array([math.log(m) for _, _, m in samples if m > 0])
    if len(log_r) < 2 or np.ptp(log_r) == 0:
        s_hat = 0.0
    else:
        s_hat = float(np.polyfit(log_r, log_m, 1)[0])
    c_hat = max(m / r**s_hat for _, r, m in samples)
    return FrostmanReport(
        s_hat=s_hat,
        C_hat=c_hat,
        samples=samples,
        radius_range=(radii[0], radii[-1]),
    )
