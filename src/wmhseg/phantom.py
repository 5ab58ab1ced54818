"""Synthetic brain phantoms with known lesion masks.

Each phantom is an ellipsoidal "brain" on a dark background with a handful
of bright, well-separated lesion blobs; FLAIR shows the lesions hyperintense
while T1 shows them at reduced contrast.  Intensities are chosen so the
brain-mask thresholds (70 FLAIR / 30 T1) segment the head cleanly.
Generation is fully determined by the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grids import BinaryMask3D, Volume3D
from .preprocess import CaseRecord

DEFAULT_SCANNERS = ("scanner_a", "scanner_b", "scanner_c")
BRAIN_AXES_FRACTION = (0.42, 0.42, 0.46)  # ellipsoid semi-axes / (nx, ny, nz)
BACKGROUND_INTENSITY = 0.0
BRAIN_INTENSITY = 120.0
FLAIR_LESION_INTENSITY = 300.0
T1_LESION_INTENSITY = 90.0


@dataclass
class PhantomSpec:
    dims: tuple[int, int, int] = (64, 64, 16)        # (nx, ny, nz)
    spacing: tuple[float, float, float] = (1.0, 1.0, 3.0)
    lesion_count_range: tuple[int, int] = (3, 6)
    lesion_radius_range: tuple[float, float] = (1.5, 3.0)  # in-plane voxels
    lesion_z_radius: float = 1.0
    noise_std: float = 10.0
    seed: int = 0
    scanners: tuple[str, ...] = DEFAULT_SCANNERS

    def __post_init__(self):
        if min(self.dims) < 1:
            raise ConfigurationError(f"dims must be >= 1, got {','.join(map(str, self.dims))}")
        low, high = self.lesion_count_range
        if not 0 <= low <= high:
            raise ConfigurationError(
                f"lesion count range must satisfy 0 <= low <= high, got {low},{high}")
        r_low, r_high = self.lesion_radius_range
        if not 0 < r_low <= r_high:
            raise ConfigurationError(
                f"lesion radius range must satisfy 0 < low <= high, got {r_low},{r_high}")
        if not self.lesion_z_radius > 0:
            raise ConfigurationError(f"lesion z radius must be > 0, got {self.lesion_z_radius}")
        if not self.noise_std >= 0:
            raise ConfigurationError(f"noise std must be >= 0, got {self.noise_std}")
        nx, ny, _ = self.dims
        if r_high >= min(nx, ny) * min(BRAIN_AXES_FRACTION[:2]):
            raise ConfigurationError("lesion radius does not fit inside the brain ellipse")


def _brain_ellipsoid(spec: PhantomSpec) -> np.ndarray:
    nx, ny, nz = spec.dims
    cz, cy, cx = (nz - 1) / 2, (ny - 1) / 2, (nx - 1) / 2
    az = BRAIN_AXES_FRACTION[2] * nz
    ay = BRAIN_AXES_FRACTION[1] * ny
    ax = BRAIN_AXES_FRACTION[0] * nx
    z, y, x = np.ogrid[0:nz, 0:ny, 0:nx]
    return ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 + ((z - cz) / az) ** 2 <= 1.0


def _place_lesions(spec: PhantomSpec, rng: np.random.Generator) -> np.ndarray:
    """Non-overlapping, non-adjacent lesion blobs well inside the brain."""
    nx, ny, nz = spec.dims
    cz, cy, cx = (nz - 1) / 2, (ny - 1) / 2, (nx - 1) / 2
    ax = BRAIN_AXES_FRACTION[0] * nx
    ay = BRAIN_AXES_FRACTION[1] * ny
    az = BRAIN_AXES_FRACTION[2] * nz
    # Keep centers away from the z-trim margins so post-processing never
    # wipes real lesions.
    z_lo = int(np.ceil(0.15 * nz))
    z_hi = max(z_lo + 1, int(np.floor(0.85 * nz)) - 1)

    count = int(rng.integers(spec.lesion_count_range[0], spec.lesion_count_range[1] + 1))
    placed = []  # (cx, cy, cz, r)
    attempts = 0
    while len(placed) < count:
        attempts += 1
        if attempts > 5000:
            raise ConfigurationError(
                f"could not place {count} separated lesions in a {spec.dims} phantom"
            )
        r = float(rng.uniform(*spec.lesion_radius_range))
        pz = float(rng.uniform(z_lo, z_hi))
        # Brain cross-section at the lesion's z extremes; the blob plus a
        # one-voxel margin must fit the in-plane ellipse there.
        z_reach = (abs(pz - cz) + spec.lesion_z_radius + 1.0) / az
        shrink = np.sqrt(max(0.0, 1.0 - z_reach**2))
        avail_x = shrink * ax - (r + 2.0)
        avail_y = shrink * ay - (r + 2.0)
        if avail_x <= 0 or avail_y <= 0:
            continue
        px = cx + rng.uniform(-avail_x, avail_x)
        py = cy + rng.uniform(-avail_y, avail_y)
        if ((px - cx) / avail_x) ** 2 + ((py - cy) / avail_y) ** 2 > 1.0:
            continue
        # In-plane separation alone guarantees disjoint 26-neighborhoods.
        if any(np.hypot(px - qx, py - qy) <= r + qr + 2.5 for qx, qy, _, qr in placed):
            continue
        placed.append((px, py, pz, r))

    mask = np.zeros((nz, ny, nx), dtype=bool)
    z, y, x = np.ogrid[0:nz, 0:ny, 0:nx]
    for px, py, pz, r in placed:
        blob = (
            ((x - px) / r) ** 2
            + ((y - py) / r) ** 2
            + ((z - pz) / spec.lesion_z_radius) ** 2
        ) <= 1.0
        mask |= blob
    return mask


def phantom_generate(spec: PhantomSpec, n: int) -> list[CaseRecord]:
    """Generate ``n`` phantom cases with exact ground-truth masks."""
    brain = _brain_ellipsoid(spec)
    cases = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, i)))
        lesions = _place_lesions(spec, rng)

        flair = np.full(brain.shape, BACKGROUND_INTENSITY, dtype=np.float32)
        flair[brain] = BRAIN_INTENSITY
        flair[lesions] = FLAIR_LESION_INTENSITY
        t1 = np.full(brain.shape, BACKGROUND_INTENSITY, dtype=np.float32)
        t1[brain] = BRAIN_INTENSITY
        t1[lesions] = T1_LESION_INTENSITY
        if spec.noise_std > 0:
            flair += rng.normal(0.0, spec.noise_std, brain.shape).astype(np.float32)
            t1 += rng.normal(0.0, spec.noise_std, brain.shape).astype(np.float32)

        cases.append(
            CaseRecord(
                subject_id=f"phantom_{i:03d}",
                scanner_id=spec.scanners[i % len(spec.scanners)],
                flair=Volume3D(flair, spec.spacing),
                t1=Volume3D(t1, spec.spacing),
                ground_truth=BinaryMask3D(lesions, spec.spacing),
            )
        )
    return cases
