"""Emulated star catalog and cone-shaped star-tracker heads.

A tracker head is a cone: a unit boresight in the body frame and a
half-angle field of view. A catalog star is visible to a head when its
body-frame direction lies strictly inside the cone. The emulation has no
image plane: no pixel grid, no centroid noise and no distortion. Each
visible star's body-frame direction is perturbed with per-axis Gaussian
noise and renormalized. Star identification is assumed perfect: every
body-frame vector is paired with the true catalog direction. Stars are
pure directions; parallax from the spacecraft position is far below
sensor noise and is ignored.

A chunk's stars travel as one :class:`ObservationSet`: the body and
inertial directions as ``(m, 3)`` arrays and the weights as ``(m,)``, one
row per star, the rows of each epoch after those of the epoch before, and
``counts``, the rows of each epoch in order. :func:`observe` takes a stack
of ``E`` epoch attitudes (a chunk of a run's tracker epochs) and builds
that set in one array pass: one product rotates the catalog into the body
frame for every epoch, one ``(E, n)`` field-of-view mask per head
(:func:`is_visible`) picks the visible rows of all epochs, the rows are put
in epoch, head and catalog order and take their noise from one draw, in
the order a loop over the epochs, heads and visible stars would draw it.
Each epoch's rows equal bit for bit what observing that epoch alone gives.
Rows are normalized, and tested against a boresight, with elementwise
products such as ``x*x + y*y + z*z``, not a BLAS dot product, whose
rounding depends on the kernel the BLAS library picks for the CPU.
"""

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np

from .attitude import quat_to_matrix
from .errors import InvalidInput
from .numerics import RngStream


@dataclass(frozen=True)
class CameraModel:
    """Tracker head: a cone of directions about a boresight.

    Args:
        boresight: unit 3-vector in the body frame, the axis of the cone.
        fov_half_angle: half-angle of the circular field of view [rad],
            strictly between 0 and pi/2.
    """

    boresight: np.ndarray
    fov_half_angle: float

    def __post_init__(self):
        if not 0.0 < self.fov_half_angle < 0.5 * math.pi:
            raise InvalidInput("field-of-view half angle must be in (0, pi/2)")
        boresight = np.asarray(self.boresight, dtype=float)
        if boresight.shape != (3,):
            raise InvalidInput(f"boresight must be a 3-vector, got shape {boresight.shape}")
        if not abs(row_norms(boresight) - 1.0) <= 1e-6:
            raise InvalidInput("boresight must be a unit vector")
        object.__setattr__(self, "boresight", boresight)


@dataclass(frozen=True)
class StarCatalog:
    """Unit direction vectors in the inertial frame, one row per star."""

    stars: np.ndarray

    def __post_init__(self):
        stars = np.asarray(self.stars, dtype=float)
        if stars.ndim != 2 or stars.shape[1] != 3:
            raise InvalidInput("catalog must be an (n, 3) array")
        if not np.all(np.abs(row_norms(stars) - 1.0) <= 1e-9):
            raise InvalidInput("catalog vectors must be unit norm")
        object.__setattr__(self, "stars", stars)

    def __len__(self) -> int:
        return self.stars.shape[0]


def _direction_rows(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.size == 0:
        return a.reshape(0, 3)
    if a.ndim != 2 or a.shape[1] != 3:
        raise InvalidInput(f"{name} must be an (m, 3) array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class ObservationSet:
    """Matched direction pairs, one row per star, of one epoch or of a stack of epochs.

    Args:
        b: body-frame unit directions, ``(m, 3)``.
        r: inertial-frame unit directions, ``(m, 3)``, row ``i`` paired with
            ``b[i]``.
        weights: ``(m,)`` weights; all 1 when omitted.
        counts: the rows of each epoch, in order, nonnegative and summing
            to ``m`` (kept as a tuple); ``None`` when all rows are one epoch.
    """

    b: np.ndarray
    r: np.ndarray
    weights: Optional[np.ndarray] = None
    counts: Optional[tuple] = None

    def __post_init__(self):
        b = _direction_rows(self.b, "b")
        r = _direction_rows(self.r, "r")
        if r.shape != b.shape:
            raise InvalidInput(f"{b.shape[0]} body directions but {r.shape[0]} inertial ones")
        if self.weights is None:
            weights = np.ones(b.shape[0])
        else:
            weights = np.asarray(self.weights, dtype=float)
            if weights.shape != (b.shape[0],):
                raise InvalidInput(f"expected {b.shape[0]} weights, got shape {weights.shape}")
        if self.counts is not None:
            counts = tuple(self.counts)
            if not all(isinstance(c, Integral) and c >= 0 for c in counts) or sum(counts) != b.shape[0]:
                raise InvalidInput(f"epoch counts must be nonnegative integers that sum to the {b.shape[0]} rows")
            object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.b.shape[0]


# largest catalog generate_catalog draws: 240 MB of directions, far more
# stars than a tracker head's onboard catalog holds
_MAX_CATALOG_STARS = 10_000_000


def generate_catalog(n: int, rng: RngStream) -> StarCatalog:
    """Draw ``n`` directions uniformly on the unit sphere (normalized Gaussian triples).

    The triples come from one draw of ``3 n`` deviates. A triple whose norm
    is at most 1e-12 is dropped and the shortfall drawn after the rest, so
    star ``i`` is the ``i``-th usable triple of the stream, as it would be
    if each star drew its own triples.
    """
    if n < 2:
        raise InvalidInput("a catalog needs at least 2 stars")
    if n > _MAX_CATALOG_STARS:
        raise InvalidInput(f"a catalog holds at most {_MAX_CATALOG_STARS} stars")
    stars = np.empty((n, 3))
    k = 0
    while k < n:
        v = rng.gaussian_vec(1.0, 3 * (n - k)).reshape(-1, 3)
        norm = row_norms(v)
        keep = norm > 1e-12
        if not keep.all():
            v, norm = v[keep], norm[keep]
        np.divide(v, norm[:, None], out=stars[k:k + v.shape[0]])
        k += v.shape[0]
    return StarCatalog(stars=stars)


def save_catalog(catalog: StarCatalog, path) -> None:
    """Write one ``x,y,z`` line per star, full float precision."""
    with open(path, "w", encoding="ascii") as f:
        for v in catalog.stars:
            f.write(f"{float(v[0])!r},{float(v[1])!r},{float(v[2])!r}\n")


def load_catalog(path) -> StarCatalog:
    """Read a catalog written by :func:`save_catalog`."""
    try:
        with open(path, "r", encoding="ascii") as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read catalog file: {exc}") from exc
    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise InvalidInput(f"{path}:{lineno}: expected 3 comma-separated values")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
    if len(rows) < 2:
        raise InvalidInput("catalog file holds fewer than 2 stars")
    return StarCatalog(stars=np.array(rows))


def row_norms(v) -> np.ndarray:
    """Euclidean norm of each row of an ``(..., 3)`` array, as ``sqrt(x*x + y*y + z*z)``."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(x * x + y * y + z * z)


def is_visible(body, cam: CameraModel) -> np.ndarray:
    """Mask of the rows of an ``(..., 3)`` body-frame stack strictly inside the head's cone.

    A row is visible when its dot product with the boresight, taken
    elementwise as ``x*bx + y*by + z*bz``, exceeds the cosine of the half
    angle. Boundary equality counts as not visible. Directions behind the
    head never count: its half angle is below pi/2, so the cosine is
    positive.
    """
    v = np.asarray(body, dtype=float)
    bx, by, bz = cam.boresight.tolist()
    return v[..., 0] * bx + v[..., 1] * by + v[..., 2] * bz > math.cos(cam.fov_half_angle)


_RIG_BORESIGHTS = (
    (0.0, 0.0, 1.0),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, -1.0),
    (-1.0, 0.0, 0.0),
    (0.0, -1.0, 0.0),
)


def default_camera_rig(n_cameras: int, fov_half_angle: float):
    """Build 1..6 heads with mutually orthogonal boresights (+z, +x, +y, then negatives)."""
    if not 1 <= n_cameras <= 6:
        raise InvalidInput("camera count must be between 1 and 6")
    return [CameraModel(boresight=b, fov_half_angle=fov_half_angle) for b in _RIG_BORESIGHTS[:n_cameras]]


def observe(q_true, catalog: StarCatalog, cams, sigma_star: float, rng: RngStream) -> ObservationSet:
    """Run the full emulation path for every camera at a stack of epochs, in one array pass.

    ``q_true`` is a stack of true attitudes ``(E, 4)``, one per epoch, or
    one attitude ``(4,)``, observed as a stack of one. The catalog is
    rotated into the body frame for every epoch in one product, which holds
    ``E * len(catalog)`` rows, so the caller bounds that count (a run hands
    it one chunk's tracker epochs; see :mod:`attsim.harness`). Each head's
    cone picks its visible rows. The rows are ordered by epoch, head and
    catalog star, every body direction is perturbed with per-axis Gaussian
    noise of ``sigma_star`` from one draw, in that order, and renormalized:
    the values and the stream state that one call per epoch would give.

    Returns one :class:`ObservationSet` of all the visible stars, whose
    weights are 1 and whose ``counts`` holds the stars visible at each
    epoch; a ``(4,)`` attitude returns its epoch's set with ``counts``
    ``None``, and an empty stack ``(0, 4)`` an empty set with ``counts``
    ``()``, drawing nothing. With ``sigma_star == 0`` every pair satisfies
    ``A(q_true) @ r == b`` to 1e-10.
    """
    if len(cams) == 0:
        raise InvalidInput("at least one camera is required")
    if sigma_star < 0.0:
        raise InvalidInput("sigma_star must be nonnegative")
    q = np.asarray(q_true, dtype=float)
    a_ib = quat_to_matrix(q.reshape(-1, 4))
    n_epochs, n_stars = a_ib.shape[0], len(catalog)
    # column block e of (3, 3 E) is epoch e's inertial-to-body matrix,
    # transposed, so one product rotates the catalog for every epoch
    rotated = catalog.stars @ a_ib.transpose(2, 0, 1).reshape(3, -1)
    body = rotated.reshape(n_stars, n_epochs, 3).transpose(1, 0, 2)  # (epoch, star, 3)
    # one mask per epoch and head, in catalog order: the order of the rows
    visible = np.empty((n_epochs, len(cams), n_stars), dtype=bool)
    for h, cam in enumerate(cams):
        visible[:, h] = is_visible(body, cam)
    rows = np.flatnonzero(visible)
    star = rows % n_stars
    b = body[rows // (len(cams) * n_stars), star]
    if sigma_star > 0.0:
        b += rng.gaussian_vec(sigma_star, b.size).reshape(b.shape)
        b /= row_norms(b)[:, None]
    counts = visible.sum(axis=(1, 2)).tolist() if q.ndim > 1 else None
    return ObservationSet(b=b, r=catalog.stars[star], counts=counts)
