"""Emulated star catalog and pinhole star-tracker heads.

A tracker head is an ideal pinhole camera described by a focal length, a
half-angle field of view, and a mount quaternion taking body coordinates
to camera coordinates (camera boresight is +z in the camera frame). The
observation pipeline projects each catalog star that falls inside the
field of view onto the image plane, recovers the unit direction from the
image point, rotates it back into the body frame, and perturbs it with
per-axis Gaussian noise before renormalizing. Star identification is
assumed perfect: every body-frame vector is paired with the true catalog
direction. Stars are pure directions; parallax from the spacecraft
position is far below sensor noise and is ignored.

An epoch's stars travel as one :class:`ObservationSet`: the body and
inertial directions as ``(m, 3)`` arrays and the weights as ``(m,)``, one
row per star. :func:`observe` takes a stack of ``E`` epoch attitudes (a
chunk of a run's tracker epochs) and builds all their sets in one array
pass: per head, one product rotates the catalog for every epoch, one
``(n, E)`` field-of-view mask (:func:`is_visible`) picks the visible rows
of all epochs, which go through the projection, its inversion and the
rotation to body together; then the rows are put in epoch, head and
catalog order and take their noise from one draw, in the order a loop over
the epochs, heads and visible stars would draw it. Each epoch's set is a
view of these packed rows, and equals bit for bit what observing that
epoch alone gives. Rows are normalized with the elementwise
``x*x + y*y + z*z``, not a BLAS dot product, whose rounding depends on the
kernel the BLAS library picks for the CPU.
"""

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

import numpy as np

from .attitude import quat_norm, quat_normalize, quat_to_matrix
from .errors import BehindImagePlane, InvalidInput
from .numerics import RngStream


@dataclass(frozen=True)
class CameraModel:
    """Pinhole tracker head.

    Args:
        focal_length: image-plane distance, in the same units as image
            point coordinates.
        fov_half_angle: half-angle of the circular field of view [rad],
            strictly between 0 and pi/2.
        mount: unit quaternion taking body coordinates to camera coordinates.
    """

    focal_length: float
    fov_half_angle: float
    mount: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 0.0, 1.0]))

    def __post_init__(self):
        if self.focal_length <= 0.0:
            raise InvalidInput("focal length must be positive")
        if not 0.0 < self.fov_half_angle < 0.5 * math.pi:
            raise InvalidInput("field-of-view half angle must be in (0, pi/2)")
        mount = np.asarray(self.mount, dtype=float)
        if abs(quat_norm(mount) - 1.0) > 1e-6:
            raise InvalidInput("mount quaternion must be unit norm")
        object.__setattr__(self, "mount", mount)


@dataclass(frozen=True)
class StarCatalog:
    """Unit direction vectors in the inertial frame, plus the generating seed."""

    stars: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        stars = np.asarray(self.stars, dtype=float)
        if stars.ndim != 2 or stars.shape[1] != 3:
            raise InvalidInput("catalog must be an (n, 3) array")
        norms = np.sqrt((stars * stars).sum(axis=1))
        if np.any(np.abs(norms - 1.0) > 1e-9):
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
    """Matched direction pairs, one row per star.

    Args:
        b: body-frame unit directions, ``(m, 3)``.
        r: inertial-frame unit directions, ``(m, 3)``, row ``i`` paired with
            ``b[i]``.
        weights: ``(m,)`` weights; all 1 when omitted.
    """

    b: np.ndarray
    r: np.ndarray
    weights: Optional[np.ndarray] = None

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
    return StarCatalog(stars=stars, seed=rng.seed)


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


def is_visible(star_cam, cam: CameraModel) -> np.ndarray:
    """Mask of the rows of an ``(n, 3)`` camera-frame stack strictly inside the field of view.

    Boundary equality counts as not visible. Directions behind the camera
    never count: a head's half angle is below pi/2, so its cosine is positive.
    """
    return np.asarray(star_cam, dtype=float)[..., 2] > math.cos(cam.fov_half_angle)


def project(star_cam, cam: CameraModel) -> np.ndarray:
    """Pinhole projection of an ``(m, 3)`` camera-frame stack: ``(m, 2)`` image points."""
    v = np.asarray(star_cam, dtype=float)
    z = v[..., 2:3]
    if np.any(z <= 1e-12):
        raise BehindImagePlane("direction has no positive boresight component")
    return cam.focal_length * v[..., :2] / z


def pixel_to_star_vector(points, cam: CameraModel) -> np.ndarray:
    """Unit camera-frame directions, ``(m, 3)``, recovered from ``(m, 2)`` image points."""
    p = np.asarray(points, dtype=float)
    v = np.empty(p.shape[:-1] + (3,))
    v[..., :2] = p
    v[..., 2] = cam.focal_length
    return v / row_norms(v)[..., None]


def _shortest_arc(a, b) -> np.ndarray:
    """Unit quaternion whose active rotation takes direction ``a`` to ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])
    c = np.cross(a, b)
    if d < -1.0 + 1e-12:
        # antiparallel: rotate 180 degrees about any perpendicular axis
        x, y, z = np.cross(a, np.array([1.0, 0.0, 0.0])).tolist()
        if x * x + y * y + z * z < 1e-12:
            x, y, z = np.cross(a, np.array([0.0, 1.0, 0.0])).tolist()
        n = math.sqrt(x * x + y * y + z * z)
        return np.array([x / n, y / n, z / n, 0.0])
    q = np.array([c[0], c[1], c[2], 1.0 + d])
    return quat_normalize(q)


_RIG_BORESIGHTS = (
    (0.0, 0.0, 1.0),
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, -1.0),
    (-1.0, 0.0, 0.0),
    (0.0, -1.0, 0.0),
)


def default_camera_rig(n_cameras: int, fov_half_angle: float, focal_length: float):
    """Build 1..6 heads with mutually orthogonal boresights (+z, +x, +y, then negatives)."""
    if not 1 <= n_cameras <= 6:
        raise InvalidInput("camera count must be between 1 and 6")
    cams = []
    for target in _RIG_BORESIGHTS[:n_cameras]:
        mount = _shortest_arc(np.array([0.0, 0.0, 1.0]), np.array(target))
        cams.append(CameraModel(focal_length=focal_length, fov_half_angle=fov_half_angle, mount=mount))
    return cams


# most rotated catalog rows observe holds per head at once (768 KiB): the
# epochs of a stack are rotated in groups of at most this many rows
_ROTATED_ROWS = 1 << 15


def observe(q_true, catalog: StarCatalog, cams, sigma_star: float, rng: RngStream):
    """Run the full emulation path for every camera at a stack of epochs, in one array pass.

    ``q_true`` is a stack of true attitudes ``(E, 4)``, one per epoch, or
    one attitude ``(4,)``, observed as a stack of one. For each head, the
    catalog is rotated into the camera frame through the mount composed
    with every epoch's attitude at once; the visible stars of all epochs
    travel through projection and image-point inversion and are rotated
    back to the body frame. The rows are then ordered by epoch, head and
    catalog star, every body direction is perturbed with per-axis Gaussian
    noise of ``sigma_star`` from one draw, in that order, and renormalized:
    the values and the stream state that one call per epoch would give.

    Returns one :class:`ObservationSet` per epoch, in order (views of the
    packed rows), whose length is the number of stars visible at that
    epoch and whose weights are 1; a ``(4,)`` attitude returns its set
    alone. With ``sigma_star == 0`` every pair satisfies
    ``A(q_true) @ r == b`` to 1e-10.
    """
    if len(cams) == 0:
        raise InvalidInput("at least one camera is required")
    if sigma_star < 0.0:
        raise InvalidInput("sigma_star must be nonnegative")
    q = np.asarray(q_true, dtype=float)
    a_ib = quat_to_matrix(q.reshape(-1, 4))
    n_epochs, n_stars = a_ib.shape[0], len(catalog)
    group = max(1, _ROTATED_ROWS // n_stars)
    counts = np.zeros(n_epochs, dtype=int)
    bs, rs, epochs = [], [], []
    for cam in cams:
        a_bc = quat_to_matrix(cam.mount)
        # column block e of (3, 3 E) is epoch e's inertial-to-camera matrix,
        # transposed, so one product rotates the catalog for every epoch
        a_ci = (a_bc @ a_ib).transpose(2, 0, 1)
        for lo in range(0, n_epochs, group):
            hi = min(lo + group, n_epochs)
            cam_vecs = (catalog.stars @ a_ci[:, lo:hi].reshape(3, -1)).reshape(n_stars, hi - lo, 3)
            visible = is_visible(cam_vecs, cam)
            rows = np.flatnonzero(visible.T)  # epoch-major, catalog order within an epoch
            epoch, star = rows // n_stars, rows % n_stars
            recovered = pixel_to_star_vector(project(cam_vecs[star, epoch], cam), cam)
            bs.append(recovered @ a_bc)
            rs.append(catalog.stars[star])
            epochs.append(epoch + lo)
            counts[lo:hi] += visible.sum(axis=0)
    # heads were visited in turn, so a stable sort by epoch leaves each
    # epoch's rows head by head, in catalog order within a head
    order = np.argsort(np.concatenate(epochs), kind="stable")
    b = np.concatenate(bs)[order]
    r = np.concatenate(rs)[order]
    if sigma_star > 0.0:
        b += rng.gaussian_vec(sigma_star, b.size).reshape(b.shape)
        b /= row_norms(b)[:, None]
    weights = np.ones(b.shape[0])
    bounds = [0, *accumulate(counts.tolist())]
    sets = [
        ObservationSet(b=b[lo:hi], r=r[lo:hi], weights=weights[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return sets if q.ndim > 1 else sets[0]
