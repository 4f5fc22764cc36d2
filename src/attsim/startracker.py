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
"""

import math
from dataclasses import dataclass, field
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

    def boresight_in_body(self) -> np.ndarray:
        """Body-frame direction of the camera +z axis."""
        return quat_to_matrix(self.mount).T @ np.array([0.0, 0.0, 1.0])


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


@dataclass
class StarObservation:
    """A matched direction pair: body frame ``b``, inertial frame ``r``."""

    b: np.ndarray
    r: np.ndarray
    weight: float = 1.0


@dataclass(frozen=True)
class ImagePoint:
    x: float
    y: float


def generate_catalog(n: int, rng: RngStream) -> StarCatalog:
    """Draw ``n`` directions uniformly on the unit sphere (normalized Gaussian triples)."""
    if n < 2:
        raise InvalidInput("a catalog needs at least 2 stars")
    stars = np.empty((n, 3))
    for i in range(n):
        while True:
            v = rng.gaussian_vec(1.0, 3)
            norm = math.sqrt(float(v @ v))
            if norm > 1e-12:
                break
        stars[i] = v / norm
    return StarCatalog(stars=stars, seed=rng.seed)


def save_catalog(catalog: StarCatalog, path) -> None:
    """Write one ``x,y,z`` line per star, full float precision."""
    with open(path, "w", encoding="ascii") as f:
        for v in catalog.stars:
            f.write(f"{float(v[0])!r},{float(v[1])!r},{float(v[2])!r}\n")


def load_catalog(path) -> StarCatalog:
    """Read a catalog written by :func:`save_catalog`."""
    rows = []
    with open(path, "r", encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
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


def is_visible(star_cam, cam: CameraModel) -> bool:
    """True when a camera-frame unit vector lies strictly inside the field of view.

    Boundary equality counts as not visible; directions behind the camera
    never count even for wide fields of view.
    """
    z = float(star_cam[2])
    return z > 0.0 and z > math.cos(cam.fov_half_angle)


def project(star_cam, cam: CameraModel) -> ImagePoint:
    """Pinhole projection of a camera-frame direction onto the image plane."""
    x, y, z = float(star_cam[0]), float(star_cam[1]), float(star_cam[2])
    if z <= 1e-12:
        raise BehindImagePlane("direction has no positive boresight component")
    f = cam.focal_length
    return ImagePoint(x=f * x / z, y=f * y / z)


def pixel_to_star_vector(p: ImagePoint, cam: CameraModel) -> np.ndarray:
    """Unit camera-frame direction recovered from an image point."""
    f = cam.focal_length
    v = np.array([p.x, p.y, f])
    return v / math.sqrt(float(v @ v))


def _shortest_arc(a, b) -> np.ndarray:
    """Unit quaternion whose active rotation takes direction ``a`` to ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = float(a @ b)
    c = np.cross(a, b)
    if d < -1.0 + 1e-12:
        # antiparallel: rotate 180 degrees about any perpendicular axis
        axis = np.cross(a, np.array([1.0, 0.0, 0.0]))
        if float(axis @ axis) < 1e-12:
            axis = np.cross(a, np.array([0.0, 1.0, 0.0]))
        axis = axis / math.sqrt(float(axis @ axis))
        return np.array([axis[0], axis[1], axis[2], 0.0])
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


def observe(q_true, catalog: StarCatalog, cams, sigma_star: float, rng: RngStream):
    """Run the full emulation path for every camera at one epoch.

    For each head, catalog stars are rotated into the camera frame through
    the mount composed with the true attitude; visible stars travel through
    projection and image-point inversion, are rotated back to the body
    frame, perturbed with per-axis Gaussian noise of ``sigma_star``, and
    renormalized. Returns the matched StarObservation list (weight 1 each).
    With ``sigma_star == 0`` every pair satisfies ``A(q_true) @ r == b`` to
    1e-10.
    """
    if len(cams) == 0:
        raise InvalidInput("at least one camera is required")
    if sigma_star < 0.0:
        raise InvalidInput("sigma_star must be nonnegative")
    a_ib = quat_to_matrix(q_true)
    out = []
    for cam in cams:
        a_bc = quat_to_matrix(cam.mount)
        a_ic = a_bc @ a_ib
        cam_vecs = catalog.stars @ a_ic.T
        cos_fov = math.cos(cam.fov_half_angle)
        for idx in range(catalog.stars.shape[0]):
            v = cam_vecs[idx]
            if not (v[2] > 0.0 and v[2] > cos_fov):
                continue
            point = project(v, cam)
            recovered = pixel_to_star_vector(point, cam)
            b = a_bc.T @ recovered
            if sigma_star > 0.0:
                b = b + rng.gaussian_vec(sigma_star, 3)
                b = b / math.sqrt(float(b @ b))
            out.append(StarObservation(b=b, r=catalog.stars[idx].copy()))
    return out
