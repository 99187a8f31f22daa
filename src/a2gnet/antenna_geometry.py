"""3D placement and the two antenna models.

Conventions: x east, y north, h up (meters). Azimuth is measured from north
(+y), clockwise toward east, in radians. Elevation is positive above the
horizon. The conical UAV antenna keeps its opening angle in degrees because
the 29000/phi_B^2 gain idiom presumes degrees; every other angle is radians.
There is no link record: callers take d_h, d_3d and the elevation of their
links on arrays, and the channel models take those numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import DomainError, check_number
from .numerics import db_to_linear


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    h: float  # height above ground, m

    def __post_init__(self):
        check_number(self.x, "x")
        check_number(self.y, "y")
        check_number(self.h, "h", minimum=0.0)


# ---------------------------------------------------------------------------
# Tilted sector base-station antenna
# ---------------------------------------------------------------------------

# bearings of a three-sector site's sectors from its first sector, rad
SECTOR_OFFSETS = np.array([0.0, 2.0, 4.0]) * math.pi / 3.0


@dataclass(frozen=True)
class SectorAntenna:
    """Separable azimuth/elevation sector pattern with electrical downtilt.

    Attenuation in each plane is min(12 (off/bw)^2, floor) dB and the total
    is floored at `sidelobe_floor_db` below the peak. When the elevation
    beamwidth is not given it is estimated from gain and azimuth beamwidth
    via the 31000/(G0 phi3) rule used for sectoral reference patterns.
    """

    electrical_tilt: float = math.radians(8)  # rad, downward positive
    max_gain_dbi: float = 16.0
    beamwidth_3db: float = math.radians(65)   # rad, azimuth plane
    sidelobe_floor_db: float = 20.0           # max attenuation below peak
    elevation_beamwidth_3db: Optional[float] = None  # rad; None -> estimated

    def __post_init__(self):
        check_number(self.electrical_tilt, "electrical_tilt")
        check_number(self.max_gain_dbi, "max_gain_dbi")
        for name in ("beamwidth_3db", "sidelobe_floor_db"):
            check_number(getattr(self, name), name, above=0.0)
        if self.elevation_beamwidth_3db is not None:
            check_number(self.elevation_beamwidth_3db, "elevation_beamwidth_3db", above=0.0)

    @property
    def elevation_beamwidth(self) -> float:
        if self.elevation_beamwidth_3db is not None:
            return self.elevation_beamwidth_3db
        phi3_deg = math.degrees(self.beamwidth_3db)
        gain = db_to_linear(-self.max_gain_dbi, "max_gain_dbi")
        theta3_deg = 31000.0 * gain / phi3_deg
        return math.radians(min(max(theta3_deg, 2.0), phi3_deg))


def _wrap_angle(a):
    """a wrapped into [-pi, pi], bit for bit as (a + pi) % (2 pi) - pi.

    fmod keeps the sign of a + pi, so negative remainders move up by 2 pi;
    the others gain +0.0, which only turns -0.0 into +0.0, and both give -pi.
    """
    r = np.fmod(np.asarray(a) + np.pi, 2.0 * np.pi)
    r += (r < 0.0) * (2.0 * np.pi)
    return r - np.pi


def azimuth_attenuation_db(ant, azimuth):
    """The azimuth-plane attenuation of the sector pattern, dB, toward an
    azimuth measured from the sector's boresight bearing. ant is a
    SectorAntenna, or any record of its fields as arrays that broadcast."""
    return np.minimum(12.0 * (_wrap_angle(azimuth) / ant.beamwidth_3db) ** 2,
                      ant.sidelobe_floor_db)


def sector_gain_db(ant, a_az, elevation):
    """Sector gain (dBi) from a direction's azimuth attenuation a_az (see
    azimuth_attenuation_db) and its elevation; ant as there.

    The pattern peak sits at azimuth 0 and `electrical_tilt` below the
    horizon, and never drops below max_gain_dbi - sidelobe_floor_db.
    """
    dele = np.asarray(elevation, dtype=float) + ant.electrical_tilt
    a_el = np.minimum(12.0 * (dele / ant.elevation_beamwidth) ** 2,
                      ant.sidelobe_floor_db)
    return ant.max_gain_dbi - np.minimum(a_az + a_el, ant.sidelobe_floor_db)


# ---------------------------------------------------------------------------
# UAV-side antenna
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmniUav:
    gain_dbi: float = 2.15

    def __post_init__(self):
        check_number(self.gain_dbi, "gain_dbi")

    @property
    def gain_linear(self) -> float:
        return db_to_linear(self.gain_dbi, "gain_dbi")


@dataclass(frozen=True)
class ConeUav:
    """Ideal cone: gain 29000/phi_B^2 inside the main lobe, zero outside.

    phi_b_deg is the full opening angle in degrees; phi_t tilts the cone
    axis away from straight down, toward azimuth 0 (north). The idealized
    pattern radiates about 55% of the spherical power budget at every
    opening angle, so it never claims over-unity directivity.
    """

    phi_b_deg: float
    phi_t: float = 0.0         # rad from nadir

    def __post_init__(self):
        check_number(self.phi_b_deg, "phi_b_deg", above=0.0, maximum=180.0)
        check_number(self.phi_t, "phi_t")

    @property
    def gain_linear(self) -> float:
        return 29000.0 / self.phi_b_deg ** 2


UavAntenna = Union[OmniUav, ConeUav]


def uav_gain_linear(ant: UavAntenna, azimuth, elevation):
    """UAV antenna gain (linear) toward (azimuth, elevation) arrays of
    directions, an array of their broadcast shape."""
    if isinstance(ant, OmniUav):
        shape = np.broadcast(np.asarray(azimuth), np.asarray(elevation)).shape
        return np.full(shape, ant.gain_linear)
    if not isinstance(ant, ConeUav):
        raise DomainError(f"unknown UAV antenna {ant!r}")
    # angle between each direction and the cone axis, tilted phi_t from
    # nadir toward azimuth 0
    el_axis = ant.phi_t - 0.5 * math.pi
    az = np.asarray(azimuth, dtype=float)
    el = np.asarray(elevation, dtype=float)
    cos_sep = (np.sin(el) * math.sin(el_axis)
               + np.cos(el) * math.cos(el_axis) * np.cos(az))
    sep = np.arccos(np.clip(cos_sep, -1.0, 1.0))
    inside = sep <= math.radians(ant.phi_b_deg) / 2.0
    return np.where(inside, ant.gain_linear, 0.0)
