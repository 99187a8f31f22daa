"""The numbers the scenario schema shares with the models, each defined once.

This module imports nothing, so ``scenario`` reads the models' limits without
loading a model module. Each model imports its own names from here, and they
stay in its namespace as well (``channel.ENV_PRESETS``, ``mapsim.MAST_M``).
"""

# channel: the highest modeled UAV altitude, m
MAX_MODELED_ALTITUDE_M = 300.0
# channel: the lowest ground antenna of the 3GPP ground fits: the breakpoint
# and log10 of the antenna height break down under it
MIN_ANTENNA_HEIGHT_M = 1.0

# channel: (varsigma, xi, omega) of the four building-statistics environments
ENV_PRESETS = {
    "suburban": (0.1, 750.0, 8.0),
    "urban": (0.3, 500.0, 15.0),
    "dense_urban": (0.5, 300.0, 20.0),
    "highrise": (0.5, 300.0, 50.0),
}

# channel: environment kind -> (ground ceiling, obstructed ceiling) of the
# slices, m
SLICE_CEILINGS_M = {
    **dict.fromkeys(("suburban", "rural", "open"), (10.0, 40.0)),
    **dict.fromkeys(("urban", "dense_urban", "highrise"), (22.5, 100.0)),
}

# heightmap: every float the package writes, raster and CSV cells
FLOAT_FMT = "%.9g"
# heightmap: largest magnitude of a loaded surface height, m, past Everest
# and the deepest trench; a 1e308 m tower overflowed the LOS clearance
# arithmetic and stopped blocking rays. Synthetic cities stay far below it.
MAX_SURFACE_M = 1e4

# mapsim: default mast height above the roof, m
MAST_M = 5.0

# abs_net: coverage_radius's search cap, m
MAX_RADIUS_M = 1e6

# aue_net: fewest trials a coverage estimate accepts
COVERAGE_MIN_TRIALS = 100
