"""Air-to-ground channel models and UAV network performance toolkit."""

from .antenna_geometry import (
    ConeUav,
    OmniUav,
    Position3D,
    SectorAntenna,
    bs_gain_db,
    uav_gain_linear,
)
from .channel import (
    Environment,
    LogDistance,
    PropagationSlice,
    averaged_pl_db,
    dense_urban,
    free_space_pl_db,
    highrise,
    log_distance_pl_db,
    p_los_3gpp,
    p_los_building,
    pl_3gpp_rural_db,
    sample_link_loss_db,
    shadowing_sigma_db,
    slice_of,
    suburban,
    urban,
)
from .abs_net import (
    AbsDesign,
    AbsProfile,
    coverage_radius,
    design_rows,
    optimize_altitude,
    outage,
    power_gain,
    required_power,
    sum_rate,
    sum_rate_gain,
    urban_abs_profile,
)
from .aue_net import (
    AueNetworkConfig,
    NetworkSnapshot,
    ase,
    capacity,
    coverage_probability_mc,
    deploy_hppp,
    sinr_samples,
    snapshot_sinr,
    sweep,
)
from .heightmap import (
    HeightMap,
    building_stats,
    load_ascii_grid,
    los_check,
    los_mask,
    save_ascii_grid,
    synthetic_city,
)
from .localization import (
    AnchorPlan,
    ElevationChannel,
    LocalizationScenario,
    localization_error,
    multilaterate,
    place_anchors,
    run_campaign,
    sample_rss_distance,
)
from .mapsim import (
    MapSimConfig,
    SectorSite,
    coverage_vs_altitude,
    sinr_grid,
    site_on_roof,
)
from .numerics import (
    FadingModel,
    Nakagami,
    Rayleigh,
    Rician,
    RngStream,
    chebyshev_capacity_nodes,
    inv_marcum_q,
    marcum_q,
    sample_fading,
    sample_shadowing_db,
)
from .scenario import Scenario, load_scenario, parse_scenario, serialize_scenario

__version__ = "0.1.0"
