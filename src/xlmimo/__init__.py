"""Near-field, spatially non-stationary channel synthesis for extremely
large aperture arrays, with a metrics engine and a command-line pipeline.
"""

from ._threads import apply_thread_env as _apply_thread_env

_apply_thread_env()

from .errors import (  # noqa: E402
    ChannelModelError,
    ConfigError,
    GeometryError,
    NumericError,
)
from .geometry import (  # noqa: E402
    SPEED_OF_LIGHT,
    Angles,
    ArrayGeometry,
    Plane,
    angles_from_vector,
    direction_vector,
    mirror_point,
    rayleigh_distance,
    reflect_direction,
)
from .nearfield import (  # noqa: E402
    AntennaPattern,
    NearFieldExpansion,
    PathRecord,
    Stationarity,
    WavefrontModel,
    build_a_tensor,
    expand_path,
    ff_phase_delta,
    nf_path_matrix,
    nf_phase_delta,
)
from .sns import (  # noqa: E402
    AAFStatParams,
    ACFSeries,
    acf,
    build_aaf_matrix,
    fit_dcorr,
    generate_aaf,
    identify_sns,
    sample_aaf_params,
)
from .channel import (  # noqa: E402
    VARIANTS,
    FrequencyGrid,
    PathTable,
    assemble,
    build_variant_aaf,
    multi_user,
    path_table,
    random_visibility_interval,
    reference_response,
    vr_aaf,
)
from .metrics import (  # noqa: E402
    avg_spatial_correlation,
    cvm_distance,
    demmel_condition,
    entropy_capacity,
    multiuser_trials,
    path_gain_db,
    rician_k_db,
    rms_delay_spread,
    sns_amplitude_matrix,
)

__version__ = "0.1.0"
