"""Near-field, spatially non-stationary channel synthesis for extremely
large aperture arrays, with a metrics engine and a command-line pipeline.
"""

from ._threads import apply_thread_env as _apply_thread_env
from .errors import (
    ChannelModelError,
    ConfigError,
    GeometryError,
    NumericError,
)

try:
    _apply_thread_env()
except ConfigError:
    pass  # importing stays possible; cli.main reports the value with exit 2

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
    nf_path_matrix,
)
from .sns import (  # noqa: E402
    AAFStatParams,
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
