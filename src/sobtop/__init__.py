"""sobtop: detection, quantification and removal of topological singularities
of discretized sphere-valued Sobolev maps."""

from .builtins import builtin_field, hopf_fibration, homogeneous_from_loop
from .detectors import (
    DetectorField,
    FugledeVerdict,
    fuglede_check,
    maximal_function_detector,
    power_distance_detector,
    translation_average,
)
from .fieldfile import read_field, write_field
from .fields import (
    GridField,
    Mollifier,
    OscillationReport,
    SampledSphereMap,
    circle_lift,
    finite_difference,
    fractional_seminorm,
    mean_oscillation,
    project_to_sphere,
    restrict_to_curve,
    sobolev_distance,
    sobolev_norm,
)
from .geometry import (
    BoundaryParam,
    Box,
    Cubication,
    Face,
    Piece,
    StructuredSingularSet,
    TriangulatedSphere,
    distance_to_set,
    standard_disk_boundaries,
    unit_box,
)
from .hopf import DECSphere3, hopf_linking, hopf_whitehead
from .invariants import (
    CurrentReport,
    TestForm,
    cell_degree_sweep,
    extendability_oracle,
    hurewicz_degree,
    jacobian_pairing,
    pullback_degree,
    test_form_battery,
    winding_degree,
)
from .pipeline import (
    Classification,
    OpeningMap,
    PipelineParams,
    PipelineReport,
    RadialProfile,
    adaptive_smooth,
    apply_shrinking,
    apply_thickening,
    classify_cubes,
    extend_or_keep,
    open_at_point,
    open_on_skeleton,
    run_pipeline,
    shrinking_profile,
    thickening_profile,
)

__version__ = "0.1.0"
