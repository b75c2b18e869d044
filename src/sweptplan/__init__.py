"""Swept-volume-aware trajectory planning and tracking for multi-axle swerve vehicles."""

from .drivetrain import WheelCommand, allocate, reconstruct_twist
from .geometry import Pose2, SdfResult, VehicleParams, footprint_sdf_with_grad
from .minco import Boundary, MincoTrajectory, build_minco
from .mpc import MpcConfig, MpcProblem, build_qp, mpc_step, solve_qp
from .planner import PlanOptions, PlannerWeights, PlanReport, optimize_stage1, optimize_stage2
from .sim import MetricsReport, SimConfig, SimTrace, compute_metrics, plant_step, run_closed_loop
from .sweptfield import (
    AreaReport,
    LinearPosePath,
    SweptField,
    compute_swept_field,
    excess_area,
    min_time_distance,
    swept_area,
)
from .worldmodel import Box, Disc, GridMap, InitialTrajectory, astar_plan, estimate_headings, rasterize_obstacles

__version__ = "0.1.0"

__all__ = [
    "AreaReport",
    "Boundary",
    "Box",
    "Disc",
    "GridMap",
    "InitialTrajectory",
    "LinearPosePath",
    "MetricsReport",
    "MincoTrajectory",
    "MpcConfig",
    "MpcProblem",
    "PlanOptions",
    "PlannerWeights",
    "PlanReport",
    "Pose2",
    "SdfResult",
    "SimConfig",
    "SimTrace",
    "SweptField",
    "VehicleParams",
    "WheelCommand",
    "allocate",
    "astar_plan",
    "build_minco",
    "build_qp",
    "compute_metrics",
    "compute_swept_field",
    "estimate_headings",
    "excess_area",
    "footprint_sdf_with_grad",
    "min_time_distance",
    "mpc_step",
    "optimize_stage1",
    "optimize_stage2",
    "plant_step",
    "rasterize_obstacles",
    "reconstruct_twist",
    "run_closed_loop",
    "solve_qp",
    "swept_area",
]
