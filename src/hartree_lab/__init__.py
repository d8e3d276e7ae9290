"""Radial numerical laboratory for the 3D focusing generalized Hartree
equation with a potential: ground states, sharp constants, structure-
preserving evolution, and Morawetz/virial diagnostics."""

__version__ = "0.1.0"

from .exponents import ModelParams, critical_exponent, ab_exponents
from .grid import RadialGrid, RadialField, FieldState
from .riesz import RieszKernel, build_kernel
from .potentials import PotentialSpec, audit_hypotheses, energy
from .groundstate import GroundStateResult, solve_ground_state, pohozaev_check
from .evolve import EvolveConfig, Trajectory, evolve
from .morawetz import (MorawetzWeight, build_weight, quadratic_weight,
                       morawetz_z, morawetz_zpp, coercivity_check,
                       morawetz_average, scattering_monitor)
from .scenario import Scenario, parse_scenario, run_scenario, sweep
