"""Deterministic 2D conversation-group simulation and policy learning:
a force-field group model, a robot-joins-the-group environment with a shaped
reward, CEM/PPO trainers, spatial-feature math, and an evaluation CLI."""

__version__ = "0.1.0"
