"""Deterministic 2D conversation-group simulation and policy learning:
a force-field group model, a robot-joins-the-group environment with a shaped
reward, CEM/PPO trainers, spatial-feature math, and an evaluation CLI."""

from .config import (ConfigError, EpisodeConfig, FullConfig, TrainConfig,
                     config_hash, default_config, load_config, save_config)
from .env import (ApproachEnv, EpisodeDoneError, encode_observation,
                  observation_length)
from .forces import (ForceBreakdown, OSpace, combined_force, estimate_ospace,
                     field_at)
from .geometry import (AgentState, ProxemicsConfig, Role, SimulationFault,
                       Vec2, WorldConfig, advance, wall_distances,
                       wrap_angle)
from .groups import (GroupSpawnSpec, ShaGains, SpawnError, sha_commands,
                     spawn_episode)
from .metrics import CompareReport, SocialMetrics, compute_metrics, run_compare
from .policies import (NetworkPolicy, PolicyParams, RandomPolicy, SffmPolicy,
                       load_checkpoint, make_policy, save_checkpoint,
                       sffm_baseline_policy)
from .rewards import (RewardBreakdown, RewardWeights, group_forming_increment,
                      non_increasing_increment, sha_disturbance_increment,
                      success_bonus, time_penalty_increment, total_reward)
from .training import (GradientCheckError, TrainReport, ewma, make_env,
                       relative_performance, rollout, train, train_cem,
                       train_ppo)

__version__ = "0.1.0"
