"""Multimodal locomotion modes for a desk-scale planar biped.

The pipeline: author rough keyframe reference motions, compress each into a
fixed-length latent mode with an LSTM autoencoder, train one latent-conditioned
PPO policy with adaptive mode/transition sampling in the planar biped
simulator, and compose trained modes into open-loop plans with tabular
Q-learning to reach goals over gap, plateau, and block terrains.
"""

from .encoder import (
    DecoderParams,
    EncoderParams,
    EncoderTrainConfig,
    decode,
    encode,
    reconstruction_loss,
    train_autoencoder,
)
from .planner import ModePlan, PlannerConfig, parallel_trials, plan_rollout, q_learn
from .policy import PolicyParams, PpoConfig, Trajectory, evaluate_modes, ppo_update, rollout
from .refmotion import (
    ContactPhase,
    Keyframe,
    ModeLibrary,
    ReferenceMotion,
    apply_contact_schedule,
    builtin_library,
    interpolate_keyframes,
)
from .sampler import EpisodeScript, SamplerState, returns_to_probs, sample_script, update_records
from .sim import RewardConfig, RobotConfig, SimState, Terrain, observe, reward, step
from .training import TrainConfig, run_training

__version__ = "0.1.0"
