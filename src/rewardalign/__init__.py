"""Reward-aligned sampling from base distributions under two geometries:
KL (log-sum-exp envelopes over mixtures of linear exponential tilts) and
Wasserstein (proximal transport pushforwards)."""

__version__ = "0.1.0"

from .errors import (BudgetError, CapabilityError, ConfigurationError,
                     EnvelopeViolationError, NumericalError, RewardAlignError,
                     ValidationError)
from .models import (DiscreteModel, GaussianMixtureModel, SampleBatch,
                     ScoreOracle, load_model, model_from_dict, noised_params,
                     project_ball, sample_exact, sample_via_diffusion, score,
                     score_oracle)
from .rewards import (LinearReward, LogSumExpReward, LowDimFunction,
                      LowRankReward, QuadraticReward, first_order,
                      load_reward, make_max_affine, reward_from_dict)
from .tilts import (NormalizerEstimate, estimate_normalizer,
                    sample_linear_tilt, tilt_exact, tilted_score)
from .kl_align import (Alg1Params, Envelope, MixtureProposal, Net,
                       build_envelope, build_net, build_proposal,
                       compute_params, sample_kl_aligned)
from .w2_align import (Alg2Params, LowRankDecomp, alg2_prox, objective_value,
                       prox_concave, prox_map, prox_max_affine, prox_quadratic,
                       sample_w2_aligned)
from . import metrics
