"""seu-forge: single-event-upset robustness toolkit for encoder-decoder
segmentation CNNs.

Bit-exact float and integer-quantized inference over a serializable layer
graph, statistically sized bit-flip campaigns, layer/bit sensitivity
analysis, and zero-overhead parameter-hardening transforms.
"""

__version__ = "0.1.0"

from .tensor import (INVALID_CLASS, BnParams, ShapeError, Tensor,
                     argmax_channels, batchnorm_forward, concat_channels,
                     conv2d_forward, conv2d_transpose_forward, maxpool2d, relu)
from .model import (DEFAULT_TARGET_ROLES, FormatError, LayerSpec, ModelGraph,
                    ParamSet, ROLES, batch_inputs, build_unet,
                    generate_calibration_set, generate_toy_weights,
                    infer_shapes, load_model, model_hash, save_model)
from .engine import InferenceResult, run_float, run_quantized
from .bits import flip_bit_f32, flip_bit_int
from .faults import (FaultOutcome, FaultSpec, FaultToken, apply_fault,
                     fault_space_size, inject_and_measure, revert)
from .campaign import (CampaignPlan, MetricBundle, MultiBitResult, SweepResult,
                       error_rate, golden_class_shares, plan_multi_bit_campaign,
                       plan_single_bit_sweep, predict_bit30_error,
                       predict_sign_bit_error_quantized, run_multi_bit_campaign,
                       run_single_bit_sweep, sample_size, segmentation_metrics,
                       weighted_bit_error)
from .compress import fold_bn, prune_structured, quantize_ptq, sparse_zero
from .analysis import (LayerStats, bits_needed_table, calibration_report,
                       capture_parameter_stats, correlate, positive_ratio_table,
                       risky_exponent_scan, risky_pattern_count)
from .protect import (AbsorptionError, CandidateClass, EqualizationError,
                      PT_LEVELS, ProtectionReport, ProtectionTarget,
                      absorb_bias, classify_candidate, cross_layer_equalize,
                      evaluate_protection, protect_parameters, recondition_bn,
                      suggest_cle_scales)
