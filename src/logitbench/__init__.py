"""Desk-scale workbench for studying softmax overconfidence: trains small
classifiers with cross-entropy, logit-norm, and logit-penalty losses, scores
inputs with four post-hoc OOD detectors, and reports detection/calibration
metrics."""

from .data import (LabeledDataset, corrupt_labels, gen_blobs, gen_ood,
                   load_delimited, split)
from .errors import (AllSeedsDiverged, ConfigError, DataError, DivergedError,
                     ShapeError)
from .harness import (BenchmarkRow, ExperimentConfig, config_from_dict,
                      config_hash, emit_histogram_data, load_config,
                      run_calibration, run_experiment, sweep_tau)
from .losses import LossConfig, logitnorm_lower_bound, loss_and_grad
from .metrics import (CalibrationReport, DetectionReport, aupr, auroc, ece,
                      fit_temperature, fpr_at_tpr)
from .model import (MlpModel, forward, init_model, load_checkpoint,
                    save_checkpoint)
from .optimizer import EpochTelemetry, OptimConfig, lr_at, train
from .scores import (ScoreConfig, dump_records, read_scores, score_batch,
                     write_scores)
from .tensor import (Matrix2D, row_l2_norm, rowwise_softmax,
                     use_one_blas_thread)

__version__ = "0.1.0"
