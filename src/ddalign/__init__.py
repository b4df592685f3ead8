"""Semi-supervised domain adaptation with dynamically weighted kernel alignment.

A labeled source domain and an unlabeled target domain are aligned during
training through two Gaussian-kernel statistics: the marginal discrepancy
between embedding clouds and its class-conditional variant fed by
confidence-filtered pseudo-labels. Scheduled weights trade the two off as
the classifier matures.
"""

from .data import (
    FeatureDataset,
    SubjectDataset,
    SynthShiftConfig,
    generate_synth_shift,
    load_checkpoint,
    load_dataset,
    load_features,
    save_checkpoint,
    save_features,
)
from .evaluation import (
    Metrics,
    ProtocolSummary,
    dump_embeddings,
    evaluate,
    loso_split,
    run_protocol,
    run_synth_protocol,
)
from .features import (
    DEFAULT_BANDS,
    BandSpec,
    RawWindow,
    band_variance,
    build_feature_matrix,
    differential_entropy,
)
from .net import (
    ModelParams,
    backward,
    cross_entropy,
    forward_features,
    forward_logits,
    init_params,
)
from .schedules import (
    ScheduleConfig,
    alpha_at,
    beta_of,
    confidence_threshold,
    learning_rate,
)
from .trainer import (
    VARIANTS,
    AblationFlags,
    TrainConfig,
    sgd_step,
    train,
)

__version__ = "0.1.0"
