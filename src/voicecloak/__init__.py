"""Adversarial speaker protection: perturb speech so embedding encoders misjudge it."""

from .attack import (
    AttackConfig, AttackResult, ProtectionReport, embed, fgsm, ifgsm, protect_utterance,
)
from .audio_io import Waveform, add_gaussian_noise, read_wav, write_wav
from .encoder import (
    EncoderConfig,
    WeightStore,
    cosine_loss,
    forward,
    init_random,
    load_weights,
    save_weights,
)
from .metrics import compute_eer, parse_trials, score_trials, similarity_matrix, snr_db
from .spectral import log_mel, mel_matrix

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "AttackResult",
    "EncoderConfig",
    "ProtectionReport",
    "Waveform",
    "WeightStore",
    "add_gaussian_noise",
    "compute_eer",
    "cosine_loss",
    "embed",
    "fgsm",
    "forward",
    "ifgsm",
    "init_random",
    "load_weights",
    "log_mel",
    "mel_matrix",
    "parse_trials",
    "protect_utterance",
    "read_wav",
    "save_weights",
    "score_trials",
    "similarity_matrix",
    "snr_db",
    "write_wav",
]
