"""Desk-scale masked-autoencoder pipeline for cough-audio representation learning.

Submodules:
    dsp         WAV decoding, resampling, log-mel features, manifests, synthetic corpus
    tensor      float64 reverse-mode autodiff and finite-difference checking
    optim       AdamW plus the warmup/cosine schedule
    vit         patch embedding, sinusoidal positions, transformer encoder
    mae         masking, shifted-window decoder, reconstruction loss, pretraining
    finetune    pooling, classifier head, AUROC, k-fold cross-validation
    segment     sliding-window event detection and F1 scoring
    workers     ordered worker threads with OpenBLAS at one thread
    checkpoint  versioned binary parameter format
    config      strict JSON run configuration
    cli         command-line entry points
"""

__version__ = "0.1.0"
