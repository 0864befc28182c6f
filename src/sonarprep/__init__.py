"""Passive-sonar spectrogram preprocessing, augmentation, and training."""

__version__ = "0.1.0"
