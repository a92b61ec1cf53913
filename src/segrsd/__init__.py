"""Unsupervised temporal segmentation and remaining-duration regression."""

__version__ = "0.1.0"
