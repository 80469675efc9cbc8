"""Spatial search substrate: the bucket grid."""

from .grid import BucketGrid

__all__ = ["BucketGrid"]
