"""Probes of learner state and run directories shared by the test modules (``from conftest import ...``)."""

import copy
import os

import numpy as np


def bits(value):
    """A value as the bits it holds: an array as its dtype, shape and bytes,
    a float as its hex form (so -0.0 is not 0.0), a list or tuple item by item."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return copy.deepcopy(value)


def expert_state(ex):
    """Every attribute of an expert, as its ``bits``."""
    return {name: bits(v) for name, v in vars(ex).items()}


def run_dir_bytes(path):
    """Every file of a run directory, by name, as its bytes."""
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}
