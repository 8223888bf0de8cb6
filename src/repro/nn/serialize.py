"""Save module parameters with ``np.savez`` — the repo's checkpoint
format for trained models (``np.load`` + ``Module.load_state_dict``
restores one)."""

from __future__ import annotations

import os

import numpy as np

from .layers import Module


def save_module(module: Module, path: str) -> None:
    """Serialise ``module.state_dict()`` to an ``.npz`` file."""
    state = module.state_dict()
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    np.savez(path, **state)
