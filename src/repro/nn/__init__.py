"""``repro.nn`` — numpy autograd substrate (PyTorch substitute).

Public surface: :class:`Tensor` with reverse-mode autograd, layer modules,
attention, optimisers and (de)serialisation.  See DESIGN.md for why this
substrate exists.
"""

from . import functional
from .attention import MultiHeadSelfAttention
from .layers import (MLP, Conv2d, ELU, LayerNorm, Linear, Module,
                     Parameter, ReLU, Sequential, Sigmoid, conv_patch_cache,
                     shared_patch_rows)
from .optim import (Adam, ConstantLR, ExponentialDecayLR, LRSchedule, SGD,
                    clip_grad_norm)
from .serialize import save_module
from .tensor import (Tensor, as_tensor, concatenate, grad_enabled,
                     inference_mode, no_grad, ones, stack, unbroadcast, where,
                     zeros)

__all__ = [
    "functional",
    "Tensor", "as_tensor", "concatenate", "stack", "where", "zeros", "ones",
    "no_grad", "inference_mode", "grad_enabled", "unbroadcast",
    "Module", "Parameter", "Linear", "Conv2d", "Sequential",
    "MLP", "LayerNorm", "ReLU", "ELU", "Sigmoid", "conv_patch_cache",
    "shared_patch_rows",
    "MultiHeadSelfAttention",
    "Adam", "SGD", "ConstantLR", "ExponentialDecayLR", "LRSchedule",
    "clip_grad_norm", "save_module",
]
