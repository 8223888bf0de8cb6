"""Neural-network modules: the layer zoo used by the Gen-NeRF models.

Provides a torch-like ``Module`` tree with named parameters, plus the
concrete layers the paper's models need — ``Linear`` (the MLP ``f`` and
Ray-Mixer are FC stacks), ``Conv2d`` (the CNN encoder ``E`` over source
views), ``LayerNorm`` (ray transformer blocks), and containers.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import (Tensor, _node, _plain, as_tensor, grad_enabled,
                     no_grad)


class Parameter(Tensor):
    """A tensor registered as trainable state of a :class:`Module`.

    ``version`` counts value updates: optimisers bump it for every
    parameter they actually change (a parameter whose gradient was
    ``None`` keeps its version), and :meth:`Module.load_state_dict`
    bumps every loaded parameter.  Caches over derived quantities
    (e.g. the scene-level encoded-feature cache in
    :mod:`repro.models.training`) compare version tuples to decide
    staleness instead of re-hashing array contents.
    """

    def __init__(self, data):
        super().__init__(data, requires_grad=True)
        self.version = 0

    def bump_version(self) -> None:
        self.version += 1


class Module:
    """Base class with parameter registration and traversal.

    Subclasses assign :class:`Parameter` and ``Module`` instances as
    attributes; ``named_parameters`` walks the tree in declaration order,
    which makes ``state_dict`` layouts stable across runs.
    """

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True
        self._inference = False

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        if mode:
            self._inference = False
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def eval_inference(self, mode: bool = True) -> "Module":
        """Switch to eval *and* arm the inference fast path.

        Every subsequent ``module(...)`` call runs its forward under
        :class:`repro.nn.inference_mode`: ops skip graph construction,
        ``requires_grad`` propagation, and backward-closure allocation,
        while the forward values stay bit-identical to the grad-enabled
        path.  ``module.train()`` disarms it.
        """
        self.train(False)
        stack = [self]
        while stack:
            module = stack.pop()
            module._inference = mode
            stack.extend(module._modules.values())
        return self

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{param.data.shape} vs {state[name].shape}")
            param.data[...] = state[name]
            param.bump_version()

    def __call__(self, *args, **kwargs):
        if getattr(self, "_inference", False) and grad_enabled():
            with no_grad():
                return self.forward(*args, **kwargs)
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with ``W`` shaped (in, out)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None, bias: bool = True):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform(rng, in_features, out_features))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(as_tensor(x), self.weight, self.bias)

    def flops(self, batch: int) -> int:
        """Multiply-accumulate FLOPs (2 per MAC) for ``batch`` rows."""
        flops = 2 * batch * self.in_features * self.out_features
        if self.bias is not None:
            flops += batch * self.out_features
        return flops


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class ELU(Module):
    def __init__(self, alpha: float = 1.0):
        super().__init__()
        self.alpha = alpha

    def forward(self, x: Tensor) -> Tensor:
        return F.elu(x, self.alpha)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"m{index}"
            setattr(self, name, module)
            self._order.append(name)

    def forward(self, x: Tensor) -> Tensor:
        for name in self._order:
            x = getattr(self, name)(x)
        return x

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __len__(self):
        return len(self._order)


class LayerNorm(Module):
    """Layer normalisation over the trailing feature axis."""

    def __init__(self, features: int, eps: float = 1e-5):
        super().__init__()
        self.features = features
        self.eps = eps
        self.gamma = Parameter(init.ones((features,)))
        self.beta = Parameter(init.zeros((features,)))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(as_tensor(x), self.gamma, self.beta, self.eps)


class MLP(Module):
    """Stack of Linear layers with a shared activation.

    ``hidden`` lists hidden widths; the final Linear has no activation.
    This is the workhorse for the NeRF MLP ``f`` and the mixer blocks.
    """

    def __init__(self, in_features: int, hidden: Sequence[int], out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 activation: str = "elu"):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        widths = [in_features] + list(hidden) + [out_features]
        act = {"relu": ReLU, "elu": ELU, "sigmoid": Sigmoid}[activation]
        modules: List[Module] = []
        for i, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
            modules.append(Linear(w_in, w_out, rng=rng))
            if i < len(widths) - 2:
                modules.append(act())
        self.net = Sequential(*modules)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)

    def flops(self, batch: int) -> int:
        return sum(m.flops(batch) for m in self.net if isinstance(m, Linear))


_SHARED_COLS_CACHE: List[Optional[Dict]] = [None]


class conv_patch_cache:
    """Scene-level im2col cache shared across :class:`Conv2d` instances.

    Inside the context, every cache-eligible conv (grad-free input under
    grad mode — the training loop's per-step re-encode of fixed source
    images) keys its im2col result by ``(input array, kernel, stride,
    padding)`` in the *caller's* dict instead of the per-layer cache.
    Two encoders whose first layer shares a geometry (the Gen-NeRF
    coarse/fine pair both run 3x3/s1/p1 over the same images) then pay
    the patch rearrangement once per scene — per process, not per layer
    instance — which is the ROADMAP's "training-side im2col reuse".

    The dict is owned by the caller (``SceneData.conv_cache`` in the
    trainer), so its lifetime tracks the scene, and entries carry the
    same identity + fingerprint staleness checks as the per-layer
    cache.  Contexts nest; the innermost cache wins.
    """

    def __init__(self, cache: Dict):
        self.cache = cache

    def __enter__(self):
        self._prev = _SHARED_COLS_CACHE[0]
        _SHARED_COLS_CACHE[0] = self.cache
        return self.cache

    def __exit__(self, *exc):
        _SHARED_COLS_CACHE[0] = self._prev
        return False


def shared_patch_rows(data: np.ndarray, kernel: int, stride: int,
                      padding: int, rows: np.ndarray) -> Optional[np.ndarray]:
    """Gather im2col patch rows from the active :class:`conv_patch_cache`.

    The footprint-restricted encode (:mod:`repro.models.footprint`) only
    needs the patch rows of the output pixels it will actually compute.
    When a full encode already paid for the scene-level im2col of the
    same input array — the trainer's ``SceneData.conv_cache`` after any
    evaluation pass — those rows can be gathered straight from the cached
    cols (same key and staleness checks as :class:`Conv2d`).  Returns
    ``None`` on any miss so the caller assembles patches from its packed
    input rows instead.
    """
    cache = _SHARED_COLS_CACHE[0]
    if cache is None:
        return None
    entry = cache.get((id(data), kernel, stride, padding))
    if entry is None or entry[0] is not data \
            or entry[1] != _array_fingerprint(data):
        return None
    cols = entry[2]
    return cols.reshape(-1, cols.shape[-1])[np.asarray(rows, dtype=np.intp)]


def _array_fingerprint(arr: np.ndarray) -> tuple:
    """Cheap content fingerprint for cache-staleness detection.

    Samples a strided subset (bounded cost regardless of size); any
    in-place edit that touches the array broadly — normalisation,
    augmentation — changes it, while the full-array hash a bulletproof
    check would need costs as much as the work the cache saves.
    """
    flat = arr.reshape(-1)
    sample = flat[::max(1, flat.size // 64)]
    return (arr.shape, float(sample.sum()), float(flat[0]), float(flat[-1]))


class Conv2d(Module):
    """2D convolution on (B, C, H, W) tensors via im2col + GEMM.

    The CNN encoder ``E`` in generalizable NeRFs is a one-time cost per
    scene (paper Sec. 2.2 Step 0), so clarity is preferred over speed.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel: int = 3,
                 stride: int = 1, padding: int = 1,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        self.weight = Parameter(
            init.kaiming_uniform(rng, fan_in, shape=(fan_in, out_channels)))
        self.bias = Parameter(init.zeros((out_channels,)))
        # im2col results for grad-free inputs, keyed by array identity.
        # Training re-runs the encoder every step on the *same* source
        # images (only the weights change), so the patch rearrangement —
        # the most expensive non-GEMM part of the conv — is computed
        # once per scene.  Values keep a reference to the input array,
        # so an id() collision after garbage collection cannot alias:
        # the identity check below compares the stored object itself.
        self._cols_cache: Dict[int, tuple] = {}
        self._cols_cache_limit = 8

    def train(self, mode: bool = True) -> "Module":
        # Phase changes are natural cache boundaries: callers that edit
        # their input buffers between train/eval phases get a fresh
        # im2col even if the cheap fingerprint below would miss the
        # edit.
        self._cols_cache.clear()
        return super().train(mode)

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        batch, _, height, width = x.shape
        # Only worth caching for constant inputs under grad mode (the
        # training loop's per-step re-encode of fixed source images);
        # inference callers cache whole encoded maps a level up.
        cacheable = grad_enabled() and not x.requires_grad
        shared = _SHARED_COLS_CACHE[0]
        if cacheable and shared is not None:
            # Scene-level cache: keyed by geometry too, so different
            # layers with the same (kernel, stride, padding) share one
            # entry per input array.
            key = (id(x.data), self.kernel, self.stride, self.padding)
            cache, limit = shared, 4 * self._cols_cache_limit
        else:
            key = id(x.data)
            cache, limit = self._cols_cache, self._cols_cache_limit
        cached = cache.get(key) if cacheable else None
        if cached is not None and cached[0] is x.data \
                and cached[1] == _array_fingerprint(x.data):
            _, _, cols, out_h, out_w = cached
        else:
            cols, out_h, out_w = F.im2col(x.data, self.kernel, self.stride,
                                          self.padding)
            if cacheable:
                if len(cache) >= limit:
                    cache.clear()
                cache[key] = (
                    x.data, _array_fingerprint(x.data), cols, out_h, out_w)
        image_shape = x.shape
        kernel, stride, padding = self.kernel, self.stride, self.padding
        weight, bias = self.weight, self.bias
        out_channels = self.out_channels

        # Fused single-node conv: one GEMM over the flattened patches,
        # materialised channel-first (contiguous, so downstream
        # elementwise ops don't walk a transposed view), with a single
        # backward closure — the former linear -> reshape -> transpose
        # node chain re-copied the (B, C, H, W) gradient at every hop.
        cols2d = cols.reshape(-1, cols.shape[-1])
        out2d = cols2d @ weight.data + bias.data
        out_data = np.ascontiguousarray(
            out2d.reshape(batch, out_h, out_w, out_channels)
            .transpose(0, 3, 1, 2))
        if not x._tracked(weight, bias):
            return _plain(out_data)

        def backward(g: np.ndarray) -> None:
            g2d = np.ascontiguousarray(
                g.transpose(0, 2, 3, 1)).reshape(-1, out_channels)
            if weight.requires_grad or bias.requires_grad:
                rows = F.grad_live_rows(g2d, g2d.shape[0])
                if rows is None:
                    if weight.requires_grad:
                        weight._accumulate(cols2d.T @ g2d)
                    if bias.requires_grad:
                        bias._accumulate(g2d.sum(axis=0))
                else:
                    g_live = g2d[rows]
                    if weight.requires_grad:
                        weight._accumulate(cols2d[rows].T @ g_live)
                    if bias.requires_grad:
                        bias._accumulate(g_live.sum(axis=0))
            if x.requires_grad:
                gcols = (g2d @ weight.data.T).reshape(batch, -1,
                                                      cols2d.shape[-1])
                x._accumulate(F.col2im(gcols, image_shape, kernel, stride,
                                       padding))

        return _node(out_data, (x, weight, bias), backward)

    def output_shape(self, height: int, width: int) -> tuple:
        """Spatial (out_h, out_w) this conv produces for an (H, W) input."""
        out_h = (height + 2 * self.padding - self.kernel) // self.stride + 1
        out_w = (width + 2 * self.padding - self.kernel) // self.stride + 1
        return out_h, out_w

    def flops(self, batch: int, height: int, width: int) -> int:
        out_h, out_w = self.output_shape(height, width)
        macs = (batch * out_h * out_w * self.out_channels
                * self.in_channels * self.kernel * self.kernel)
        return 2 * macs
