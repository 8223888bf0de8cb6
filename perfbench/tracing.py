"""Per-layer timing from outside the program.

:class:`Tracer` wraps the program's public entry points with span
recorders, patching each name where the program looks it up (a class
attribute for methods, the importing module's global for functions).
Spans nest through a stack, carry their parent's id, stay in memory and
are written out once at the end.  A layer's self time is its span's
duration minus the durations of its direct children, so the self times
of every span add up to the time covered by root spans; the rest of the
traced wall time is reported as the untraced remainder.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (layer, module path, attribute path).  Every workload installs the
# whole table; layers a workload never calls report zero.
LAYERS = (
    ("models.encode", "repro.models.encoder", "ConvEncoder.encode_views"),
    ("models.encode", "repro.models.encoder",
     "ConvEncoder.encode_views_footprint"),
    ("models.coarse_pass", "repro.models.gen_nerf", "GenNeRF.coarse_pass"),
    ("sampling.plan", "repro.models.gen_nerf", "GenNeRF.plan_samples"),
    ("models.fine_pass", "repro.models.gen_nerf", "GenNeRF.fine_pass"),
    ("models.forward", "repro.models.ibrnet", "GeneralizableNeRF.forward"),
    ("features.fetch", "repro.models.ibrnet", "fetch_features"),
    ("volume_rendering.composite", "repro.models.gen_nerf", "composite"),
    ("volume_rendering.composite", "repro.models.renderer", "composite"),
    ("volume_rendering.composite", "repro.models.training", "composite"),
    ("footprint.plan", "repro.models.training", "fetched_pixel_mask"),
    ("footprint.plan", "repro.models.training", "plan_conv_footprint"),
    ("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    ("nn.adam", "repro.nn.optim", "Adam.step"),
    ("scenes.gt_render", "repro.models.training", "render_gt_rays"),
    ("scheduler.plan", "repro.hardware.scheduler",
     "GreedyPatchScheduler.plan_frame"),
    ("scheduler.plan", "repro.hardware.accelerator", "fixed_partition"),
    ("scheduler.evaluate_candidate", "repro.hardware.scheduler",
     "GreedyPatchScheduler.evaluate_candidate"),
    ("interleave.bank_load", "repro.hardware.accelerator",
     "batched_bank_load"),
    ("dram.service", "repro.hardware.dram", "DramModel.service_batch"),
    ("engine.compute", "repro.hardware.engine",
     "RenderingEngine.patch_compute"),
    ("engine.compute", "repro.hardware.engine",
     "RenderingEngine.patch_compute_many"),
    ("sram.pipeline", "repro.hardware.sram",
     "PrefetchDoubleBuffer.pipeline_time"),
    ("serve.submit", "repro.core.serve", "RenderScheduler.submit"),
    ("serve.run_tick", "repro.core.serve", "RenderScheduler.run_tick"),
    ("serve.scene_get", "repro.core.serve", "SceneStore.get"),
    ("frame_pool.map_chunks", "repro.core.frame_pool", "map_chunks"),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))


class Tracer:
    """Span recorder over the :data:`LAYERS` patch table."""

    def __init__(self):
        self.spans = []          # [id, parent, layer, start, end]
        self._stack = []
        self._saved = []
        self.wall_s = 0.0        # summed duration of traced regions

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, layer,
                    time.perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        for layer, module_name, path in LAYERS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            raw = owner.__dict__[attr]
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(layer, raw.__func__))
            else:
                patched = self._wrap(layer, raw)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def run(self, fn):
        """Call ``fn()`` with the wrappers installed; its wall time
        counts towards :attr:`wall_s`."""
        self.install()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.wall_s += time.perf_counter() - start
            self.uninstall()

    # ------------------------------------------------------------------
    def summary(self):
        """({layer: (self_s, calls)}, root_s): self time per layer and
        the total duration covered by root spans."""
        child_s = [0.0] * len(self.spans)
        root_s = 0.0
        for _, parent, _, start, end in self.spans:
            if parent < 0:
                root_s += end - start
            else:
                child_s[parent] += end - start
        per_layer = {layer: [0.0, 0] for layer in LAYER_NAMES}
        for (sid, _, layer, start, end) in self.spans:
            entry = per_layer[layer]
            entry[0] += (end - start) - child_s[sid]
            entry[1] += 1
        return per_layer, root_s

    def write(self, path: str) -> None:
        names = {layer: index for index, layer in enumerate(LAYER_NAMES)}
        with open(path, "w") as handle:
            json.dump({"layers": list(LAYER_NAMES),
                       "columns": ["id", "parent", "layer", "start_s",
                                   "end_s"],
                       "spans": [[sid, parent, names[layer],
                                  round(start, 7), round(end, 7)]
                                 for sid, parent, layer, start, end
                                 in self.spans]}, handle)
