"""The four benchmark workloads.

Each workload is driven only through the program's public functions.
``__init__`` makes the seeded inputs (untimed), ``setup`` builds the
program objects a user builds once (timed as ``setup_s``), and
``round`` runs one closed-loop round of operations from a fresh state,
checking every output as it goes.  ``stop()`` is polled between
operations so a run ends close to its deadline.
"""

from __future__ import annotations

import math
import time
import zlib
from typing import Callable, Dict, List

import numpy as np

import inputs

ROUND_TRAIN_STEPS = 32          # two pixel blocks per training round
PSNR_FLOOR_DB = 12.0            # a checkpoint render below this is broken
# Tolerances against golden.json, which was recorded under one OpenBLAS
# kernel set.  Under other core types (Haswell, Prescott) the recorded
# train losses moved by <= 1.3e-6 and the greedy scheduler's projections
# moved prefetch_bytes and energy_j by <= 7.3e-6, relative.  Repeats
# within a run must match exactly.
TRAIN_LOSS_RTOL = 1e-3
SIM_RTOL = 1e-4
SIM_FIELDS = ("total_time_s", "prefetch_bytes", "pool_macs", "num_patches",
              "energy_j")


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values))))


class Workload:
    """Shared bookkeeping: operations attempted/failed, the first few
    failure messages, and the host time of every timed program call.

    A round repeats the same calls, so ``timed`` files each sample under
    the call's key, and :meth:`round_s` estimates one round's time as
    the sum of per-key medians.  Rates built on it shrug off a
    neighbour's transient load, which a plain total over the run
    would absorb.
    """

    name = ""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.samples: Dict[tuple, List[float]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def timed(self, key: tuple, fn):
        start = time.perf_counter()
        result = fn()
        self.samples.setdefault(key, []).append(time.perf_counter() - start)
        return result

    def round_s(self) -> float:
        return sum(float(np.median(times)) for times in self.samples.values())

    def latencies_ms(self, kind: str) -> List[float]:
        return [1e3 * value for key, times in self.samples.items()
                if key[0] == kind for value in times]


# ----------------------------------------------------------------------
class RenderWorkload(Workload):
    """Novel views of three seeded scenes (llff, thicket, orbit_sparse)
    from a pretrained default-config Gen-NeRF: per round, one
    ``encode_scene`` per scene, then ``render_image_gen_nerf`` for each
    jittered pose with the encoded maps."""

    name = "render"

    def __init__(self, cache, seed: int, golden: dict):
        super().__init__()
        self.checkpoint, self.scenes = inputs.render_inputs(cache, seed)
        self.rays: Dict[tuple, int] = {}
        self.first: Dict[tuple, np.ndarray] = {}
        self.psnr: Dict[tuple, float] = {}
        self.points: Dict[tuple, float] = {}
        self.pack = {"packed": 0, "dense": 0}

    def setup(self):
        from repro import models as M

        model = M.GenNeRF(rng=np.random.default_rng(0))
        model.load_state_dict(self.checkpoint)
        model.eval()
        self.model = model

    def round(self, stop: Callable[[], bool]) -> None:
        from repro import models as M
        from repro import nn
        from repro.models.ibrnet import PACK_STATS

        for index, item in enumerate(self.scenes):
            if stop():
                return
            with nn.inference_mode():
                maps = self.timed(("encode", index), lambda: (
                    self.model.encode_scene(item.source_images)))
            for pose_index, (pose, reference) in enumerate(
                    zip(item.poses, item.references)):
                if stop():
                    return
                before = dict(PACK_STATS)
                image, stats = self.timed(
                    ("frame", index, pose_index),
                    lambda: M.render_image_gen_nerf(
                        self.model, pose, item.source_images,
                        step=inputs.RENDER_STEP, feature_maps=maps))
                for key in self.pack:
                    self.pack[key] += PACK_STATS[key] - before[key]
                self.attempted += 1
                self.rays[index, pose_index] = image.shape[0] * image.shape[1]
                self._check(image, stats, reference, (index, pose_index),
                            item.family)

    def _check(self, image, stats, reference, key, family) -> None:
        from repro import models as M

        if not np.isfinite(image).all():
            self.fail(f"{family} pose {key[1]}: non-finite pixels")
            return
        first = self.first.get(key)
        if first is None:
            self.first[key] = image
            value = M.psnr(np.clip(image, 0.0, 1.0), reference)
            self.psnr[key] = value
            self.points[key] = stats["avg_focused_points"]
            if not value >= PSNR_FLOOR_DB:
                self.fail(f"{family} pose {key[1]}: PSNR {value:.2f} dB "
                          f"< {PSNR_FLOOR_DB} dB")
        elif not np.array_equal(first, image):
            self.fail(f"{family} pose {key[1]}: re-render differs")

    def metrics(self) -> dict:
        psnr_db = float(np.mean(list(self.psnr.values())))
        frame_ms = self.latencies_ms("frame")
        rate = sum(self.rays.values()) / self.round_s()
        return {
            "generic": {"throughput_per_s": rate,
                        "latency_ms_p50": _percentile(frame_ms, 50),
                        "latency_ms_p90": _percentile(frame_ms, 90),
                        "quality": psnr_db},
            "named": {"rays_per_s": (rate, "1/s"),
                      "frame_ms_p50": (_percentile(frame_ms, 50), "ms"),
                      "psnr_db": (psnr_db, "dB"),
                      "frames": (len(frame_ms), "count")},
        }

    def counts(self) -> dict:
        n_max = self.model.config.n_max
        points = float(np.mean(list(self.points.values())))
        calls = self.pack["packed"] + self.pack["dense"]
        return {"sampling.points_per_ray": (points, "count"),
                "sparse.occupancy": (points / n_max, "ratio"),
                "sparse.packed_share": (self.pack["packed"] / max(calls, 1),
                                        "ratio")}


# ----------------------------------------------------------------------
class TrainWorkload(Workload):
    """``Trainer.step`` on Gen-NeRF at the Table 2/3 settings.  Each
    round restores the initial weights and builds a fresh ``Trainer``
    and fresh ``SceneData`` caches, then takes ``ROUND_TRAIN_STEPS``
    steps; every round must reproduce the recorded loss trajectory.
    Scenes and initial weights are those of the Table 2/3 harness
    (seed 1); the seed picks the trainer's pixel and sampling stream."""

    name = "train"

    def __init__(self, cache, seed: int, golden: dict):
        super().__init__()
        self.pool = inputs.pool_index(seed)
        self.data = inputs.train_inputs(cache, seed)
        self.golden = golden.get("train", {}).get(str(self.pool))
        self.trajectory: List[float] = []
        self.footprint = {"footprint": 0, "dense": 0}

    def setup(self):
        from repro import models as M

        fine = M.ModelConfig(feature_dim=12, view_hidden=12, score_hidden=6,
                             density_hidden=24, density_feature_dim=8,
                             encoder_hidden=8, ray_module="mixer", n_max=20)
        config = M.GenNerfConfig(fine=fine, coarse_points=8,
                                 focused_points=12)
        self.model = M.GenNeRF(
            config, rng=np.random.default_rng(inputs.LLFF_SCENE_SEED))
        self.initial = self.model.state_dict()

    def train_config(self):
        from repro import models as M

        return M.TrainConfig(steps=ROUND_TRAIN_STEPS, rays_per_batch=40,
                             num_points=20, seed=self.pool)

    def round(self, stop: Callable[[], bool]) -> None:
        from repro import models as M

        def fresh():
            self.model.load_state_dict(self.initial)
            scenes = [M.SceneData(scene=scene, source_images=images)
                      for scene, images in self.data]
            return M.Trainer(self.model, scenes, self.train_config())

        trainer = self.timed(("init",), fresh)
        try:
            for index in range(ROUND_TRAIN_STEPS):
                if stop():
                    return
                loss = self.timed(("step", index), trainer.step)
                self.attempted += 1
                self._check(index, loss)
        finally:
            for key in self.footprint:
                self.footprint[key] += trainer.footprint_stats[key]

    def _check(self, index: int, loss: float) -> None:
        if not math.isfinite(loss):
            self.fail(f"step {index}: non-finite loss {loss}")
            return
        if index == len(self.trajectory):
            self.trajectory.append(loss)
            if self.golden is not None and not math.isclose(
                    loss, self.golden[index], rel_tol=TRAIN_LOSS_RTOL):
                self.fail(f"step {index}: loss {loss!r} != recorded "
                          f"{self.golden[index]!r}")
        elif loss != self.trajectory[index]:
            self.fail(f"step {index}: loss {loss!r} differs from the "
                      f"first round's {self.trajectory[index]!r}")

    def metrics(self) -> dict:
        block = self.train_config().pixel_block_steps
        loss = float(np.mean(self.trajectory[-block:]))
        step_ms = self.latencies_ms("step")
        rate = ROUND_TRAIN_STEPS / self.round_s()
        return {
            "generic": {"throughput_per_s": rate,
                        "latency_ms_p50": _percentile(step_ms, 50),
                        "latency_ms_p90": _percentile(step_ms, 90),
                        "quality": -10.0 * math.log10(loss)},
            "named": {"steps_per_s": (rate, "1/s"),
                      "step_ms_p50": (_percentile(step_ms, 50), "ms"),
                      "train_loss": (loss, "mse"),
                      "steps": (self.attempted, "count")},
        }

    def counts(self) -> dict:
        calls = self.footprint["footprint"] + self.footprint["dense"]
        return {"footprint.engaged_share": (
            self.footprint["footprint"] / max(calls, 1), "ratio")}


# ----------------------------------------------------------------------
class SimulateWorkload(Workload):
    """The Fig. 12-style sweep {llff, nerf_synthetic, deepvoxels} x
    {4, 6, 10} views x {ours, var1, var2, var3} at paper resolution:
    per point a fresh ``GenNerfAccelerator(variant_config(v))`` plans
    the frame and simulates it with that plan."""

    name = "simulate"

    def __init__(self, cache, seed: int, golden: dict):
        super().__init__()
        self.pool = inputs.pool_index(seed)
        self.points = inputs.simulate_inputs(seed)
        self.golden = golden.get("simulate", {}).get(str(self.pool))
        self.results: Dict[str, object] = {}

    def setup(self):
        from repro.hardware.accelerator import variant_config

        self.configs = {variant: variant_config(variant)
                        for variant in inputs.SIM_VARIANTS}

    def round(self, stop: Callable[[], bool]) -> None:
        from repro.hardware.accelerator import GenNerfAccelerator

        for label, variant, workload, rig in self.points:
            if stop():
                return

            def point():
                accelerator = GenNerfAccelerator(self.configs[variant])
                plan = accelerator.plan_frame(rig.novel, rig.sources,
                                              rig.near, rig.far, workload)
                return accelerator.simulate_frame(
                    workload, rig.novel, rig.sources, rig.near, rig.far,
                    plan=plan)

            sim = self.timed(("point", label), point)
            self.attempted += 1
            self._check(label, sim)

    def _check(self, label: str, sim) -> None:
        first = self.results.setdefault(label, sim)
        for name in SIM_FIELDS:
            value = float(getattr(sim, name))
            if value != float(getattr(first, name)):
                self.fail(f"{label}: {name} {value!r} differs from the "
                          f"first round's")
                return
            if self.golden is not None and not math.isclose(
                    value, self.golden[label][name], rel_tol=SIM_RTOL):
                self.fail(f"{label}: {name} {value!r} != recorded "
                          f"{self.golden[label][name]!r}")
                return

    def record(self) -> dict:
        """{label: {field: value}} for ``golden.json``."""
        return {label: {name: float(getattr(sim, name))
                        for name in SIM_FIELDS}
                for label, sim in self.results.items()}

    def metrics(self) -> dict:
        point_ms = [float(np.median(times)) * 1e3
                    for times in self.samples.values()]
        fps = [self.results[label].fps for label, _, _, _ in self.points]
        accel_fps = _geomean(fps)
        rate = len(point_ms) / self.round_s()
        # The sweep's per-point times are clustered with gaps between
        # the clusters, so their median jumps between neighbouring
        # points under small noise; the geometric mean weighs every
        # point and stays put.
        return {
            "generic": {"throughput_per_s": rate,
                        "latency_ms_p50": _geomean(point_ms),
                        "latency_ms_p90": _percentile(point_ms, 90),
                        "quality": accel_fps},
            "named": {"sim_frames_per_s": (rate, "1/s"),
                      "accel_fps": (accel_fps, "fps"),
                      "frames": (self.attempted, "count")},
        }

    def counts(self) -> dict:
        sims = [self.results[label] for label, _, _, _ in self.points]
        total = sum(sim.total_time_s for sim in sims)
        return {
            "scheduler.patches": (float(np.mean(
                [sim.num_patches for sim in sims])), "count"),
            "accelerator.prefetch_mb": (float(np.mean(
                [sim.prefetch_bytes for sim in sims])) / 1e6, "MB"),
            "accelerator.pe_utilization": (float(np.mean(
                [sim.pe_utilization for sim in sims])), "ratio"),
            "accelerator.exposed_data_share": (
                sum(sim.data_time_s for sim in sims) / total, "ratio"),
        }


# ----------------------------------------------------------------------
class _ImageCache:
    """The serve LRU's disk-cache interface over benchmark inputs, so a
    cold scene miss loads the generated source images."""

    def __init__(self, images: dict):
        self.images = images

    def load(self, key: str):
        return self.images.get(key)

    def store(self, key: str, array) -> None:
        self.images[key] = array


class ServeWorkload(Workload):
    """``RenderScheduler.submit``/``run_tick`` over a seeded
    ``synthetic_trace`` on the virtual clock, ticks back to back, with
    the default ``ServeConfig``.  Every scene is prepared and every
    (scene, quality) payload warmed during set-up; each round replays
    the trace through a fresh scheduler over that store."""

    name = "serve"

    def __init__(self, cache, seed: int, golden: dict):
        super().__init__()
        self.trace, self.images, self.references = \
            inputs.serve_inputs(cache, seed)
        self.requests = {r.request_id: r for _, r in self.trace}
        self.request_ms: List[float] = []
        self.rounds: List[tuple] = []   # (busy s, p50 ms, p90 ms)
        self.latency_ticks: List[int] = []
        self.first: Dict[str, int] = {}
        self.checked: Dict[tuple, tuple] = {}   # group -> (request, image)
        self.psnr: Dict[str, float] = {}
        self.totals = {"dispatches": 0, "batched_rays": 0,
                       "merged_rays": 0, "hits": 0, "misses": 0}

    def setup(self):
        from repro.core import serve

        config = serve.ServeConfig()
        store = serve.SceneStore(capacity=config.scene_capacity,
                                 source_points=config.source_points,
                                 cache=_ImageCache(dict(self.images)),
                                 workers=config.workers)
        models = {quality: serve.build_model(quality,
                                             seed=config.model_seed)
                  for quality in inputs.SERVE_QUALITIES}
        scheduler = serve.RenderScheduler(config, store=store, models=models)
        seen = set()
        for _, request in self.trace:
            if request.group_key not in seen:
                seen.add(request.group_key)
                scheduler.submit(request, 0)
        scheduler.drain(0)
        self.config, self.store, self.models = config, store, models

    def round(self, stop: Callable[[], bool]) -> None:
        from repro.core import serve

        scheduler = serve.RenderScheduler(self.config, store=self.store,
                                          models=self.models)
        hits, misses = self.store.hits, self.store.misses
        by_tick: Dict[int, list] = {}
        for tick, request in self.trace:
            by_tick.setdefault(int(tick), []).append(request)
        last = max(by_tick)
        arrived: Dict[str, float] = {}
        tick = 0
        stopping = False
        busy_s = 0.0
        submitted = 0
        request_ms = []
        while True:
            stopping = stopping or stop()
            start = time.perf_counter()
            for request in () if stopping else by_tick.get(tick, ()):
                self.attempted += 1
                submitted += 1
                try:
                    scheduler.submit(request, tick)
                except (serve.ServiceOverloaded, serve.ServeError) as error:
                    self.fail(f"{request.request_id}: {error}")
                    continue
                arrived[request.request_id] = start
            responses = scheduler.run_tick(tick)
            end = time.perf_counter()
            busy_s += end - start
            for response in responses:
                request_ms.append(1e3 * (end - arrived[response.request_id]))
                self.latency_ticks.append(response.latency_ticks)
                self._check(response)
            if (stopping or tick >= last) and scheduler.idle:
                break
            tick += 1
        self.request_ms.extend(request_ms)
        if submitted == len(self.trace):
            self.rounds.append((busy_s, _percentile(request_ms, 50),
                                _percentile(request_ms, 90)))
        for key in ("dispatches", "batched_rays", "merged_rays"):
            self.totals[key] += scheduler.counters[key]
        self.totals["hits"] += self.store.hits - hits
        self.totals["misses"] += self.store.misses - misses

    def _check(self, response) -> None:
        from repro import models as M

        if response.status != "ok":
            self.fail(f"{response.request_id}: {response.status} "
                      f"{response.error}")
            return
        if not np.isfinite(response.image).all():
            self.fail(f"{response.request_id}: non-finite pixels")
            return
        crc = zlib.crc32(response.image.tobytes())
        first = self.first.setdefault(response.request_id, crc)
        if crc != first:
            self.fail(f"{response.request_id}: response differs from the "
                      f"first round's")
        request = self.requests[response.request_id]
        self.checked.setdefault(request.group_key, (request, response.image))
        if request.request_id not in self.psnr:
            self.psnr[request.request_id] = M.psnr(
                np.clip(response.image, 0.0, 1.0),
                self.references[request.scene])

    def verify_samples(self) -> None:
        """One response per (scene, quality) against a direct
        ``render_image_*`` call on the same model and scene data."""
        from repro import models as M
        from repro.core.serve import QUALITIES

        for request, image in self.checked.values():
            prepared = self.store.get(request.scene_key)
            spec = QUALITIES[request.quality]
            model = self.models[request.quality]
            maps = prepared.data.encoded_maps(model)
            if spec.kind == "gen_nerf":
                direct, _ = M.render_image_gen_nerf(
                    model, prepared.scene, prepared.data.source_images,
                    step=request.step, chunk=request.chunk,
                    feature_maps=maps)
            else:
                direct = M.render_image_ibrnet(
                    model, prepared.scene, prepared.data.source_images,
                    num_points=spec.num_points, step=request.step,
                    chunk=request.chunk,
                    hierarchical=spec.kind == "hierarchical",
                    coarse_points=spec.coarse_points or None,
                    feature_maps=maps)
            if direct.tobytes() != image.tobytes():
                self.fail(f"{request.request_id}: served image differs from "
                          f"the direct render")

    def metrics(self) -> dict:
        # Per-round statistics, then the median over whole rounds: a
        # stall hits every request in flight, so one slow stretch of the
        # host would otherwise move the run's tail.
        busy_s, p50, p90 = (float(np.median(column))
                            for column in zip(*self.rounds))
        rate = len(self.trace) / busy_s
        request_ms = self.request_ms
        return {
            "generic": {"throughput_per_s": rate,
                        "latency_ms_p50": p50,
                        "latency_ms_p90": p90,
                        "quality": float(np.mean(list(self.psnr.values())))},
            "named": {"requests_per_s": (rate, "1/s"),
                      "request_ms_p50": (p50, "ms"),
                      "request_ms_p99": (_percentile(request_ms, 99), "ms"),
                      "requests": (len(request_ms), "count")},
        }

    def counts(self) -> dict:
        totals = self.totals
        lookups = totals["hits"] + totals["misses"]
        return {
            "serve.rays_per_dispatch": (
                totals["batched_rays"] / max(totals["dispatches"], 1),
                "count"),
            "serve.merged_ray_share": (
                totals["merged_rays"] / max(totals["batched_rays"], 1),
                "ratio"),
            "serve.latency_ticks_p50": (
                _percentile(self.latency_ticks, 50), "ticks"),
            "serve.latency_ticks_p99": (
                _percentile(self.latency_ticks, 99), "ticks"),
            "serve.scene_hit_ratio": (totals["hits"] / max(lookups, 1),
                                      "ratio"),
        }


WORKLOADS = {cls.name: cls for cls in (RenderWorkload, TrainWorkload,
                                       SimulateWorkload, ServeWorkload)}
