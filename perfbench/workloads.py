"""The benchmark's three workloads and the closed loop that drives them.

Each workload builds its inputs from the seed in ``setup`` and then
serves one client in a closed loop: ``step`` performs one user-visible
operation through the public ``goi`` API, times it and checks its
output. Steps form a stream that repeats in passes, and a run stops
only at the end of a pass. A pass holds every distinct case once and
every kind of op in fixed proportion, so quality figures and medians do
not depend on how far a run got. All goi functions are reached through
their modules at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from goi import codebook, metrics, osh, query, rasterizer, scene, synth, trainer

from oracle import build_oracle_model

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))   # orbit step that never repeats a view


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Record:
    """What one timed run did and measured.

    Each op and each query is kept as the list of (start, end) intervals
    on `clock` that it was timed over.
    """

    op_spans: list = field(default_factory=list)
    query_spans: list = field(default_factory=list)
    iou: dict = field(default_factory=dict)   # case key -> IoU, first time asked
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    steps: int = 0
    queries: int = 0
    reused: int = 0
    cameras: set = field(default_factory=set)
    clock: object = perf_counter   # what ops are timed with

    def query_camera(self, cam) -> None:
        key = (cam.width, cam.height, cam.fx, cam.world_to_camera.tobytes())
        self.queries += 1
        self.reused += key in self.cameras
        self.cameras.add(key)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    @staticmethod
    def _ms(spans_list) -> list:
        return [1e3 * sum(end - start for start, end in spans)
                for spans in spans_list]

    @property
    def op_ms(self) -> list:
        return self._ms(self.op_spans)

    @property
    def query_ms(self) -> list:
        return self._ms(self.query_spans)

    @property
    def miou(self) -> float:
        return float(np.mean(list(self.iou.values()))) if self.iou else 0.0

    @property
    def camera_reuse_frac(self) -> float:
        return self.reused / self.queries if self.queries else 0.0


def run_steps(workload, state, rec: Record, *, seconds: float | None = None,
              n_steps: int | None = None) -> None:
    """Closed loop with one client: n_steps steps, or whole passes until
    `seconds` have passed on `rec.clock`."""
    per_pass = workload.pass_length(state)
    elapsed = 0.0
    i = 0
    while True:
        if n_steps is not None:
            if i >= n_steps:
                break
        elif i and i % per_pass == 0 and elapsed >= seconds:
            break
        rec.attempted += 1
        t0 = rec.clock()
        try:
            workload.step(state, i, rec)
        except Exception as exc:   # a failed op is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            rec.fail(f"step {i}: {exc!r}")
        elapsed += rec.clock() - t0
        i += 1
    rec.steps = i


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class TrainBlocks5:
    name = "train-blocks5"
    why = ("ROADMAP's end-to-end run on blocks5: synth, k-means, default "
           "training, OSH eval; total_loss does most of the work, the "
           "rasterizer little")

    # the 15 cases take ~2 s; three sweeps spread query samples over more
    # of the machine's speed swings
    eval_sweeps = 3
    # calibrate.py kernel that scales each time: training is total_loss,
    # set-up (synth renders the views) and evaluation are raster work
    reference = {"setup_s": "raster", "op_p50_ms": "loss",
                 "query_p50_ms": "raster"}

    def setup(self, seed: int, workdir: Path):
        exp = synth.write_experiment("blocks5", seed, workdir / "blocks5")
        samples = np.concatenate(
            [gt.reshape(-1, gt.shape[2]) for _, gt in exp.dataset.views])
        pick = np.random.default_rng(seed).choice(samples.shape[0], size=20_000,
                                                  replace=False)
        return SimpleNamespace(
            seed=seed, exp=exp, samples=samples[pick],
            scene=scene.load_scene(exp.scene_path),
            cases=metrics.load_testset(exp.testset_path),
            table=osh.EmbeddingTable.load(exp.embeddings_path), model=None)

    def pass_length(self, state) -> int:
        return 1 + self.eval_sweeps * len(state.cases)

    def step(self, state, i: int, rec: Record) -> None:
        i %= self.pass_length(state)
        if i == 0:
            state.model = None
            t0 = rec.clock()
            cb0 = codebook.kmeans_init(state.samples, n_entries=300, iters=10,
                                       seed=state.seed)
            state.model = trainer.train_semantic_field(
                state.scene, state.exp.dataset, cb0,
                trainer.TrainConfig(seed=state.seed))
            rec.op_spans.append([(t0, rec.clock())])
            return
        _require(state.model is not None, "no trained model to evaluate")
        n = (i - 1) % len(state.cases)
        case = state.cases[n]
        rec.query_camera(case.camera)
        t0 = rec.clock()
        result = metrics.evaluate(state.model, [case], state.table, use_osh=True)
        span = (t0, rec.clock())
        score = result.per_case[0]["iou"]
        _require(rec.iou.setdefault(n, score) == score,
                 f"case {n} scored differently when repeated")
        rec.query_spans.append([span])

    def finish(self, state, rec: Record) -> list:
        if rec.iou and rec.miou < 0.90:   # the training op missed its floor
            rec.fail(f"trained model mIoU {rec.miou:.4f} < 0.90")
        return []


class QueryAdversarial:
    name = "query-adversarial"
    why = ("oracle model, 8 cameras x 6 labels, each asked with the fixed "
           "threshold then refined by OSH; the rasterizer and OSH do the work "
           "and over 90 % of queries reuse a camera")
    reference = {"setup_s": "raster", "op_p50_ms": "raster",
                 "query_p50_ms": "raster"}

    n_cameras = 8

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 0xA0])
        base = synth.generate_scene("blocks", 5, 200, seed)
        labeled = synth.generate_adversarial_pair(base, target_label=0,
                                                  seed=seed)
        cams = synth.orbit_cameras(self.n_cameras, height=5.5,
                                   phase=rng.uniform(0.0, 2.0 * np.pi))
        n_labels = len(labeled.label_names)
        masks = []
        for cam in cams:
            weights = rasterizer.composite_weights(labeled.scene, cam)
            masks.append([synth.oracle_mask(labeled, cam, lab, weights)
                          for lab in range(n_labels)])
        stream = [(c, lab) for c in range(len(cams)) for lab in range(n_labels)]
        order = rng.permutation(len(stream))
        return SimpleNamespace(
            labeled=labeled, model=build_oracle_model(labeled, seed=seed),
            cams=cams, masks=masks, stream=[stream[j] for j in order],
            first_mask={})

    def pass_length(self, state) -> int:
        return len(state.stream)

    def step(self, state, i: int, rec: Record) -> None:
        c, lab = state.stream[i % len(state.stream)]
        cam, truth = state.cams[c], state.masks[c][lab]
        op = []
        for use_osh in (False, True):
            key = (c, lab, use_osh)
            rec.query_camera(cam)
            t0 = rec.clock()
            result = query.open_vocab_query(
                state.model, cam, state.labeled.cluster_embeddings[lab],
                truth if use_osh else None, use_osh=use_osh)
            span = (t0, rec.clock())
            first = state.first_mask.setdefault(key, result.mask)
            _require(np.array_equal(first, result.mask),
                     f"query {key} gave a different mask when repeated")
            score = rec.iou.setdefault(key, metrics.iou(result.mask, truth))
            _require(not use_osh or score >= 0.90,
                     f"OSH query {key} IoU {score:.4f} < 0.90")
            # query latency is the fixed-threshold query's: with the refined
            # half mixed in, the median falls between two modes
            if not use_osh:
                rec.query_spans.append([span])
            op.append(span)
        rec.op_spans.append(op)

    def finish(self, state, rec: Record) -> list:
        by_mode = {m: [v for (_, _, o), v in rec.iou.items() if o == m]
                   for m in (False, True)}
        if not all(by_mode.values()):
            return ["no queries of one mode completed"]
        fixed, refined = (float(np.mean(by_mode[m])) for m in (False, True))
        if not refined > fixed:
            return [f"OSH mIoU {refined:.4f} not above fixed {fixed:.4f}"]
        return []


class EditLarge:
    name = "edit-large"
    why = ("1e4 Gaussians at 128x128: query, edit, save, load and re-render on "
           "a fresh camera each step; rasterizer-bound, and no camera repeats, "
           "so a cache shows only its cost")
    reference = {"setup_s": "raster", "op_p50_ms": "raster",
                 "query_p50_ms": "raster"}

    per_cluster = 2000
    size = 128
    # a round asks for each of the 5 clusters once; translate comes twice,
    # so that steps that re-render the whole scene are the majority and
    # the median step is one of them, not a point between scene sizes
    actions = ("delete", "extract", "translate", "highlight", "translate")
    rounds = 2   # per pass: 10 steps of ~1.5 s give a steady median
    delta = (0.0, 0.0, 0.5)
    color = (1.0, 0.2, 0.2)

    def setup(self, seed: int, workdir: Path):
        labeled = synth.generate_scene("blocks", 5, self.per_cluster, seed)
        state = SimpleNamespace(
            labeled=labeled, model=build_oracle_model(labeled, seed=seed),
            phase=np.random.default_rng([seed, 0xED17]).uniform(0.0, 2.0 * np.pi),
            path=workdir / "edited.gois", first_pass=[])
        rasterizer.render(state.model.scene, self.camera(state, -1))  # first view
        return state

    def pass_length(self, state) -> int:
        return self.rounds * len(self.actions)

    def camera(self, state, i: int):
        return synth.orbit_cameras(1, height=5.5, width=self.size,
                                   image_height=self.size,
                                   fx=self.size * 60.0 / 64.0,
                                   phase=state.phase + i * GOLDEN_ANGLE)[0]

    def step(self, state, i: int, rec: Record) -> None:
        ls, model = state.labeled, state.model
        cam = self.camera(state, i)
        lab = i % len(ls.label_names)
        action = self.actions[i % len(self.actions)]
        rec.query_camera(cam)

        t0 = rec.clock()
        result = query.open_vocab_query(model, cam, ls.cluster_embeddings[lab],
                                        use_osh=False)
        t1 = rec.clock()
        edited = query.manipulate(model.scene, result.goi_indices, action,
                                  delta=self.delta, color=self.color)
        scene.save_scene(edited, state.path)
        loaded = scene.load_scene(state.path)
        out = rasterizer.render(loaded, cam)
        t2 = rec.clock()

        if i < len(self.actions):   # scored in finish, off the clock
            state.first_pass.append((cam, lab, result.mask))
        sel = result.goi_indices
        _require(np.array_equal(sel, np.flatnonzero(ls.labels == lab)),
                 f"step {i}: selected Gaussians are not cluster {lab}")
        self._check_edit(model.scene, sel, action, edited)
        for attr in ("centroids", "rotations", "scales", "opacities", "rgbs",
                     "features"):
            _require(np.array_equal(getattr(loaded, attr), getattr(edited, attr)),
                     f"step {i}: loaded scene differs in {attr}")
        _require(bool(np.all(np.isfinite(out.rgb))), f"step {i}: non-finite render")
        rec.query_spans.append([(t0, t1)])
        rec.op_spans.append([(t0, t2)])

    def _check_edit(self, before, sel, action, after) -> None:
        rest = np.setdiff1d(np.arange(len(before)), sel)
        if action == "delete":
            _require(len(after) == len(before) - sel.size, "delete count")
            _require(np.array_equal(after.centroids, before.centroids[rest]),
                     "delete kept the wrong Gaussians")
        elif action == "extract":
            _require(len(after) == sel.size, "extract count")
            _require(np.array_equal(after.centroids, before.centroids[sel]),
                     "extract kept the wrong Gaussians")
        elif action == "translate":
            moved = before.centroids[sel] + np.asarray(self.delta, np.float32)
            _require(np.array_equal(after.centroids[sel], moved)
                     and np.array_equal(after.centroids[rest],
                                        before.centroids[rest]),
                     "translate moved the wrong centroids")
        else:
            _require(np.all(after.rgbs[sel] == np.asarray(self.color, np.float32))
                     and np.array_equal(after.rgbs[rest], before.rgbs[rest]),
                     "highlight recoloured the wrong Gaussians")

    def finish(self, state, rec: Record) -> list:
        """mIoU over the first round; each oracle mask costs a render."""
        for i, (cam, lab, mask) in enumerate(state.first_pass):
            rec.iou[i] = metrics.iou(mask, synth.oracle_mask(state.labeled, cam,
                                                             lab))
        state.first_pass.clear()
        return []


WORKLOADS = {w.name: w for w in (TrainBlocks5(), QueryAdversarial(), EditLarge())}
