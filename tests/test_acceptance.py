"""End-to-end acceptance checks for the whole package.

Each test prints exactly one `criterion N: PASS/FAIL` line on the real
terminal (bypassing capture) so a full run gives a one-line verdict per
criterion. The heavyweight synthetic-training criteria share trained
models through session fixtures.
"""

import json
import time

import numpy as np
import pytest

from goi.errors import FormatError
from goi.formats import read_feature_map, write_feature_map
from goi.metrics import (EvalCase, evaluate, iou, load_testset,
                         pixel_accuracy, precision, write_report)
from goi.osh import (Hyperplane, OSHConfig, finetune_osh, init_hyperplane,
                     label_factors, osh_loss_and_grad, scores)
from goi.query import open_vocab_query
from goi.rasterizer import composite_weights, render
from goi.scene import Camera, load_scene, save_scene
from goi.synth import write_experiment
from goi.codebook import (Codebook, Decoder, entry_ids, kmeans_init,
                          load_codebook, load_decoder, save_codebook,
                          save_decoder, total_loss)
from goi.trainer import TrainConfig, tau_schedule, train_semantic_field, save_model

from oracles import (central_diff, naive_render, one_term, random_scene,
                     rel_err, total_loss_fd_errors, unit_targets)


def verdict(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# Shared synthetic-training runs
# ---------------------------------------------------------------------------

def run_benchmark(preset, seed, outdir):
    """synth -> codebook -> train with library defaults; returns artifacts."""
    exp = write_experiment(preset, seed, outdir / "exp")
    samples = np.concatenate(
        [gt.reshape(-1, gt.shape[2]) for _, gt in exp.dataset.views])
    rng = np.random.default_rng(seed)
    pick = rng.choice(samples.shape[0], size=20_000, replace=False)
    cb0 = kmeans_init(samples[pick], n_entries=300, iters=10, seed=seed)
    t0 = time.monotonic()
    model = train_semantic_field(load_scene(exp.scene_path), exp.dataset,
                                 cb0, TrainConfig(seed=seed))
    elapsed = time.monotonic() - t0
    model_dir = outdir / "model"
    save_model(model, model_dir)
    return exp, model, model_dir, elapsed


def consensus_fraction(exp, model):
    """Fraction of Gaussians hard-decoding to their cluster's mode entry."""
    ids = entry_ids(model.scene.features, model.decoder)
    labels = exp.labeled.labels
    hits = 0
    for k in np.unique(labels):
        cluster_ids = ids[labels == k]
        dominant = np.bincount(cluster_ids).argmax()
        hits += int((cluster_ids == dominant).sum())
    return hits / len(labels)


def fixed_threshold_metrics(exp, model):
    from goi.osh import EmbeddingTable
    cases = load_testset(exp.testset_path)
    table = EmbeddingTable.load(exp.embeddings_path)
    return evaluate(model, cases, table, use_osh=False)


@pytest.fixture(scope="session")
def blocks5_runs(tmp_path_factory):
    runs = {}
    for seed in range(5):
        outdir = tmp_path_factory.mktemp(f"blocks5_s{seed}")
        exp, model, model_dir, elapsed = run_benchmark("blocks5", seed, outdir)
        metrics = fixed_threshold_metrics(exp, model)
        report_path = outdir / "report.json"
        write_report(metrics, report_path)
        runs[seed] = {
            "exp": exp, "model": model, "model_dir": model_dir,
            "elapsed": elapsed, "metrics": metrics,
            "report_path": report_path,
            "consensus": consensus_fraction(exp, model),
        }
    return runs


@pytest.fixture(scope="session")
def adversarial_runs(tmp_path_factory):
    runs = {}
    for seed in range(5):
        outdir = tmp_path_factory.mktemp(f"adv_s{seed}")
        exp, model, _, _ = run_benchmark("adversarial", seed, outdir)
        runs[seed] = {"exp": exp, "model": model}
    return runs


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_rasterizer_oracle(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([seed, 77])
        n = int(rng.integers(20, 201))
        scene = random_scene(seed, n, feature_dim=4, spread=2.5)
        cam = Camera(width=64, height=64, fx=60.0, fy=60.0, cx=31.5, cy=31.5,
                     world_to_camera=np.eye(4))
        cam.world_to_camera[2, 3] = 6.0
        out = render(scene, cam)
        rgb, feat, alpha = naive_render(scene, cam)
        worst = max(worst,
                    float(np.max(np.abs(out.rgb - rgb))),
                    float(np.max(np.abs(out.ld_features - feat))),
                    float(np.max(np.abs(out.alpha - alpha))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-5 and elapsed <= 30.0
    verdict(capsys, 1, ok,
            f"max abs err {worst:.2e} over 20 scenes in {elapsed:.1f}s")


def test_criterion_2_gradient_correctness(capsys):
    worst = 0.0
    for case in range(100):
        rng = np.random.default_rng([case, 13])
        n = int(rng.integers(2, 9))
        dh = int(rng.integers(3, 17))
        dl = int(rng.integers(2, 5))
        cb = Codebook(entries=rng.normal(size=(n, dh)))
        dec = Decoder(weight=rng.normal(size=(n, dl)),
                      bias=rng.normal(size=n))
        tau = float(rng.uniform(0.5, 3.0))
        bsz = int(rng.integers(2, 6))
        v_gt = rng.normal(size=(bsz, dh))
        fhat = rng.normal(size=(bsz, dl))

        # each term alone, through the training loss; at temp_dec=1, since
        # at the default 10 the e2e bias gradient is below FD noise
        for term, groups in (("ent", ("entries",)), ("max", ("entries",)),
                             ("joint", ("dec_bias",)),
                             ("e2e", ("entries", "dec_bias"))):
            errs = total_loss_fd_errors(v_gt, fhat, cb, dec, tau,
                                        one_term(term), 1.0, groups)
            worst = max(worst, *errs.values())

        # the weighted sum at the default soft-decode temperature
        u = unit_targets(v_gt)
        _, grads = total_loss(u, fhat, cb, dec, tau)
        num = central_diff(
            lambda t: total_loss(u, t.reshape(bsz, dl), cb, dec,
                                 tau)[0].total, fhat.ravel())
        worst = max(worst, rel_err(grads.fhat, num))
        num = central_diff(
            lambda t: total_loss(u, fhat,
                                 Codebook(entries=t.reshape(n, dh)),
                                 dec, tau)[0].total, cb.entries.ravel())
        worst = max(worst, rel_err(grads.entries, num))
        num = central_diff(
            lambda t: total_loss(u, fhat, cb,
                                 Decoder(weight=t.reshape(n, dl),
                                         bias=dec.bias),
                                 tau)[0].total, dec.weight.ravel())
        worst = max(worst, rel_err(grads.dec_weight, num))

        if case % 5 == 0:
            # rendering adjoint against finite differences (64-bit map):
            # training pulls pixel gradients back as weights.T @ grad
            scene = random_scene(case, int(rng.integers(3, 21)),
                                 feature_dim=2)
            cam = Camera(width=6, height=6, fx=8.0, fy=8.0, cx=2.5, cy=2.5,
                         world_to_camera=np.eye(4))
            cam.world_to_camera[2, 3] = 5.0
            w = composite_weights(scene, cam)
            f64 = scene.features.astype(np.float64)
            analytic = w.T @ (w @ f64)  # grad of 0.5 |w f|^2 is w f
            num = central_diff(
                lambda t: 0.5 * float(
                    np.sum((w @ t.reshape(f64.shape)) ** 2)),
                f64.ravel(), eps=1e-4).reshape(analytic.shape)
            worst = max(worst, rel_err(analytic, num))
    ok = worst <= 1e-4
    verdict(capsys, 2, ok,
            f"worst rel err {worst:.2e} over 100 toy instances")


def entropy(v, cb, tau):
    """LossValue.ent of total_loss for one target feature v."""
    dec = Decoder(weight=np.zeros((cb.n_entries, 1)),
                  bias=np.zeros(cb.n_entries))
    return total_loss(unit_targets(v), np.zeros((1, 1)), cb, dec,
                      tau)[0].ent


def test_criterion_3_loss_bounds_and_annealing(capsys):
    ok = True
    detail = []
    for seed in range(200):
        rng = np.random.default_rng([seed, 3])
        n = int(rng.integers(2, 20))
        cb = Codebook(entries=rng.normal(size=(n, 6)))
        v = rng.normal(size=6)
        if np.linalg.norm(v) < 1e-6:
            continue
        val = entropy(v, cb, tau=float(rng.uniform(0.1, 10.0)))
        if not -1e-12 <= val <= np.log(n) + 1e-12:
            ok = False
            detail.append(f"entropy out of [0, ln N] at seed {seed}")
            break
    uni = Codebook(entries=np.tile(np.eye(3)[0], (300, 1)))
    val = entropy(np.eye(3)[0], uni, tau=1.0)
    if abs(val - 5.7038) > 5e-4:
        ok = False
        detail.append(f"uniform entropy {val:.4f} != 5.7038")
    cfg = TrainConfig()
    sched = [tau_schedule(i, cfg) for i in (0, 500, 999, 1000, 1001, 1499)]
    if sched != [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]:
        ok = False
        detail.append(f"tau schedule {sched}")
    verdict(capsys, 3, ok,
            "; ".join(detail) if detail
            else f"bounds hold, uniform entropy {val:.4f}, step at 1000")


def test_criterion_4_synthetic_field_reconstruction(capsys, blocks5_runs):
    passed = []
    details = []
    for seed, run in blocks5_runs.items():
        m = run["metrics"]
        seed_ok = (run["consensus"] >= 0.95 and m.miou >= 0.90
                   and m.mpa >= 0.95 and run["elapsed"] <= 300.0)
        passed.append(seed_ok)
        details.append(f"seed {seed}: consensus {run['consensus']:.3f} "
                       f"mIoU {m.miou:.3f} mPA {m.mpa:.3f} "
                       f"{run['elapsed']:.0f}s")
    ok = sum(passed) >= 4
    verdict(capsys, 4, ok, f"{sum(passed)}/5 seeds ({'; '.join(details)})")


def test_criterion_5_osh_superiority(capsys, adversarial_runs):
    from goi.osh import EmbeddingTable
    ok = True
    details = []
    for seed, run in adversarial_runs.items():
        exp, model = run["exp"], run["model"]
        cases = load_testset(exp.testset_path)
        table = EmbeddingTable.load(exp.embeddings_path)
        base_ious, osh_ious = [], []
        for case in cases:
            emb = table.lookup(case.text)
            base = open_vocab_query(model, case.camera, emb, use_osh=False,
                                    threshold=0.6)
            refined = open_vocab_query(model, case.camera, emb,
                                       pseudo_mask=case.pseudo_mask,
                                       use_osh=True, threshold=0.6)
            base_ious.append(iou(base.mask, case.gt_mask))
            osh_ious.append(iou(refined.mask, case.gt_mask))
        b, o = float(np.mean(base_ious)), float(np.mean(osh_ious))
        details.append(f"seed {seed}: baseline {b:.3f} OSH {o:.3f}")
        if not (o >= 0.90 and o > b):
            ok = False
    verdict(capsys, 5, ok, "; ".join(details))


def test_criterion_6_osh_optimizer(capsys):
    ok = True
    details = []
    rng = np.random.default_rng(0)
    d = 5
    w_true = rng.normal(size=d)
    w_true /= np.linalg.norm(w_true)
    mask = rng.uniform(size=(16, 16)) < 0.3
    feats = rng.normal(scale=0.3, size=(16, 16, d))
    # force every point to projection +1 (positives) or -1 (negatives)
    # along w_true: exactly separable with margin 1
    m = feats @ w_true
    target = np.where(mask, 1.0, -1.0)
    feats += (target - m)[:, :, None] * w_true
    valid = np.ones((16, 16), dtype=bool)
    h0 = init_hyperplane(np.ones(d), 0.6)
    # the map's pixels as rows, each counted once on its side of the mask
    pos = mask[valid].astype(np.float64)
    rows = (feats[valid], 1.0 - pos, pos)

    losses = [finetune_osh(h0, *rows, OSHConfig(steps=k))[1]
              for k in range(1, 60)]
    if any(b > a + 1e-9 for a, b in zip(losses, losses[1:])):
        ok = False
        details.append("loss not monotone")

    h, _ = finetune_osh(h0, *rows)
    if not np.array_equal(valid & (scores(h, feats) > 0.0), mask):
        ok = False
        details.append("separable maps not fully classified")

    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([seed, 6])
        x = rng.normal(size=(25, 4))
        y = (rng.uniform(size=25) < 0.3).astype(np.float64)
        w = rng.normal(size=4)
        b = float(rng.normal())
        signed, weights = label_factors(x, 1.0 - y, y)
        wb = np.append(w, b)
        g = signed.T @ osh_loss_and_grad(signed @ wb, weights)[1]
        num = central_diff(
            lambda t: osh_loss_and_grad(signed @ t, weights)[0], wb)
        worst = max(worst, rel_err(g[:-1], num[:-1]),
                    abs(g[-1] - num[-1]) / max(abs(g[-1]), 1e-12))
    if worst > 1e-4:
        ok = False
        details.append(f"BCE gradient rel err {worst:.2e}")
    verdict(capsys, 6, ok,
            "; ".join(details) if details
            else f"monotone, 100% separable accuracy, grad err {worst:.2e}")


def test_criterion_7_determinism(capsys, blocks5_runs, tmp_path_factory):
    first = blocks5_runs[0]
    outdir = tmp_path_factory.mktemp("repeat_s0")
    exp, model, model_dir, _ = run_benchmark("blocks5", 0, outdir)
    metrics = fixed_threshold_metrics(exp, model)
    report_path = outdir / "report.json"
    write_report(metrics, report_path)
    ok = True
    details = []
    for name in ("scene.gois", "codebook.goic", "decoder.goid", "meta.json"):
        if ((model_dir / name).read_bytes()
                != (first["model_dir"] / name).read_bytes()):
            ok = False
            details.append(f"{name} differs")
    if report_path.read_bytes() != first["report_path"].read_bytes():
        ok = False
        details.append("metric report differs")
    verdict(capsys, 7, ok,
            "; ".join(details) if details
            else "model directory and report byte-identical across reruns")


def test_criterion_8_format_round_trips(capsys, tmp_path):
    ok = True
    details = []
    for case in range(100):
        rng = np.random.default_rng([case, 8])
        kind = case % 4
        if kind == 0:
            d = int(rng.integers(1, 12))
            obj = random_scene(case, int(rng.integers(0, 40)), feature_dim=d)
            p1, p2 = tmp_path / "a.gois", tmp_path / "b.gois"
            save_scene(obj, p1)
            save_scene(load_scene(p1), p2)
        elif kind == 1:
            cb = Codebook(entries=rng.normal(
                size=(int(rng.integers(1, 40)),
                      int(rng.integers(1, 32)))).astype(np.float32))
            p1, p2 = tmp_path / "a.goic", tmp_path / "b.goic"
            save_codebook(cb, p1)
            save_codebook(load_codebook(p1), p2)
        elif kind == 2:
            n = int(rng.integers(1, 40))
            dec = Decoder(
                weight=rng.normal(size=(n, int(rng.integers(1, 16)))).astype(
                    np.float32),
                bias=rng.normal(size=n).astype(np.float32))
            p1, p2 = tmp_path / "a.goid", tmp_path / "b.goid"
            save_decoder(dec, p1)
            save_decoder(load_decoder(p1), p2)
        else:
            fm = rng.normal(size=(int(rng.integers(1, 20)),
                                  int(rng.integers(1, 20)),
                                  int(rng.integers(1, 8)))).astype(np.float32)
            p1, p2 = tmp_path / "a.goif", tmp_path / "b.goif"
            write_feature_map(p1, fm)
            write_feature_map(p2, read_feature_map(p1))
        if p1.read_bytes() != p2.read_bytes():
            ok = False
            details.append(f"case {case} not byte-identical")
            break

    loaders = {"gois": load_scene, "goic": load_codebook,
               "goid": load_decoder, "goif": read_feature_map}
    for ext, loader in loaders.items():
        good = tmp_path / f"a.{ext}"  # last valid file of each kind
        if not good.exists():
            continue
        data = good.read_bytes()
        bad = tmp_path / f"bad.{ext}"
        bad.write_bytes(b"XXXX" + data[4:])
        try:
            loader(bad)
            ok = False
            details.append(f"{ext}: corrupt magic accepted")
        except FormatError:
            pass
        bad.write_bytes(data[:-3])
        try:
            loader(bad)
            ok = False
            details.append(f"{ext}: truncation accepted")
        except FormatError:
            pass
    verdict(capsys, 8, ok,
            "; ".join(details) if details
            else "100 fuzzed round trips byte-identical, corruption rejected")


def test_criterion_9_metric_oracle(capsys, blocks5_runs):
    from goi.osh import EmbeddingTable
    ok = True
    details = []

    # the documented closed-form metric examples
    a = np.array([[True, False], [True, True]])
    checks = [
        iou(a, a) == 1.0,
        iou(np.array([True, False]), np.array([False, True])) == 0.0,
        abs(iou(np.array([True, False, False, False]),
                np.array([True, True, False, False])) - 0.5) < 1e-15,
        pixel_accuracy(a, a) == 1.0,
        abs(pixel_accuracy(np.array([True, True, False, False]),
                           np.array([True, False, False, True])) - 0.5)
        < 1e-15,
        precision(np.array([True, False]), np.array([True, True])) == 1.0,
        precision(np.zeros(3, dtype=bool), np.zeros(3, dtype=bool)) == 1.0,
        precision(np.zeros(3, dtype=bool), np.ones(3, dtype=bool)) == 0.0,
        iou(np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool))
        == 1.0,
    ]
    if not all(checks):
        ok = False
        details.append("closed-form metric examples failed")

    # evaluate() against a hand-scripted loop on the 15-case manifest
    run = blocks5_runs[0]
    exp, model = run["exp"], run["model"]
    cases = load_testset(exp.testset_path)
    if len(cases) != 15:
        ok = False
        details.append(f"expected 15 cases, got {len(cases)}")
    table = EmbeddingTable.load(exp.embeddings_path)
    metrics = evaluate(model, cases, table, use_osh=True)
    ious, pas, ps = [], [], []
    for case in cases:
        res = open_vocab_query(model, case.camera, table.lookup(case.text),
                               case.pseudo_mask, use_osh=True)
        inter = np.logical_and(res.mask, case.gt_mask).sum()
        union = np.logical_or(res.mask, case.gt_mask).sum()
        ious.append(1.0 if union == 0 else inter / union)
        pas.append((res.mask == case.gt_mask).mean())
        npred = res.mask.sum()
        ps.append((1.0 if case.gt_mask.sum() == 0 else 0.0) if npred == 0
                  else inter / npred)
    if (abs(metrics.miou - np.mean(ious)) > 1e-12
            or abs(metrics.mpa - np.mean(pas)) > 1e-12
            or abs(metrics.mp - np.mean(ps)) > 1e-12):
        ok = False
        details.append("evaluate() deviates from the scripted loop")
    verdict(capsys, 9, ok,
            "; ".join(details) if details
            else f"examples exact; harness matches oracle loop on "
                 f"{len(cases)} cases (mIoU {metrics.miou:.4f})")
