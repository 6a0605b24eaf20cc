import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from goi import cli, rasterizer, synth, trainer
from goi.codebook import entry_ids, load_codebook, save_codebook
from goi.formats import (read_feature_map, read_mask, read_pgm,
                         write_feature_map, write_mask, write_ppm)
from goi.osh import EmbeddingTable, OSHConfig
from goi.query import manipulate, open_vocab_query, overlay_image
from goi.rasterizer import render
from goi.scene import (MAX_FEATURE_DIM, import_ply, load_camera, load_scene,
                       save_scene)
from goi.trainer import load_model

from test_scene_io import write_binary_ply

SRC = Path(__file__).resolve().parents[1] / "src"
SUBCOMMANDS = ["import-ply", "init-codebook", "train", "render", "query",
               "manipulate", "eval", "synth"]


def run_cli(*argv):
    return cli.run(list(argv))


# count flags below their least value; the last two arguments are the flag
# and its value
COUNTS_BELOW_BOUND = {
    **{f"init-codebook --entries {n}": [
        "init-codebook", "--manifest", "m.json", "--entries", n]
       for n in ("-3", "0", "1")},
    "train --iterations -5": [
        "train", "--scene", "s", "--manifest", "m", "--codebook", "c",
        "--iterations", "-5"],
}


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One synth -> codebook -> short train pass driven through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    exp = root / "exp"
    assert run_cli("synth", "--preset", "rings3", "--out", str(exp),
                   "--seed", "0") == 0
    assert run_cli("init-codebook", "--manifest",
                   str(exp / "train_manifest.json"), "--entries", "60",
                   "--iters", "3", "--max-samples", "20000",
                   "--out", str(root / "cb.goic")) == 0
    cfg = {"iterations": 60, "tau_switch_iter": 40, "seed": 0}
    (root / "train.json").write_text(json.dumps(cfg))
    assert run_cli("train", "--scene", str(exp / "scene.gois"),
                   "--manifest", str(exp / "train_manifest.json"),
                   "--codebook", str(root / "cb.goic"),
                   "--config", str(root / "train.json"),
                   "--out", str(root / "model")) == 0
    return root, exp


class TestHelpAndUsage:
    def test_top_level_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "SUBCOMMAND" in capsys.readouterr().out

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, sub, capsys):
        assert run_cli(sub, "--help") == 0
        assert "--help" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        assert run_cli() == 1

    def test_missing_required_flag(self):
        # query without --text
        assert run_cli("query", "--model", "m", "--camera", "c",
                       "--embeddings", "e", "--out-mask", "o") == 1

    def test_unknown_flag_rejected(self):
        assert run_cli("synth", "--preset", "rings3", "--out", "x",
                       "--frobnicate") == 1

    def test_unknown_preset_rejected(self):
        assert run_cli("synth", "--preset", "nope", "--out", "x") == 1

    @pytest.mark.parametrize("argv", [
        ["synth", "--preset", "rings3"],
        ["init-codebook", "--manifest", "m.json"],
        ["train", "--scene", "s", "--manifest", "m", "--codebook", "c"]])
    def test_negative_seed_is_usage_error(self, argv, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert run_cli(*argv, "--out", out, "--seed", "-1") == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--iters", "--max-samples"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_non_positive_kmeans_count_is_usage_error(self, flag, value,
                                                      tmp_path, capsys):
        out = tmp_path / "cb.goic"
        assert run_cli("init-codebook", "--manifest", "m.json", flag, value,
                       "--out", str(out)) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(COUNTS_BELOW_BOUND))
    def test_count_below_its_bound_is_usage_error(self, case, tmp_path,
                                                  capsys):
        # exit 1 before any input is read: none of these files exists
        argv = COUNTS_BELOW_BOUND[case]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert argv[-2] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_non_positive_feature_dim_is_usage_error(self, value, tmp_path,
                                                     capsys):
        out = tmp_path / "s.gois"
        assert run_cli("import-ply", "--in", "pts.ply", "--feature-dim",
                       value, "--out", str(out)) == 1
        assert "--feature-dim" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["render", "--model", "{absent}", "--camera", "{absent}"],
        ["query", "--model", "{absent}", "--camera", "{absent}", "--text",
         "t", "--embeddings", "{absent}", "--out-mask", "{absent}.pgm"],
        ["manipulate", "--scene", "{absent}", "--goi", "{absent}",
         "--action", "translate", "--out", "{absent}.gois"],
        ["manipulate", "--scene", "{absent}", "--goi", "{absent}",
         "--action", "highlight", "--out", "{absent}.gois"],
        ["manipulate", "--scene", "{absent}", "--goi", "{absent}",
         "--action", "translate", "--delta", "1,2", "--out",
         "{absent}.gois"]],
        ids=["render no output", "query no pseudo-mask", "translate no delta",
             "highlight no color", "translate short delta"])
    def test_usage_error_comes_before_any_read(self, argv, tmp_path, capsys):
        absent = str(tmp_path / "absent")
        assert run_cli(*[a.format(absent=absent) for a in argv]) == 1
        assert "absent" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "x"])
    @pytest.mark.parametrize("argv", [
        ["query", "--model", "{absent}", "--camera", "{absent}", "--text",
         "t", "--embeddings", "{absent}", "--no-osh", "--out-mask",
         "{absent}.pgm"],
        ["eval", "--model", "{absent}", "--testset", "{absent}", "--out",
         "{absent}.json"]], ids=["query", "eval"])
    def test_non_finite_threshold_is_usage_error(self, argv, value, tmp_path,
                                                 capsys):
        absent = str(tmp_path / "absent")
        assert run_cli(*[a.format(absent=absent) for a in argv],
                       f"--threshold={value}") == 1
        err = capsys.readouterr().err
        assert "--threshold" in err and "absent" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("config, key", [
        ({"tau_end": -1}, "tau_end"), ({"lambda_ent": 1}, "lambda_ent"),
        ({"iterations": 2.5}, "iterations")])
    def test_train_config_checked_before_any_read(self, tmp_path, capsys,
                                                   config, key):
        (tmp_path / "train.json").write_text(json.dumps(config))
        absent = str(tmp_path / "absent")
        code = run_cli("train", "--scene", absent, "--manifest", absent,
                       "--codebook", absent, "--config",
                       str(tmp_path / "train.json"), "--out", absent)
        err = assert_one_line_data_error(code, capsys)
        assert key in err and "absent" not in err

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert run_cli("init-codebook", "--manifest",
                       str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "cb.goic")) == 2

    def test_resolved_config_printed(self, capsys, tmp_path):
        run_cli("synth", "--preset", "rings3", "--out",
                str(tmp_path / "e2"), "--seed", "3")
        out = capsys.readouterr().out
        assert out.startswith("config:")
        cfg = json.loads(out.splitlines()[0][len("config:"):])
        assert cfg["seed"] == 3 and cfg["preset"] == "rings3"


class TestThinWrappers:
    def test_query_mask_matches_library_bytes(self, pipeline, tmp_path):
        root, exp = pipeline
        cam_file = str(exp / "cam_eval_0.json")
        cli_mask = tmp_path / "cli_mask.pgm"
        assert run_cli("query", "--model", str(root / "model"),
                       "--camera", cam_file, "--text", "cluster 0",
                       "--embeddings", str(exp / "embeddings.json"),
                       "--no-osh", "--out-mask", str(cli_mask)) == 0
        model = load_model(root / "model")
        table = EmbeddingTable.load(exp / "embeddings.json")
        res = open_vocab_query(model, load_camera(cam_file),
                               table.lookup("cluster 0"), use_osh=False)
        lib_mask = tmp_path / "lib_mask.pgm"
        write_mask(lib_mask, res.mask)
        assert cli_mask.read_bytes() == lib_mask.read_bytes()

    def test_query_with_osh_and_artifacts(self, pipeline, tmp_path):
        root, exp = pipeline
        testset = json.loads((exp / "testset.json").read_text())
        case = testset["cases"][0]
        out_mask = tmp_path / "m.pgm"
        assert run_cli("query", "--model", str(root / "model"),
                       "--camera", str(exp / case["camera"]),
                       "--text", case["text"],
                       "--embeddings", str(exp / "embeddings.json"),
                       "--pseudo-mask", str(exp / case["pseudo_mask"]),
                       "--out-mask", str(out_mask),
                       "--out-goi", str(tmp_path / "goi.json"),
                       "--out-overlay", str(tmp_path / "ov.ppm"),
                       "--out-hyperplane", str(tmp_path / "h.json")) == 0
        assert out_mask.exists() and (tmp_path / "ov.ppm").exists()
        goi = json.loads((tmp_path / "goi.json").read_text())
        assert all(isinstance(i, int) for i in goi["indices"])
        h = json.loads((tmp_path / "h.json").read_text())
        assert "weight" in h and "bias" in h

    def test_query_overlay_renders_once(self, pipeline, tmp_path,
                                        monkeypatch):
        root, exp = pipeline
        cam_file = exp / "cam_eval_0.json"
        calls = []
        original = rasterizer.composite_weights

        def counted(scene, cam):
            calls.append(cam)
            return original(scene, cam)
        monkeypatch.setattr(rasterizer, "composite_weights", counted)
        assert run_cli("query", "--model", str(root / "model"),
                       "--camera", str(cam_file), "--text", "cluster 0",
                       "--embeddings", str(exp / "embeddings.json"),
                       "--no-osh", "--out-mask", str(tmp_path / "m.pgm"),
                       "--out-overlay", str(tmp_path / "ov.ppm")) == 0
        assert len(calls) == 1
        model = load_model(root / "model")
        cam = load_camera(cam_file)
        res = open_vocab_query(
            model, cam, EmbeddingTable.load(exp / "embeddings.json").lookup(
                "cluster 0"), use_osh=False)
        write_ppm(tmp_path / "lib.ppm",
                  overlay_image(render(model.scene, cam).rgb, res.mask))
        assert ((tmp_path / "ov.ppm").read_bytes()
                == (tmp_path / "lib.ppm").read_bytes())

    def test_query_with_osh_renders_once(self, pipeline, tmp_path,
                                         monkeypatch):
        root, exp = pipeline
        case = json.loads((exp / "testset.json").read_text())["cases"][0]
        calls = []
        original = rasterizer.composite_weights

        def counted(scene, cam):
            calls.append(cam)
            return original(scene, cam)
        monkeypatch.setattr(rasterizer, "composite_weights", counted)
        assert run_cli("query", "--model", str(root / "model"),
                       "--camera", str(exp / case["camera"]),
                       "--text", case["text"],
                       "--embeddings", str(exp / "embeddings.json"),
                       "--pseudo-mask", str(exp / case["pseudo_mask"]),
                       "--out-mask", str(tmp_path / "m.pgm")) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("overlay", [False, True])
    def test_query_pseudo_mask_of_wrong_shape(self, pipeline, tmp_path,
                                              capsys, overlay):
        root, exp = pipeline
        write_mask(tmp_path / "small.pgm", np.zeros((5, 7), dtype=bool))
        code = run_cli("query", "--model", str(root / "model"),
                       "--camera", str(exp / "cam_eval_0.json"),
                       "--text", "cluster 0",
                       "--embeddings", str(exp / "embeddings.json"),
                       "--pseudo-mask", str(tmp_path / "small.pgm"),
                       "--out-mask", str(tmp_path / "m.pgm"),
                       *(["--out-overlay", str(tmp_path / "ov.ppm")]
                         if overlay else []))
        cam = load_camera(exp / "cam_eval_0.json")
        assert assert_one_line_data_error(code, capsys) == (
            f"error: pseudo-mask shape (5, 7) does not match the "
            f"{cam.height}x{cam.width} view\n")
        assert [p.name for p in tmp_path.iterdir()] == ["small.pgm"]

    @pytest.mark.parametrize("dim", [None, 8], ids=["osh", "wrong-dim"])
    def test_query_from_a_camera_seeing_no_surface(self, pipeline, tmp_path,
                                                   capsys, dim):
        # the camera is turned to face away from the scene, so OSH has no
        # surface pixel to fit on: the error names the camera and the
        # way round it, while an embedding of the wrong size is reported
        # as such
        root, exp = pipeline
        case = json.loads((exp / "testset.json").read_text())["cases"][0]
        cam = json.loads((exp / case["camera"]).read_text())
        w2c = np.reshape(cam["world_to_camera"], (4, 4))
        cam["world_to_camera"] = (np.diag([-1.0, 1.0, -1.0, 1.0])
                                  @ w2c).ravel().tolist()
        cam_file = tmp_path / "away.json"
        cam_file.write_text(json.dumps(cam))
        table = exp / "embeddings.json"
        if dim:
            table = tmp_path / "small.json"
            table.write_text(json.dumps({"dim": dim, "entries": [
                {"text": case["text"], "embedding": [1.0] * dim}]}))
        before = sorted(tmp_path.iterdir())
        code = run_cli("query", "--model", str(root / "model"),
                       "--camera", str(cam_file), "--text", case["text"],
                       "--embeddings", str(table),
                       "--pseudo-mask", str(exp / case["pseudo_mask"]),
                       "--out-mask", str(tmp_path / "m.pgm"),
                       "--out-goi", str(tmp_path / "goi.json"))
        err = assert_one_line_data_error(code, capsys)
        if dim:
            assert err == (f"error: embedding dim {dim} does not match "
                           "codebook dim 256\n")
        else:
            assert str(cam_file) in err and "no surface pixel" in err
            assert "--no-osh queries the view without refinement" in err
        assert sorted(tmp_path.iterdir()) == before

    def test_manipulate_matches_library_bytes(self, pipeline, tmp_path):
        root, exp = pipeline
        (tmp_path / "goi.json").write_text(json.dumps(
            {"indices": list(range(50))}))
        cli_out = tmp_path / "cli.gois"
        assert run_cli("manipulate", "--scene", str(exp / "scene.gois"),
                       "--goi", str(tmp_path / "goi.json"),
                       "--action", "translate", "--delta", "1.0,0.5,-2.0",
                       "--out", str(cli_out)) == 0
        scene = load_scene(exp / "scene.gois")
        lib = manipulate(scene, list(range(50)), "translate",
                         delta=np.array([1.0, 0.5, -2.0]))
        lib_out = tmp_path / "lib.gois"
        save_scene(lib, lib_out)
        assert cli_out.read_bytes() == lib_out.read_bytes()

    def test_negative_delta_attached_with_equals(self, pipeline, tmp_path):
        root, exp = pipeline
        (tmp_path / "goi.json").write_text(json.dumps({"indices": [0, 1]}))
        out = tmp_path / "o.gois"
        argv = ["manipulate", "--scene", str(exp / "scene.gois"),
                "--goi", str(tmp_path / "goi.json"), "--action", "translate",
                "--out", str(out)]
        # written apart, argparse reads "-1,0,0" as an option
        assert run_cli(*argv, "--delta", "-1,0,0") == 1
        assert not out.exists()
        assert run_cli(*argv, "--delta=-1,0,0") == 0
        before = load_scene(exp / "scene.gois").centroids
        after = load_scene(out).centroids
        expected = before.copy()
        expected[:2, 0] -= np.float32(1.0)
        assert np.array_equal(after, expected)

    def test_highlight_paints_the_selection(self, pipeline, tmp_path):
        root, exp = pipeline
        (tmp_path / "goi.json").write_text(json.dumps({"indices": [0, 3]}))
        out = tmp_path / "o.gois"
        assert run_cli("manipulate", "--scene", str(exp / "scene.gois"),
                       "--goi", str(tmp_path / "goi.json"),
                       "--action", "highlight", "--color", "1,0.5,0",
                       "--out", str(out)) == 0
        before = load_scene(exp / "scene.gois").rgbs
        after = load_scene(out).rgbs
        expected = before.copy()
        expected[[0, 3]] = [1.0, 0.5, 0.0]
        assert np.array_equal(after, expected)

    def test_manipulate_requires_action_arguments(self, pipeline, tmp_path):
        root, exp = pipeline
        (tmp_path / "goi.json").write_text(json.dumps({"indices": [0]}))
        assert run_cli("manipulate", "--scene", str(exp / "scene.gois"),
                       "--goi", str(tmp_path / "goi.json"),
                       "--action", "translate",
                       "--out", str(tmp_path / "o.gois")) == 1

    @pytest.mark.parametrize("action,flag,value,code", [
        ("translate", "--delta", "a,b,c", 1),
        ("translate", "--delta", "1,2", 1),
        ("translate", "--delta", "nan,0,0", 1),
        ("translate", "--delta", "0,-inf,0", 1),
        ("highlight", "--color", "x,0,0", 1),
        ("highlight", "--color", "0,nan,0", 1),
        # finite here, but infinite once cast to the scene's float32
        ("translate", "--delta", "1e39,0,0", 2)])
    def test_manipulate_bad_vector_writes_nothing(self, pipeline, tmp_path,
                                                  capsys, action, flag,
                                                  value, code):
        root, exp = pipeline
        argv = [action, flag, value]
        (tmp_path / "goi.json").write_text(json.dumps({"indices": [0, 1]}))
        out = tmp_path / "o.gois"
        assert run_cli("manipulate", "--scene", str(exp / "scene.gois"),
                       "--goi", str(tmp_path / "goi.json"), "--action",
                       *argv, "--out", str(out)) == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not out.exists()

    def test_render_outputs(self, pipeline, tmp_path):
        root, exp = pipeline
        assert run_cli("render", "--model", str(root / "model"),
                       "--camera", str(exp / "cam_eval_0.json"),
                       "--out-rgb", str(tmp_path / "v.ppm"),
                       "--out-alpha", str(tmp_path / "a.pgm")) == 0
        assert (tmp_path / "v.ppm").exists() and (tmp_path / "a.pgm").exists()

    def test_render_features_match_library(self, pipeline, tmp_path):
        root, exp = pipeline
        cam_file = exp / "cam_eval_0.json"
        out = tmp_path / "f.goif"
        assert run_cli("render", "--model", str(root / "model"),
                       "--camera", str(cam_file), "--out-feat", str(out)) == 0
        want = render(load_model(root / "model").scene,
                      load_camera(cam_file)).ld_features
        assert np.array_equal(read_feature_map(out), want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_render_with_overflowing_focal_length(self, pipeline, tmp_path):
        # finite, so the camera loads, but every splat's projection
        # overflows and is skipped
        root, exp = pipeline
        cam = json.loads((exp / "cam_eval_0.json").read_text())
        cam.update(fx=1e80, fy=1e80)
        (tmp_path / "cam.json").write_text(json.dumps(cam))
        assert run_cli("render", "--model", str(root / "model"),
                       "--camera", str(tmp_path / "cam.json"),
                       "--out-alpha", str(tmp_path / "a.pgm")) == 0
        assert not read_pgm(tmp_path / "a.pgm").any()

    def test_render_at_float_max_focal_length_warns_once(self, tmp_path):
        # fx * x overflows for the means too; the skip count is the one
        # warning a user sees, with none of numpy's "encountered in"
        exp, model = tmp_path / "exp", tmp_path / "model"
        manifest = str(exp / "train_manifest.json")
        assert run_cli("synth", "--preset", "blocks5", "--out", str(exp)) == 0
        assert run_cli("init-codebook", "--manifest", manifest,
                       "--max-samples", "2000",
                       "--out", str(tmp_path / "cb.goic")) == 0
        assert run_cli("train", "--scene", str(exp / "scene.gois"),
                       "--manifest", manifest, "--iterations", "0",
                       "--codebook", str(tmp_path / "cb.goic"),
                       "--out", str(model)) == 0
        cam = json.loads((exp / "cam_eval_0.json").read_text())
        cam.update(fx=1e308, fy=1e308)
        (tmp_path / "cam.json").write_text(json.dumps(cam))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "goi.cli", "render", "--model", str(model),
             "--camera", str(tmp_path / "cam.json"),
             "--out-alpha", str(tmp_path / "a.pgm")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        # one line in the CLI's own format, naming no source file
        assert re.fullmatch(r"warning: skipping \d+ splat\(s\) with "
                            r"non-invertible 2D covariance\n", proc.stderr)
        assert ".py:" not in proc.stderr
        assert not read_pgm(tmp_path / "a.pgm").any()

    def test_warning_format_ends_with_the_run(self, capsys):
        shown = warnings.showwarning
        assert run_cli("synth") == cli.EXIT_USAGE
        assert warnings.showwarning is shown

    def test_render_without_outputs_is_usage_error(self, pipeline):
        root, exp = pipeline
        assert run_cli("render", "--model", str(root / "model"),
                       "--camera", str(exp / "cam_eval_0.json")) == 1

    def test_eval_writes_report(self, pipeline, tmp_path):
        root, exp = pipeline
        out = tmp_path / "report.json"
        assert run_cli("eval", "--model", str(root / "model"),
                       "--testset", str(exp / "testset.json"),
                       "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        assert set(rep) >= {"cases", "mIoU", "mPA", "mP"}
        assert 0.0 <= rep["mIoU"] <= 1.0

    def test_corrupt_scene_is_data_error(self, pipeline, tmp_path):
        root, exp = pipeline
        bad = tmp_path / "bad.gois"
        bad.write_bytes(b"GARBAGE!")
        (tmp_path / "goi.json").write_text(json.dumps({"indices": [0]}))
        assert run_cli("manipulate", "--scene", str(bad),
                       "--goi", str(tmp_path / "goi.json"),
                       "--action", "delete",
                       "--out", str(tmp_path / "o.gois")) == 2


SHORT_MATRIX_CAMERA = json.dumps({
    "width": 8, "height": 8, "fx": 10.0, "fy": 10.0, "cx": 4.0, "cy": 4.0,
    "world_to_camera": [1.0, 0.0, 0.0]})

PLY_HEADER = "\n".join(
    ["ply", "format ascii 1.0", "element vertex 1"]
    + [f"property float {p}" for p in (
        "x y z rot_0 rot_1 rot_2 rot_3 scale_0 scale_1 scale_2 opacity "
        "f_dc_0 f_dc_1 f_dc_2").split()]
    + ["end_header", ""])
IMPORT_PLY = ["import-ply", "--in", "{bad}", "--out", "{out}/s.gois"]
RENDER = ["render", "--model", "{model}", "--camera", "{bad}", "--out-rgb",
          "{out}/v.ppm"]


def camera_with(key, literal):
    """JSON text of a valid camera whose `key` is written as `literal`."""
    cam = {"width": 8, "height": 8, "fx": 10.0, "fy": 10.0, "cx": 4.0,
           "cy": 4.0, "world_to_camera": list(np.eye(4).ravel()),
           key: "@"}
    return json.dumps(cam).replace('"@"', literal)

DEEP_JSON = "[" * 100_000 + "]" * 100_000
MANIPULATE_GOI = ["manipulate", "--scene", "{scene}", "--goi", "{bad}",
                  "--action", "delete", "--out", "{out}/o.gois"]

# {bad} is the malformed file; its content follows each argument list, then
# a fragment of the one error line it must give
MALFORMED_INPUTS = {
    "import-ply element count not a number": (
        IMPORT_PLY, PLY_HEADER.replace("vertex 1", "vertex x")
        + "0 " * 14 + "\n", "malformed PLY header line b'element vertex x"),
    "import-ply negative ASCII vertex count": (
        IMPORT_PLY, PLY_HEADER.replace("vertex 1", "vertex -1")
        + "0 " * 14 + "\n", "negative PLY vertex count -1"),
    "import-ply negative binary vertex count": (
        IMPORT_PLY, PLY_HEADER.replace("ascii", "binary_little_endian")
        .replace("vertex 1", "vertex -1").encode() + bytes(4 * 14),
        "negative PLY vertex count -1"),
    "import-ply bare element line": (
        IMPORT_PLY, PLY_HEADER.replace("element vertex 1", "element")
        + "0 " * 14 + "\n", "malformed PLY header line b'element\\n'"),
    "import-ply non-numeric ASCII value": (
        IMPORT_PLY, PLY_HEADER + "0 0 0 1 0 0 0 0 0 0 abc 0 0 0\n",
        "non-numeric ASCII PLY vertex data"),
    "import-ply repeated binary property": (
        IMPORT_PLY, PLY_HEADER.replace("ascii", "binary_little_endian")
        .replace("end_header", "property float x\nend_header").encode()
        + bytes(4 * 15), "repeated PLY vertex property 'x'"),
    "import-ply vertex list property": (
        IMPORT_PLY, PLY_HEADER.replace(
            "end_header", "property list uchar int vertex_indices\nend_header")
        + "0 " * 14 + "1 0\n",
        "list properties unsupported in vertex element"),
    "import-ply property type float16": (
        IMPORT_PLY, PLY_HEADER.replace(
            "end_header", "property float16 h\nend_header")
        + "0 " * 15 + "\n", "unsupported PLY property type float16"),
    "import-ply big-endian binary": (
        IMPORT_PLY, PLY_HEADER.replace("ascii", "binary_big_endian").encode()
        + bytes(4 * 14), "unsupported PLY format binary_big_endian"),
    "import-ply no vertex element": (
        IMPORT_PLY, "ply\nformat ascii 1.0\nend_header\n",
        "PLY has no vertex element"),
    "import-ply truncated ASCII vertex data": (
        IMPORT_PLY, PLY_HEADER + "0 " * 13 + "\n",
        "truncated ASCII PLY vertex data"),
    "import-ply element before vertex": (
        IMPORT_PLY, PLY_HEADER.replace("ascii", "binary_little_endian")
        .replace("element vertex", "element extra 1\nproperty float a\n"
                 "element vertex").encode()
        + struct.pack("<15f", 7.0, *[0.0] * 3, 1.0, *[0.0] * 10),
        "PLY element 'extra' comes before the vertex element"),
    # finite values that overflow once activated or cast to float32
    "import-ply scale_0 89": (
        IMPORT_PLY, PLY_HEADER + "0 0 0 1 0 0 0 89 0 0 0 0 0 0\n",
        "non-finite scale (record 0)"),
    "import-ply scale_0 1e5": (
        IMPORT_PLY, PLY_HEADER + "0 0 0 1 0 0 0 1e5 0 0 0 0 0 0\n",
        "non-finite scale (record 0)"),
    "import-ply double rot_0 1e200": (
        IMPORT_PLY, PLY_HEADER.replace("float rot_0", "double rot_0")
        + "0 0 0 1e200 0 0 0 0 0 0 0 0 0 0\n",
        "quaternion not unit norm (record 0)"),
    "import-ply double x 1e300": (
        IMPORT_PLY, PLY_HEADER.replace("float x", "double x")
        + "1e300 0 0 1 0 0 0 0 0 0 0 0 0 0\n",
        "non-finite centroid (record 0)"),
    "train --config fractional iterations": (
        ["train", "--scene", "{scene}", "--manifest", "{manifest}",
         "--codebook", "{cb}", "--config", "{bad}", "--out", "{out}/model"],
        '{"iterations": 20.5, "tau_switch_iter": 10}',
        "iterations must be an integer, got 20.5"),
    "query --embeddings": (
        ["query", "--model", "{model}", "--camera", "{cam}", "--text",
         "cluster 0", "--embeddings", "{bad}", "--no-osh", "--out-mask",
         "{out}/m.pgm"], '{"dim": 3, "entries": [',
        "embedding table is malformed: Expecting value"),
    "query --embeddings repeated text": (
        ["query", "--model", "{model}", "--camera", "{cam}", "--text",
         "cluster 0", "--embeddings", "{bad}", "--no-osh", "--out-mask",
         "{out}/m.pgm"], '{"dim": 2, "entries": ['
        '{"text": "a", "embedding": [1, 0]}, '
        '{"text": "a", "embedding": [0, 1]}]}', "repeated embedding text 'a'"),
    "query --embeddings norm overflows": (
        ["query", "--model", "{model}", "--camera", "{cam}", "--text",
         "cluster 0", "--embeddings", "{bad}", "--no-osh", "--out-mask",
         "{out}/m.pgm"], '{"dim": 2, "entries": ['
        '{"text": "big", "embedding": [1e300, 0]}]}',
        "embedding for 'big' has a norm that overflows float64"),
    "query --embeddings dim 0": (
        ["query", "--model", "{model}", "--camera", "{cam}", "--text",
         "cluster 0", "--embeddings", "{bad}", "--no-osh", "--out-mask",
         "{out}/m.pgm"], '{"dim": 0, "entries": []}',
        "bad.json: embedding table is malformed: dim must be >= 1, got 0"),
    "query --embeddings zero norm": (
        ["query", "--model", "{model}", "--camera", "{cam}", "--text",
         "cluster 0", "--embeddings", "{bad}", "--no-osh", "--out-mask",
         "{out}/m.pgm"], '{"dim": 2, "entries": ['
        '{"text": "cluster 0", "embedding": [0, 0]}]}',
        "bad.json: embedding table is malformed: embedding for 'cluster 0' "
        "has zero norm"),
    "query --camera": (
        ["query", "--model", "{model}", "--camera", "{bad}", "--text",
         "cluster 0", "--embeddings", "{emb}", "--no-osh", "--out-mask",
         "{out}/m.pgm"], '{"width": 8,',
        "camera is malformed: Expecting property name"),
    "eval --testset": (
        ["eval", "--model", "{model}", "--testset", "{bad}", "--out",
         "{out}/r.json"], "cases: []",
        "test set is malformed: Expecting value"),
    "manipulate --goi": (
        MANIPULATE_GOI, '{"indices": [0, 1',
        "Gaussian index list is malformed: Expecting ','"),
    "init-codebook --manifest": (
        ["init-codebook", "--manifest", "{bad}", "--out", "{out}/cb.goic"],
        "", "training manifest is malformed: Expecting value"),
    # nesting past the decoder's recursion limit
    "init-codebook --manifest nested 10^5 deep": (
        ["init-codebook", "--manifest", "{bad}", "--out", "{out}/cb.goic"],
        DEEP_JSON, "bad.json: training manifest is malformed: maximum "
        "recursion depth exceeded"),
    "train --config nested 10^5 deep": (
        ["train", "--scene", "{scene}", "--manifest", "{manifest}",
         "--codebook", "{cb}", "--config", "{bad}", "--out", "{out}/model"],
        DEEP_JSON, "bad.json: training config is malformed: maximum "
        "recursion depth exceeded"),
    "render 3-element matrix": (
        RENDER, SHORT_MATRIX_CAMERA, "camera is malformed: cannot reshape"),
    # numbers that are not finite as floats
    "render cx NaN": (
        RENDER, camera_with("cx", "NaN"), "non-finite number NaN"),
    "render fx 1e309": (
        RENDER, camera_with("fx", "1e309"), "non-finite number 1e309"),
    "render fx 401-digit integer": (
        RENDER, camera_with("fx", "9" * 401),
        "int too large to convert to float"),
    "render cy Infinity": (
        RENDER, camera_with("cy", "Infinity"), "non-finite number Infinity"),
    "render cy -Infinity": (
        RENDER, camera_with("cy", "-Infinity"), "non-finite number -Infinity"),
    # sizes over the camera pixel limit, rejected before any allocation
    "render width 10^400": (
        RENDER, camera_with("width", "1" + "0" * 400),
        "camera has more than 16777216 pixels"),
    "render 100000x100000": (RENDER, camera_with("width", "100000").replace(
        '"height": 8', '"height": 100000'),
        "camera has more than 16777216 pixels"),
    # sizes that are not JSON integers
    "render width 8.9": (
        RENDER, camera_with("width", "8.9"),
        "width and height must be integers"),
    "render width 8.0": (
        RENDER, camera_with("width", "8.0"),
        "width and height must be integers"),
    "render height true": (
        RENDER, camera_with("height", "true"),
        "width and height must be integers"),
    # numbers that are not JSON numbers
    "render fx string": (
        RENDER, camera_with("fx", '"60"'),
        "intrinsics and pose must be numbers"),
    "render fy true": (
        RENDER, camera_with("fy", "true"),
        "intrinsics and pose must be numbers"),
    "render pose entry string": (RENDER, camera_with(
        "world_to_camera", json.dumps(["1"] + list(np.eye(4).ravel()[1:]))),
        "intrinsics and pose must be numbers"),
    "render pose last row 1 2 3 4": (RENDER, camera_with(
        "world_to_camera", json.dumps(list(np.eye(4).ravel()[:12])
                                      + [1.0, 2.0, 3.0, 4.0])),
        "world_to_camera last row must be (0, 0, 0, 1)"),
    # JSON that parses but has the wrong shape
    "init-codebook --manifest {}": (
        ["init-codebook", "--manifest", "{bad}", "--out", "{out}/cb.goic"],
        "{}", "training manifest is missing key 'feature_dim_high'"),
    "init-codebook --manifest list": (
        ["init-codebook", "--manifest", "{bad}", "--out", "{out}/cb.goic"],
        "[1, 2]", "training manifest is malformed"),
    "manipulate --goi list": (
        MANIPULATE_GOI, "[0]", "Gaussian index list is malformed"),
    "manipulate --goi string index": (
        MANIPULATE_GOI, '{"indices": ["a"]}',
        "Gaussian indices must be a list of integers"),
    "manipulate --goi fractional index": (
        MANIPULATE_GOI, '{"indices": [0.5]}',
        "Gaussian indices must be a list of integers"),
    "manipulate --goi boolean index": (
        MANIPULATE_GOI, '{"indices": [true]}',
        "Gaussian indices must be a list of integers"),
    "manipulate --goi index 10^30": (
        MANIPULATE_GOI, '{"indices": [%d]}' % 10 ** 30,
        "manipulation index out of range"),
    "manipulate --goi negative index": (
        MANIPULATE_GOI, '{"indices": [-1]}',
        "manipulation index out of range"),
    "manipulate --goi index 2^63": (
        MANIPULATE_GOI, '{"indices": [%d]}' % 2 ** 63,
        "bad.json: manipulation index out of range"),
    "manipulate --goi index -2^63 - 1": (
        MANIPULATE_GOI, '{"indices": [%d]}' % (-2 ** 63 - 1),
        "bad.json: manipulation index out of range"),
    "manipulate --goi indices not a list": (
        MANIPULATE_GOI, '{"indices": ""}',
        "Gaussian indices must be a list of integers"),
    "eval --testset cases not a list": (
        ["eval", "--model", "{model}", "--testset", "{bad}", "--out",
         "{out}/r.json"], '{"cases": 3}', "test set is malformed"),
    "query --embeddings entry not an object": (
        ["query", "--model", "{model}", "--camera", "{cam}", "--text",
         "cluster 0", "--embeddings", "{bad}", "--no-osh", "--out-mask",
         "{out}/m.pgm"], '{"dim": 2, "entries": [1]}',
        "embedding table is malformed"),
    "train --config string iterations": (
        ["train", "--scene", "{scene}", "--manifest", "{manifest}",
         "--codebook", "{cb}", "--config", "{bad}", "--out", "{out}/model"],
        '{"iterations": "x"}', "iterations must be an integer, got 'x'"),
    "train --config negative seed": (
        ["train", "--scene", "{scene}", "--manifest", "{manifest}",
         "--codebook", "{cb}", "--config", "{bad}", "--out", "{out}/model"],
        '{"seed": -5}', "seed must be >= 0"),
    # GOIS headers whose record count the file cannot hold
    "manipulate --scene count 2^58": (
        ["manipulate", "--scene", "{bad}", "--goi", "{goi}", "--action",
         "delete", "--out", "{out}/o.gois"],
        b"GOIS" + struct.pack("<IQII", 1, 2 ** 58, 10, 0),
        "its header implies 27670116110564327424"),
    "manipulate --scene count 10^8": (
        ["manipulate", "--scene", "{bad}", "--goi", "{goi}", "--action",
         "delete", "--out", "{out}/o.gois"],
        b"GOIS" + struct.pack("<IQII", 1, 10 ** 8, 10, 0),
        "its header implies 9600000000"),
}


def assert_one_line_data_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


class TestTrain:
    def train(self, pipeline, tmp_path, *flags, config=None):
        root, exp = pipeline
        if config is not None:
            (tmp_path / "train.json").write_text(json.dumps(config))
            flags += ("--config", str(tmp_path / "train.json"))
        return run_cli("train", "--scene", str(exp / "scene.gois"),
                       "--manifest", str(exp / "train_manifest.json"),
                       "--codebook", str(root / "cb.goic"),
                       "--out", str(tmp_path / "model"), *flags)

    @pytest.mark.parametrize("key", ["tau_start", "tau_end"])
    def test_non_positive_temperature_fails_before_gathering(
            self, pipeline, tmp_path, capsys, monkeypatch, key):
        gathered = []
        monkeypatch.setattr(trainer, "composite_weights",
                            lambda *args: gathered.append(args))
        code = self.train(pipeline, tmp_path, config={
            "iterations": 30, "tau_switch_iter": 20, key: -1})
        assert (f"{key} must be positive"
                in assert_one_line_data_error(code, capsys))
        assert gathered == []
        assert not (tmp_path / "model").exists()

    def test_negative_tau_switch_iter_is_data_error(self, pipeline, tmp_path,
                                                     capsys):
        code = self.train(pipeline, tmp_path, config={
            "iterations": 3, "tau_switch_iter": -5})
        assert ("tau_switch_iter must be >= 0"
                in assert_one_line_data_error(code, capsys))
        assert not (tmp_path / "model").exists()

    def test_iterations_before_the_tau_switch(self, pipeline, tmp_path):
        assert self.train(pipeline, tmp_path, "--iterations", "50") == 0
        cfg = load_model(tmp_path / "model").meta["config"]
        assert (cfg["iterations"], cfg["tau_switch_iter"]) == (50, 1000)

    @pytest.mark.parametrize("key", ["lambda_ent", "lambda_max",
                                     "lambda_joint", "lambda_e2e",
                                     "temp_dec", "pixels_per_iter"])
    def test_removed_config_key_is_data_error(self, pipeline, tmp_path,
                                              capsys, key):
        code = self.train(pipeline, tmp_path, config={key: 1})
        assert key in assert_one_line_data_error(code, capsys)
        assert not (tmp_path / "model").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_loss_is_numeric_failure(self, pipeline, tmp_path,
                                                capsys):
        code = self.train(pipeline, tmp_path,
                          config={"iterations": 5, "lr_feature": 1e300})
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == [
            "numeric failure: non-finite training loss at iteration 1"]
        assert not (tmp_path / "model").exists()

    @pytest.mark.parametrize("rate, name", [
        ("lr_feature", "features"), ("lr_codebook", "codebook entries"),
        ("lr_decoder", "decoder")])
    def test_parameter_past_float32_is_numeric_failure(
            self, pipeline, tmp_path, capsys, rate, name):
        # one step, so no later loss sees the overflow: the float32 check
        # before the model is built does, and nothing is saved
        code = self.train(pipeline, tmp_path,
                          config={"iterations": 1, rate: 1e308})
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith(f"numeric failure: trained {name}")
        assert err.rstrip().endswith("do not fit float32")
        assert not (tmp_path / "model").exists()

    def test_collapsed_entry_is_numeric_failure(self, pipeline, tmp_path,
                                                capsys, monkeypatch):
        real = trainer.total_loss

        def collapsing(v_gt, fhat, cb, dec, tau):
            out = real(v_gt, fhat, cb, dec, tau)
            cb.entries[0] = 0.0
            return out
        monkeypatch.setattr(trainer, "total_loss", collapsing)
        # the next step's loss finds the collapse; after the last step, the
        # trained Codebook's own check does
        for iterations, message in ((5, "zero-norm codebook entry"),
                                    (1, "codebook contains a (near-)zero "
                                        "entry")):
            code = self.train(pipeline, tmp_path, config={
                "iterations": iterations, "lr_codebook": 0.0})
            assert code == 3
            assert capsys.readouterr().err.splitlines() == [
                f"numeric failure: {message}"]
            assert not (tmp_path / "model").exists()


class TestInitCodebook:
    def test_one_distinct_feature_is_data_error(self, pipeline, tmp_path,
                                                capsys):
        root, exp = pipeline
        shutil.copy(exp / "cam_eval_0.json", tmp_path / "cam.json")
        write_feature_map(tmp_path / "gt.goif", np.tile(
            np.arange(1.0, 9.0, dtype=np.float32), (4, 4, 1)))
        (tmp_path / "m.json").write_text(json.dumps(
            {"feature_dim_high": 8,
             "views": [{"camera": "cam.json", "features": "gt.goif"}]}))
        code = run_cli("init-codebook", "--manifest", str(tmp_path / "m.json"),
                       "--out", str(tmp_path / "cb.goic"))
        err = assert_one_line_data_error(code, capsys)
        manifest = tmp_path / "m.json"
        assert f"{manifest}: samples hold one distinct feature" in err
        assert not (tmp_path / "cb.goic").exists()


    def test_peak_memory_holds_one_copy_of_the_samples(self, pipeline,
                                                        tmp_path):
        # every row is kept: the peak is the float32 rows (1x the maps,
        # which are dropped before k-means starts) and their unit float64
        # copy (2x), the one array _normalize_rows allocates; k-means
        # drops the rows once normalised, so Lloyd stays below that
        root, exp = pipeline
        manifest = exp / "train_manifest.json"
        maps = sum(read_feature_map(exp / v["features"]).nbytes
                   for v in json.loads(manifest.read_text())["views"])
        tracemalloc.start()
        try:
            assert run_cli("init-codebook", "--manifest", str(manifest),
                           "--out", str(tmp_path / "cb.goic")) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.2 * maps, peak / maps

    def test_peak_memory_drops_the_rows_before_lloyd(self, pipeline,
                                                     tmp_path):
        # random 64-d features never cover each other, so k-means fills
        # its 16 entries and Lloyd's (samples, 16) sims come to 1x the
        # maps: 3.2x with unit, 4.2x if the float32 rows stay alive too
        root, exp = pipeline
        shutil.copy(exp / "cam_eval_0.json", tmp_path / "cam.json")
        rng = np.random.default_rng(9)
        views = []
        for i in range(5):
            write_feature_map(tmp_path / f"gt{i}.goif", rng.standard_normal(
                (64, 64, 64), dtype=np.float32))
            views.append({"camera": "cam.json", "features": f"gt{i}.goif"})
        (tmp_path / "m.json").write_text(json.dumps(
            {"feature_dim_high": 64, "views": views}))
        maps = 5 * 64 * 64 * 64 * 4
        tracemalloc.start()
        try:
            assert run_cli("init-codebook", "--manifest",
                           str(tmp_path / "m.json"), "--entries", "16",
                           "--iters", "2",
                           "--out", str(tmp_path / "cb.goic")) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert load_codebook(tmp_path / "cb.goic").n_entries == 16
        assert peak <= 3.5 * maps, peak / maps


class TestDefaultPath:
    """Every preset through synth, init-codebook, train and eval, each
    with its defaults, at seed 0."""

    @pytest.mark.parametrize("preset", sorted(synth.PRESETS))
    def test_preset_trains_and_queries(self, preset, tmp_path):
        exp, model = tmp_path / "exp", tmp_path / "model"
        assert run_cli("synth", "--preset", preset, "--out", str(exp)) == 0
        manifest = str(exp / "train_manifest.json")
        assert run_cli("init-codebook", "--manifest", manifest,
                       "--out", str(tmp_path / "cb.goic")) == 0
        assert run_cli("train", "--scene", str(exp / "scene.gois"),
                       "--manifest", manifest,
                       "--codebook", str(tmp_path / "cb.goic"),
                       "--out", str(model)) == 0
        miou = {}
        for mode, flags in (("osh", []), ("fixed", ["--no-osh"])):
            out = tmp_path / f"report_{mode}.json"
            assert run_cli("eval", "--model", str(model), "--testset",
                           str(exp / "testset.json"), "--out", str(out),
                           *flags) == 0
            miou[mode] = json.loads(out.read_text())["mIoU"]
        assert miou["osh"] >= 0.9
        _, n_clusters, _, adversarial = synth.PRESETS[preset]
        if adversarial:  # the fixed threshold cannot split the distractor
            assert miou["fixed"] < miou["osh"]
        else:
            assert miou["fixed"] >= 0.9
        # a collapse decodes every Gaussian to one entry
        trained = load_model(model)
        used = np.unique(entry_ids(trained.scene.features, trained.decoder))
        assert used.size >= n_clusters + adversarial
        assert trained.meta["codebook_entries"] == trained.codebook.n_entries
        assert trained.meta["entries_used"] == used.size
        assert trained.meta["skipped_views"] == 0


class TestImportPly:
    def test_writes_the_imported_scene(self, tmp_path, capsys):
        rows = np.random.default_rng(2).normal(size=(5, 14))
        ply, out = tmp_path / "pts.ply", tmp_path / "s.gois"
        write_binary_ply(ply, rows)
        assert run_cli("import-ply", "--in", str(ply), "--feature-dim", "4",
                       "--out", str(out)) == 0
        assert f"imported 5 Gaussians -> {out}" in capsys.readouterr().out
        want = import_ply(ply, feature_dim=4)
        for got, expected in zip(load_scene(out).arrays(), want.arrays()):
            assert np.array_equal(got, expected)

    def test_feature_dim_past_its_bound_is_data_error(self, tmp_path,
                                                      capsys):
        # refused before the features are allocated
        ply, out = tmp_path / "pts.ply", tmp_path / "s.gois"
        write_binary_ply(ply, [[0.0] * 3 + [1.0] + [0.0] * 10])
        code = run_cli("import-ply", "--in", str(ply), "--feature-dim",
                       str(MAX_FEATURE_DIM + 1), "--out", str(out))
        err = assert_one_line_data_error(code, capsys)
        assert f"feature_dim must be <= {MAX_FEATURE_DIM}" in err
        assert not out.exists()


def json_edit(edit):
    """A corruption that applies edit to a JSON file's decoded value."""
    def corrupt(content):
        value = json.loads(content)
        edit(value)
        return json.dumps(value).encode()
    return corrupt


# one corrupted file of an experiment directory, and the edit that makes it
FILE_NAMING_CASES = {
    "camera missing key": ("cam_eval_1.json", json_edit(
        lambda d: d.pop("fx"))),
    "camera fractional width": ("cam_eval_1.json", json_edit(
        lambda d: d.update(width=64.5))),
    "camera string intrinsic": ("cam_eval_1.json", json_edit(
        lambda d: d.update(fx="60"))),
    "camera negative focal length": ("cam_eval_1.json", json_edit(
        lambda d: d.update(fx=-1.0))),
    "feature map truncated": ("features_train_05.goif",
                              lambda content: content[:-8]),
    "feature map NaN": ("features_train_05.goif", lambda content:
                        content[:-4] + struct.pack("<f", np.nan)),
    "mask of type P6": ("mask_eval_1_label2.pgm",
                        lambda content: b"P6" + content[2:]),
    "mask truncated": ("mask_eval_1_label2.pgm",
                       lambda content: content[:-5]),
    "embedding short": ("embeddings.json", json_edit(
        lambda d: d["entries"][0]["embedding"].pop())),
}


def model_with_nan_centroid(tmp_path, root, exp):
    model = tmp_path / "model"
    shutil.copytree(root / "model", model)
    scene = load_scene(model / "scene.gois")
    scene.centroids[0, 1] = np.nan
    save_scene(scene, model / "scene.gois")
    return (["render", "--model", str(model),
             "--camera", str(exp / "cam_eval_0.json"),
             "--out-rgb", str(tmp_path / "v.ppm")], model / "scene.gois")


def codebook_with_zero_entry(tmp_path, root, exp):
    cb = load_codebook(root / "cb.goic")
    cb.entries[1] = 0.0
    save_codebook(cb, tmp_path / "cb.goic")
    return (["train", "--scene", str(exp / "scene.gois"),
             "--manifest", str(exp / "train_manifest.json"),
             "--codebook", str(tmp_path / "cb.goic"),
             "--out", str(tmp_path / "model")], tmp_path / "cb.goic")


def feature_map_of_height_zero(tmp_path, root, exp):
    manifest = json.loads((exp / "train_manifest.json").read_text())
    for v in manifest["views"]:
        v["camera"], v["features"] = (str(exp / v["camera"]),
                                      str(exp / v["features"]))
    bad = tmp_path / "empty.goif"
    write_feature_map(bad, np.zeros((0, 4, manifest["feature_dim_high"])))
    manifest["views"][0]["features"] = str(bad)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return (["init-codebook", "--manifest", str(tmp_path / "manifest.json"),
             "--entries", "2", "--iters", "1", "--max-samples", "100",
             "--out", str(tmp_path / "cb.goic")], bad)


def manifest_with(edit, command):
    """A training manifest changed by edit, read by command."""
    def write(tmp_path, root, exp):
        manifest = json.loads((exp / "train_manifest.json").read_text())
        for v in manifest["views"]:
            v["camera"], v["features"] = (str(exp / v["camera"]),
                                          str(exp / v["features"]))
        edit(manifest)
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(manifest))
        argv = {"init-codebook": ["init-codebook", "--manifest", str(bad),
                                  "--out", str(tmp_path / "cb.goic")],
                "train": ["train", "--scene", str(exp / "scene.gois"),
                          "--manifest", str(bad),
                          "--codebook", str(root / "cb.goic"),
                          "--out", str(tmp_path / "model")]}[command]
        return argv, bad
    return write


def ply_file(text):
    def write(tmp_path, root, exp):
        bad = tmp_path / "pts.ply"
        bad.write_text(text)
        return (["import-ply", "--in", str(bad),
                 "--out", str(tmp_path / "s.gois")], bad)
    return write


# malformed files that a loaded value's own checks or the PLY reader
# reject: each case writes its file and returns the command that reads it
# and the path its error must name once
NAMED_ONCE_CASES = {
    "scene NaN centroid": model_with_nan_centroid,
    "codebook zero entry": codebook_with_zero_entry,
    "feature map of height 0": feature_map_of_height_zero,
    "PLY without magic line": ply_file(PLY_HEADER.replace("ply\n", "", 1)),
    "PLY truncated header": ply_file(PLY_HEADER.split("end_header")[0]),
    "PLY NaN x": ply_file(PLY_HEADER + "nan" + " 0" * 13 + "\n"),
    **{f"{command} manifest {name}": manifest_with(edit, command)
       for command in ("init-codebook", "train")
       for name, edit in (
           ("dim mismatch", lambda m: m.update(
               feature_dim_high=m["feature_dim_high"] + 1)),
           ("without views", lambda m: m.update(views=[])))},
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
    def test_exits_two_with_one_line(self, pipeline, tmp_path, capsys, case):
        root, exp = pipeline
        argv, content, message = MALFORMED_INPUTS[case]
        bad = tmp_path / "bad.json"
        bad.write_bytes(content if isinstance(content, bytes)
                        else content.encode())
        (tmp_path / "goi.json").write_text('{"indices": [0]}')
        paths = {"bad": bad, "out": tmp_path, "model": root / "model",
                 "cam": exp / "cam_eval_0.json",
                 "emb": exp / "embeddings.json", "scene": exp / "scene.gois",
                 "manifest": exp / "train_manifest.json",
                 "cb": root / "cb.goic", "goi": tmp_path / "goi.json"}
        code = run_cli(*[a.format(**paths) for a in argv])
        assert message in assert_one_line_data_error(code, capsys)

    @pytest.mark.parametrize("case", sorted(FILE_NAMING_CASES))
    def test_error_names_the_file(self, pipeline, tmp_path, capsys, case):
        root, exp = pipeline
        name, corrupt = FILE_NAMING_CASES[case]
        bad = tmp_path / name
        bad.write_bytes(corrupt((exp / name).read_bytes()))

        def located(file_name):  # the corrupted copy, else the original
            return str(bad if file_name == name else exp / file_name)
        testset = json.loads((exp / "testset.json").read_text())
        for c in testset["cases"]:
            for key in ("camera", "gt_mask", "pseudo_mask"):
                c[key] = located(c[key])
        manifest = json.loads((exp / "train_manifest.json").read_text())
        for v in manifest["views"]:
            v["camera"], v["features"] = map(located, (v["camera"],
                                                       v["features"]))
        (tmp_path / "testset.json").write_text(json.dumps(testset))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        code = run_cli(*(
            ["init-codebook", "--manifest", str(tmp_path / "manifest.json"),
             "--entries", "2", "--iters", "1", "--max-samples", "100",
             "--out", str(tmp_path / "cb.goic")]
            if name.endswith(".goif") else
            ["eval", "--model", str(root / "model"),
             "--testset", str(tmp_path / "testset.json"),
             "--embeddings", located("embeddings.json"),
             "--out", str(tmp_path / "r.json")]))
        assert assert_one_line_data_error(code, capsys).count(str(bad)) == 1
        assert not (tmp_path / "r.json").exists()
        assert not (tmp_path / "cb.goic").exists()

    @pytest.mark.parametrize("case", sorted(NAMED_ONCE_CASES))
    def test_error_names_the_file_once(self, pipeline, tmp_path, capsys,
                                       case):
        argv, path = NAMED_ONCE_CASES[case](tmp_path, *pipeline)
        err = assert_one_line_data_error(run_cli(*argv), capsys)
        assert err.count(str(path)) == 1, err

    @staticmethod
    def assert_wrong_shape_named(pipeline, tmp_path, capsys, index, key,
                                 *mode):
        """eval on a test set whose case `index` has a 5 x 7 `key` mask
        fails with one error line that names the file and the case."""
        root, exp = pipeline
        testset = json.loads((exp / "testset.json").read_text())
        for case in testset["cases"]:
            for name in ("camera", "gt_mask", "pseudo_mask"):
                if case.get(name):
                    case[name] = str(exp / case[name])
        bad = testset["cases"][index]
        write_mask(tmp_path / "small.pgm", np.zeros((5, 7), dtype=bool))
        bad[key] = str(tmp_path / "small.pgm")
        (tmp_path / "testset.json").write_text(json.dumps(testset))
        code = run_cli("eval", "--model", str(root / "model"),
                       "--testset", str(tmp_path / "testset.json"),
                       "--embeddings", str(exp / "embeddings.json"),
                       "--out", str(tmp_path / "r.json"), *mode)
        err = assert_one_line_data_error(code, capsys)
        kind = key.split("_")[0]
        assert err == (f"error: {tmp_path / 'testset.json'}: test case "
                       f"{index % len(testset['cases'])} ({bad['text']!r}): "
                       f"{kind} mask shape (5, 7) does not match camera\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("mode", [[], ["--no-osh"]])
    def test_eval_pseudo_mask_of_wrong_shape(self, pipeline, tmp_path,
                                             capsys, mode):
        self.assert_wrong_shape_named(pipeline, tmp_path, capsys, -1,
                                      "pseudo_mask", *mode)

    def test_eval_gt_mask_of_wrong_shape(self, pipeline, tmp_path, capsys):
        self.assert_wrong_shape_named(pipeline, tmp_path, capsys, 2,
                                      "gt_mask")

    def test_eval_names_the_case_without_valid_pixels(self, pipeline,
                                                      tmp_path, capsys):
        # case 0's camera is turned to face away from the scene, so OSH
        # has no surface pixel to fit on; the error says which case
        root, exp = pipeline
        testset = json.loads((exp / "testset.json").read_text())
        for case in testset["cases"]:
            for key in ("camera", "gt_mask", "pseudo_mask"):
                if case.get(key):
                    case[key] = str(exp / case[key])
        first = testset["cases"][0]
        assert first.get("pseudo_mask")
        cam = json.loads(Path(first["camera"]).read_text())
        w2c = np.reshape(cam["world_to_camera"], (4, 4))
        cam["world_to_camera"] = (np.diag([-1.0, 1.0, -1.0, 1.0])
                                  @ w2c).ravel().tolist()
        first["camera"] = str(tmp_path / "away.json")
        Path(first["camera"]).write_text(json.dumps(cam))
        (tmp_path / "testset.json").write_text(json.dumps(testset))
        code = run_cli("eval", "--model", str(root / "model"),
                       "--testset", str(tmp_path / "testset.json"),
                       "--embeddings", str(exp / "embeddings.json"),
                       "--out", str(tmp_path / "r.json"))
        err = assert_one_line_data_error(code, capsys)
        assert f"test case 0 ({first['text']!r}): " in err
        assert "no valid pixels to fit the hyperplane on" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("side_file, edit, message", [
        ("embeddings.json", lambda d: d.update(dim=float(d["dim"])),
         "dim must be an integer, got 256.0"),
        ("embeddings.json", lambda d: d["entries"][0].update(text=5),
         "text must be a string, got 5"),
        ("embeddings.json",
         lambda d: d["entries"][0]["embedding"].__setitem__(0, "0.5"),
         "must be numbers"),
        ("train_manifest.json", lambda d: d.update(feature_dim_high="256"),
         "feature_dim_high must be an integer, got '256'"),
        ("testset.json", lambda d: d["cases"][0].update(text=0),
         "text must be a string, got 0"),
        ("testset.json", lambda d: d["cases"][0].update(pseudo_mask=""),
         "pseudo_mask must be a file name or null, got ''"),
        ("testset.json", lambda d: d["cases"][0].update(pseudo_mask=False),
         "pseudo_mask must be a file name or null, got False")],
        ids=["dim float", "text number", "embedding string", "manifest dim "
             "string", "case text number", "pseudo_mask empty",
             "pseudo_mask false"])
    def test_json_field_of_another_type(self, pipeline, tmp_path, capsys,
                                        side_file, edit, message):
        root, exp = pipeline
        d = json.loads((exp / side_file).read_text())
        for entry in d.get("views", []) + d.get("cases", []):
            for key in ("camera", "features", "gt_mask", "pseudo_mask"):
                if key in entry:   # the copy is read from another directory
                    entry[key] = str(exp / entry[key])
        edit(d)
        bad = tmp_path / side_file
        bad.write_text(json.dumps(d))
        files = {"embeddings.json": exp / "embeddings.json",
                 "testset.json": exp / "testset.json", side_file: bad}
        code = run_cli(*(
            ["init-codebook", "--manifest", str(bad), "--entries", "2",
             "--iters", "1", "--max-samples", "100",
             "--out", str(tmp_path / "cb.goic")]
            if side_file == "train_manifest.json" else
            ["eval", "--model", str(root / "model"),
             "--testset", str(files["testset.json"]),
             "--embeddings", str(files["embeddings.json"]),
             "--out", str(tmp_path / "r.json")]))
        assert message in assert_one_line_data_error(code, capsys)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("literal", ["NaN", "1e309"])
    def test_non_finite_embedding_of_another_text(self, pipeline, tmp_path,
                                                  capsys, literal):
        root, exp = pipeline
        table = (exp / "embeddings.json").read_text()
        dim = json.loads(table)["dim"]
        other = '{"text": "other", "embedding": [%s%s]}, ' % (
            literal, ", 0.0" * (dim - 1))
        bad = tmp_path / "emb.json"
        bad.write_text(table.replace('"entries": [', '"entries": [' + other, 1))
        code = run_cli("query", "--model", str(root / "model"),
                       "--camera", str(exp / "cam_eval_0.json"),
                       "--text", "cluster 0", "--embeddings", str(bad),
                       "--no-osh", "--out-mask", str(tmp_path / "m.pgm"))
        assert "non-finite number" in assert_one_line_data_error(code, capsys)
        assert not (tmp_path / "m.pgm").exists()

    def test_render_non_finite_scene(self, pipeline, tmp_path, capsys):
        argv, _ = model_with_nan_centroid(tmp_path, *pipeline)
        code = run_cli(*argv)
        assert "non-finite centroid" in assert_one_line_data_error(code, capsys)


class TestConsoleScript:
    def test_entry_point_runs(self):
        exe = shutil.which("goi")
        if exe:
            proc = subprocess.run([exe, "--help"], capture_output=True,
                                  text=True)
        else:
            proc = subprocess.run([sys.executable, "-m", "goi.cli", "--help"],
                                  capture_output=True, text=True)
        assert proc.returncode == 0
        assert "SUBCOMMAND" in proc.stdout
