import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import labeltree
import labeltree.dissimilarity
import labeltree.embedding as embedding
from labeltree.classifier import (
    MODEL_FORMAT,
    LabeledDataset,
    LinearModel,
    save_model,
    train_weighted_linear,
)
from labeltree.cli import (
    HINGE_LAMBDA_GRID,
    TUNING_GRID,
    _parse_grid,
    main,
    read_predictions,
    read_truth,
    fit,
    run_benchmark,
    select_gamma,
    select_lambda,
    write_predictions,
)
from labeltree.datagen import (
    SyntheticSpec,
    generate,
    read_dataset_csv,
    split_indices,
    write_dataset_csv,
    write_tree,
)
from labeltree.dissimilarity import (
    build_schedule,
    consistency_check,
    consistency_report_from_matrix,
    dissimilarity_matrix,
)
from labeltree.embedding import (
    EmbeddingTable,
    embed_tree,
    embedded_consistency_check,
    verify_isometry,
)
from labeltree.hierarchy import Tree, load_tree, parse_tree

from conftest import REFERENCE_DOC, fanout10_tree, random_tree, traced_peak

# Thread-count settings of the BLAS builds NumPy ships with or links to.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture()
def tree_file(tmp_path, reference_tree):
    path = tmp_path / "tree.txt"
    path.write_text(REFERENCE_DOC)
    return path


def run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestEmbedCommand:
    def test_reference_outputs(self, tmp_path, tree_file, capsys):
        out = tmp_path / "emb"
        assert run_cli("embed", "--tree", tree_file, "--out", out) == 0
        lines = (out / "embedding.csv").read_text().splitlines()
        assert len(lines) == 6
        first_row = [float(v) for v in lines[1].split(",")[1:]]
        assert first_row == [-1, 1, -1, -1, 1, 1, 1, -1, -1]
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["max_isometry_error"] < 1e-10
        assert cert["dissimilarity_consistent"] and cert["embedding_consistent"]
        assert "result: ok" in (out / "consistency.txt").read_text()
        assert "max isometry error" in capsys.readouterr().out

    def test_two_leaf_matrix(self, tmp_path):
        tree = tmp_path / "two.txt"
        tree.write_text("root: left right\n")
        out = tmp_path / "emb"
        assert run_cli("embed", "--tree", tree, "--out", out) == 0
        lines = (out / "embedding.csv").read_text().splitlines()
        assert lines[1] == "1,-1.0,1.0"

    def test_builds_no_square_float_matrix_and_each_row_once(self, tmp_path, monkeypatch):
        calls, made = Counter(), {"_dissimilarity_rows": [], "_distance_rows": []}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        def recorded(name, make):
            def wrapper(*args):
                fill = make(*args)

                def recording_fill(rows, out):
                    made[name].append((rows.start, rows.stop, out.shape))
                    return fill(rows, out)

                return recording_fill

            return wrapper

        monkeypatch.setattr(
            Tree, "lca_layer_matrix", counted("lca", Tree.lca_layer_matrix)
        )
        monkeypatch.setattr(
            EmbeddingTable,
            "distance_matrix",
            counted("distance_matrix", EmbeddingTable.distance_matrix),
        )
        # every module that binds a whole-matrix function calls it by its own name
        for original in (
            dissimilarity_matrix,
            consistency_report_from_matrix,
            consistency_check,
            embedded_consistency_check,
            verify_isometry,
        ):
            for name, module in list(sys.modules.items()):
                if name.startswith("labeltree") and vars(module).get(
                    original.__name__
                ) is original:
                    monkeypatch.setattr(
                        module, original.__name__, counted(original.__name__, original)
                    )
        for name in made:
            monkeypatch.setattr(embedding, name, recorded(name, getattr(embedding, name)))
        tree = random_tree(np.random.default_rng(5))
        q, rows = tree.q, 7
        assert q > 2 * rows
        monkeypatch.setattr(labeltree.dissimilarity, "_BLOCK_FLOATS", rows * q)
        path = tmp_path / "tree.txt"
        path.write_text(tree.document())
        assert run_cli("embed", "--tree", path, "--out", tmp_path / "emb") == 0
        assert calls == {"lca": 1}
        for blocks in made.values():
            assert [(a, b) for a, b, _ in blocks] == [
                (a, min(a + rows, q)) for a in range(0, q, rows)
            ]
            assert all(shape == (b - a, q) for a, b, shape in blocks)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("delta", [None, 1.3])
    def test_certificate_matches_the_separate_checks(self, tmp_path, seed, delta, monkeypatch):
        tree = random_tree(np.random.default_rng(seed))
        path = tmp_path / "tree.txt"
        path.write_text(tree.document())
        out = tmp_path / "emb"
        extra = () if delta is None else ("--delta", delta)
        kwargs = {} if delta is None else {"decay": delta}
        # the default row blocks, then one and seven rows a block
        for rows in (None, 1, 7):
            if rows:
                monkeypatch.setattr(labeltree.dissimilarity, "_BLOCK_FLOATS", rows * tree.q)
            assert run_cli("embed", "--tree", path, "--out", out, *extra) == 0

            table = embed_tree(tree, **kwargs)
            schedule = build_schedule(tree, **kwargs)
            tree_report = consistency_check(tree, schedule)
            point_report = embedded_consistency_check(table)
            cert = json.loads((out / "certificate.json").read_text())
            max_err = verify_isometry(tree, schedule, table)
            assert cert == {
                "base_norm": 1.0,
                "decay": table.decay,
                "dimension": table.dimension,
                "max_isometry_error": max_err,
                "decay_bound_met": tree_report.decay_bound_met,
                "dissimilarity_consistent": tree_report.ok,
                "embedding_consistent": point_report.ok,
            }
            assert (out / "consistency.txt").read_text() == (
                "tree dissimilarity:\n" + tree_report.summary() + "\n\n"
                "embedded points:\n" + point_report.summary() + "\n"
            )
            gap = table.distance_matrix() - dissimilarity_matrix(tree, schedule)
            assert float(np.max(np.abs(gap))) == max_err  # base weight and norm 1

    def test_malformed_tree_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("root: a b\na: c\n")
        assert run_cli("embed", "--tree", bad, "--out", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run_cli("embed", "--tree", tmp_path / "nope", "--out", tmp_path) == 2
        assert "error:" in capsys.readouterr().err


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert (
        main(
            [
                "simulate",
                "--example",
                "1",
                "--n-total",
                "160",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    return out


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path, sim_dir):
        other = tmp_path / "sim2"
        assert (
            main(
                [
                    "simulate",
                    "--example",
                    "1",
                    "--n-total",
                    "160",
                    "--seed",
                    "9",
                    "--out",
                    str(other),
                ]
            )
            == 0
        )
        assert (sim_dir / "tree.txt").read_bytes() == (other / "tree.txt").read_bytes()
        assert (sim_dir / "data.csv").read_bytes() == (other / "data.csv").read_bytes()

    def test_different_seed_differs(self, tmp_path, sim_dir):
        other = tmp_path / "sim3"
        main(
            [
                "simulate",
                "--example",
                "1",
                "--n-total",
                "160",
                "--seed",
                "10",
                "--out",
                str(other),
            ]
        )
        assert (sim_dir / "data.csv").read_bytes() != (other / "data.csv").read_bytes()


class TestTrainPredictEvaluate:
    def test_linear_flow(self, tmp_path, sim_dir, capsys):
        model = tmp_path / "model.json"
        code = run_cli(
            "train",
            "--tree",
            sim_dir / "tree.txt",
            "--data",
            sim_dir / "data.csv",
            "--loss",
            "linear",
            "--out",
            model,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "loss=linear" in out and "hyperparameters: none" in out

        pred = tmp_path / "pred.csv"
        assert (
            run_cli(
                "predict",
                "--tree",
                sim_dir / "tree.txt",
                "--model",
                model,
                "--data",
                sim_dir / "data.csv",
                "--out",
                pred,
            )
            == 0
        )
        rows = read_predictions(pred, load_tree(sim_dir / "tree.txt"))
        assert len(rows) == 160

        rep_dir = tmp_path / "eval"
        assert (
            run_cli(
                "evaluate",
                "--tree",
                sim_dir / "tree.txt",
                "--pred",
                pred,
                "--truth",
                sim_dir / "data.csv",
                "--out",
                rep_dir,
            )
            == 0
        )
        doc = json.loads((rep_dir / "report.json").read_text())
        assert set(doc) == {
            "l01",
            "l_delta",
            "l_h_sib",
            "l_h_sub",
            "hp",
            "hr",
            "hf",
            "n_te",
        }
        assert doc["n_te"] == 160

    def test_predictions_match_truth_on_separable_data(self, tmp_path, reference_tree):
        rng = np.random.default_rng(0)
        table = embed_tree(reference_tree)
        leaves = reference_tree.leaves
        X = np.concatenate(
            [8.0 * np.eye(6)[i] + rng.normal(0, 0.05, size=(30, 6)) for i in range(6)]
        )
        labels = tuple(leaves[i] for i in range(6) for _ in range(30))
        from labeltree.classifier import LabeledDataset

        ds = LabeledDataset(X, labels, reference_tree)
        tree_path = tmp_path / "tree.txt"
        tree_path.write_text(REFERENCE_DOC)
        data_path = tmp_path / "data.csv"
        write_dataset_csv(ds, data_path)
        model_path = tmp_path / "model.json"
        assert (
            run_cli(
                "train",
                "--tree",
                tree_path,
                "--data",
                data_path,
                "--loss",
                "linear",
                "--out",
                model_path,
            )
            == 0
        )
        pred_path = tmp_path / "pred.csv"
        run_cli(
            "predict",
            "--tree",
            tree_path,
            "--model",
            model_path,
            "--data",
            data_path,
            "--out",
            pred_path,
        )
        assert read_predictions(pred_path, reference_tree) == ds.paths()

    def test_zero_model_predicts_leftmost(self, tmp_path, tree_file, reference_tree):
        table = embed_tree(reference_tree)
        model = LinearModel(np.zeros((5, 16)), table, "linear")
        model_path = tmp_path / "zero.json"
        save_model(model, model_path)
        data_path = tmp_path / "data.csv"
        from labeltree.classifier import LabeledDataset

        ds = LabeledDataset(
            np.zeros((4, 15)), ("kestrel",) * 4, reference_tree
        )
        write_dataset_csv(ds, data_path)
        pred_path = tmp_path / "pred.csv"
        run_cli(
            "predict",
            "--tree",
            tree_file,
            "--model",
            model_path,
            "--data",
            data_path,
            "--out",
            pred_path,
        )
        leftmost = ("animal", "feline", "lynx", "iberian_lynx")
        assert read_predictions(pred_path, reference_tree) == [leftmost] * 4

    def test_non_finite_features_exit_2(
        self, tmp_path, tree_file, reference_tree, capsys
    ):
        model = LinearModel(np.zeros((5, 3)), embed_tree(reference_tree), "linear")
        model_path = tmp_path / "zero.json"
        save_model(model, model_path)
        data_path = tmp_path / "data.csv"
        data_path.write_text("f1,f2\n0.5,1.0\n0.0,nan\n")
        pred_path = tmp_path / "pred.csv"
        code = run_cli(
            "predict", "--tree", tree_file, "--model", model_path,
            "--data", data_path, "--out", pred_path,
        )
        assert code == 2
        assert "row 1" in capsys.readouterr().err
        assert not pred_path.exists()

    @pytest.mark.parametrize("bad", ["nan", "[]"])
    def test_bad_model_file_exits_2(self, tmp_path, bad, capsys):
        tree_path = tmp_path / "tree.txt"
        tree_path.write_text("r: a b c\na: a1 a2\n")
        model_path = tmp_path / "model.json"
        if bad == "nan":
            coef = np.zeros((3, 2))
            coef[:, 1] = np.nan
            table = embed_tree(load_tree(tree_path))
            save_model(LinearModel(coef, table, "linear"), model_path)
        else:
            model_path.write_text(bad)
        data_path = tmp_path / "data.csv"
        data_path.write_text("f1\n0.5\n-1.0\n")
        pred_path = tmp_path / "pred.csv"
        code = run_cli(
            "predict", "--tree", tree_path, "--model", model_path,
            "--data", data_path, "--out", pred_path,
        )
        assert code == 2
        assert "model.json" in capsys.readouterr().err
        assert not pred_path.exists()

    @pytest.mark.parametrize("bad", ["keys", "format", "tree", "short"])
    def test_malformed_model_exits_2_naming_the_file(self, tmp_path, bad, capsys):
        tree_path = tmp_path / "tree.txt"
        tree_path.write_text("r: a b c\na: a1 a2\n")
        model_path = tmp_path / "model.json"
        other = "r: a b\n" if bad == "tree" else tree_path.read_text()
        table = embed_tree(parse_tree(other))
        coef = np.zeros((table.dimension, 2))
        save_model(LinearModel(coef, table, "linear"), model_path)
        doc = json.loads(model_path.read_text())
        if bad == "keys":
            doc = {"format": MODEL_FORMAT}
        elif bad == "format":
            doc = {"format": "x"}
        elif bad == "short":
            doc["coef"].pop()
        model_path.write_text(json.dumps(doc))
        data_path = tmp_path / "data.csv"
        data_path.write_text("f1\n0.5\n-1.0\n")
        pred_path = tmp_path / "pred.csv"
        code = run_cli(
            "predict", "--tree", tree_path, "--model", model_path,
            "--data", data_path, "--out", pred_path,
        )
        assert code == 2
        assert str(model_path) in capsys.readouterr().err
        assert not pred_path.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_features", 1.0),
            ("n_features", True),
            ("n_features", -1),
            ("dimension", 3.0),
            ("dimension", False),
            ("loss", 1),
            ("loss", "nonsense"),
            ("base_norm", True),
            ("base_norm", "1.0"),
            ("decay", False),
            ("decay", None),
            ("gamma", "0.5"),
            ("gamma", True),
            ("lambda", float("inf")),
            ("lambda", [0.1]),
        ],
    )
    def test_model_field_of_wrong_type_exits_2_naming_the_file(
        self, tmp_path, key, value, capsys
    ):
        tree_path = tmp_path / "tree.txt"
        tree_path.write_text("r: a b c\na: a1 a2\n")
        model_path = tmp_path / "model.json"
        table = embed_tree(load_tree(tree_path))
        save_model(LinearModel(np.zeros((3, 2)), table, "linear"), model_path)
        doc = json.loads(model_path.read_text())
        doc[key] = value
        model_path.write_text(json.dumps(doc))
        data_path = tmp_path / "data.csv"
        data_path.write_text("f1\n0.5\n-1.0\n")
        pred_path = tmp_path / "pred.csv"
        code = run_cli(
            "predict", "--tree", tree_path, "--model", model_path,
            "--data", data_path, "--out", pred_path,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert str(model_path) in err and key in err
        assert not pred_path.exists()

    def test_linear_model_file_independent_of_blas_threads(self, tmp_path):
        # a threaded BLAS may split a large product's sums differently per
        # thread count; the linear closed form's products are small blocks
        tree = fanout10_tree()
        rng = np.random.default_rng(7)
        labels = [tree.leaves[c] for c in rng.integers(0, tree.n_leaf, size=1000)]
        write_dataset_csv(
            LabeledDataset(rng.normal(size=(1000, 95)), labels, tree), tmp_path / "data.csv"
        )
        write_tree(tree, tmp_path / "tree.txt")
        src = str(Path(labeltree.__file__).parents[1])
        script = "import sys; from labeltree.cli import main; sys.exit(main(sys.argv[1:]))"
        models = []
        for threads in ("1", "2"):
            models.append(tmp_path / f"model{threads}.json")
            env = {**os.environ, "PYTHONPATH": src}
            env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, threads))
            subprocess.run(
                [sys.executable, "-c", script, "train", "--tree", tmp_path / "tree.txt",
                 "--data", tmp_path / "data.csv", "--loss", "linear", "--out", models[-1]],
                env=env, check=True, capture_output=True,
            )
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_embed_files_independent_of_blas_threads(self, tmp_path):
        # the certificate's distance matrix is one large Gram product, which
        # a threaded BLAS may split differently per thread count
        write_tree(fanout10_tree(), tmp_path / "tree.txt")
        src = str(Path(labeltree.__file__).parents[1])
        script = "import sys; from labeltree.cli import main; sys.exit(main(sys.argv[1:]))"
        outs = []
        for threads in ("1", "2"):
            outs.append(tmp_path / f"embed{threads}")
            env = {**os.environ, "PYTHONPATH": src}
            env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, threads))
            subprocess.run(
                [sys.executable, "-c", script, "embed", "--tree", tmp_path / "tree.txt",
                 "--out", outs[-1]],
                env=env, check=True, capture_output=True,
            )
        names = ["certificate.json", "consistency.txt", "embedding.csv", "embedding.json"]
        assert sorted(p.name for p in outs[0].iterdir()) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_wlinear_model_file_with_validation_independent_of_blas_threads(self, tmp_path):
        # gamma selection scores 2000 validation rows in products large
        # enough to thread; the selected gamma must not move with the count
        tree, data = generate(SyntheticSpec(example=2, n_total=2500, seed=5))
        for name, rows in (("train", slice(0, 500)), ("val", slice(500, None))):
            part = LabeledDataset(data.X[rows], data.labels[rows], tree)
            write_dataset_csv(part, tmp_path / f"{name}.csv")
        write_tree(tree, tmp_path / "tree.txt")
        src = str(Path(labeltree.__file__).parents[1])
        script = "import sys; from labeltree.cli import main; sys.exit(main(sys.argv[1:]))"
        models = []
        for threads in ("1", "2"):
            models.append(tmp_path / f"model{threads}.json")
            env = {**os.environ, "PYTHONPATH": src}
            env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, threads))
            subprocess.run(
                [sys.executable, "-c", script, "train", "--tree", tmp_path / "tree.txt",
                 "--data", tmp_path / "train.csv", "--val-data", tmp_path / "val.csv",
                 "--loss", "wlinear", "--out", models[-1]],
                env=env, check=True, capture_output=True,
            )
        assert json.loads(models[0].read_text())["gamma"] is not None
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_hinge_model_file_on_design_1_independent_of_blas_threads(self, tmp_path):
        # design 1's Newton matrices have order 48 at most; design 2's root,
        # of order 1056, is built and solved by threaded BLAS and LAPACK
        # calls whose bits change with the thread count
        args = ["--example", "1", "--n-total", "400", "--seed", "4", "--out", tmp_path]
        assert run_cli("simulate", *args) == 0
        src = str(Path(labeltree.__file__).parents[1])
        script = "import sys; from labeltree.cli import main; sys.exit(main(sys.argv[1:]))"
        models = []
        for threads in ("1", "2"):
            models.append(tmp_path / f"model{threads}.json")
            env = {**os.environ, "PYTHONPATH": src}
            env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, threads))
            subprocess.run(
                [sys.executable, "-c", script, "train", "--tree", tmp_path / "tree.txt",
                 "--data", tmp_path / "data.csv", "--loss", "hinge", "--out", models[-1]],
                env=env, check=True, capture_output=True,
            )
        assert json.loads(models[0].read_text())["lambda"] is not None
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_predict_rerun_byte_identical(self, tmp_path, sim_dir):
        model = tmp_path / "model.json"
        run_cli(
            "train",
            "--tree",
            sim_dir / "tree.txt",
            "--data",
            sim_dir / "data.csv",
            "--loss",
            "wlinear",
            "--gamma-grid",
            "1.0",
            "--out",
            model,
        )
        p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for p in (p1, p2):
            run_cli(
                "predict",
                "--tree",
                sim_dir / "tree.txt",
                "--model",
                model,
                "--data",
                sim_dir / "data.csv",
                "--out",
                p,
            )
        assert p1.read_bytes() == p2.read_bytes()

    def test_singleton_gamma_grid_equals_direct_call(self, tmp_path, sim_dir):
        tree = load_tree(sim_dir / "tree.txt")
        data = read_dataset_csv(sim_dir / "data.csv", tree)
        model_path = tmp_path / "model.json"
        run_cli(
            "train",
            "--tree",
            sim_dir / "tree.txt",
            "--data",
            sim_dir / "data.csv",
            "--loss",
            "wlinear",
            "--gamma-grid",
            "1.0",
            "--out",
            model_path,
        )
        doc = json.loads(model_path.read_text())
        table = embed_tree(tree)
        direct = train_weighted_linear(data, table, gamma=1.0)
        np.testing.assert_array_equal(
            np.array(doc["coef"]).reshape(direct.coef.shape), direct.coef
        )
        assert doc["gamma"] == 1.0

    @pytest.mark.filterwarnings("ignore::labeltree.classifier.ConvergenceWarning")
    def test_validation_file_selects_without_refit(
        self, tmp_path, sim_dir, monkeypatch
    ):
        import labeltree.classifier as classifier

        lams = []

        def counting(train, table, grid, **kwargs):
            for lam, fitted in real(train, table, grid, **kwargs):
                lams.append((train.n, lam))
                yield lam, fitted

        real = classifier.hinge_fits
        monkeypatch.setattr(classifier, "hinge_fits", counting)
        val_dir = tmp_path / "val"
        assert run_cli(
            "simulate", "--example", "1", "--n-total", "60", "--seed", "10",
            "--out", val_dir,
        ) == 0
        tree_path, data_path = sim_dir / "tree.txt", sim_dir / "data.csv"
        args = ["train", "--tree", tree_path, "--data", data_path, "--loss", "hinge",
                "--lambda-grid", "0.1,1"]
        model = tmp_path / "model.json"
        assert run_cli(*args, "--val-data", val_dir / "data.csv", "--out", model) == 0
        # one fit per grid point on all 160 rows; the winner is the model
        assert lams == [(160, 0.1), (160, 1.0)]
        tree = load_tree(tree_path)
        data = read_dataset_csv(data_path, tree)
        val = read_dataset_csv(val_dir / "data.csv", tree)
        lam, chosen = select_lambda(data, val, embed_tree(tree), (0.1, 1.0))
        again = tmp_path / "again.json"
        save_model(chosen, again)
        assert model.read_bytes() == again.read_bytes()

        # without a validation file: select on the front half, refit on all
        lams.clear()
        assert run_cli(*args, "--out", tmp_path / "split.json") == 0
        assert [n for n, _ in lams] == [80, 80, 160]
        assert lams[2][1] in (0.1, 1.0)

    def test_feature_mismatch_exits_2(self, tmp_path, sim_dir, capsys):
        model = tmp_path / "model.json"
        run_cli(
            "train",
            "--tree",
            sim_dir / "tree.txt",
            "--data",
            sim_dir / "data.csv",
            "--loss",
            "linear",
            "--out",
            model,
        )
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,f2\n0.1,0.2\n")
        assert (
            run_cli(
                "predict",
                "--tree",
                sim_dir / "tree.txt",
                "--model",
                model,
                "--data",
                bad,
                "--out",
                tmp_path / "p.csv",
            )
            == 2
        )
        assert "features" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_exact_predictions_score_perfectly(self, tmp_path, tree_file, reference_tree):
        paths = [reference_tree.path_of_leaf(l) for l in reference_tree.leaves]
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        write_predictions(paths, pred)
        write_predictions(paths, truth)
        out = tmp_path / "rep"
        assert (
            run_cli(
                "evaluate",
                "--tree",
                tree_file,
                "--pred",
                pred,
                "--truth",
                truth,
                "--out",
                out,
            )
            == 0
        )
        doc = json.loads((out / "report.json").read_text())
        assert doc["l01"] == 0.0 and doc["hf"] == 1.0

    def test_hand_derived_pair_values(self, tmp_path, tree_file, reference_tree):
        truth_paths = [
            reference_tree.path_of_leaf("iberian_lynx"),
            reference_tree.path_of_leaf("iberian_lynx"),
        ]
        pred_paths = [
            reference_tree.path_of_leaf("kestrel"),
            reference_tree.path_of_leaf("eurasian_lynx"),
        ]
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        write_predictions(pred_paths, pred)
        write_predictions(truth_paths, truth)
        out = tmp_path / "rep"
        run_cli(
            "evaluate", "--tree", tree_file, "--pred", pred, "--truth", truth,
            "--out", out, "--format", "json",
        )
        doc = json.loads((out / "report.json").read_text())
        assert doc["l_delta"] == pytest.approx((5 + 2) / 2)
        assert doc["l_h_sib"] == pytest.approx((0.5 + 1 / 8) / 2)
        assert doc["l_h_sub"] == pytest.approx((5 / 9 + 1 / 9) / 2)
        assert not (out / "report.txt").exists()

    def test_misaligned_exits_2(self, tmp_path, tree_file, reference_tree, capsys):
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        write_predictions([reference_tree.path_of_leaf("kestrel")], pred)
        write_predictions([reference_tree.path_of_leaf("kestrel")] * 2, truth)
        assert (
            run_cli(
                "evaluate", "--tree", tree_file, "--pred", pred, "--truth", truth,
                "--out", tmp_path / "rep",
            )
            == 2
        )

    def test_invalid_path_exits_2(self, tmp_path, tree_file, reference_tree, capsys):
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        bad = [("animal", "raptor", "kestrel"), ("animal", "feline")]
        write_predictions(bad, pred)
        write_predictions([reference_tree.path_of_leaf("kestrel")] * 2, truth)
        out = tmp_path / "rep"
        code = run_cli(
            "evaluate", "--tree", tree_file, "--pred", pred, "--truth", truth,
            "--out", out,
        )
        assert code == 2
        assert "pair 1" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_invalid_predicted_path_names_file_row_and_line(
        self, tmp_path, tree_file, reference_tree, capsys
    ):
        pred = tmp_path / "pred.csv"
        good = tmp_path / "good.csv"
        write_predictions([("animal", "raptor", "kestrel"), ("animal", "feline")], pred)
        write_predictions([reference_tree.path_of_leaf("kestrel")] * 2, good)
        with pytest.raises(ValueError, match="on line 3 .pair 1. is not a root-to-leaf"):
            read_predictions(pred, reference_tree)
        # a predictions-format truth file is read through the same check
        for pred_file, truth_file in ((pred, good), (good, pred)):
            out = tmp_path / "rep"
            code = run_cli(
                "evaluate", "--tree", tree_file, "--pred", pred_file,
                "--truth", truth_file, "--out", out,
            )
            assert code == 2
            err = capsys.readouterr().err
            assert f"{pred}: row ['1', 'animal/feline'] on line 3" in err
            assert not (out / "report.json").exists()

    def test_empty_predictions_exit_2(self, tmp_path, tree_file):
        pred = tmp_path / "pred.csv"
        pred.write_text("index,path\n")
        truth = tmp_path / "truth.csv"
        write_predictions([("animal", "raptor", "kestrel")], truth)
        assert (
            run_cli(
                "evaluate", "--tree", tree_file, "--pred", pred, "--truth", truth,
                "--out", tmp_path / "rep",
            )
            == 2
        )


    def test_short_prediction_row_exits_2(self, tmp_path, tree_file, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("index,path\n0,animal/raptor/kestrel\n1\n")
        truth = tmp_path / "truth.csv"
        write_predictions([("animal", "raptor", "kestrel")] * 2, truth)
        code = run_cli(
            "evaluate", "--tree", tree_file, "--pred", pred, "--truth", truth,
            "--out", tmp_path / "rep",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert str(pred) in err and "['1'] on line 3 has no path" in err

    def test_long_prediction_row_exits_2(self, tmp_path, tree_file, capsys):
        # a third field is not dropped: the row could be read as either path
        long = tmp_path / "long.csv"
        long.write_text(
            "index,path\n0,animal/raptor/kestrel\n"
            "1,animal/raptor/kestrel,animal/feline/panther\n"
        )
        with pytest.raises(ValueError, match="line 3 has more than two fields"):
            read_predictions(long, load_tree(tree_file))
        good = tmp_path / "good.csv"
        write_predictions([("animal", "raptor", "kestrel")] * 2, good)
        for pred, truth in ((long, good), (good, long)):
            out = tmp_path / "rep"
            code = run_cli(
                "evaluate", "--tree", tree_file, "--pred", pred, "--truth", truth,
                "--out", out,
            )
            assert code == 2
            err = capsys.readouterr().err
            assert str(long) in err and "animal/feline/panther" in err
            assert "on line 3 has more than two fields" in err
            assert not (out / "report.json").exists()


class TestDataFileErrors:
    """Every error in reading a data file names the file, and a bad row its line."""

    CASES = [
        ("f1,f2,label\n0.5,1.0,kestrel\n\n0.5,osprey\n",
         "row with 2 fields, expected 3, on line 4"),
        ("f1,f2,label\n0.5,1.0,kestrel,osprey\n",
         "row with 4 fields, expected 3, on line 2"),
        ("f1,f2,label\n0.5,1.0,kestrel\n0.5,n/a,osprey\n",
         "row 1 on line 3, column 'f2': 'n/a' is not a number"),
        # float() reads 1_000, numpy's parser does not
        ("f1,f2,label\n1_000,1.0,kestrel\n",
         "row 0 on line 2, column 'f1': '1_000' is not a number"),
        ("f1,f2,label\n", "no data rows"),
    ]

    @pytest.mark.parametrize("text, message", CASES)
    def test_train_exits_2(self, tmp_path, tree_file, capsys, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        model = tmp_path / "model.json"
        code = run_cli(
            "train", "--tree", tree_file, "--data", data, "--loss", "linear",
            "--out", model,
        )
        assert code == 2
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("text, message", CASES)
    def test_predict_exits_2(
        self, tmp_path, tree_file, reference_tree, capsys, text, message
    ):
        model = tmp_path / "zero.json"
        save_model(
            LinearModel(np.zeros((5, 3)), embed_tree(reference_tree), "linear"), model
        )
        data = tmp_path / "data.csv"
        data.write_text(text)
        pred = tmp_path / "pred.csv"
        code = run_cli(
            "predict", "--tree", tree_file, "--model", model, "--data", data,
            "--out", pred,
        )
        assert code == 2
        assert f"{data}: {message}" in capsys.readouterr().err
        assert not pred.exists()

    @pytest.mark.parametrize("label", ["zzz", "feline"])
    def test_evaluate_truth_label_not_a_leaf_exits_2(
        self, tmp_path, tree_file, reference_tree, capsys, label
    ):
        truth = tmp_path / "truth.csv"
        truth.write_text(f"f1,label\n0.5,kestrel\n0.5,{label}\n")
        pred = tmp_path / "pred.csv"
        write_predictions([reference_tree.path_of_leaf("kestrel")] * 2, pred)
        out = tmp_path / "rep"
        code = run_cli(
            "evaluate", "--tree", tree_file, "--pred", pred, "--truth", truth,
            "--out", out,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{truth}: row 1 on line 3: label {label!r} is not a leaf" in err
        assert not (out / "report.json").exists()


class TestNonFiniteArguments:
    @pytest.mark.parametrize(
        "loss, flag, name",
        [("wlinear", "--gamma-grid", "gamma"), ("hinge", "--lambda-grid", "lam")],
    )
    def test_train_nan_grid_exits_2(self, tmp_path, sim_dir, capsys, loss, flag, name):
        model = tmp_path / "model.json"
        code = run_cli(
            "train", "--tree", sim_dir / "tree.txt", "--data", sim_dir / "data.csv",
            "--loss", loss, flag, "nan", "--out", model,
        )
        assert code == 2
        assert f"{name} must be positive and finite, got nan" in capsys.readouterr().err
        assert not model.exists()

    def test_embed_nan_t1_exits_2(self, tmp_path, tree_file, capsys):
        out = tmp_path / "emb"
        assert run_cli("embed", "--tree", tree_file, "--t1", "nan", "--out", out) == 2
        assert "positive and finite, got nan" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()


class TestBenchmarkCommand:
    def test_small_run_outputs_and_determinism(self, tmp_path, capsys):
        args = [
            "benchmark", "--example", "1", "--reps", "2", "--seed", "3",
            "--losses", "linear", "--n", "20",
        ]
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "results.txt").read_bytes() == (out2 / "results.txt").read_bytes()
        lines = (out1 / "results.csv").read_text().splitlines()
        assert lines[0] == "loss,metric,mean,se"
        assert len(lines) == 6
        assert "seconds per replication" in capsys.readouterr().out

    def test_unknown_loss_exits_2(self, tmp_path, capsys):
        assert (
            main(
                [
                    "benchmark", "--example", "1", "--reps", "1",
                    "--losses", "square", "--out", str(tmp_path / "b"),
                ]
            )
            == 2
        )
        assert "unknown loss" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, msg",
        [
            (["--reps", "0"], "reps must be at least 1, got 0"),
            (["--reps", "-3"], "reps must be at least 1, got -3"),
            (["--losses", ","], "losses must be distinct and at least one, got ()"),
            (["--losses", "linear,linear"], "got ('linear', 'linear')"),
        ],
    )
    def test_bad_protocol_exits_2_before_writing(self, tmp_path, capsys, flags, msg):
        out = tmp_path / "b"
        args = ["benchmark", "--example", "1", "--reps", "2", "--n", "20", *flags]
        assert main(args + ["--out", str(out)]) == 2
        assert msg in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("example", [0, 3])
    def test_unknown_example_raises_before_any_replication(self, monkeypatch, example):
        draws = recorded_draws(monkeypatch)
        with pytest.raises(ValueError, match=f"example must be 1 or 2, got {example}"):
            run_benchmark(example=example, reps=1, seed=1, losses=("linear",))
        assert draws == []

    def test_depth_4_design_1_takes_the_simulate_feature_count(self, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", "--example", "1", "--k", "4", "--out", str(sim)]) == 0
        header = (sim / "data.csv").read_text().splitlines()[0].split(",")
        args = ["benchmark", "--example", "1", "--k", "4", "--reps", "1", "--n", "20"]
        assert main(args + ["--losses", "linear", "--out", str(tmp_path / "b")]) == 0
        result = run_benchmark(example=1, reps=1, seed=1, losses=("linear",), k=4, n=20)
        assert result.params["k"] == 4
        assert result.params["p"] == len(header) - 1 == 30

    def test_params_record_the_generated_design(self):
        result = run_benchmark(example=2, reps=1, seed=1, losses=("linear",), k=5, n=20)
        assert (result.params["k"], result.params["p"]) == (5, 95)
        result = run_benchmark(example=1, reps=1, seed=1, losses=("linear",), n=20)
        assert (result.params["k"], result.params["p"]) == (3, 15)


    @pytest.mark.parametrize("k", [4, 9])
    def test_design_2_rejects_another_depth_before_any_draw(self, tmp_path, monkeypatch, capsys, k):
        import labeltree.cli as cli

        def unreachable(spec):
            raise AssertionError(f"drew {spec}")

        monkeypatch.setattr(cli, "generate", unreachable)
        msg = f"example 2 has tree depth k=5, got k={k}"
        with pytest.raises(ValueError, match=msg):
            run_benchmark(example=2, reps=1, seed=1, losses=("linear",), k=k)
        for command in ("simulate", "benchmark"):
            out = tmp_path / command
            assert run_cli(command, "--example", "2", "--k", k, "--out", out) == 2
            assert msg in capsys.readouterr().err
            assert not out.exists()

    def test_simulate_design_2_at_its_own_depth_writes_the_default_files(self, tmp_path):
        args = ["simulate", "--example", "2", "--n-total", "40", "--seed", "3"]
        outs = [tmp_path / "default", tmp_path / "k5"]
        assert run_cli(*args, "--out", outs[0]) == 0
        assert run_cli(*args, "--k", "5", "--out", outs[1]) == 0
        for name in ("tree.txt", "data.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestHelpers:
    def test_parse_grid(self):
        assert _parse_grid(None, (1.0, 2.0)) == (1.0, 2.0)
        assert _parse_grid("0.5, 2", ()) == (0.5, 2.0)
        with pytest.raises(ValueError):
            _parse_grid(" , ", (1.0,))

    def test_default_grids(self):
        assert len(TUNING_GRID) == 41
        assert TUNING_GRID[0] == pytest.approx(0.01)
        assert TUNING_GRID[-1] == pytest.approx(100.0)
        assert TUNING_GRID[20] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(TUNING_GRID, TUNING_GRID[1:]))
        assert len(HINGE_LAMBDA_GRID) == 6

    def test_write_predictions_rejects_separator_in_ids(self, tmp_path):
        with pytest.raises(ValueError):
            write_predictions([("a", "b/c")], tmp_path / "p.csv")

    def test_separator_in_ids_leaves_an_existing_file_as_it_was(self, tmp_path):
        out = tmp_path / "p.csv"
        write_predictions(iter([("r", "a")] * 2), out)  # a one-shot iterable writes
        before = out.read_bytes()
        assert before == b"index,path\r\n0,r/a\r\n1,r/a\r\n"
        with pytest.raises(ValueError, match="node id 'b/c' contains '/'"):
            write_predictions([("r", "a"), ("r", "b/c"), ("r", "d/e")], out)
        assert out.read_bytes() == before

    def test_predict_separator_in_ids_exits_2_and_keeps_the_old_file(self, tmp_path, capsys):
        tree = parse_tree("r: a/x b\n")
        paths = {name: tmp_path / name for name in ("tree.txt", "m.json", "d.csv", "p.csv")}
        write_tree(tree, paths["tree.txt"])
        save_model(LinearModel(np.zeros((1, 3)), embed_tree(tree), "linear"), paths["m.json"])
        write_dataset_csv(LabeledDataset(np.zeros((2, 2)), ("b", "b"), tree), paths["d.csv"])
        paths["p.csv"].write_bytes(b"index,path\r\n0,r/b\r\n1,r/b\r\n")
        args = ["--tree", paths["tree.txt"], "--model", paths["m.json"], "--data", paths["d.csv"]]
        assert run_cli("predict", *args, "--out", paths["p.csv"]) == 2
        assert "node id 'a/x' contains '/'" in capsys.readouterr().err
        assert paths["p.csv"].read_bytes() == b"index,path\r\n0,r/b\r\n1,r/b\r\n"

    def test_separator_in_tree_ids_rejected_before_any_other_file(
        self, tmp_path, monkeypatch, capsys
    ):
        import labeltree.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("read another file after the tree")

        for name in ("load_model", "read_feature_csv", "read_predictions", "read_truth"):
            monkeypatch.setattr(cli, name, unreachable)
        tree, out, missing = tmp_path / "tree.txt", tmp_path / "p.csv", tmp_path / "missing"
        write_tree(parse_tree("r: a/x b\n"), tree)
        out.write_bytes(b"index,path\r\n0,r/b\r\n")
        args = ["--tree", tree, "--model", missing, "--data", missing, "--out", out]
        assert run_cli("predict", *args) == 2
        assert "node id 'a/x' contains '/'" in capsys.readouterr().err
        assert out.read_bytes() == b"index,path\r\n0,r/b\r\n"
        args = ["--tree", tree, "--pred", missing, "--truth", missing, "--out", tmp_path / "r"]
        assert run_cli("evaluate", *args) == 2
        assert "node id 'a/x' contains '/'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_train_separator_in_ids_exits_2_before_the_data_or_the_model(
        self, tmp_path, monkeypatch, capsys
    ):
        import labeltree.cli as cli

        def unreachable(*args, **kwargs):
            raise AssertionError("read or wrote another file after the tree")

        for name in ("read_dataset_csv", "read_feature_csv", "save_model"):
            monkeypatch.setattr(cli, name, unreachable)
        tree, model, missing = tmp_path / "tree.txt", tmp_path / "m.json", tmp_path / "missing"
        write_tree(parse_tree("r: a/x b\n"), tree)
        args = ["--tree", tree, "--data", missing, "--loss", "linear", "--out", model]
        assert run_cli("train", *args) == 2
        assert "node id 'a/x' contains '/'" in capsys.readouterr().err
        assert not model.exists()

    def test_read_truth_accepts_both_formats(self, tmp_path, reference_tree):
        paths = [reference_tree.path_of_leaf("kestrel")]
        as_pred = tmp_path / "t1.csv"
        write_predictions(paths, as_pred)
        assert read_truth(as_pred, reference_tree) == paths

        from labeltree.classifier import LabeledDataset

        ds = LabeledDataset(np.zeros((1, 2)), ("kestrel",), reference_tree)
        as_data = tmp_path / "t2.csv"
        write_dataset_csv(ds, as_data)
        assert read_truth(as_data, reference_tree) == paths

    def test_read_truth_ignores_feature_cells(self, tmp_path, reference_tree):
        # features are no part of the truth, so a cell that is not a
        # number is never parsed
        path = tmp_path / "truth.csv"
        path.write_text("f1,f2,label\n0.5,n/a,kestrel\nx,1.0,osprey\n")
        assert read_truth(path, reference_tree) == [
            reference_tree.path_of_leaf("kestrel"),
            reference_tree.path_of_leaf("osprey"),
        ]

    def test_evaluate_with_non_numeric_feature_in_truth(
        self, tmp_path, tree_file, reference_tree
    ):
        truth = tmp_path / "truth.csv"
        truth.write_text("f1,label\nnot-a-number,kestrel\n")
        pred = tmp_path / "pred.csv"
        write_predictions([reference_tree.path_of_leaf("kestrel")], pred)
        out = tmp_path / "eval"
        assert run_cli(
            "evaluate", "--tree", tree_file, "--pred", pred, "--truth", truth,
            "--out", out, "--format", "json",
        ) == 0
        assert json.loads((out / "report.json").read_text())["l01"] == 0.0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("f1,f2\n0.5,1.0\n", "neither a predictions file nor a labeled CSV"),
            ("f1,label\n0.5,kestrel,extra\n", "row with 3 fields, expected 2"),
            ("f1,label\n", "no data rows"),
        ],
    )
    def test_read_truth_errors(self, tmp_path, reference_tree, text, message):
        path = tmp_path / "truth.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_truth(path, reference_tree)

    @pytest.mark.filterwarnings("ignore::labeltree.classifier.ConvergenceWarning")
    def test_lambda_selection_matches_exhaustive_search(self, reference_tree):
        # oracle: evaluate every grid point exhaustively, ties -> smaller
        from labeltree.classifier import LabeledDataset, predict_paths, train_hinge

        rng = np.random.default_rng(17)
        table = embed_tree(reference_tree)
        leaves = reference_tree.leaves

        def make(n):
            idx = rng.integers(0, 6, size=n)
            X = 2.0 * np.eye(6)[idx] + rng.normal(0, 0.8, size=(n, 6))
            return LabeledDataset(X, tuple(leaves[i] for i in idx), reference_tree)

        train, val = make(40), make(40)
        grid = (0.01, 0.1, 1.0, 10.0)
        lam, model = select_lambda(train, val, table, grid, max_iter=500)
        truth = val.paths()
        best = None
        for cand in grid:
            m = train_hinge(train, table, lam=cand, max_iter=500)
            err = float(
                np.mean([p != t for p, t in zip(predict_paths(m, val.X), truth)])
            )
            if best is None or err < best[0]:
                best = (err, cand)
        assert lam == best[1]

    @pytest.mark.filterwarnings("ignore::labeltree.classifier.ConvergenceWarning")
    def test_tie_breaks_to_smaller_lambda(self, two_leaf_tree):
        # perfectly separable: every lambda scores zero -> smallest wins
        from labeltree.classifier import LabeledDataset

        table = embed_tree(two_leaf_tree)
        X = np.array([[-3.0], [-2.5], [2.5], [3.0]])
        ds = LabeledDataset(X, ("left", "left", "right", "right"), two_leaf_tree)
        lam, _ = select_lambda(ds, ds, table, (0.5, 1.0, 2.0), max_iter=300)
        assert lam == 0.5


class TestGrids:
    @pytest.fixture()
    def data(self, reference_tree):
        from labeltree.classifier import LabeledDataset

        rng = np.random.default_rng(23)
        leaves = reference_tree.leaves
        idx = rng.integers(0, len(leaves), size=24)
        X = np.eye(6)[idx] + rng.normal(0, 0.5, size=(24, 6))
        return LabeledDataset(X, tuple(leaves[i] for i in idx), reference_tree)

    def test_empty_grids_name_their_parameter(self, data):
        table = embed_tree(data.tree)
        with pytest.raises(ValueError, match="gamma grid is empty"):
            select_gamma(data, data, table, ())
        with pytest.raises(ValueError, match="lambda grid is empty"):
            select_lambda(data, data, table, ())
        with pytest.raises(ValueError, match="gamma grid is empty"):
            fit("wlinear", data, data, table, gamma_grid=())
        with pytest.raises(ValueError, match="lambda grid is empty"):
            fit("hinge", data, data, table, lambda_grid=[])

    @pytest.mark.parametrize(
        "loss, grids, name",
        [("wlinear", {"gamma_grid": ()}, "gamma"), ("hinge", {"lambda_grid": ()}, "lambda")],
    )
    def test_empty_benchmark_grid(self, loss, grids, name):
        with pytest.raises(ValueError, match=f"{name} grid is empty"):
            run_benchmark(example=1, reps=1, seed=1, losses=(loss,), n=20, **grids)

    def test_lambda_grid_checked_before_the_first_fit(self, data, monkeypatch):
        import labeltree.classifier as classifier

        fitted = []
        monkeypatch.setattr(classifier, "hinge_fits", self.fitting_spy(fitted))
        with pytest.raises(ValueError, match="lam must be positive and finite, got nan"):
            select_lambda(data, data, embed_tree(data.tree), (0.001, np.nan))
        assert fitted == []

    @staticmethod
    def fitting_spy(fitted):
        """A stand-in for ``hinge_fits`` that records its grid once fitting starts."""

        def spy(train, table, grid, **kwargs):
            fitted.append(tuple(grid))
            yield from ()

        return spy

    @staticmethod
    def other_tree_val(data):
        # the same leaves in another order: the labels fit, the codes differ
        other = Tree("r", {"r": list(reversed(data.tree.leaves))})
        return type(data)(data.X, data.labels, other)

    def test_gamma_validation_set_on_another_tree_rejected(self, data):
        val = self.other_tree_val(data)
        with pytest.raises(ValueError, match="different trees"):
            select_gamma(data, val, embed_tree(data.tree), TUNING_GRID)

    def test_lambda_validation_set_on_another_tree_rejected(self, data, monkeypatch):
        import labeltree.classifier as classifier

        fitted = []
        monkeypatch.setattr(classifier, "hinge_fits", self.fitting_spy(fitted))
        val = self.other_tree_val(data)
        with pytest.raises(ValueError, match="different trees"):
            select_lambda(data, val, embed_tree(data.tree), (0.1, 1.0))
        assert fitted == []

    def test_gamma_selection_scores_training_data_once(self, data, monkeypatch):
        import labeltree.classifier as classifier

        weights = classifier.adaptive_weights
        scored = []

        def spy(model, X, gamma):
            scored.append(X)
            return weights(model, X, gamma)

        monkeypatch.setattr(classifier, "adaptive_weights", spy)
        gamma, model = select_gamma(data, data, embed_tree(data.tree), TUNING_GRID)
        assert gamma in TUNING_GRID and model.gamma == gamma
        assert len(scored) == 1 and scored[0] is data.X


def test_hinge_fit_runs_without_scipy():
    """The package imports and certifies a hinge fit with SciPy unimportable."""
    src = str(Path(labeltree.__file__).parents[1])
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import labeltree\n"
        "tree = labeltree.parse_tree('r: a b c\\na: a1 a2\\n')\n"
        "rng = np.random.default_rng(0)\n"
        "labels = [tree.leaves[c] for c in rng.integers(0, tree.n_leaf, size=40)]\n"
        "data = labeltree.LabeledDataset(rng.normal(size=(40, 3)), labels, tree)\n"
        "model = labeltree.train_hinge(data, labeltree.embed_tree(tree), lam=0.01)\n"
        "assert 'scipy' not in {m.split('.')[0] for m in sys.modules if sys.modules[m]}\n"
        "print(len(model.history) - 1)\n"
    )
    done = subprocess.run(
        [sys.executable, "-W", "error::UserWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": src}, check=True, capture_output=True, text=True,
    )
    assert 1 <= int(done.stdout) <= 30


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]


def test_run_benchmark_structure():
    result = run_benchmark(example=1, reps=3, seed=1, losses=("linear",), n=20)
    assert result.metrics["linear"]["l01"].shape == (3,)
    assert set(result.metrics["linear"]) == {"l01", "l_delta", "l_h_sib", "l_h_sub", "hf"}
    csv_text = result.to_csv_text()
    assert csv_text.count("\n") == 6
    assert "linear" in result.to_table_text()


def recorded_draws(monkeypatch):
    """The datasets ``cli.generate`` draws from now on."""
    import labeltree.cli as cli

    draws, generate = [], cli.generate

    def drawing(spec):
        tree, data = generate(spec)
        draws.append(data)
        return tree, data

    monkeypatch.setattr(cli, "generate", drawing)
    return draws


def test_run_benchmark_splits_are_views_of_the_draw(monkeypatch):
    # the splits are taken with the draw's known codes; each must equal the
    # checked construction from the same rows
    draws, made, rows = recorded_draws(monkeypatch), [], LabeledDataset._rows

    def recording(data, which):
        made.append(rows(data, which))
        return made[-1]

    monkeypatch.setattr(LabeledDataset, "_rows", recording)
    run_benchmark(example=1, reps=2, seed=3, losses=("linear",), n=20)
    assert len(draws) == 2 and len(made) == 6
    for data, splits in zip(draws, (made[:3], made[3:])):
        for got, idx in zip(splits, split_indices(data.n), strict=True):
            want = LabeledDataset(data.X[idx], [data.labels[i] for i in idx], data.tree)
            assert np.shares_memory(got.X, data.X)
            assert np.array_equal(got.X, want.X) and got.X.shape == want.X.shape
            assert got.labels == want.labels
            assert np.array_equal(got.codes, want.codes)


def test_design2_replication_traced_peak_within_three_draws_of_features(monkeypatch):
    run_benchmark(example=2, reps=1, seed=7)  # warm caches
    draws = recorded_draws(monkeypatch)
    peak = traced_peak(lambda: run_benchmark(example=2, reps=1, seed=7))
    assert peak <= 3 * draws[0].X.nbytes, (peak, draws[0].X.nbytes)


@pytest.mark.filterwarnings("error::labeltree.classifier.ConvergenceWarning")
def test_hinge_protocol_certifies_at_defaults():
    """Every hinge fit of a design-1 replication meets its gap within the budget."""
    result = run_benchmark(example=1, reps=2, seed=7, losses=("hinge",))
    assert result.metrics["hinge"]["l01"].shape == (2,)


# Hinge test zero-one losses of the design-1 protocol in the benchmark's
# blocks for seed 1 (block b runs seed 1000 + b, 3 replications each), as
# the one-lambda-at-a-time interior-point solver left them.
DESIGN1_HINGE_L01_SEED1 = (
    (0.52, 0.49, 0.55), (0.53, 0.44, 0.36), (0.47, 0.57, 0.5), (0.51, 0.46, 0.54),
    (0.64, 0.61, 0.62), (0.53, 0.5, 0.51), (0.37, 0.43, 0.54), (0.56, 0.5, 0.54),
)


@pytest.mark.parametrize("block", range(8))
def test_design1_hinge_l01_regression(block):
    result = run_benchmark(example=1, reps=3, seed=1000 + block, losses=("hinge",))
    assert result.metrics["hinge"]["l01"].tolist() == list(DESIGN1_HINGE_L01_SEED1[block])


# Weighted-linear test zero-one losses and selected gammas (as indices into
# TUNING_GRID) of both protocols in the benchmark's blocks for seed 1
# (block b runs seed 1000 + b), as the one-gamma-at-a-time closed forms,
# scored in passes of n_val // (q + 1) models, left them (passes of
# n_val // dimension models select the same gammas).
WLINEAR_SEED1 = {
    1: (
        ((0.5, 0.5, 0.55), (22, 32, 16)), ((0.52, 0.45, 0.37), (6, 0, 0)),
        ((0.52, 0.54, 0.51), (33, 34, 0)), ((0.51, 0.44, 0.56), (33, 10, 18)),
        ((0.62, 0.62, 0.61), (17, 0, 29)), ((0.54, 0.5, 0.44), (12, 0, 22)),
        ((0.39, 0.42, 0.47), (21, 20, 19)), ((0.56, 0.49, 0.54), (19, 36, 29)),
    ),
    2: (((0.7595,), (31,)), ((0.757,), (15,))),
}


@pytest.mark.parametrize(
    "example, block", [(e, b) for e, blocks in WLINEAR_SEED1.items() for b in range(len(blocks))]
)
def test_wlinear_l01_and_gamma_regression(example, block, monkeypatch):
    import labeltree.cli as cli

    chosen, select = [], cli.select_gamma

    def recording(*args, **kwargs):
        gamma, model = select(*args, **kwargs)
        chosen.append(gamma)
        return gamma, model

    monkeypatch.setattr(cli, "select_gamma", recording)
    l01, gammas = WLINEAR_SEED1[example][block]
    result = run_benchmark(example=example, reps=len(l01), seed=1000 + block, losses=("wlinear",))
    assert result.metrics["wlinear"]["l01"].tolist() == list(l01)
    assert chosen == [TUNING_GRID[i] for i in gammas]
