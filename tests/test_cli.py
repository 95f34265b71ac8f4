import json
import sys
from collections import Counter

import numpy as np
import pytest

from labeltree.classifier import (
    MODEL_FORMAT,
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
from labeltree.datagen import read_dataset_csv, write_dataset_csv
from labeltree.dissimilarity import (
    build_schedule,
    consistency_check,
    dissimilarity_matrix,
)
from labeltree.embedding import (
    EmbeddingTable,
    embed_tree,
    embedded_consistency_check,
    verify_isometry,
)
from labeltree.hierarchy import Tree, load_tree, parse_tree

from conftest import REFERENCE_DOC, random_tree


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

    def test_builds_each_square_matrix_once(self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            Tree, "lca_layer_matrix", counted("lca", Tree.lca_layer_matrix)
        )
        monkeypatch.setattr(
            EmbeddingTable,
            "distance_matrix",
            counted("distance", EmbeddingTable.distance_matrix),
        )
        # every module that binds the function calls it by its own name
        original = dissimilarity_matrix
        for name, module in list(sys.modules.items()):
            if name.startswith("labeltree") and vars(module).get(
                "dissimilarity_matrix"
            ) is original:
                monkeypatch.setattr(
                    module, "dissimilarity_matrix", counted("dissimilarity", original)
                )
        tree = tmp_path / "tree.txt"
        tree.write_text(random_tree(np.random.default_rng(5)).document())
        assert run_cli("embed", "--tree", tree, "--out", tmp_path / "emb") == 0
        assert calls == {"lca": 1, "dissimilarity": 1, "distance": 1}

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("delta", [None, 1.3])
    def test_certificate_matches_the_separate_checks(self, tmp_path, seed, delta):
        tree = random_tree(np.random.default_rng(seed))
        path = tmp_path / "tree.txt"
        path.write_text(tree.document())
        out = tmp_path / "emb"
        extra = () if delta is None else ("--delta", delta)
        assert run_cli("embed", "--tree", path, "--out", out, *extra) == 0

        kwargs = {} if delta is None else {"decay": delta}
        table = embed_tree(tree, **kwargs)
        schedule = build_schedule(tree, **kwargs)
        tree_report = consistency_check(tree, schedule)
        point_report = embedded_consistency_check(table)
        cert = json.loads((out / "certificate.json").read_text())
        assert cert == {
            "base_norm": 1.0,
            "decay": table.decay,
            "dimension": table.dimension,
            "max_isometry_error": verify_isometry(tree, schedule, table),
            "decay_bound_met": tree_report.decay_bound_met,
            "dissimilarity_consistent": tree_report.ok,
            "embedding_consistent": point_report.ok,
        }
        assert (out / "consistency.txt").read_text() == (
            "tree dissimilarity:\n" + tree_report.summary() + "\n\n"
            "embedded points:\n" + point_report.summary() + "\n"
        )

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
        import labeltree.cli as cli

        lams = []

        def counting(train, table, lam, **kwargs):
            lams.append((train.n, lam))
            return real(train, table, lam, **kwargs)

        real = cli.train_hinge
        monkeypatch.setattr(cli, "train_hinge", counting)
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
        import labeltree.cli as cli

        fitted = []
        monkeypatch.setattr(cli, "train_hinge", lambda *a, **k: fitted.append(k["lam"]))
        with pytest.raises(ValueError, match="lam must be positive and finite, got nan"):
            select_lambda(data, data, embed_tree(data.tree), (0.001, np.nan))
        assert fitted == []

    def test_gamma_selection_scores_training_data_once(self, data, monkeypatch):
        score_matrix = LinearModel.score_matrix
        scored = []

        def spy(model, X):
            scored.append(X)
            return score_matrix(model, X)

        monkeypatch.setattr(LinearModel, "score_matrix", spy)
        gamma, model = select_gamma(data, data, embed_tree(data.tree), TUNING_GRID)
        assert gamma in TUNING_GRID and model.gamma == gamma
        assert len(scored) == 1 and scored[0] is data.X


def test_run_benchmark_structure():
    result = run_benchmark(example=1, reps=3, seed=1, losses=("linear",), n=20)
    assert result.metrics["linear"]["l01"].shape == (3,)
    assert set(result.metrics["linear"]) == {"l01", "l_delta", "l_h_sib", "l_h_sub", "hf"}
    csv_text = result.to_csv_text()
    assert csv_text.count("\n") == 6
    assert "linear" in result.to_table_text()


@pytest.mark.filterwarnings("error::labeltree.classifier.ConvergenceWarning")
def test_hinge_protocol_certifies_at_defaults():
    """Every hinge fit of a design-1 replication meets its gap within the budget."""
    result = run_benchmark(example=1, reps=2, seed=7, losses=("hinge",))
    assert result.metrics["hinge"]["l01"].shape == (2,)
