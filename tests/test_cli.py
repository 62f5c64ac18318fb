import csv
import json
import shutil
from pathlib import Path

import pytest

import probeforge
from probeforge.cli import main
from probeforge.curator import load_dataset
from probeforge.evaluation import ExpertAnnotation, load_report, save_annotations
from probeforge.probers import RankedPrediction, load_predictions, save_predictions

FIXTURES = Path(probeforge.__file__).parent / "fixtures"
TRIPLES = str(FIXTURES / "triples.tsv")
CORPUS = str(FIXTURES / "corpus.txt")
ENTITIES = str(FIXTURES / "entities.txt")
STUB_MLM = f"table-mlm:{FIXTURES / 'stub_mlm.json'}"
STUB_GENERATOR = f"table-generator:{FIXTURES / 'stub_generator.json'}"

ENCODER_SPEC = "reference:dim=32,seed=3,layers=2,feature_dim=512"

SMALL_CONFIG = {
    "num_sentences": 60,
    "mask_ratio": 0.5,
    "temperature": 0.2,
    "learning_rate": 0.02,
    "steps": 20,
    "batch_size": 10,
    "checkpoint_every": 10,
    "probe_checkpoint_step": 10,
    "seed": 7,
}


def read_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def manifest_core(out_dir: Path) -> dict:
    doc = read_manifest(out_dir)
    doc.pop("started_at")
    doc.pop("duration_seconds")
    return doc


@pytest.fixture(scope="module")
def config_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("config") / "rewire.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def curated(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("curated")
    assert main(["curate", "--triples", TRIPLES, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def rewired(tmp_path_factory, config_path) -> Path:
    out = tmp_path_factory.mktemp("rewired")
    code = main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def probed(tmp_path_factory, curated, rewired) -> Path:
    out = tmp_path_factory.mktemp("probed")
    code = main(["probe", "--checkpoint", str(rewired),
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# exit-code contract

def test_missing_required_flag_is_usage_error(capsys):
    assert main(["curate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "curate" in capsys.readouterr().out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert probeforge.__version__ in capsys.readouterr().out


def test_runtime_failure_exits_one(tmp_path, capsys, config_path):
    out = tmp_path / "run"
    code = main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--batch-size", "500",
                 "--out", str(out)])
    assert code == 1
    assert "batch_size" in capsys.readouterr().err
    # validation failed before anything was written
    assert not out.exists()


# ---------------------------------------------------------------------------
# curate

def test_curate_demo_artifacts(curated):
    queries = load_dataset(curated / "full.jsonl")
    assert len(queries) == 54
    hard = load_dataset(curated / "hard.jsonl")
    assert {q.query_id for q in hard} <= {q.query_id for q in queries}
    with open(curated / "stats.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["relation_id", "full_count", "hard_count"]
    assert sorted(r[0] for r in rows[1:]) == [
        "has_physiologic_effect", "may_prevent", "may_treat"]
    assert sum(int(r[1]) for r in rows[1:]) == 54
    manifest = read_manifest(curated)
    assert manifest["command"] == "curate"
    assert manifest["outputs"] == ["full.jsonl", "hard.jsonl", "stats.csv"]


def test_curate_reruns_are_byte_identical(tmp_path, curated):
    again = tmp_path / "again"
    assert main(["curate", "--triples", TRIPLES, "--out", str(again)]) == 0
    for name in ("full.jsonl", "hard.jsonl", "stats.csv"):
        assert (again / name).read_bytes() == (curated / name).read_bytes()
    assert manifest_core(again) == manifest_core(curated)


def test_cache_env_supplies_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("PROBEFORGE_CACHE", str(tmp_path))
    assert main(["curate", "--triples", TRIPLES]) == 0
    runs = list(tmp_path.glob("curate-*"))
    assert len(runs) == 1
    assert (runs[0] / "full.jsonl").is_file()
    # same flags resolve to the same cache slot
    assert main(["curate", "--triples", TRIPLES]) == 0
    assert list(tmp_path.glob("curate-*")) == runs


def test_out_required_without_cache(monkeypatch, capsys):
    monkeypatch.delenv("PROBEFORGE_CACHE", raising=False)
    assert main(["curate", "--triples", TRIPLES]) == 2
    assert "--out" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# rewire

def test_rewire_artifacts(rewired):
    with open(rewired / "loss_trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == SMALL_CONFIG["steps"] + 1
    assert (rewired / "checkpoints" / "step_00010" / "sidecar.json").is_file()
    assert (rewired / "checkpoints" / "step_00020" / "sidecar.json").is_file()
    manifest = read_manifest(rewired)
    assert manifest["seed"] == 7
    assert manifest["config"]["steps"] == 20


def test_rewire_cli_overrides(tmp_path, config_path):
    out = tmp_path / "short"
    code = main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--steps", "5",
                 "--checkpoint-every", "0", "--out", str(out)])
    assert code == 0
    saved = json.loads((out / "rewire_config.json").read_text())
    assert saved["steps"] == 5
    assert saved["checkpoint_every"] == 0
    with open(out / "loss_trace.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 6


# ---------------------------------------------------------------------------
# probe

def test_probe_from_rewire_dir(probed, curated):
    predictions = load_predictions(probed / "predictions.jsonl")
    assert len(predictions) == 54
    assert all(len(p.candidates) == 10 for p in predictions)
    assert all(p.strategy == "contrastive" for p in predictions)
    manifest = read_manifest(probed)
    # the rewire config pins probing to the step-10 checkpoint
    assert "@step10" in manifest["config"]["model"]


def test_probe_from_step_dir(tmp_path, curated, rewired):
    out = tmp_path / "probe"
    code = main(["probe", "--checkpoint", str(rewired / "checkpoints" / "step_00020"),
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", str(out)])
    assert code == 0
    assert "@step20" in read_manifest(out)["config"]["model"]


def _truncate_weights(ckpt: Path) -> str:
    path = ckpt / "w_in.npy"
    path.write_bytes(path.read_bytes()[:200])
    return "w_in.npy"


def _garble_weights(ckpt: Path) -> str:
    (ckpt / "block_00.npy").write_bytes(b"not an array" * 20)
    return "block_00.npy"


def _sidecar_not_json(ckpt: Path) -> str:
    path = ckpt / "sidecar.json"
    path.write_text(path.read_text()[:-20])
    return "sidecar.json"


def _sidecar_missing_key(ckpt: Path) -> str:
    path = ckpt / "sidecar.json"
    sidecar = json.loads(path.read_text())
    del sidecar["step"]
    path.write_text(json.dumps(sidecar))
    return "'step'"


@pytest.mark.parametrize("damage", [_truncate_weights, _garble_weights,
                                    _sidecar_not_json, _sidecar_missing_key],
                         ids=["truncated-npy", "corrupt-npy", "sidecar-not-json",
                              "sidecar-missing-key"])
def test_probe_damaged_checkpoint_exits_one(tmp_path, curated, rewired, capsys, damage):
    ckpt = tmp_path / "step_00010"
    shutil.copytree(rewired / "checkpoints" / "step_00010", ckpt)
    culprit = damage(ckpt)
    code = main(["probe", "--checkpoint", str(ckpt),
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", str(tmp_path / "probe")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("probeforge: error: ")
    assert culprit in err
    assert "Traceback" not in err


def test_probe_needs_encoder_or_checkpoint(curated, capsys):
    code = main(["probe", "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", "unused"])
    assert code == 2
    assert "--encoder or --checkpoint" in capsys.readouterr().err


def test_probe_rejects_encoder_plus_checkpoint(curated, rewired, capsys):
    code = main(["probe", "--encoder", ENCODER_SPEC,
                 "--checkpoint", str(rewired),
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", "unused"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_probe_invalid_k_exits_one(curated):
    code = main(["probe", "--encoder", ENCODER_SPEC,
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--k", "0", "--out", "unused"])
    assert code == 1


def test_probe_mask_predict_stub(tmp_path, curated):
    out = tmp_path / "mp"
    code = main(["probe", "--encoder", STUB_MLM,
                 "--dataset", str(curated / "full.jsonl"),
                 "--strategy", "mask-predict", "--num-masks", "2",
                 "--out", str(out)])
    assert code == 0
    predictions = load_predictions(out / "predictions.jsonl")
    assert len(predictions) == 54
    assert all(len(p.candidates) == 1 for p in predictions)


def test_probe_mask_average_relation_scope(tmp_path, curated):
    out = tmp_path / "ma"
    code = main(["probe", "--encoder", STUB_MLM,
                 "--dataset", str(curated / "full.jsonl"),
                 "--strategy", "mask-average", "--candidate-scope", "relation",
                 "--out", str(out)])
    assert code == 0
    predictions = load_predictions(out / "predictions.jsonl")
    assert len(predictions) == 54
    # candidates come from the relation's own gold answers
    queries = {q.query_id: q for q in load_dataset(curated / "full.jsonl")}
    ranked = {c for c, _ in predictions[0].candidates}
    relation = queries[predictions[0].query_id].relation_id
    pool = {a.lower() for q in queries.values() if q.relation_id == relation
            for a in q.answers}
    assert {c.lower() for c in ranked} <= pool


def test_probe_generate_stub(tmp_path, curated):
    out = tmp_path / "gen"
    code = main(["probe", "--encoder", STUB_GENERATOR,
                 "--dataset", str(curated / "full.jsonl"),
                 "--strategy", "generate", "--k", "5", "--out", str(out)])
    assert code == 0
    predictions = load_predictions(out / "predictions.jsonl")
    assert all(len(p.candidates) <= 5 for p in predictions)


# ---------------------------------------------------------------------------
# eval

def test_eval_report_and_csv(tmp_path, curated, probed, capsys):
    out = tmp_path / "eval"
    code = main(["eval", "--predictions", str(probed / "predictions.jsonl"),
                 "--dataset", str(curated / "full.jsonl"),
                 "--model", "demo", "--out", str(out)])
    assert code == 0
    assert "macro" in capsys.readouterr().out
    report = load_report(out / "report.json")
    assert report.model == "demo"
    assert report.strategy == "contrastive"
    assert report.k_values == (1, 10)
    assert report.total_queries == 54
    assert (out / "report.csv").is_file()


def test_eval_hard_split(tmp_path, curated, probed):
    out = tmp_path / "eval-hard"
    code = main(["eval", "--predictions", str(probed / "predictions.jsonl"),
                 "--dataset", str(curated / "full.jsonl"),
                 "--split", "hard", "--out", str(out)])
    assert code == 0
    report = load_report(out / "report.json")
    assert report.split == "hard"
    hard = load_dataset(curated / "hard.jsonl")
    assert report.total_queries == len(hard)


def test_eval_unknown_query_exits_one(tmp_path, curated, capsys):
    stray = tmp_path / "stray.jsonl"
    save_predictions([RankedPrediction("zz-ghost", (("x", 1.0),), "contrastive")],
                     stray)
    code = main(["eval", "--predictions", str(stray),
                 "--dataset", str(curated / "full.jsonl"),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    err = capsys.readouterr().err
    assert "zz-ghost" in err
    assert not (tmp_path / "eval").exists()


def test_eval_length_bins(tmp_path, curated, probed):
    out = tmp_path / "eval-bins"
    code = main(["eval", "--predictions", str(probed / "predictions.jsonl"),
                 "--dataset", str(curated / "full.jsonl"),
                 "--length-bins", "10,20", "--out", str(out)])
    assert code == 0
    with open(out / "bins.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bin", "count", "acc1", "acc10"]
    assert [r[0] for r in rows[1:]] == ["<10", "[10,20)", ">=20"]
    assert sum(int(r[1]) for r in rows[1:]) == 54


def test_eval_annotations_confusion(tmp_path, curated, probed):
    predictions = load_predictions(probed / "predictions.jsonl")
    first = predictions[0]
    annotations = tmp_path / "annotations.csv"
    save_annotations([ExpertAnnotation(first.query_id,
                                       first.candidates[0][0], 5)], annotations)
    out = tmp_path / "eval-ann"
    code = main(["eval", "--predictions", str(probed / "predictions.jsonl"),
                 "--dataset", str(curated / "full.jsonl"),
                 "--k", "1", "--annotations", str(annotations),
                 "--out", str(out)])
    assert code == 0
    rescore = json.loads((out / "rescore.json").read_text())
    assert rescore["totals"] == {"1": 1}
    assert set(rescore["confusion"]["1"]["5"]) == {"gold_hit", "gold_miss"}


# ---------------------------------------------------------------------------
# sweep

def test_sweep_layer_axis_skips_unavailable(tmp_path, curated, config_path):
    out = tmp_path / "sweep"
    code = main(["sweep", "--axis", "layer", "--values", "3,5,7,9,11,12",
                 "--encoder", "reference:dim=32,seed=3,layers=7,feature_dim=512",
                 "--corpus", CORPUS, "--config", config_path,
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--out", str(out)])
    assert code == 0
    with open(out / "layer_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["layer_limit", "macro_acc1", "macro_acc10"]
    assert [r[0] for r in rows[1:]] == ["3", "5", "7"]
    assert read_manifest(out)["config"]["skipped_values"] == [9, 11, 12]


def test_sweep_workers_do_not_change_output(tmp_path, curated, config_path):
    outs = []
    for label, workers in (("seq", "1"), ("par", "3")):
        out = tmp_path / label
        code = main(["sweep", "--axis", "layer", "--values", "1,2",
                     "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                     "--config", config_path,
                     "--dataset", str(curated / "full.jsonl"),
                     "--entities", ENTITIES, "--workers", workers,
                     "--out", str(out)])
        assert code == 0
        outs.append((out / "layer_sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_checkpoint_step_axis(tmp_path, curated, config_path):
    out = tmp_path / "steps"
    code = main(["sweep", "--axis", "checkpoint-step", "--values", "0,10",
                 "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path,
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--out", str(out)])
    assert code == 0
    with open(out / "step_curves.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "relation_id", "acc1_mean", "acc1_std"]
    # 3 relations plus the macro row, for each of the two steps
    assert [r[0] for r in rows[1:]] == ["0"] * 4 + ["10"] * 4
    assert rows[4][1] == "macro"


def test_sweep_seed_axis_stability(tmp_path, curated, config_path):
    out = tmp_path / "seeds"
    code = main(["sweep", "--axis", "seed", "--values", "3,4",
                 "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path,
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--out", str(out)])
    assert code == 0
    with open(out / "stability.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["relation_id", "acc1_mean", "acc1_std",
                       "acc10_mean", "acc10_std"]
    assert len(rows) == 5
    assert rows[-1][0] == "macro"


def test_sweep_seed_axis_needs_two_values(curated, config_path, capsys):
    code = main(["sweep", "--axis", "seed", "--values", "3",
                 "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path,
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--out", "unused"])
    assert code == 1
    assert "two values" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline determinism

def test_probe_eval_rerun_is_byte_identical(tmp_path, curated, rewired, probed):
    probe_again = tmp_path / "probe2"
    code = main(["probe", "--checkpoint", str(rewired),
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", str(probe_again)])
    assert code == 0
    assert ((probe_again / "predictions.jsonl").read_bytes()
            == (probed / "predictions.jsonl").read_bytes())
    assert manifest_core(probe_again) == manifest_core(probed)
