import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import probeforge
from probeforge import cli
from probeforge.cli import main
from probeforge.curator import load_dataset
from probeforge.encoders import encoder_from_spec
from probeforge.errors import InputError
from probeforge.evaluation import (ExpertAnnotation, aggregate, load_report,
                                   save_annotations, score_predictions,
                                   stability_summary, step_curves,
                                   write_step_curves_csv)
from probeforge.probers import (RankedPrediction, build_entity_index, contrastive_probe,
                                load_entities, load_predictions, save_predictions)
from probeforge.rewire import RewireConfig, rewire_train, sample_sentences, tail_mask
from probeforge.text import write_csv

FIXTURES = Path(probeforge.__file__).parent / "fixtures"
TRIPLES = str(FIXTURES / "triples.tsv")
CORPUS = str(FIXTURES / "corpus.txt")
ENTITIES = str(FIXTURES / "entities.txt")
STUB_MLM = f"table-mlm:{FIXTURES / 'stub_mlm.json'}"
STUB_GENERATOR = f"table-generator:{FIXTURES / 'stub_generator.json'}"

ENCODER_SPEC = "reference:dim=32,seed=3,layers=2,feature_dim=512"
DEMO_ENCODER_SPEC = "reference:dim=64,seed=7,layers=2,feature_dim=2048"

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



def _probe_rewire_dir_error(rewire_dir: Path, curated: Path, out: Path, capsys) -> str:
    code = main(["probe", "--checkpoint", str(rewire_dir),
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("probeforge: error: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()
    return err


def test_probe_rejects_step_dir_left_by_an_earlier_run(tmp_path, curated, rewired,
                                                       config_path, capsys):
    rerun = tmp_path / "rerun"
    shutil.copytree(rewired, rerun)
    # the rerun checkpoints only step 20, so step_00010 is the first run's
    code = main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--checkpoint-every", "20",
                 "--out", str(rerun)])
    assert code == 0
    assert not (rerun / "checkpoints" / "step_00010").exists()
    assert read_manifest(rerun)["outputs"] == [
        "checkpoints/step_00020", "loss_trace.csv", "rewire_config.json"]
    err = _probe_rewire_dir_error(rerun, curated, tmp_path / "probe", capsys)
    assert "no checkpoint at step 10" in err


def test_probe_rejects_rewire_dir_whose_manifest_is_not_json(tmp_path, curated, rewired,
                                                            capsys):
    copy = tmp_path / "copy"
    shutil.copytree(rewired, copy)
    (copy / "manifest.json").write_text("{not json", encoding="utf-8")
    err = _probe_rewire_dir_error(copy, curated, tmp_path / "probe", capsys)
    assert "manifest.json: invalid JSON" in err


def test_probe_rejects_rewire_dir_without_manifest(tmp_path, curated, rewired,
                                                   config_path, monkeypatch, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(rewired, copy)
    (copy / "manifest.json").unlink()
    err = _probe_rewire_dir_error(copy, curated, tmp_path / "probe", capsys)
    assert "did not complete" in err

    # a rerun that fails takes the earlier run's manifest with it
    def fail(*args, **kwargs):
        raise InputError("interrupted")

    shutil.copytree(rewired, tmp_path / "failed")
    monkeypatch.setattr(cli, "rewire_train", fail)
    assert main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--out", str(tmp_path / "failed")]) == 1
    capsys.readouterr()
    err = _probe_rewire_dir_error(tmp_path / "failed", curated, tmp_path / "probe", capsys)
    assert "did not complete" in err

def _truncate_weights(ckpt: Path) -> str:
    path = ckpt / "w_in.npy"
    path.write_bytes(path.read_bytes()[:200])
    return "w_in.npy"


def _garble_weights(ckpt: Path) -> str:
    (ckpt / "block_00.npy").write_bytes(b"not an array" * 20)
    return "block_00.npy"


def _swap_weights(ckpt: Path) -> str:
    # a valid array of the right shape, as a save cut off before its sidecar leaves
    path = ckpt / "w_in.npy"
    np.save(path, np.load(path) + 1.0)
    return "w_in.npy"


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


@pytest.mark.parametrize("damage", [_truncate_weights, _garble_weights, _swap_weights,
                                    _sidecar_not_json, _sidecar_missing_key],
                         ids=["truncated-npy", "corrupt-npy", "swapped-npy",
                              "sidecar-not-json", "sidecar-missing-key"])
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
    assert len(err.strip().splitlines()) == 1
    assert culprit in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# bad input files: each ends as one error line with exit 1

NOT_UTF8 = b"head\xff\xfe\ttail\n"


def _table_without(fixture: str, key: str) -> str:
    table = json.loads((FIXTURES / fixture).read_text())
    del table[key]
    return json.dumps(table)


def _mlm_rule_position(position) -> str:
    table = json.loads((FIXTURES / "stub_mlm.json").read_text())
    table["rules"][0]["position"] = position
    return json.dumps(table)


EVAL = ["eval", "--predictions", "{predictions}", "--dataset", "{dataset}"]
BAD_CONFIG = ["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS, "--config", "{bad}"]
BAD_TEMPLATES = ["curate", "--triples", TRIPLES, "--templates", "{bad}"]

BAD_INPUTS = {
    # case -> (argv, content of the bad file; None: the file does not exist)
    "eval:predictions-not-utf8": (
        ["eval", "--predictions", "{bad}", "--dataset", "{dataset}"], NOT_UTF8),
    "eval:dataset-not-utf8": (
        ["eval", "--predictions", "{predictions}", "--dataset", "{bad}"], NOT_UTF8),
    "eval:annotations-not-utf8": ([*EVAL, "--annotations", "{bad}"], NOT_UTF8),
    "curate:triples-not-utf8": (["curate", "--triples", "{bad}"], NOT_UTF8),
    "curate:templates-not-utf8": (BAD_TEMPLATES, NOT_UTF8),
    "curate:templates-not-json": (BAD_TEMPLATES, "[{not json"),
    "curate:templates-not-an-array": (BAD_TEMPLATES, "{}"),
    "curate:template-not-an-object": (BAD_TEMPLATES, "[1]"),
    "curate:template-pattern-not-a-string": (
        BAD_TEMPLATES, json.dumps([{"relation_id": "r", "pattern": 5}])),
    "curate:template-relation-id-not-a-string": (
        BAD_TEMPLATES, json.dumps([{"relation_id": ["r"], "pattern": "[X] is [Y]"}])),
    "probe:entities-not-utf8": (
        ["probe", "--encoder", ENCODER_SPEC, "--dataset", "{dataset}",
         "--entities", "{bad}", "--strategy", "contrastive"], NOT_UTF8),
    "rewire:corpus-not-utf8": (
        ["rewire", "--encoder", ENCODER_SPEC, "--corpus", "{bad}", "--config", "{config}"],
        NOT_UTF8),
    "rewire-config:not-utf8": (BAD_CONFIG, NOT_UTF8),
    "rewire-config:not-json": (BAD_CONFIG, "{not json"),
    "rewire-config:not-an-object": (BAD_CONFIG, "[]"),
    "rewire-config:wrong-type": (BAD_CONFIG, json.dumps({**SMALL_CONFIG, "steps": "5"})),
}
for name, content in [("missing-file", None), ("not-json", "{not json"),
                      ("no-default", _table_without("stub_mlm.json", "default")),
                      ("no-vocab", _table_without("stub_mlm.json", "vocab")),
                      ("bad-rule-position", _mlm_rule_position("first"))]:
    BAD_INPUTS[f"table-mlm:{name}"] = (
        ["probe", "--dataset", "{dataset}", "--strategy", "mask-predict",
         "--encoder", "table-mlm:{bad}"], content)
for name, content in [("missing-file", None), ("not-json", "[1, 2"),
                      ("no-default", _table_without("stub_generator.json", "default"))]:
    BAD_INPUTS[f"table-generator:{name}"] = (
        ["probe", "--dataset", "{dataset}", "--strategy", "generate",
         "--encoder", "table-generator:{bad}"], content)


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_file_exits_one(tmp_path, curated, probed, config_path, capsys, case):
    argv, content = BAD_INPUTS[case]
    bad = tmp_path / "bad_input"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    paths = {"bad": bad, "dataset": curated / "full.jsonl",
             "predictions": probed / "predictions.jsonl", "config": config_path}
    argv = [arg.format(**paths) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("probeforge: error: ")
    assert len(err.strip().splitlines()) == 1
    assert "bad_input" in err


UNWRITABLE_OUT = {
    # command -> argv without --out
    "curate": ["curate", "--triples", TRIPLES],
    "rewire": ["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
               "--config", "{config}"],
    "probe": ["probe", "--encoder", ENCODER_SPEC, "--dataset", "{dataset}",
              "--entities", ENTITIES, "--strategy", "contrastive"],
    "eval": EVAL,
    "sweep": ["sweep", "--axis", "layer", "--values", "1", "--encoder", ENCODER_SPEC,
              "--corpus", CORPUS, "--config", "{config}", "--dataset", "{dataset}",
              "--entities", ENTITIES],
}


@pytest.mark.parametrize("command", list(UNWRITABLE_OUT))
def test_unwritable_out_exits_one(tmp_path, curated, probed, config_path, capsys,
                                  command):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    paths = {"dataset": curated / "full.jsonl",
             "predictions": probed / "predictions.jsonl", "config": config_path}
    argv = [arg.format(**paths) for arg in UNWRITABLE_OUT[command]]
    # --out below a regular file cannot be created, not even by root
    assert main([*argv, "--out", str(blocker / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"probeforge: error: cannot write outputs to {blocker / 'out'}")
    assert len(err.strip().splitlines()) == 1


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


def test_probe_lone_surrogate_query_exits_one(tmp_path, curated, capsys):
    records = [json.loads(line) for line in (curated / "full.jsonl").read_text().splitlines()]
    records[0]["query_text"] += " \ud800"
    dataset = tmp_path / "surrogate.jsonl"
    # json.dumps writes the lone surrogate as the escape "\ud800"
    dataset.write_text("".join(json.dumps(r) + "\n" for r in records))
    code = main(["probe", "--encoder", ENCODER_SPEC, "--dataset", str(dataset),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("probeforge: error: ")
    assert len(err.strip().splitlines()) == 1
    assert repr(records[0]["query_text"]) in err
    assert not (tmp_path / "out").exists()


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
    assert report.metadata == {"missing_predictions": 0}
    assert (out / "report.csv").is_file()


def test_eval_reports_missing_predictions(tmp_path, curated, probed):
    # a truncated predictions file still scores, but the report says how many
    # queries went without a prediction
    lines = (probed / "predictions.jsonl").read_text(encoding="utf-8").splitlines(True)
    truncated = tmp_path / "predictions.jsonl"
    truncated.write_text("".join(lines[:20]), encoding="utf-8")
    out = tmp_path / "eval"
    assert main(["eval", "--predictions", str(truncated),
                 "--dataset", str(curated / "full.jsonl"), "--out", str(out)]) == 0
    report = load_report(out / "report.json")
    assert report.total_queries == 54
    assert report.metadata["missing_predictions"] == 54 - 20


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


def _sweep_argv(axis: str, values: str, curated: Path, config_path: str,
                workers: str, out: Path, encoder: str = ENCODER_SPEC) -> list[str]:
    return ["sweep", "--axis", axis, "--values", values,
            "--encoder", encoder, "--corpus", CORPUS, "--config", config_path,
            "--dataset", str(curated / "full.jsonl"), "--entities", ENTITIES,
            "--workers", workers, "--out", str(out)]


@pytest.mark.parametrize("axis, values", [("mask-ratio", "0.7,0.3"),
                                          ("checkpoint-step", "20,0,10"),
                                          ("seed", "7,8")])
def test_sweep_training_axes_same_for_any_workers(tmp_path, curated, config_path,
                                                  axis, values):
    outs = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main(_sweep_argv(axis, values, curated, config_path, workers, out)) == 0
        outs.append({p.name: p.read_bytes() for p in out.glob("*.csv")})
    assert outs[0] and outs[0] == outs[1]


def test_sweep_trains_in_the_calling_process(tmp_path, curated, config_path,
                                             monkeypatch):
    calls = []

    def counting_rewire_train(*args, **kwargs):
        calls.append(kwargs.get("start_step"))
        return rewire_train(*args, **kwargs)

    monkeypatch.setattr(cli, "rewire_train", counting_rewire_train)
    out = tmp_path / "seeds"
    assert main(_sweep_argv("seed", "7,8", curated, config_path, "2", out)) == 0
    assert len(calls) == 2


def test_sweep_workers_flag_keeps_the_cache_slot(tmp_path, curated, config_path,
                                                 monkeypatch):
    monkeypatch.setenv("PROBEFORGE_CACHE", str(tmp_path))
    argv = ["sweep", "--axis", "layer", "--values", "1", "--encoder", ENCODER_SPEC,
            "--corpus", CORPUS, "--config", config_path,
            "--dataset", str(curated / "full.jsonl"), "--entities", ENTITIES]
    for extra in ([], ["--workers", "3"]):
        assert main(argv + extra) == 0
    assert len(list(tmp_path.glob("sweep-*"))) == 1


def test_sweep_worker_error_exits_one(tmp_path, curated, capsys):
    config = tmp_path / "rewire.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "num_sentences": 100_000}))
    out = tmp_path / "seeds"
    assert main(_sweep_argv("seed", "7,8", curated, str(config), "2", out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("probeforge: error: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_sweep_mask_ratio_axis(tmp_path, curated, config_path):
    out = tmp_path / "ratios"
    assert main(_sweep_argv("mask-ratio", "0.7,0.3", curated, config_path, "1", out)) == 0
    with open(out / "mask_ratio_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["mask_ratio", "macro_acc1", "macro_acc10"]
    assert [r[0] for r in rows[1:]] == ["0.7", "0.3"]
    assert all(len(cell.split(".")[1]) == 6 for r in rows[1:] for cell in r[1:])
    assert read_manifest(out)["outputs"] == ["mask_ratio_sweep.csv"]


def _oracle_pairs(config: RewireConfig):
    sentences = sample_sentences(CORPUS, config.num_sentences, seed=config.seed)
    return [p for p in (tail_mask(s, config.mask_ratio) for s in sentences)
            if p is not None]


def _oracle_report(encoder, queries, metadata: dict):
    index = build_entity_index(encoder, load_entities(ENTITIES))
    hits = score_predictions(contrastive_probe(encoder, index, queries, 10), queries)
    return aggregate(hits, (1, 10), model=encoder.identity, strategy="contrastive",
                     metadata=metadata)


def test_sweep_checkpoint_steps_match_fresh_training(tmp_path, curated):
    """Training once through the sorted steps gives, at each step, the
    state that training a fresh encoder to that step gives."""
    # the demo model, whose accuracy moves between these steps
    spec, config_path = DEMO_ENCODER_SPEC, str(FIXTURES / "rewire_demo.json")
    out = tmp_path / "steps"
    assert main(_sweep_argv("checkpoint-step", "20,0,10", curated, config_path,
                            "1", out, encoder=spec)) == 0
    config = RewireConfig.from_json(config_path)
    pairs = _oracle_pairs(config)
    queries = load_dataset(curated / "full.jsonl")
    reports = []
    for step in (20, 0, 10):
        encoder = encoder_from_spec(spec)
        if step:
            rewire_train(encoder, pairs, replace(config, steps=step, checkpoint_every=0))
        reports.append(_oracle_report(encoder, queries, {"checkpoint_step": step}))
    write_step_curves_csv(step_curves(reports, k=1), tmp_path / "oracle.csv")
    assert ((out / "step_curves.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


def test_sweep_seeds_match_fresh_training(tmp_path, curated):
    """Each seed of a seed sweep reports what a fresh encoder trained with
    that seed to the config's probe step reports."""
    spec, config_path = DEMO_ENCODER_SPEC, str(FIXTURES / "rewire_demo.json")
    out = tmp_path / "seeds"
    assert main(_sweep_argv("seed", "8,7", curated, config_path, "1", out,
                            encoder=spec)) == 0
    base = RewireConfig.from_json(config_path)
    assert 0 < base.probe_checkpoint_step <= base.steps
    queries = load_dataset(curated / "full.jsonl")
    reports = []
    for seed in (8, 7):
        config = replace(base, seed=seed, steps=base.probe_checkpoint_step,
                         checkpoint_every=0)
        encoder = encoder_from_spec(spec)
        rewire_train(encoder, _oracle_pairs(config), config)
        reports.append(_oracle_report(encoder, queries, {"seed": seed}))
    summary = stability_summary(reports)
    write_csv(tmp_path / "oracle.csv",
              ["relation_id", "acc1_mean", "acc1_std", "acc10_mean", "acc10_std"],
              ([rel, *(f"{v:.6f}" for k in (1, 10) for v in stats[k])]
               for rel, stats in [*summary.per_relation.items(), ("macro", summary.macro)]))
    assert ((out / "stability.csv").read_bytes()
            == (tmp_path / "oracle.csv").read_bytes())


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
