import csv
import hashlib
import io
import json
import re
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import probeforge
from probeforge import cli
from probeforge.cli import main
from probeforge.curator import load_dataset
from probeforge.encoders import (ReferenceEncoder, encoder_from_spec, load_checkpoint,
                                 save_checkpoint)
from probeforge.errors import InputError, NumericalError
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


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under root, by its path relative to root."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


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


def test_curate_drops_a_tail_without_a_word(tmp_path, capsys):
    # ten tails, one of them punctuation alone: that line is malformed, and
    # the query keeps the other nine answers
    triples = tmp_path / "triples.tsv"
    tails = [f"answer {i}" for i in range(9)] + ["--"]
    triples.write_text("".join(f"Aspirin\tmay_treat\t{t}\n" for t in tails), encoding="utf-8")
    out = tmp_path / "curated"
    assert main(["curate", "--triples", str(triples), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    query, = load_dataset(out / "full.jsonl")
    assert query.answers == tails[:9]
    assert read_manifest(out)["config"]["malformed_triple_lines"] == 1


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


def _fail_one_step_after_the_first_checkpoint(patch) -> None:
    backward_train = ReferenceEncoder.backward_train
    calls = []

    def failing_backward(self, grads, learning_rate):
        calls.append(learning_rate)
        if len(calls) > SMALL_CONFIG["checkpoint_every"]:
            raise NumericalError("diverged")
        return backward_train(self, grads, learning_rate)

    patch.setattr(ReferenceEncoder, "backward_train", failing_backward)


def test_failed_rewire_rerun_keeps_the_earlier_artifacts(tmp_path, rewired, config_path,
                                                        capsys, monkeypatch):
    out = tmp_path / "rerun"
    shutil.copytree(rewired, out)
    earlier = tree_bytes(out)
    assert {"manifest.json", "checkpoints/step_00010/sidecar.json",
            "checkpoints/step_00020/w_in.npy"} <= set(earlier)
    _fail_one_step_after_the_first_checkpoint(monkeypatch)
    code = main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--seed", "8", "--out", str(out)])
    assert code == 1
    assert "diverged" in capsys.readouterr().err
    # the first run's files, its checkpoints and manifest included, are intact
    for name, data in earlier.items():
        assert (out / name).read_bytes() == data, name


def test_probe_rejects_rewire_dir_whose_manifest_is_not_json(tmp_path, curated, rewired,
                                                            capsys):
    copy = tmp_path / "copy"
    shutil.copytree(rewired, copy)
    (copy / "manifest.json").write_text("{not json", encoding="utf-8")
    err = _probe_rewire_dir_error(copy, curated, tmp_path / "probe", capsys)
    assert "manifest.json: invalid JSON" in err


def test_probe_rejects_rewire_dir_without_a_probe_step(tmp_path, curated, rewired,
                                                       capsys):
    copy = tmp_path / "copy"
    shutil.copytree(rewired, copy)
    config = json.loads((copy / "rewire_config.json").read_text())
    (copy / "rewire_config.json").write_text(
        json.dumps({**config, "probe_checkpoint_step": 0}))
    err = _probe_rewire_dir_error(copy, curated, tmp_path / "probe", capsys)
    assert err == (f"probeforge: error: {copy / 'rewire_config.json'}: "
                   "probe_checkpoint_step is 0; pass a checkpoint directory\n")


def test_probe_rejects_rewire_dir_without_manifest(tmp_path, curated, rewired,
                                                   config_path, monkeypatch, capsys):
    copy = tmp_path / "copy"
    shutil.copytree(rewired, copy)
    (copy / "manifest.json").unlink()
    err = _probe_rewire_dir_error(copy, curated, tmp_path / "probe", capsys)
    assert "did not complete" in err

    # a rerun that fails leaves the earlier run, manifest included, to probe
    def fail(*args, **kwargs):
        raise InputError("interrupted")

    shutil.copytree(rewired, tmp_path / "failed")
    monkeypatch.setattr(cli, "rewire_train", fail)
    assert main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--out", str(tmp_path / "failed")]) == 1
    capsys.readouterr()
    out = tmp_path / "probe"
    assert main(["probe", "--checkpoint", str(tmp_path / "failed"),
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", str(out)]) == 0
    assert "@step10" in read_manifest(out)["config"]["model"]


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


def _rewrite_with_digest(ckpt: Path, name: str, data: bytes) -> str:
    # the sidecar's sha256 is made to match, so the damage reaches the parser
    (ckpt / f"{name}.npy").write_bytes(data)
    sidecar = json.loads((ckpt / "sidecar.json").read_text())
    sidecar["sha256"][name] = hashlib.sha256(data).hexdigest()
    (ckpt / "sidecar.json").write_text(json.dumps(sidecar))
    return f"{name}.npy"


def _bad_magic(ckpt: Path) -> str:
    data = (ckpt / "w_in.npy").read_bytes()
    return _rewrite_with_digest(ckpt, "w_in", b"\x93NUMPX" + data[6:])


def _shape_past_the_payload(ckpt: Path) -> str:
    arr = np.load(ckpt / "block_00.npy")
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False,
                 "shape": (arr.shape[0] + 1, arr.shape[1])})
    return _rewrite_with_digest(ckpt, "block_00", header.getvalue() + arr.tobytes())


def _trailing_bytes(ckpt: Path) -> str:
    data = (ckpt / "block_01.npy").read_bytes()
    return _rewrite_with_digest(ckpt, "block_01", data + bytes(8))


def _object_dtype(ckpt: Path) -> str:
    buf = io.BytesIO()
    np.save(buf, np.zeros(np.load(ckpt / "block_00.npy").shape, dtype=object),
            allow_pickle=True)
    return _rewrite_with_digest(ckpt, "block_00", buf.getvalue())


@pytest.mark.parametrize("damage", [_bad_magic, _shape_past_the_payload, _trailing_bytes,
                                    _object_dtype],
                         ids=["bad-magic", "shape-past-payload", "trailing-bytes",
                              "object-dtype"])
def test_probe_unparsable_checkpoint_array_exits_one(tmp_path, curated, rewired, capsys,
                                                     damage):
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
    assert f"cannot load checkpoint array {ckpt / culprit}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "probe").exists()


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
GOOD_QUERY = {"query_id": "q", "relation_id": "may_treat", "head_name": "H",
              "query_text": "H might treat [MASK] .", "answers": ["a"], "hard": False}
BAD_CONFIG = ["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS, "--config", "{bad}"]
BAD_TEMPLATES = ["curate", "--triples", TRIPLES, "--templates", "{bad}"]
BAD_DATASET = [*EVAL[:-1], "{bad}"]

BAD_INPUTS = {
    # case -> (argv, content of the bad file, then optionally its one-line
    # error message with {bad} for the file's path); content None: the file
    # does not exist, a dict: a directory of the named files
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
    "curate:template-without-slots": (
        BAD_TEMPLATES, json.dumps([{"relation_id": "r", "pattern": "no slots"}])),
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
    "eval:dataset-line-not-an-object": (
        BAD_DATASET, "[1]\n", "{bad}:1: expected a JSON object"),
    "eval:dataset-line-without-a-field": (
        BAD_DATASET, json.dumps({k: v for k, v in GOOD_QUERY.items() if k != "hard"}),
        "{bad}:1: missing field 'hard'"),
    "eval:dataset-field-of-wrong-type": (
        BAD_DATASET, json.dumps({**GOOD_QUERY, "hard": "yes"}),
        "{bad}:1: field has wrong type"),
    "probe:checkpoint-of-an-unknown-backend": (
        ["probe", "--checkpoint", "{bad}", "--dataset", "{dataset}",
         "--entities", ENTITIES, "--strategy", "contrastive"],
        {"sidecar.json": json.dumps({"backend": "other"})},
        "unknown encoder backend 'other' in {bad}"),
}
# the mask-filling and generation strategies need the placeholder as a token
# of its own, so a dataset that glues it to its neighbour is refused on load,
# whichever strategy probes it
GLUED_PLACEHOLDER = (json.dumps({**GOOD_QUERY, "query_text": "H might treat [MASK]."}),
                     "{bad}:1: query 'H might treat [MASK].' must contain '[MASK]' "
                     "exactly once, as a whitespace token of its own")
BAD_INPUTS["eval:dataset-placeholder-glued"] = (BAD_DATASET, *GLUED_PLACEHOLDER)
for strategy, models in [("contrastive", ["--encoder", ENCODER_SPEC, "--entities", ENTITIES]),
                         ("mask-predict", ["--encoder", STUB_MLM]),
                         ("mask-average", ["--encoder", STUB_MLM, "--entities", ENTITIES]),
                         ("generate", ["--encoder", STUB_GENERATOR])]:
    BAD_INPUTS[f"probe:dataset-placeholder-glued-{strategy}"] = (
        ["probe", "--dataset", "{bad}", "--strategy", strategy, *models], *GLUED_PLACEHOLDER)
for name, content, *message in [
        ("missing-file", None), ("not-json", "{not json"),
        ("no-default", _table_without("stub_mlm.json", "default")),
        ("no-vocab", _table_without("stub_mlm.json", "vocab")),
        ("bad-rule-position", _mlm_rule_position("first")),
        ("bool-prob", json.dumps({"vocab": ["a", "b"], "default": {"a": True}})),
        ("duplicate-vocab", json.dumps({"vocab": ["a", "a"], "default": {"a": 1}}),
         "{bad}: malformed MLM table: vocab entries must be unique"),
        ("negative-prob", json.dumps({"vocab": ["a", "b"], "default": {"a": 1.5, "b": -0.5}}),
         "{bad}: malformed MLM table: default: negative probability"),
        ("unknown-key", json.dumps({"vocab": ["a"], "default": {"a": 1}, "temperature": 1}),
         "{bad}: unknown MLM table keys ['temperature']"),
        ("unknown-rule-key", json.dumps({"vocab": ["a", "b"], "default": {"b": 1},
                                         "rules": [{"left": "x", "probs": {"b": 1}},
                                                   {"postion": 7, "probs": {"a": 1.0}}]}),
         "{bad}: malformed MLM table: rule 1: unknown keys ['postion']"),
        ("mask-token-not-a-string", json.dumps({"vocab": ["a"], "default": {"a": 1},
                                                "mask_token": 5}),
         "{bad}: malformed MLM table: mask_token 5 must be one whitespace-free string")]:
    BAD_INPUTS[f"table-mlm:{name}"] = (
        ["probe", "--dataset", "{dataset}", "--strategy", "mask-predict",
         "--encoder", "table-mlm:{bad}"], content, *message)
# a fill could write the table's own mask token, and the filled slot would
# count as a mask again, past the rows of the confidence fill
BAD_INPUTS["table-mlm:mask-token-in-vocab"] = (
    ["probe", "--dataset", "{dataset}", "--strategy", "mask-predict", "--num-masks", "2",
     "--fill-strategy", "confidence", "--encoder", "table-mlm:{bad}"],
    json.dumps({"vocab": ["[MASK]", "a", "b"], "default": {"[MASK]": 0.1, "a": 0.5, "b": 0.4},
                "rules": [{"position": 2, "probs": {"[MASK]": 0.9, "a": 0.05, "b": 0.05}}]}),
    "{bad}: malformed MLM table: mask_token '[MASK]' must not be in the vocab")
for name, content, *message in [
        ("missing-file", None), ("not-json", "[1, 2"),
        ("no-default", _table_without("stub_generator.json", "default")),
        ("bool-score", json.dumps({"default": [["x", True], ["y", False]]})),
        ("string-score", json.dumps({"default": [["x", "0.5"]]})),
        ("empty-candidates", json.dumps({"default": []}),
         "{bad}: malformed generator table: generator candidate lists must be non-empty"),
        ("unknown-key", json.dumps({"default": [["x", 1]], "max_new_tokens": 8}),
         "{bad}: unknown generator table keys ['max_new_tokens']")]:
    BAD_INPUTS[f"table-generator:{name}"] = (
        ["probe", "--dataset", "{dataset}", "--strategy", "generate",
         "--encoder", "table-generator:{bad}"], content, *message)


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_file_exits_one(tmp_path, curated, probed, config_path, capsys, case):
    argv, content, *message = BAD_INPUTS[case]
    bad = tmp_path / "bad_input"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif isinstance(content, dict):
        bad.mkdir()
        for name, text in content.items():
            (bad / name).write_text(text)
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
    if message:
        assert err == f"probeforge: error: {message[0].format(bad=bad)}\n"


PROBE = ["probe", "--dataset", "{dataset}", "--strategy"]
SWEEP = ["sweep", "--encoder", ENCODER_SPEC, "--corpus", CORPUS, "--config", "{config}",
         "--dataset", "{dataset}", "--entities", ENTITIES, "--axis"]

ARGV_ERRORS = {
    # case -> (argv, exit code, message); {empty} is an empty file, {nothing}
    # a path that does not exist, {two_tails} a triple file of one head with
    # two tails
    "eval:k-empty": ([*EVAL, "--k", " , "], 1, "--k must list at least one integer"),
    "eval:k-not-integers": (
        [*EVAL, "--k", "1,x"], 1, "--k: expected comma-separated integers, got '1,x'"),
    "eval:length-bins-not-integers": (
        [*EVAL, "--length-bins", "10,2.5"], 1,
        "--length-bins: expected comma-separated integers, got '10,2.5'"),
    "eval:split-empty": (
        ["eval", "--predictions", "{empty}", "--dataset", "{empty}"], 1,
        "no queries in the full split"),
    "curate:no-query-survives": (
        ["curate", "--triples", "{two_tails}", "--max-answers", "1"], 1,
        "{two_tails}: no queries survived curation"),
    "probe:checkpoint-is-neither": (
        [*PROBE, "contrastive", "--checkpoint", "{nothing}", "--entities", ENTITIES], 1,
        "{nothing} holds neither a checkpoint nor a rewire run"),
    "probe:dataset-empty": (
        ["probe", "--dataset", "{empty}", "--strategy", "contrastive",
         "--encoder", ENCODER_SPEC, "--entities", ENTITIES], 1,
        "{empty}: dataset is empty"),
    "probe:entities-empty": (
        [*PROBE, "contrastive", "--encoder", ENCODER_SPEC, "--entities", "{empty}"], 1,
        "entity vocabulary is empty"),
    "probe:encoder-key-without-value": (
        [*PROBE, "contrastive", "--encoder", "reference:dim", "--entities", ENTITIES], 1,
        "reference:dim: expected key=value, got 'dim'"),
    "probe:encoder-seed-negative": (
        [*PROBE, "contrastive", "--encoder", "reference:dim=64,seed=-3",
         "--entities", ENTITIES], 1, "seed must be >= 0"),
    "probe:encoder-key-repeated": (
        [*PROBE, "contrastive", "--encoder", "reference:dim=16,dim=64",
         "--entities", ENTITIES], 1, "reference:dim=16,dim=64: key 'dim' given twice"),
    "probe:layer-limit-beyond-the-encoder": (
        [*PROBE, "contrastive", "--encoder", ENCODER_SPEC, "--entities", ENTITIES,
         "--layer-limit", "7"], 1,
        "layer_limit 7 outside [1, 2] for reference(dim=32,seed=3,layers=2,feature_dim=512)"
        "@step0"),
    "rewire:encoder-seed-negative": (
        ["rewire", "--encoder", "reference:seed=-1", "--corpus", CORPUS,
         "--config", "{config}"], 1, "seed must be >= 0"),
    "probe:entities-required": (
        [*PROBE, "contrastive", "--encoder", ENCODER_SPEC], 2,
        "--entities is required with --candidate-scope full"),
    "probe:checkpoint-with-mask-predict": (
        [*PROBE, "mask-predict", "--encoder", STUB_MLM, "--checkpoint", "{nothing}"], 2,
        "--checkpoint only applies to contrastive probing"),
    "probe:layer-limit-with-mask-predict": (
        [*PROBE, "mask-predict", "--encoder", STUB_MLM, "--layer-limit", "7"], 2,
        "--layer-limit only applies to contrastive probing"),
    "probe:layer-limit-with-generate": (
        [*PROBE, "generate", "--encoder", STUB_GENERATOR, "--layer-limit", "1"], 2,
        "--layer-limit only applies to contrastive probing"),
    "probe:mask-average-without-encoder": (
        [*PROBE, "mask-average"], 2, "--encoder is required for mask-average probing"),
    "sweep:values-empty": (
        [*SWEEP, "layer", "--values", ","], 1, "--values must list at least one value"),
    "sweep:values-not-numbers": (
        [*SWEEP, "mask-ratio", "--values", "0.5,x"], 1,
        "--values: could not parse '0.5,x' for axis mask-ratio"),
    "sweep:values-duplicated": (
        [*SWEEP, "layer", "--values", "1, 1"], 1, "--values contains duplicates: '1, 1'"),
    "sweep:layer-zero": (
        [*SWEEP, "layer", "--values", "0,1"], 1, "layer sweep values must be >= 1"),
    "sweep:checkpoint-step-negative": (
        [*SWEEP, "checkpoint-step", "--values=-10,10"], 1,
        "checkpoint-step values must be >= 0"),
    "sweep:seed-negative": (
        [*SWEEP, "seed", "--values=-1,2"], 1, "seed values must be >= 0"),
    "sweep:dataset-empty": (
        ["sweep", "--encoder", ENCODER_SPEC, "--corpus", CORPUS, "--config", "{config}",
         "--dataset", "{empty}", "--entities", ENTITIES, "--axis", "layer",
         "--values", "1"], 1, "{empty}: dataset is empty"),
}

# a probe flag set away from its default with a strategy that does not read
# it: flag -> (a value, the strategies that read it)
PROBE_FLAG_READERS = {
    "checkpoint": ("{nothing}", "contrastive"),
    "entities": (ENTITIES, "contrastive and mask-average"),
    "k": ("3", "contrastive, mask-average and generate"),
    "layer-limit": ("1", "contrastive"),
    "candidate-scope": ("relation", "contrastive and mask-average"),
    "num-masks": ("9", "mask-predict"),
    "fill-strategy": ("confidence", "mask-predict"),
    "refine": ("order", "mask-predict"),
    "max-refine-iters": ("2", "mask-predict"),
}
# the iteration cap only bounds a refinement
ARGV_ERRORS["probe:max-refine-iters-without-refine"] = (
    [*PROBE, "mask-predict", "--encoder", STUB_MLM, "--max-refine-iters", "0"], 2,
    "--max-refine-iters only applies with --refine order")
for strategy, encoder in [("contrastive", ENCODER_SPEC), ("mask-predict", STUB_MLM),
                          ("mask-average", STUB_MLM), ("generate", STUB_GENERATOR)]:
    for flag, (value, readers) in PROBE_FLAG_READERS.items():
        if strategy not in readers.replace(",", "").split():
            ARGV_ERRORS.setdefault(f"probe:{flag}-with-{strategy}", (
                [*PROBE, strategy, "--encoder", encoder, f"--{flag}", value], 2,
                f"--{flag} only applies to {readers} probing"))


@pytest.mark.parametrize("case", list(ARGV_ERRORS))
def test_bad_argv_exits_with_its_message(tmp_path, curated, probed, config_path, capsys,
                                         case):
    argv, code, message = ARGV_ERRORS[case]
    (tmp_path / "empty").write_text("")
    (tmp_path / "two_tails").write_text("Aspirin\tmay_treat\tpain\n"
                                        "Aspirin\tmay_treat\tfever\n")
    paths = {"dataset": curated / "full.jsonl", "predictions": probed / "predictions.jsonl",
             "config": config_path, "empty": tmp_path / "empty",
             "nothing": tmp_path / "nothing", "two_tails": tmp_path / "two_tails"}
    argv = [arg.format(**paths) for arg in argv]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        # argparse prints the usage line, then the error
        assert err.splitlines()[-1].endswith(f" error: {message}")
    else:
        assert err == f"probeforge: error: {message.format(**paths)}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("command", list(UNWRITABLE_OUT))
def test_manifest_lists_exactly_what_the_run_left(tmp_path, curated, probed, config_path,
                                                  command):
    paths = {"dataset": curated / "full.jsonl",
             "predictions": probed / "predictions.jsonl", "config": config_path}
    argv = [arg.format(**paths) for arg in UNWRITABLE_OUT[command]]
    if command == "eval":
        first = load_predictions(probed / "predictions.jsonl")[0]
        annotations = tmp_path / "annotations.csv"
        save_annotations([ExpertAnnotation(first.query_id, first.candidates[0][0], 5)],
                         annotations)
        argv += ["--k", "1", "--length-bins", "10,20", "--annotations", str(annotations)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    listed = [Path(name) for name in read_manifest(out)["outputs"]]
    assert listed and all((out / name).exists() for name in listed)
    for path in out.rglob("*"):
        rel = path.relative_to(out)
        if path.is_file() and rel != Path("manifest.json"):
            assert any(name == rel or name in rel.parents for name in listed), rel
    assert not list(out.rglob("*.partial"))


def test_failed_write_keeps_the_earlier_artifact(tmp_path, curated, probed, capsys,
                                                 monkeypatch):
    out = tmp_path / "probed"
    shutil.copytree(probed, out)
    earlier = (out / "predictions.jsonl").read_bytes()
    earlier_manifest = (out / "manifest.json").read_bytes()

    def failing_save(predictions, path):
        Path(path).write_text('{"query_id": "q')
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_predictions", failing_save)
    code = main(["probe", "--encoder", ENCODER_SPEC, "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"probeforge: error: cannot write outputs to {out}: ")
    assert (out / "predictions.jsonl").read_bytes() == earlier
    assert (out / "manifest.json").read_bytes() == earlier_manifest


def test_rewire_rerun_with_too_large_a_batch_changes_nothing(tmp_path, rewired,
                                                             config_path, capsys):
    out = tmp_path / "rerun"
    shutil.copytree(rewired, out)
    earlier = tree_bytes(out)
    code = main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--batch-size", "100000", "--out", str(out)])
    assert code == 1
    assert "need at least batch_size=100000 pairs" in capsys.readouterr().err
    assert tree_bytes(out) == earlier


@pytest.mark.parametrize("entry", ["../victim", "{victim}", "", ".", 7],
                         ids=["parent", "absolute", "empty", "dot", "not-a-string"])
def test_rerun_refuses_a_manifest_that_lists_a_path_outside_out(tmp_path, curated,
                                                                probed, capsys, entry):
    victim = tmp_path / "victim"
    victim.write_text("keep me")
    out = tmp_path / "eval"
    out.mkdir()
    entry = entry.format(victim=victim) if isinstance(entry, str) else entry
    (out / "manifest.json").write_text(json.dumps({"outputs": [entry]}))
    code = main(["eval", "--predictions", str(probed / "predictions.jsonl"),
                 "--dataset", str(curated / "full.jsonl"), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("probeforge: error: ")
    assert f"bad output name {entry!r}" in err[0]
    assert victim.read_text() == "keep me"
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_rerun_refuses_a_manifest_without_an_outputs_list(tmp_path, curated, probed,
                                                          capsys):
    out = tmp_path / "eval"
    out.mkdir()
    (out / "manifest.json").write_text(json.dumps({"outputs": "report.json"}))
    code = main(["eval", "--predictions", str(probed / "predictions.jsonl"),
                 "--dataset", str(curated / "full.jsonl"), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"probeforge: error: {out / 'manifest.json'}: no outputs list\n")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_rerun_removes_stale_partial_files(tmp_path):
    out = tmp_path / "curated"
    (out / "notes").mkdir(parents=True)
    # files a killed run left staged, at the top and further down
    (out / "full.jsonl.partial").write_text('{"query_id": "q')
    (out / "notes" / "draft.csv.partial").write_text("relation_id,")
    assert main(["curate", "--triples", TRIPLES, "--out", str(out)]) == 0
    assert not list(out.rglob("*.partial"))
    assert (out / "notes").is_dir()
    assert len(load_dataset(out / "full.jsonl")) == 54


def test_rewire_rerun_clears_a_failed_run_s_staged_checkpoint(tmp_path, curated,
                                                             config_path, capsys,
                                                             monkeypatch):
    out = tmp_path / "rewired"
    # a three-layer run fails one step after staging its step-10 checkpoint
    with monkeypatch.context() as patch:
        _fail_one_step_after_the_first_checkpoint(patch)
        assert main(["rewire", "--encoder", "reference:dim=32,seed=3,layers=3,feature_dim=512",
                     "--corpus", CORPUS, "--config", config_path, "--out", str(out)]) == 1
    capsys.readouterr()
    assert (out / "checkpoints" / "step_00010.partial" / "block_02.npy").is_file()

    assert main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--out", str(out)]) == 0
    assert sorted(p.name for p in (out / "checkpoints" / "step_00010").iterdir()) == [
        "block_00.npy", "block_01.npy", "sidecar.json", "w_in.npy"]
    assert main(["probe", "--checkpoint", str(out),
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive",
                 "--out", str(tmp_path / "probe")]) == 0


def test_rerun_removes_a_failed_run_s_staged_outputs_of_other_names(tmp_path, rewired,
                                                                   config_path, capsys,
                                                                   monkeypatch):
    out = tmp_path / "rerun"
    shutil.copytree(rewired, out)
    # a rerun fails one step after staging its step-10 checkpoint
    with monkeypatch.context() as patch:
        _fail_one_step_after_the_first_checkpoint(patch)
        assert main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                     "--config", config_path, "--out", str(out)]) == 1
    capsys.readouterr()
    assert (out / "checkpoints" / "step_00010.partial").is_dir()
    # the next rerun succeeds and stages step 20 alone
    assert main(["rewire", "--encoder", ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", config_path, "--checkpoint-every", "20",
                 "--probe-checkpoint-step", "20", "--out", str(out)]) == 0
    assert read_manifest(out)["outputs"] == [
        "checkpoints/step_00020", "loss_trace.csv", "rewire_config.json"]
    assert not list(out.rglob("*.partial"))
    assert sorted(p.name for p in (out / "checkpoints").iterdir()) == ["step_00020"]


def test_diverging_rewire_names_its_step_in_one_line(tmp_path, capsys):
    # numpy warnings raise, so an overflow that escapes the step's own
    # check fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rewire", "--encoder", DEMO_ENCODER_SPEC, "--corpus", CORPUS,
                     "--config", str(FIXTURES / "rewire_demo.json"),
                     "--checkpoint-every", "1", "--probe-checkpoint-step", "1",
                     "--learning-rate", "1e300", "--out", str(tmp_path / "rewired")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"probeforge: error: non-finite loss at step 2 \(batch [0-9a-f]{12}\): "
                        r"query_vectors contains a zero or non-finite row norm", err[0])


def test_rewire_that_diverges_in_its_last_update_fails_in_one_line(tmp_path, capsys):
    # step 1's loss is taken before its update, so only the batch encoded
    # after it meets weights of about 1e300, finite but overflowing any encode
    run = tmp_path / "rewired"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["rewire", "--encoder", DEMO_ENCODER_SPEC, "--corpus", CORPUS,
                     "--config", str(FIXTURES / "rewire_demo.json"), "--steps", "1",
                     "--checkpoint-every", "1", "--probe-checkpoint-step", "1",
                     "--learning-rate", "1e300", "--out", str(run)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"probeforge: error: diverged at step 1 \(batch [0-9a-f]{12}\): "
                        r"the batch encoded after its update contains a zero or non-finite "
                        r"row norm", err[0])
    assert not (run / "manifest.json").exists()


def test_probe_of_a_diverged_checkpoint_names_it_in_one_line(tmp_path, curated, capsys):
    # weights of about 1e300 are finite but overflow any encode
    run = tmp_path / "rewired"
    assert main(["rewire", "--encoder", DEMO_ENCODER_SPEC, "--corpus", CORPUS,
                 "--config", str(FIXTURES / "rewire_demo.json"), "--steps", "1",
                 "--checkpoint-every", "1", "--probe-checkpoint-step", "1",
                 "--out", str(run)]) == 0
    step_dir = run / "checkpoints" / "step_00001"
    encoder = load_checkpoint(step_dir)
    encoder.w_in *= 1e300
    save_checkpoint(encoder, step_dir)
    capsys.readouterr()
    # numpy warnings raise, so an overflow warning fails the test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["probe", "--checkpoint", str(run),
                     "--dataset", str(curated / "full.jsonl"),
                     "--entities", ENTITIES, "--strategy", "contrastive",
                     "--out", str(tmp_path / "probe")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"probeforge: error: checkpoint {run / 'checkpoints' / 'step_00001'} "
                   "cannot be probed: encoded texts contains a zero or non-finite row norm"]
    assert not (tmp_path / "probe").exists()


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


def test_probe_layer_limit_is_applied_at_probe_time(tmp_path, curated):
    queries = load_dataset(curated / "full.jsonl")
    out = tmp_path / "probe"
    assert main(["probe", "--encoder", ENCODER_SPEC, "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--strategy", "contrastive", "--layer-limit", "1",
                 "--out", str(out)]) == 0
    assert read_manifest(out)["config"]["layer_limit"] == 1
    index = build_entity_index(load_entities(ENTITIES))
    limited, full_depth = (contrastive_probe(encoder_from_spec(ENCODER_SPEC), index, queries,
                                             10, layer_limit=limit) for limit in (1, 2))
    assert load_predictions(out / "predictions.jsonl") == limited != full_depth


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


def test_eval_mixed_strategies_exit_one(tmp_path, curated, capsys):
    first, second = load_dataset(curated / "full.jsonl")[:2]
    mixed = tmp_path / "mixed.jsonl"
    save_predictions([RankedPrediction(first.query_id, (("x", 1.0),), "contrastive"),
                      RankedPrediction(second.query_id, (("x", 1.0),), "generate")],
                     mixed)
    code = main(["eval", "--predictions", str(mixed),
                 "--dataset", str(curated / "full.jsonl"),
                 "--out", str(tmp_path / "eval")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"probeforge: error: {mixed}: predictions mix strategies "
        "['contrastive', 'generate']\n")
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


def test_eval_rerun_without_bins_removes_the_earlier_bins(tmp_path, curated, probed):
    out = tmp_path / "eval"
    argv = ["eval", "--predictions", str(probed / "predictions.jsonl"),
            "--dataset", str(curated / "full.jsonl"), "--out", str(out)]
    assert main([*argv, "--length-bins", "10,20"]) == 0
    assert (out / "bins.csv").is_file()
    assert main(argv) == 0
    assert not (out / "bins.csv").exists()
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "report.csv", "report.json"]


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


def test_sweep_layer_axis_all_skipped_trains_nothing(tmp_path, curated, config_path,
                                                     monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a point no layer of the encoder reaches was trained for")

    monkeypatch.setattr(cli, "rewire_train", fail)
    out = tmp_path / "sweep"
    code = main(["sweep", "--axis", "layer", "--values", "5,7", "--encoder", ENCODER_SPEC,
                 "--corpus", CORPUS, "--config", config_path,
                 "--dataset", str(curated / "full.jsonl"),
                 "--entities", ENTITIES, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == ("probeforge: error: every layer limit in --values "
                                       "exceeds the encoder's 2 layers\n")
    assert not (out / "manifest.json").exists()
    assert not (out / "layer_sweep.csv").exists()


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
        calls.append(args[0].step)
        return rewire_train(*args, **kwargs)

    monkeypatch.setattr(cli, "rewire_train", counting_rewire_train)
    out = tmp_path / "seeds"
    assert main(_sweep_argv("seed", "7,8", curated, config_path, "2", out)) == 0
    # one fresh encoder per seed
    assert calls == [0, 0]


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


def test_sweep_checks_its_entity_names_before_training(tmp_path, curated, config_path,
                                                       monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "rewire_train", lambda *args, **kwargs: calls.append(args))
    entities = tmp_path / "entities.txt"
    entities.write_text("Aspirin\nIbuprofen\n  ASPIRIN \n")
    argv = _sweep_argv("seed", "7,8", curated, config_path, "1", tmp_path / "seeds")
    argv[argv.index(ENTITIES)] = str(entities)
    assert main(argv) == 1
    assert capsys.readouterr().err == ("probeforge: error: duplicate entity names after "
                                       "normalization: ASPIRIN\n")
    assert calls == []
    assert not (tmp_path / "seeds").exists()


def test_sweep_builds_its_index_once(tmp_path, curated, config_path, monkeypatch):
    builds = []

    def counting_build(names):
        builds.append(len(names))
        return build_entity_index(names)

    monkeypatch.setattr(cli, "build_entity_index", counting_build)
    argv = _sweep_argv("layer", "2,1", curated, config_path, "1", tmp_path / "layers")
    assert main(argv) == 0
    assert builds == [len(load_entities(ENTITIES))]


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
    index = build_entity_index(load_entities(ENTITIES))
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
