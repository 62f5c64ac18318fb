"""The file formats of text.py: each reader's error rule and each writer's bytes."""

import json
from pathlib import Path

import pytest

import probeforge
from probeforge.cli import main
from probeforge.curator import ProbeQuery, save_dataset
from probeforge.encoders import ReferenceEncoder, save_checkpoint
from probeforge.errors import InputError, ValidationError
from probeforge.evaluation import EvalReport, RelationScore, save_report
from probeforge.probers import RankedPrediction, save_predictions
from probeforge.rewire import RewireConfig
from probeforge.text import read_json, read_lines

TRIPLES = str(Path(probeforge.__file__).parent / "fixtures" / "triples.tsv")


# ---------------------------------------------------------------------------
# readers

def test_read_json_error_rule(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(InputError, match="cannot read thing"):
        read_json(path, "thing")
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(InputError, match="cannot read thing"):
        read_json(path, "thing")
    path.write_text('{"a": ', encoding="utf-8")
    with pytest.raises(ValidationError, match="invalid JSON"):
        read_json(path, "thing")
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ValidationError, match="thing must be a JSON object"):
        read_json(path, "thing")
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(ValidationError, match="thing must be a JSON array"):
        read_json(path, "thing", list)
    assert read_json(path, "thing") == {}


def test_read_lines_passes_iterables_through(tmp_path):
    lines = ["a\n", "b"]
    assert read_lines(lines, "lines") is lines
    path = tmp_path / "lines.txt"
    path.write_bytes(b"a\r\nb")
    assert list(read_lines(path, "lines")) == ["a\n", "b"]
    path.write_bytes(b"a\n\xff\n")
    with pytest.raises(InputError, match="cannot read lines"):
        list(read_lines(path, "lines"))


# ---------------------------------------------------------------------------
# JSONL writers: one compact object per line, non-ASCII text as raw UTF-8

def test_save_dataset_bytes(tmp_path):
    path = tmp_path / "full.jsonl"
    save_dataset([ProbeQuery("q1", "r", "Ménière", "Ménière is [MASK] .", ["vertigo"], True)],
                 path)
    assert path.read_bytes() == (
        '{"query_id": "q1", "relation_id": "r", "head_name": "Ménière", '
        '"query_text": "Ménière is [MASK] .", "answers": ["vertigo"], "hard": true}\n'
    ).encode("utf-8")


def test_save_predictions_bytes(tmp_path):
    path = tmp_path / "predictions.jsonl"
    save_predictions([RankedPrediction("q1", (("Ménière", 0.5), ("x", -1)), "contrastive")],
                     path)
    assert path.read_bytes() == (
        '{"query_id": "q1", "strategy": "contrastive", '
        '"candidates": [["Ménière", 0.5], ["x", -1.0]]}\n'
    ).encode("utf-8")


# ---------------------------------------------------------------------------
# JSON documents: indented by 2, sorted keys, ASCII escapes, a final newline

def _assert_canonical(path: Path) -> dict:
    text = path.read_bytes().decode("ascii")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert text.startswith('{\n  "')
    return doc


def test_rewire_config_bytes(tmp_path):
    path = tmp_path / "rewire_config.json"
    RewireConfig(steps=4, checkpoint_every=2, mask_placeholder="[MÄSK]").to_json(path)
    text = path.read_text(encoding="ascii")
    assert '\n  "mask_placeholder": "[M\\u00c4SK]",\n' in text
    assert _assert_canonical(path)["mask_placeholder"] == "[MÄSK]"


def test_checkpoint_sidecar_bytes(tmp_path):
    save_checkpoint(ReferenceEncoder(dim=4, seed=1, layers=1, feature_dim=16), tmp_path)
    sidecar = _assert_canonical(tmp_path / "sidecar.json")
    assert list(sidecar["sha256"]) == sorted(sidecar["sha256"])


def test_manifest_bytes(tmp_path):
    assert main(["curate", "--triples", TRIPLES, "--out", str(tmp_path)]) == 0
    manifest = _assert_canonical(tmp_path / "manifest.json")
    assert manifest["outputs"] == ["full.jsonl", "hard.jsonl", "stats.csv"]


# ---------------------------------------------------------------------------
# report.json: relations in insertion order, non-ASCII text as raw UTF-8

def test_save_report_bytes(tmp_path):
    report = EvalReport(model="modèle", strategy="contrastive", split="full", k_values=(1,),
                        per_relation={"zeta": RelationScore(1, {1: 1.0}),
                                      "alpha": RelationScore(1, {1: 0.0})},
                        macro={1: 0.5}, micro={1: 0.5})
    path = tmp_path / "report.json"
    save_report(report, path)
    assert path.read_bytes() == """{
  "model": "modèle",
  "strategy": "contrastive",
  "split": "full",
  "k_values": [
    1
  ],
  "per_relation": {
    "zeta": {
      "count": 1,
      "acc": {
        "1": 1.0
      }
    },
    "alpha": {
      "count": 1,
      "acc": {
        "1": 0.0
      }
    }
  },
  "macro": {
    "1": 0.5
  },
  "micro": {
    "1": 0.5
  },
  "metadata": {}
}
""".encode("utf-8")
