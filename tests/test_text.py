"""The file formats of text.py: each reader's error rule and each writer's bytes."""

import hashlib
import json
from pathlib import Path

import pytest

import probeforge
from probeforge.cli import main
from probeforge.curator import ProbeQuery, load_dataset, load_triples, save_dataset
from probeforge.encoders import ReferenceEncoder, save_checkpoint
from probeforge.errors import InputError, ValidationError
from probeforge.evaluation import (EvalReport, ExpertAnnotation, RelationScore,
                                   load_annotations, save_annotations, save_report)
from probeforge.probers import RankedPrediction, load_entities, save_predictions
from probeforge.rewire import RewireConfig, sample_sentences
from probeforge import text
from probeforge.text import read_json, read_lines, sha256_file

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


BOM = b"\xef\xbb\xbf"
BOM_READERS = {
    # reader -> (file name, load(path), write the plain file at path)
    "triples": ("triples.tsv", load_triples,
                lambda p: p.write_text("Aspirin\tmay_treat\tpain\n", encoding="utf-8")),
    "entities": ("entities.txt", load_entities,
                 lambda p: p.write_text("Aspirin\nIbuprofen\n", encoding="utf-8")),
    "corpus": ("corpus.txt", lambda p: sample_sentences(p, 2, seed=0),
               lambda p: p.write_text("Aspirin may relieve a mild headache .\n"
                                      "Ibuprofen may relieve a mild fever .\n",
                                      encoding="utf-8")),
    "dataset": ("full.jsonl", load_dataset,
                lambda p: save_dataset([ProbeQuery("q1", "r", "Aspirin", "Aspirin is [MASK] .",
                                                   ["pain"], True)], p)),
    "rewire-config": ("rewire.json", RewireConfig.from_json,
                      lambda p: RewireConfig(seed=3).to_json(p)),
    "annotations": ("annotations.csv", load_annotations,
                    lambda p: save_annotations([ExpertAnnotation("q1", "pain", 5)], p)),
}


@pytest.mark.parametrize("reader", list(BOM_READERS))
def test_readers_skip_a_leading_byte_order_mark(tmp_path, reader):
    # spreadsheet exports start UTF-8 text with U+FEFF
    name, load, write = BOM_READERS[reader]
    plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
    write(plain)
    marked.write_bytes(BOM + plain.read_bytes())
    assert load(plain)
    assert load(marked) == load(plain)


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


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_file_hash_across_block_edges(tmp_path, extra):
    for size in (0, text._HASH_BLOCK + extra, 3 * text._HASH_BLOCK + extra):
        data = bytes(range(256)) * (size // 256) + b"x" * (size % 256)
        (tmp_path / "f").write_bytes(data)
        assert sha256_file(tmp_path / "f") == hashlib.sha256(data).hexdigest()


def test_manifest_bytes(tmp_path):
    assert main(["curate", "--triples", TRIPLES, "--out", str(tmp_path)]) == 0
    manifest = _assert_canonical(tmp_path / "manifest.json")
    assert manifest["outputs"] == ["full.jsonl", "hard.jsonl", "stats.csv"]


def test_rescore_bytes(tmp_path):
    save_dataset([ProbeQuery("q1", "r", "Ménière", "Ménière is [MASK] .", ["vertigo"])],
                 tmp_path / "full.jsonl")
    save_predictions([RankedPrediction("q1", (("vertigo", 0.9), ("dizziness", 0.5),
                                              ("nausea", 0.1)), "contrastive")],
                     tmp_path / "predictions.jsonl")
    save_annotations([ExpertAnnotation("q1", "vertigo", 5),
                      ExpertAnnotation("q1", "dizziness", 5),
                      ExpertAnnotation("q1", "nausea", 1)], tmp_path / "annotations.csv")
    assert main(["eval", "--predictions", str(tmp_path / "predictions.jsonl"),
                 "--dataset", str(tmp_path / "full.jsonl"), "--k", "1,5,10",
                 "--annotations", str(tmp_path / "annotations.csv"),
                 "--out", str(tmp_path / "eval")]) == 0

    def cells(hit_5, miss_5, miss_1):
        empty = {"gold_hit": 0, "gold_miss": 0}
        return {"1": {**empty, "gold_miss": miss_1}, "2": empty, "3": empty, "4": empty,
                "5": {"gold_hit": hit_5, "gold_miss": miss_5}}

    doc = _assert_canonical(tmp_path / "eval" / "rescore.json")
    assert doc == {
        "annotated_acc": {"1": 1.0, "10": 5 / 3, "5": 1.0},
        "annotated_candidate_acc": {"1": 1.0, "10": 2 / 3, "5": 2 / 3},
        "confusion": {"1": cells(1, 0, 0), "10": cells(1, 1, 1), "5": cells(1, 1, 1)},
        "gold_candidate_acc": {"1": 1.0, "10": 1 / 3, "5": 1 / 3},
        "gold_query_acc": {"1": 1.0, "10": 1.0, "5": 1.0},
        "k_values": [1, 5, 10],
        "notes": ["annotated acc@5 counts perfect answers across every reported cutoff "
                  "up to 5 (3/3); the plain top-5 ratio is 2/3",
                  "annotated acc@10 counts perfect answers across every reported cutoff "
                  "up to 10 (5/3); the plain top-10 ratio is 2/3"],
        "perfect_threshold": 5,
        "totals": {"1": 1, "10": 3, "5": 3},
    }
    # every k- and score-keyed mapping is sorted as text, so "10" precedes "5"
    text = (tmp_path / "eval" / "rescore.json").read_text(encoding="ascii")
    assert text.index('"10": 3') < text.index('"5": 3')


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
