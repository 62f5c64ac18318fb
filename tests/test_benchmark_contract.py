"""The benchmark's tracer (perfbench/tracing.py) replaces names it looks up on
probeforge.cli and probeforge.rewire and reads contrastive_probe's arguments
by position. An API change that breaks only the traced benchmark run fails
here instead."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import probeforge
from probeforge import cli, rewire
from probeforge.probers import contrastive_probe, load_entities

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
FIXTURES = Path(probeforge.__file__).parent / "fixtures"
# the factories Tracer.install replaces besides its two tables
CLI_FACTORIES = ("encoder_from_spec", "load_checkpoint")
REWIRE_FACTORIES = ("save_checkpoint",)


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracing):
    missing = [f"cli.{name}" for name in [*tracing.CLI_WRAPPED, *CLI_FACTORIES]
               if not hasattr(cli, name)]
    missing += [f"rewire.{name}" for name in [*tracing.REWIRE_WRAPPED, *REWIRE_FACTORIES]
                if not hasattr(rewire, name)]
    assert missing == []


def test_contrastive_probe_takes_encoder_index_queries_first():
    params = list(inspect.signature(contrastive_probe).parameters)
    assert params[:3] == ["encoder", "index", "queries"]


def test_traced_probe_counts_every_score(tracing, tmp_path, monkeypatch):
    # install replaces module attributes; monkeypatch puts them back
    for module, names in ((cli, [*tracing.CLI_WRAPPED, *CLI_FACTORIES]),
                          (rewire, [*tracing.REWIRE_WRAPPED, *REWIRE_FACTORIES])):
        for name in names:
            monkeypatch.setattr(module, name, getattr(module, name))
    entities = FIXTURES / "entities.txt"
    curated = tmp_path / "curated"
    assert cli.main(["curate", "--triples", str(FIXTURES / "triples.tsv"),
                     "--out", str(curated)]) == 0
    queries = cli.load_dataset(curated / "full.jsonl")
    tracer = tracing.Tracer()
    tracer.install(cli, rewire)
    with tracer.command("cli.probe"):
        assert cli.main(["probe", "--encoder", "reference:dim=16,seed=1,feature_dim=64",
                         "--dataset", str(curated / "full.jsonl"),
                         "--entities", str(entities), "--strategy", "contrastive",
                         "--out", str(tmp_path / "probe")]) == 0
    names = {span[0] for span in tracer.spans}
    assert {"probers.index_build", "probers.contrastive_probe", "encoders.encode"} <= names
    assert (tracer.counts["probers.scores_computed"]
            == len(queries) * len(load_entities(entities)))
