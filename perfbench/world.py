"""Seeded synthetic worlds for the large benchmark workloads.

The bundled fixtures build names from fixed prefix and suffix lists, which
caps them at 216 heads. Here every name is made of random syllables, so a
world can hold tens of thousands of distinct entities. Sizes are fixed per
workload and do not depend on the seed; the seed only changes the content.
Everything is written to a directory the caller owns and deletes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ONSETS = ["b", "br", "c", "ch", "d", "dr", "f", "fl", "g", "gr", "h", "j",
          "k", "kl", "l", "m", "n", "p", "pr", "qu", "r", "s", "sh", "st",
          "t", "tr", "v", "w", "z"]
VOWELS = ["a", "e", "i", "o", "u", "ae", "ai", "io", "ou", "y"]
CODAS = ["", "", "", "n", "r", "s", "l", "x", "m", "th", "k"]

# corpus fact sentences read "<head> <adverb> <verb> <tail>."
VERBS = ["prevents", "treats", "induces", "follows", "encodes", "affects",
         "reduces", "marks", "binds", "precedes"]
ADVERBS = ["reliably", "quickly", "strongly", "rarely", "often", "mildly"]

# large_vocab: MedLAMA-scale vocabulary against 1k queries
VOCAB_SIZES = {"full": {"entities": 20_000, "queries": 1_000},
               "tiny": {"entities": 300, "queries": 40}}
MAX_TAILS = 3
# large_corpus: more distinct eligible sentences than num_sentences=10000
CORPUS_SENTENCES = {"full": 12_000, "tiny": 400}
FACT_SHARE = 0.25


def syllable_word(rng: np.random.Generator, min_syl: int = 2, max_syl: int = 4) -> str:
    parts = []
    for _ in range(int(rng.integers(min_syl, max_syl + 1))):
        parts.append(ONSETS[rng.integers(len(ONSETS))]
                     + VOWELS[rng.integers(len(VOWELS))]
                     + CODAS[rng.integers(len(CODAS))])
    return "".join(parts).capitalize()


def distinct_names(rng: np.random.Generator, n: int, max_words: int,
                   taken: set[str]) -> list[str]:
    """n names of 1..max_words syllable words, distinct case-insensitively
    from each other and from taken (which is updated)."""
    names: list[str] = []
    while len(names) < n:
        words = int(rng.integers(1, max_words + 1))
        name = " ".join(syllable_word(rng) for _ in range(words))
        key = name.lower()
        if key not in taken:
            taken.add(key)
            names.append(name)
    return names


def relation_ids(templates_path) -> list[str]:
    records = json.loads(Path(templates_path).read_text(encoding="utf-8"))
    return [r["relation_id"] for r in records]


def write_vocab_world(out_dir, seed: int, templates_path, size: str = "full") -> dict:
    """Triples over the bundled relations plus a large entity vocabulary.

    Every query head has exactly one relation and 1..MAX_TAILS gold tails
    drawn from the vocabulary, so curation yields exactly `queries` queries.
    """
    sizes = VOCAB_SIZES[size]
    rng = np.random.default_rng([seed, 1])
    taken: set[str] = set()
    entities = distinct_names(rng, sizes["entities"], 2, taken)
    heads = distinct_names(rng, sizes["queries"], 1, taken)
    relations = relation_ids(templates_path)
    lines = ["# synthetic benchmark world\n"]
    for head in heads:
        relation = relations[rng.integers(len(relations))]
        n_tails = int(rng.integers(1, MAX_TAILS + 1))
        for j in rng.choice(len(entities), size=n_tails, replace=False):
            lines.append(f"{head}\t{relation}\t{entities[j]}\n")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "triples.tsv").write_text("".join(lines), encoding="utf-8")
    (out / "entities.txt").write_text("".join(f"{e}\n" for e in entities),
                                      encoding="utf-8")
    return {"triples": str(out / "triples.tsv"),
            "entities": str(out / "entities.txt"),
            "n_entities": len(entities), "n_queries": len(heads),
            "n_triples": len(lines) - 1}


def write_corpus_world(out_dir, seed: int, size: str = "full") -> dict:
    """A corpus of distinct sentences, each 5..30 words and so eligible for
    rewiring; a quarter are head-verb-tail fact sentences."""
    n_sentences = CORPUS_SENTENCES[size]
    rng = np.random.default_rng([seed, 2])
    taken: set[str] = set()
    n_facts = int(n_sentences * FACT_SHARE)
    names = distinct_names(rng, 2 * n_facts, 2, taken)
    lexicon = distinct_names(rng, 2000, 1, taken)
    sentences: set[str] = set()
    lines: list[str] = []

    def add(sentence: str) -> None:
        if sentence not in sentences:
            sentences.add(sentence)
            lines.append(sentence)

    while len(lines) < n_facts:
        i, j = rng.choice(len(names), size=2, replace=False)
        add(f"{names[i]} {ADVERBS[rng.integers(len(ADVERBS))]} "
            f"{VERBS[rng.integers(len(VERBS))]} {names[j]}.")
    while len(lines) < n_sentences:
        length = int(rng.integers(5, 31))
        words = [lexicon[k].lower() for k in rng.integers(len(lexicon), size=length)]
        add(" ".join(words).capitalize() + ".")
    order = rng.permutation(len(lines))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "corpus.txt").write_text("".join(f"{lines[i]}\n" for i in order),
                                    encoding="utf-8")
    return {"corpus": str(out / "corpus.txt"), "n_sentences": len(lines)}


ENCODER = "reference:dim=64,seed=7,layers=2,feature_dim=2048"

# large_corpus trains at the library-default scale and hyperparameters for
# a little over one epoch (10000 // 96 = 104 batches), checkpointing every
# 20 steps. tiny borrows the bundled demo's tuned temperature and learning
# rate, so that its few steps still visibly lower the loss.
CORPUS_REWIRE = {
    "full": {"num_sentences": 10_000, "batch_size": 96, "steps": 120,
             "checkpoint_every": 20, "temperature": 0.03, "learning_rate": 2e-5},
    "tiny": {"num_sentences": 300, "batch_size": 24, "steps": 15,
             "checkpoint_every": 5, "temperature": 0.2, "learning_rate": 0.02},
}
# the demo's sweeps; tiny shortens training so the self-test stays fast
DEMO_SWEEPS = {
    "full": {"steps": None, "step_values": "0,100,200,300,400,500",
             "seed_values": "7,8,9,10"},
    "tiny": {"steps": 20, "step_values": "0,10,20", "seed_values": "7,8"},
}


def prepare(workload: str, seed: int, root, out_dir, size: str = "full") -> dict:
    """Write one workload's inputs under out_dir and describe them.

    root is the checkout being measured; the bundled fixtures and relation
    templates are read from its src/ tree.
    """
    package = Path(root) / "src" / "probeforge"
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = {"workload": workload, "seed": seed, "size": size, "encoder": ENCODER}
    if workload == "demo":
        # the bundled demo is a fixed world: the seed does not change it
        fixtures = package / "fixtures"
        config = fixtures / "rewire_demo.json"
        sweeps = DEMO_SWEEPS[size]
        if sweeps["steps"] is not None:
            data = json.loads(config.read_text(encoding="utf-8"))
            data.update(steps=sweeps["steps"], checkpoint_every=sweeps["steps"] // 2,
                        probe_checkpoint_step=sweeps["steps"] // 2)
            config = out / "rewire_demo.json"
            config.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")
        world.update(triples=str(fixtures / "triples.tsv"),
                     entities=str(fixtures / "entities.txt"),
                     corpus=str(fixtures / "corpus.txt"), config=str(config),
                     step_values=sweeps["step_values"],
                     seed_values=sweeps["seed_values"])
    elif workload == "large_vocab":
        world.update(write_vocab_world(out, seed, package / "data" / "relation_templates.json",
                                       size))
    elif workload == "large_corpus":
        world.update(write_corpus_world(out, seed, size))
        config = dict(CORPUS_REWIRE[size], seed=seed)
        config["probe_checkpoint_step"] = config["steps"]
        (out / "rewire.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
        world.update(config=str(out / "rewire.json"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return world
