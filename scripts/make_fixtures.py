"""Regenerate the bundled synthetic fixtures.

Builds a small closed world: a knowledge graph of invented drug-like heads
and two-word condition tails over three relations, a sentence corpus whose
fact sentences tail-mask exactly onto the gold tails at mask ratio 0.5, an
entity vocabulary with distractors, stub MLM/generator tables keyed to the
world, and a tuned rewiring config for the fast demo. Everything is seeded;
rerunning the script reproduces the committed files byte for byte.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from probeforge.curator import default_templates, group_queries, load_triples

SEED = 2041

HEAD_PREFIXES = [
    "Cor", "Vel", "Dar", "Mex", "Tol", "Rin", "Sab", "Lun", "Pex", "Gor",
    "Fen", "Zal", "Mir", "Kel", "Nor", "Hax", "Bel", "Tur", "Vos", "Quil",
    "Dez", "Pol", "Yar", "Wex", "Jor", "Sil", "Ral",
]
HEAD_SUFFIXES = ["azam", "idex", "orin", "uvok", "emal", "itor", "opin", "ulex"]

ADJECTIVES = [
    "Cardiac", "Renal", "Hepatic", "Neural", "Dermal", "Ocular", "Gastric",
    "Spinal", "Lumbar", "Septal", "Aortic", "Venous", "Costal", "Biliary",
    "Portal", "Pyloric", "Ulnar", "Radial", "Carpal", "Tarsal", "Sacral",
    "Atrial", "Pleural", "Buccal",
]
NOUNS = [
    "Failure", "Fatigue", "Tremor", "Lesion", "Edema", "Rupture",
    "Stenosis", "Fibrosis", "Necrosis", "Spasm", "Atrophy", "Erosion",
]

FILLER_WORDS = [
    "paper", "window", "garden", "river", "music", "bottle", "ladder",
    "market", "sunset", "gravel", "copper", "meadow", "lantern", "basket",
    "harbor", "velvet", "timber", "saddle", "marble", "orchard", "anchor",
    "bridge", "candle", "drawer", "engine", "fabric", "hammer", "island",
    "jacket", "kettle", "mirror", "needle", "orange", "pillow", "quarry",
    "ribbon", "shovel", "tunnel", "valley", "wagon", "yellow", "zipper",
    "autumn", "barrel", "canvas", "donkey", "eleven", "forest", "guitar",
    "helmet",
]

# relation -> (adverb, verb) for the five-word fact sentences
RELATION_PHRASES = {
    "may_prevent": ("reliably", "prevents"),
    "may_treat": ("quickly", "treats"),
    "has_physiologic_effect": ("strongly", "induces"),
}
RELATIONS = list(RELATION_PHRASES)

N_HEADS = 54
N_TWO_TAIL_HEADS = 6
N_ENTITIES = 120
N_FILLERS = 140

# tuned for the sub-minute rewiring demo; see rewire_demo.json
DEMO_CONFIG = {
    "num_sentences": 200,
    "mask_ratio": 0.5,
    "temperature": 0.2,
    "learning_rate": 0.02,
    "steps": 500,
    "batch_size": 50,
    "checkpoint_every": 50,
    "probe_checkpoint_step": 150,
    "max_query_tokens": 50,
    "max_answer_tokens": 25,
    "seed": 7,
}
DEMO_ENCODER_SPEC = "reference:dim=64,seed=7,layers=2,feature_dim=2048"


def pick_distinct_pairs(rng, lefts, rights, n):
    combos = [(a, b) for a in lefts for b in rights]
    order = rng.permutation(len(combos))
    return [combos[i] for i in order[:n]]


def build_world(rng):
    heads = ["".join(p) for p in pick_distinct_pairs(rng, HEAD_PREFIXES,
                                                     HEAD_SUFFIXES, N_HEADS)]
    entity_pairs = pick_distinct_pairs(rng, ADJECTIVES, NOUNS, N_ENTITIES)
    entities = [f"{a} {b}" for a, b in entity_pairs]
    gold_tails = entities[:N_HEADS + N_TWO_TAIL_HEADS]

    triples = []
    tail_iter = iter(gold_tails)
    for i, head in enumerate(heads):
        relation = RELATIONS[i % len(RELATIONS)]
        triples.append((head, relation, next(tail_iter)))
        if i < N_TWO_TAIL_HEADS:
            triples.append((head, relation, next(tail_iter)))
    return heads, entities, triples


def fact_sentence(head, relation, tail):
    adverb, verb = RELATION_PHRASES[relation]
    return f"{head} {adverb} {verb} {tail}."


def filler_sentence(rng):
    length = int(rng.integers(5, 31))
    words = [FILLER_WORDS[i] for i in rng.integers(0, len(FILLER_WORDS), length)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def build_corpus(rng, triples):
    lines = [fact_sentence(*t) for t in triples]
    lines += [filler_sentence(rng) for _ in range(N_FILLERS)]
    order = rng.permutation(len(lines))
    return [lines[i] for i in order]


def build_stub_mlm(entities):
    vocab = sorted({w.lower() for e in entities for w in e.split()})
    uniform = 1.0 / len(vocab)
    default = {tok: uniform for tok in vocab}
    rules = []
    # after a template's final pre-mask word, favor a spread of adjectives
    for trigger, peak in (("prevent", "cardiac"), ("treat", "renal"),
                          ("of", "neural")):
        adjectives = sorted({e.split()[0].lower() for e in entities})
        rest = (1.0 - 0.4) / (len(adjectives) - 1)
        probs = {a: (0.4 if a == peak else rest) for a in adjectives}
        rules.append({"left": trigger, "probs": probs})
    # entity-internal bigrams: a filled first word pins down the second;
    # first match wins, so an adjective shared by several entities always
    # resolves to the earliest listed noun
    for entity in entities:
        first, second = (w.lower() for w in entity.split())
        rules.append({"left": first, "probs": {second: 1.0}})
    return {"vocab": vocab, "mask_token": "[MASK]", "default": default,
            "rules": rules}


def build_stub_generator(rng, queries, entities):
    gold = {q.query_id: q.answers[0] for q in queries}
    distractors = [e for e in entities
                   if e not in {a for q in queries for a in q.answers}]
    default = [(d, round(0.5 - 0.03 * i, 4)) for i, d in enumerate(distractors[:10])]
    by_query = {}
    chosen = [q for i, q in enumerate(queries) if i % 4 == 0]
    for q in chosen:
        pool = [d for d in distractors if d != gold[q.query_id]][:4]
        items = [(gold[q.query_id], 0.9)]
        items += [(d, round(0.6 - 0.05 * i, 4)) for i, d in enumerate(pool)]
        by_query[q.query_text] = items
    return {"default": default, "by_query": by_query}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="fixture directory (default: src/probeforge/fixtures)")
    args = parser.parse_args()
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parent.parent / "src" / "probeforge" / "fixtures")
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(SEED)
    heads, entities, triples = build_world(rng)
    corpus = build_corpus(rng, triples)

    (out / "triples.tsv").write_text(
        "# synthetic knowledge graph fixture\n"
        + "".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples),
        encoding="utf-8")
    (out / "entities.txt").write_text(
        "".join(f"{e}\n" for e in entities), encoding="utf-8")
    (out / "corpus.txt").write_text(
        "".join(f"{line}\n" for line in corpus), encoding="utf-8")

    loaded = load_triples(out / "triples.tsv")
    queries = group_queries(loaded.triples, default_templates())

    (out / "stub_mlm.json").write_text(
        json.dumps(build_stub_mlm(entities), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (out / "stub_generator.json").write_text(
        json.dumps(build_stub_generator(rng, queries, entities),
                   indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    (out / "rewire_demo.json").write_text(
        json.dumps(DEMO_CONFIG, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")

    print(f"wrote fixtures to {out}")
    print(f"  heads={len(heads)} entities={len(entities)} "
          f"triples={len(triples)} corpus={len(corpus)} queries={len(queries)}")
    print(f"  demo encoder: {DEMO_ENCODER_SPEC}")


if __name__ == "__main__":
    main()
