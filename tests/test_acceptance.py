"""End-to-end acceptance checks, one test per gating criterion.

Each test is self-contained: where a criterion calls for an oracle, the
oracle is implemented here from scratch rather than imported from the
module under test. conftest.py prints one PASS/FAIL line per criterion
after the run.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

import probeforge
from probeforge.cli import main
from probeforge.curator import (ProbeQuery, avg_match, default_templates,
                                group_queries, load_triples, rouge_l,
                                split_hard)
from probeforge.encoders import (ReferenceEncoder, TableMLM, encoder_from_spec, load_checkpoint,
                                 unit_rows)
from probeforge.evaluation import (QueryHits, aggregate, expert_rescore,
                                   hit_at_k)
from probeforge.probers import (RankedPrediction, build_entity_index,
                                contrastive_probe, load_entities,
                                mask_predict_detail)
from probeforge.rewire import (RewireConfig, infonce_loss, rewire_train,
                               sample_sentences, tail_mask)

FIXTURES = Path(probeforge.__file__).parent / "fixtures"
DEMO_ENCODER_SPEC = "reference:dim=64,seed=7,layers=2,feature_dim=2048"


def fixture_queries() -> list[ProbeQuery]:
    triples = load_triples(FIXTURES / "triples.tsv").triples
    return group_queries(triples, default_templates())


# ---------------------------------------------------------------------------
# 1. ROUGE-L against a brute-force LCS oracle

def lcs_oracle(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def lcs_by_enumeration(a: list[str], b: list[str]) -> int:
    subsequences = [()]
    for token in a:
        subsequences += [s + (token,) for s in subsequences]
    best = 0
    for sub in subsequences:
        it = iter(b)
        if all(token in it for token in sub):
            best = max(best, len(sub))
    return best


def oracle_rouge_f(a: list[str], b: list[str]) -> float:
    lcs = lcs_oracle(a, b)
    p, r = lcs / len(a), lcs / len(b)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def test_criterion_01_rouge_matches_bruteforce_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    alphabet = list("abcde")
    for trial in range(1000):
        hyp = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
        ref = [alphabet[i] for i in rng.integers(0, 5, size=rng.integers(1, 9))]
        got = rouge_l(" ".join(hyp), " ".join(ref))
        assert abs(got - oracle_rouge_f(hyp, ref)) <= 1e-12, (hyp, ref)
        if trial < 100:
            assert lcs_oracle(hyp, ref) == lcs_by_enumeration(hyp, ref)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. hardness filter on the motivating pairs

DENGUE_QUERY = ("Dengue virus live antigen CYD serotype 1 "
                "may be able to prevent [MASK] .")
MAGNESIUM_QUERY = "Magnesium Chloride may be able to prevent [MASK] ."
MAGNESIUM_ANSWER = "Magnesium Deficiency"


def test_criterion_02_hardness_split_fidelity():
    assert avg_match(DENGUE_QUERY, ["Dengue"]) == 1.0

    # ROUGE-L for the Magnesium pair from the oracle, not the library:
    # the query normalizes to 8 tokens sharing only "magnesium" with the
    # 2-token answer.
    hyp = [t for t in MAGNESIUM_QUERY.lower().replace("[mask]", "mask")
           .replace(".", "").split()]
    ref = MAGNESIUM_ANSWER.lower().split()
    derived = oracle_rouge_f(hyp, ref)
    assert abs(derived - 0.2) <= 1e-12
    assert abs(rouge_l(MAGNESIUM_QUERY, MAGNESIUM_ANSWER) - derived) <= 1e-12

    easy = ProbeQuery("q-easy", "rel", "h", DENGUE_QUERY, ["Dengue"])
    disjoint = ProbeQuery("q-hard", "rel", "h",
                          "Zatrovine may be able to prevent [MASK] .",
                          ["Kullow Spasm"])
    magnesium = ProbeQuery("q-mg", "rel", "h", MAGNESIUM_QUERY,
                           [MAGNESIUM_ANSWER])
    flags = [q.hard for q in split_hard([easy, disjoint, magnesium])]
    assert flags == [False, True, derived <= 0.1]
    assert flags[2] is False


# ---------------------------------------------------------------------------
# 3. InfoNCE against scalar arithmetic

def scalar_infonce(queries, answers, temperature: float) -> float:
    def unit(vector):
        norm = math.sqrt(sum(x * x for x in vector))
        return [x / norm for x in vector]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    n = len(queries)
    anchors = [unit(v) for v in queries]
    bank = anchors + [unit(v) for v in answers]
    total = 0.0
    for i in range(n):
        denominator = sum(math.exp(dot(anchors[i], bank[j]) / temperature)
                          for j in range(2 * n) if j != i)
        positive = dot(anchors[i], bank[n + i]) / temperature
        total += math.log(denominator) - positive
    return total


def test_criterion_03_infonce_matches_direct_computation():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        q = rng.standard_normal((n, d))
        a = rng.standard_normal((n, d))
        tau = float(rng.uniform(0.05, 1.0))
        got = infonce_loss(q, a, tau)
        assert abs(got - scalar_infonce(q.tolist(), a.tolist(), tau)) <= 1e-8
        if n == 1:
            assert got == 0.0
        rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        assert abs(infonce_loss(q @ rotation, a @ rotation, tau) - got) <= 1e-6
    assert infonce_loss(rng.standard_normal((1, 4)),
                        rng.standard_normal((1, 4)), 0.1) == 0.0


# ---------------------------------------------------------------------------
# 4. retrieval against exhaustive ranking

def test_criterion_04_retrieval_matches_exhaustive_ranking():
    rng = np.random.default_rng(37)
    letters = list("abcdefghijklmnopqrstuvwxyz")
    def phrase(words):
        return " ".join("".join(rng.choice(letters, size=int(rng.integers(3, 9))))
                        for _ in range(words))

    names = [f"{phrase(2)} {i:03d}" for i in range(100)]
    queries = [ProbeQuery(f"q{i:03d}", "rel", "h", phrase(6), ["x"])
               for i in range(100)]
    encoder = ReferenceEncoder(dim=16, seed=5, layers=2, feature_dim=256)
    index = build_entity_index(names)
    predictions = contrastive_probe(encoder, index, queries, 10)

    encoded = encoder.encode([q.query_text for q in queries],
                             layer_limit=encoder.max_layers)
    unit = encoded / np.linalg.norm(encoded, axis=1, keepdims=True)
    entities, _ = unit_rows(encoder.encode(names, layer_limit=encoder.max_layers), "names")
    sims = unit @ entities.T
    for i, pred in enumerate(predictions):
        order = sorted(range(len(names)), key=lambda j: (-sims[i, j], j))[:10]
        expected = tuple((names[j], float(sims[i, j])) for j in order)
        assert pred.candidates == expected, queries[i].query_id


# ---------------------------------------------------------------------------
# 5. rewiring effect on the bundled benchmark

def micro_acc_at_10(predictions, queries) -> float:
    answers = {q.query_id: q.answers for q in queries}
    hits = [hit_at_k(p, answers[p.query_id], 10) for p in predictions]
    return sum(hits) / len(hits)


def test_criterion_05_rewiring_lifts_retrieval(tmp_path):
    start = time.perf_counter()
    config = RewireConfig.from_json(FIXTURES / "rewire_demo.json")
    assert config.steps == 500 and config.seed == 7
    queries = fixture_queries()
    entities = load_entities(FIXTURES / "entities.txt")

    encoder = encoder_from_spec(DEMO_ENCODER_SPEC)
    baseline = contrastive_probe(encoder, build_entity_index(entities),
                                 queries, 10)
    base_acc = micro_acc_at_10(baseline, queries)

    sentences = sample_sentences(FIXTURES / "corpus.txt", config.num_sentences,
                                 seed=config.seed)
    pairs = [p for p in (tail_mask(s, config.mask_ratio) for s in sentences)
             if p is not None]
    assert len(pairs) == 200
    trace = rewire_train(encoder, pairs, config,
                         checkpoint_path=(tmp_path / "run").joinpath)

    probe_dir = tmp_path / "run" / "checkpoints" / f"step_{config.probe_checkpoint_step:05d}"
    trained = load_checkpoint(probe_dir)
    post = contrastive_probe(trained, build_entity_index(entities),
                             queries, 10)
    post_acc = micro_acc_at_10(post, queries)
    assert post_acc - base_acc >= 0.10, (base_acc, post_acc)

    losses = [row.loss_mean for row in trace]
    assert len(losses) == 500
    assert sum(losses[-50:]) / 50 < sum(losses[:50]) / 50
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 6. metric identities

def test_criterion_06_aggregation_and_monotonic_hits():
    hits = [QueryHits(f"a{i}", "rel_a", {10: 1}) for i in range(3)]
    hits.append(QueryHits("b0", "rel_b", {10: 0}))
    report = aggregate(hits, (10,))
    assert report.macro[10] == 0.5
    assert report.micro[10] == 0.75

    rng = np.random.default_rng(53)
    pool = [f"name {i}" for i in range(30)]
    for _ in range(1000):
        m = int(rng.integers(1, 13))
        picks = rng.choice(30, size=m, replace=False)
        candidates = tuple((pool[j], 1.0 - 0.01 * rank)
                           for rank, j in enumerate(picks))
        pred = RankedPrediction("q", candidates, "contrastive")
        answers = [pool[j] for j in rng.choice(30, size=int(rng.integers(1, 4)),
                                               replace=False)]
        k1 = int(rng.integers(1, 12))
        k2 = k1 + int(rng.integers(1, 12))
        assert hit_at_k(pred, answers, k1) <= hit_at_k(pred, answers, k2)


# ---------------------------------------------------------------------------
# 7. expert rescoring reproduces the annotation table

ANNOTATION_TABLE = {
    1: {5: (4, 1), 4: (1, 2), 3: (0, 5), 2: (0, 2), 1: (0, 0)},
    10: {5: (13, 20), 4: (3, 8), 3: (0, 54), 2: (0, 52), 1: (0, 0)},
}
RANK1_CELLS = ([(5, True)] * 4 + [(5, False)] + [(4, True)] + [(4, False)] * 2
               + [(3, False)] * 5 + [(2, False)] * 2)
DEEP_CELLS = ([(5, True)] * 9 + [(5, False)] * 19 + [(4, True)] * 2
              + [(4, False)] * 6 + [(3, False)] * 49 + [(2, False)] * 50)


def test_criterion_07_expert_rescore_reproduces_annotation_table():
    from probeforge.evaluation import ExpertAnnotation

    assert len(RANK1_CELLS) == 15 and len(DEEP_CELLS) == 135
    rng = np.random.default_rng(99)
    deep = [DEEP_CELLS[i] for i in rng.permutation(len(DEEP_CELLS))]
    predictions, annotations, answers_by_query = [], [], {}
    for qi in range(15):
        qid = f"q{qi:02d}"
        cells = [RANK1_CELLS[qi]] + deep[qi * 9:(qi + 1) * 9]
        candidates, golds = [], []
        for rank, (score, is_gold) in enumerate(cells, start=1):
            name = f"candidate {qi}-{rank}"
            candidates.append((name, 1.0 - 0.05 * rank))
            annotations.append(ExpertAnnotation(qid, name, score))
            if is_gold:
                golds.append(name)
        answers_by_query[qid] = golds or [f"unreachable answer {qi}"]
        predictions.append(RankedPrediction(qid, tuple(candidates), "contrastive"))

    result = expert_rescore(predictions, annotations, answers_by_query)
    assert result.totals == {1: 15, 10: 150}
    for k, table in ANNOTATION_TABLE.items():
        for score, (hit, miss) in table.items():
            assert result.confusion[k][score] == {"gold_hit": hit,
                                                  "gold_miss": miss}, (k, score)
    assert abs(result.gold_candidate_acc[10] - 16 / 150) <= 1e-12
    assert abs(result.annotated_acc[10] - 38 / 150) <= 1e-12


# ---------------------------------------------------------------------------
# 8. pipeline determinism

PIPELINE_ARTIFACTS = (
    "curated/full.jsonl", "curated/hard.jsonl", "curated/stats.csv",
    "rewired/rewire_config.json", "rewired/loss_trace.csv",
    "probed/predictions.jsonl",
    "scored/report.json", "scored/report.csv",
)


def run_pipeline(root: Path) -> None:
    steps = [
        ["curate", "--triples", str(FIXTURES / "triples.tsv"), "--seed", "7",
         "--out", str(root / "curated")],
        ["rewire", "--encoder", DEMO_ENCODER_SPEC,
         "--corpus", str(FIXTURES / "corpus.txt"),
         "--config", str(FIXTURES / "rewire_demo.json"),
         "--out", str(root / "rewired")],
        ["probe", "--checkpoint", str(root / "rewired"),
         "--dataset", str(root / "curated" / "full.jsonl"),
         "--entities", str(FIXTURES / "entities.txt"),
         "--strategy", "contrastive", "--out", str(root / "probed")],
        ["eval", "--predictions", str(root / "probed" / "predictions.jsonl"),
         "--dataset", str(root / "curated" / "full.jsonl"),
         "--out", str(root / "scored")],
    ]
    for argv in steps:
        assert main(argv) == 0, argv[0]


def test_criterion_08_pipeline_determinism(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    run_pipeline(first)
    run_pipeline(second)
    for artifact in PIPELINE_ARTIFACTS:
        assert ((first / artifact).read_bytes()
                == (second / artifact).read_bytes()), artifact
    for stage in ("curated", "rewired", "probed", "scored"):
        # the runs sit under different roots, so compare modulo that prefix
        a, b = (json.loads((root / stage / "manifest.json").read_text()
                           .replace(str(root), "ROOT"))
                for root in (first, second))
        differing = {key for key in a if a[key] != b.get(key)}
        assert differing <= {"started_at", "duration_seconds"}, (stage, differing)


# ---------------------------------------------------------------------------
# 9. mask-predict strategies against table enumeration

def stub_probs(stub: dict, tokens: list[str], pos: int) -> dict:
    for rule in stub.get("rules", []):
        if "position" in rule and rule["position"] != pos:
            continue
        if "left" in rule:
            if pos == 0 or tokens[pos - 1] == stub["mask_token"]:
                continue
            if tokens[pos - 1].lower() != rule["left"]:
                continue
        return rule["probs"]
    return stub["default"]


def stub_argmax(stub: dict, tokens: list[str], pos: int) -> str:
    probs = stub_probs(stub, tokens, pos)
    best, best_p = None, -1.0
    for token in stub["vocab"]:  # ties go to the earliest vocab entry
        p = probs.get(token, 0.0)
        if p > best_p:
            best, best_p = token, p
    return best


def oracle_fill(stub: dict, query: str, num_masks: int, strategy: str) -> str:
    tokens = query.split()
    at = tokens.index("[MASK]")
    mask = stub["mask_token"]
    tokens = tokens[:at] + [mask] * num_masks + tokens[at + 1:]
    slots = list(range(at, at + num_masks))
    if strategy == "independent":
        picks = {slot: stub_argmax(stub, tokens, slot) for slot in slots}
        for slot, token in picks.items():
            tokens[slot] = token
    else:  # order: left to right, re-reading the table after each fill
        for slot in slots:
            tokens[slot] = stub_argmax(stub, tokens, slot)
    return " ".join(tokens[slot] for slot in slots)


def test_criterion_09_mask_predict_matches_enumeration():
    stub = json.loads((FIXTURES / "stub_mlm.json").read_text())
    mlm = TableMLM.from_json(FIXTURES / "stub_mlm.json")
    queries = fixture_queries()
    assert len(queries) == 54
    for query in queries:
        for num_masks in (1, 2, 3):
            for strategy in ("independent", "order"):
                got = mask_predict_detail(mlm, query.query_text, num_masks=num_masks,
                                          strategy=strategy).answer
                want = oracle_fill(stub, query.query_text, num_masks, strategy)
                assert got == want, (query.query_id, num_masks, strategy)
            detail = mask_predict_detail(mlm, query.query_text,
                                         num_masks=num_masks,
                                         strategy="independent",
                                         refine="order", max_refine_iters=5)
            assert detail.converged, (query.query_id, num_masks)
            assert detail.sweeps <= 5


# ---------------------------------------------------------------------------
# 10. layer-limit identity and sweep coverage

def test_criterion_10_layer_limit_and_sweep(tmp_path):
    encoder = ReferenceEncoder(dim=16, seed=1, layers=12, feature_dim=256)
    texts = [q.query_text for q in fixture_queries()[:8]]
    full = encoder.encode(texts)
    limited = encoder.encode(texts, layer_limit=12)
    assert np.allclose(full, limited, atol=1e-6)

    config_path = tmp_path / "sweep_config.json"
    config_path.write_text(json.dumps({
        "num_sentences": 60, "mask_ratio": 0.5, "temperature": 0.2,
        "learning_rate": 0.02, "steps": 10, "batch_size": 10,
        "checkpoint_every": 0, "probe_checkpoint_step": 0, "seed": 7,
    }))
    assert main(["curate", "--triples", str(FIXTURES / "triples.tsv"),
                 "--out", str(tmp_path / "curated")]) == 0

    def sweep_rows(encoder_spec: str, out: Path) -> list[str]:
        code = main(["sweep", "--axis", "layer", "--values", "3,5,7,9,11,12",
                     "--encoder", encoder_spec,
                     "--corpus", str(FIXTURES / "corpus.txt"),
                     "--config", str(config_path),
                     "--dataset", str(tmp_path / "curated" / "full.jsonl"),
                     "--entities", str(FIXTURES / "entities.txt"),
                     "--out", str(out)])
        assert code == 0
        lines = (out / "layer_sweep.csv").read_text().splitlines()
        return [line.split(",")[0] for line in lines[1:]]

    twelve = sweep_rows("reference:dim=16,seed=1,layers=12,feature_dim=256",
                        tmp_path / "sweep12")
    assert twelve == ["3", "5", "7", "9", "11", "12"]
    seven = sweep_rows("reference:dim=16,seed=1,layers=7,feature_dim=256",
                       tmp_path / "sweep7")
    assert seven == ["3", "5", "7"]
