import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import probeforge
from probeforge.cli import main
from probeforge.curator import (ProbeQuery, default_templates, group_queries,
                                load_triples, save_dataset)
from probeforge.encoders import encoder_from_spec
from probeforge.errors import InputError, ValidationError
from probeforge.evaluation import (
    EvalReport,
    ExpertAnnotation,
    QueryHits,
    RelationScore,
    aggregate,
    bin_by_answer_length,
    expert_rescore,
    hit_at_k,
    load_annotations,
    load_report,
    save_annotations,
    save_report,
    score_predictions,
    stability_summary,
    step_curves,
    write_report_csv,
    write_step_curves_csv,
)
from probeforge.probers import (RankedPrediction, build_entity_index,
                                contrastive_probe, load_entities)

FIXTURES = Path(probeforge.__file__).parent / "fixtures"


def read_csv(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def make_prediction(qid, names, strategy="contrastive"):
    return RankedPrediction(qid, tuple((n, 1.0 - 0.05 * i)
                                       for i, n in enumerate(names)), strategy)


def make_query(qid, relation, answers, text="head links to [MASK] ."):
    return ProbeQuery(qid, relation, "head", text, list(answers))


# ---------------------------------------------------------------------------
# hit_at_k

def test_gold_at_rank_three():
    pred = make_prediction("q", ["a", "b", "Gold Answer", "d"])
    assert hit_at_k(pred, ["gold answer"], 10) == 1
    assert hit_at_k(pred, ["gold answer"], 1) == 0


def test_match_ignores_case_and_outer_punctuation():
    pred = make_prediction("q", ["Hepatitis  B."])
    assert hit_at_k(pred, ["hepatitis b"], 1) == 1


def test_empty_candidates_never_hit():
    pred = RankedPrediction("q", (), "generate")
    assert hit_at_k(pred, ["anything"], 5) == 0


def test_hit_requires_positive_k():
    with pytest.raises(ValidationError):
        hit_at_k(make_prediction("q", ["a"]), ["a"], 0)


@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1,
                max_size=5, unique=True),
       st.sampled_from(["a", "b", "c", "d", "e"]))
def test_hit_is_monotone_in_k(names, gold):
    pred = make_prediction("q", names)
    hits = [hit_at_k(pred, [gold], k) for k in range(1, len(names) + 2)]
    assert hits == sorted(hits)


@given(st.lists(st.sampled_from(["a", "B.", "c", "D", "e"]), max_size=5, unique=True),
       st.lists(st.sampled_from(["b", "d", "E", "f"]), min_size=1, max_size=2, unique=True),
       st.sets(st.integers(1, 6), min_size=1))
def test_scored_hits_equal_hit_at_k(names, answers, k_values):
    # score_predictions ranks the first gold match once; hit_at_k per k is
    # the reference
    ks = sorted(k_values)
    query = make_query("q", "rel", answers)
    pred = make_prediction("q", names)
    scored, = score_predictions([pred], [query], k_values=ks)
    assert scored.hits == {k: hit_at_k(pred, answers, k) for k in ks}


# ---------------------------------------------------------------------------
# aggregation

def test_unbalanced_relations_split_macro_and_micro():
    hits = [QueryHits(f"a{i}", "rel_a", {10: 1}) for i in range(3)]
    hits.append(QueryHits("b0", "rel_b", {10: 0}))
    report = aggregate(hits, k_values=(10,))
    assert report.macro[10] == pytest.approx(0.5, abs=1e-12)
    assert report.micro[10] == pytest.approx(0.75, abs=1e-12)


def test_single_relation_collapses_macro_micro_and_acc():
    hits = [QueryHits(f"q{i}", "only", {1: int(i < 2)}) for i in range(4)]
    report = aggregate(hits, k_values=(1,))
    assert report.macro[1] == report.micro[1] == report.per_relation["only"].acc[1]


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_balanced_relations_make_macro_equal_micro(n, data):
    bits = data.draw(st.lists(st.booleans(), min_size=3 * n, max_size=3 * n))
    hits = [QueryHits(f"q{i}", f"rel{i % 3}", {1: int(b)})
            for i, b in enumerate(bits)]
    report = aggregate(hits, k_values=(1,))
    assert report.macro[1] == pytest.approx(report.micro[1], abs=1e-12)


def test_aggregate_requires_hits():
    with pytest.raises(InputError):
        aggregate([], k_values=(1,))


def test_report_checks_macro_consistency():
    rel = {"a": RelationScore(count=2, acc={1: 1.0})}
    with pytest.raises(ValidationError, match="macro"):
        EvalReport(model="m", strategy="s", split="full", k_values=(1,),
                   per_relation=rel, macro={1: 0.4}, micro={1: 1.0})
    with pytest.raises(ValidationError, match="micro"):
        EvalReport(model="m", strategy="s", split="full", k_values=(1,),
                   per_relation=rel, macro={1: 1.0}, micro={1: 0.4})


def test_report_rejects_unknown_split():
    rel = {"a": RelationScore(count=1, acc={1: 1.0})}
    with pytest.raises(ValidationError, match="split"):
        EvalReport(model="m", strategy="s", split="test", k_values=(1,),
                   per_relation=rel, macro={1: 1.0}, micro={1: 1.0})


def test_k_values_must_increase():
    with pytest.raises(ValidationError):
        aggregate([QueryHits("q", "r", {10: 1, 1: 1})], k_values=(10, 1))


def test_scoring_counts_missing_predictions_as_misses():
    queries = [make_query("q0", "rel", ["alpha"]), make_query("q1", "rel", ["beta"])]
    preds = [make_prediction("q0", ["alpha"])]
    scored = score_predictions(preds, queries, k_values=(1,))
    assert scored[0].hits == {1: 1}
    assert scored[1].hits == {1: 0}


def test_scoring_rejects_duplicates_and_strays():
    queries = [make_query("q0", "rel", ["alpha"])]
    with pytest.raises(ValidationError, match="duplicate"):
        score_predictions([make_prediction("q0", ["a"]),
                           make_prediction("q0", ["b"])], queries)
    with pytest.raises(ValidationError, match="unknown"):
        score_predictions([make_prediction("ghost", ["a"])], queries)


# ---------------------------------------------------------------------------
# answer-length bins

def bin_world():
    queries = [
        make_query("q0", "rel", ["short"]),                    # len 5
        make_query("q1", "rel", ["very long answer", "ab"]),   # shortest len 2
        make_query("q2", "rel", ["exactly10!"]),               # len 10
        make_query("q3", "rel", ["between the edges"]),        # len 17
    ]
    hits = [QueryHits(q.query_id, "rel", {1: i % 2}) for i, q in enumerate(queries)]
    return queries, hits


def test_bins_use_the_shortest_answer_and_upper_open_edges():
    queries, hits = bin_world()
    bins = bin_by_answer_length(queries, hits, [10, 20], k_values=(1,))
    assert [b.label for b in bins] == ["<10", "[10,20)", ">=20"]
    assert [b.count for b in bins] == [2, 2, 0]
    # q0 misses, q1 hits in the first bin; q2 misses, q3 hits in the second
    assert bins[0].acc[1] == pytest.approx(0.5)
    assert bins[1].acc[1] == pytest.approx(0.5)
    assert bins[2].acc[1] is None


def test_boundary_length_goes_to_the_upper_bin():
    queries = [make_query("q0", "rel", ["exactly10!"])]
    hits = [QueryHits("q0", "rel", {1: 1})]
    bins = bin_by_answer_length(queries, hits, [10], k_values=(1,))
    assert bins[0].count == 0
    assert bins[1].count == 1


def test_bin_edges_must_increase():
    queries, hits = bin_world()
    with pytest.raises(ValidationError):
        bin_by_answer_length(queries, hits, [20, 10], k_values=(1,))
    with pytest.raises(ValidationError):
        bin_by_answer_length(queries, hits, [], k_values=(1,))


# ---------------------------------------------------------------------------
# stability and step curves

def report_with_acc(acc, relation="rel", n=5, step=None, k_values=(1,)):
    hit_count = round(acc * n)
    hits = [QueryHits(f"q{i}", relation, {k: int(i < hit_count) for k in k_values})
            for i in range(n)]
    metadata = {} if step is None else {"checkpoint_step": step}
    return aggregate(hits, k_values=k_values, metadata=metadata)


def test_identical_reports_have_zero_std():
    summary = stability_summary([report_with_acc(0.4), report_with_acc(0.4)])
    assert summary.n == 2
    assert summary.per_relation["rel"][1].std == 0.0
    assert summary.macro[1].std == 0.0


def test_two_report_mean_and_population_std():
    summary = stability_summary([report_with_acc(0.2), report_with_acc(0.4)])
    assert summary.per_relation["rel"][1] == pytest.approx((0.3, 0.1), abs=1e-12)
    assert summary.macro[1] == pytest.approx((0.3, 0.1), abs=1e-12)


def test_stability_needs_two_comparable_reports():
    with pytest.raises(ValidationError):
        stability_summary([report_with_acc(0.2)])
    with pytest.raises(ValidationError, match="relation sets"):
        stability_summary([report_with_acc(0.2, relation="a"),
                           report_with_acc(0.2, relation="b")])


def test_step_curves_group_by_checkpoint_step():
    reports = [report_with_acc(0.2, step=50), report_with_acc(0.4, step=50),
               report_with_acc(0.6, step=100), report_with_acc(0.8, step=100)]
    rows = step_curves(reports, k=1)
    assert [(r.step, r.relation_id) for r in rows] == [
        (50, "rel"), (50, "macro"), (100, "rel"), (100, "macro")]
    assert rows[0].mean == pytest.approx(0.3, abs=1e-12)
    assert rows[0].std == pytest.approx(0.1, abs=1e-12)
    assert rows[2].mean == pytest.approx(0.7, abs=1e-12)


def test_step_curves_need_step_metadata():
    with pytest.raises(ValidationError, match="checkpoint_step"):
        step_curves([report_with_acc(0.2)])


# ---------------------------------------------------------------------------
# expert rescoring: the frozen annotation table

# per-score (gold-hit, gold-miss) cells for the rank-1 and top-10 views
ANNOTATION_TABLE = {
    1: {5: (4, 1), 4: (1, 2), 3: (0, 5), 2: (0, 2), 1: (0, 0)},
    10: {5: (13, 20), 4: (3, 8), 3: (0, 54), 2: (0, 52), 1: (0, 0)},
}
RANK1_CELLS = ([(5, True)] * 4 + [(5, False)] + [(4, True)] + [(4, False)] * 2
               + [(3, False)] * 5 + [(2, False)] * 2)
DEEP_CELLS = ([(5, True)] * 9 + [(5, False)] * 19 + [(4, True)] * 2
              + [(4, False)] * 6 + [(3, False)] * 49 + [(2, False)] * 50)


def build_annotated_world():
    """15 queries, 10 candidates each, laid out to reproduce the frozen
    score-vs-gold table cell for cell."""
    assert len(RANK1_CELLS) == 15 and len(DEEP_CELLS) == 135
    rng = np.random.default_rng(99)
    deep = [DEEP_CELLS[i] for i in rng.permutation(len(DEEP_CELLS))]
    relations = ["rel_a", "rel_b", "rel_c"]
    queries, predictions, annotations = [], [], []
    answers_by_query = {}
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
        answers = golds or [f"unreachable answer {qi}"]
        answers_by_query[qid] = answers
        queries.append(make_query(qid, relations[qi % 3], answers))
        predictions.append(RankedPrediction(qid, tuple(candidates), "contrastive"))
    return queries, predictions, annotations, answers_by_query


def test_confusion_reproduces_the_annotation_table():
    _, predictions, annotations, answers = build_annotated_world()
    result = expert_rescore(predictions, annotations, answers)
    for k, table in ANNOTATION_TABLE.items():
        for score, (hit, miss) in table.items():
            assert result.confusion[k][score] == {"gold_hit": hit,
                                                  "gold_miss": miss}, (k, score)
    assert result.totals == {1: 15, 10: 150}


def test_accuracy_ratios_fall_out_of_the_table():
    _, predictions, annotations, answers = build_annotated_world()
    result = expert_rescore(predictions, annotations, answers)
    assert result.gold_candidate_acc[10] == pytest.approx(16 / 150, abs=1e-12)
    assert result.gold_candidate_acc[1] == pytest.approx(5 / 15, abs=1e-12)
    assert result.annotated_acc[10] == pytest.approx(38 / 150, abs=1e-12)
    assert result.annotated_acc[1] == pytest.approx(5 / 15, abs=1e-12)
    assert result.annotated_candidate_acc[10] == pytest.approx(33 / 150, abs=1e-12)
    assert any("38/150" in note and "33/150" in note for note in result.notes)


def test_expert_gold_view_matches_aggregate_micro():
    queries, predictions, annotations, answers = build_annotated_world()
    result = expert_rescore(predictions, annotations, answers)
    report = aggregate(score_predictions(predictions, queries))
    for k in (1, 10):
        assert result.gold_query_acc[k] == pytest.approx(report.micro[k], abs=1e-12)
    assert result.gold_query_acc[1] == pytest.approx(5 / 15, abs=1e-12)


def test_all_perfect_scores_saturate_the_plain_ratio():
    predictions = [make_prediction("q0", ["a", "b"])]
    annotations = [ExpertAnnotation("q0", "a", 5), ExpertAnnotation("q0", "b", 5)]
    result = expert_rescore(predictions, annotations, {"q0": ["zzz"]},
                            k_values=(2,))
    assert result.annotated_candidate_acc[2] == 1.0
    assert result.annotated_acc[2] == 1.0


def test_threshold_one_accepts_everything():
    _, predictions, annotations, answers = build_annotated_world()
    result = expert_rescore(predictions, annotations, answers,
                            perfect_threshold=1)
    for k in (1, 10):
        assert result.annotated_candidate_acc[k] == 1.0


def test_missing_annotation_lists_the_pair():
    predictions = [make_prediction("q0", ["a", "b"])]
    annotations = [ExpertAnnotation("q0", "a", 5)]
    with pytest.raises(ValidationError, match=r"\('q0', 'b'\)"):
        expert_rescore(predictions, annotations, {"q0": ["a"]}, k_values=(2,))


def test_duplicate_annotation_is_rejected():
    annotations = [ExpertAnnotation("q0", "a", 5), ExpertAnnotation("q0", "a", 3)]
    with pytest.raises(ValidationError, match="duplicate"):
        expert_rescore([make_prediction("q0", ["a"])], annotations,
                       {"q0": ["a"]}, k_values=(1,))


def test_rescore_needs_gold_answers_for_every_query():
    with pytest.raises(ValidationError, match="gold"):
        expert_rescore([make_prediction("q0", ["a"])],
                       [ExpertAnnotation("q0", "a", 5)], {}, k_values=(1,))


def test_annotation_scores_are_one_to_five():
    for bad in (0, 6, True):
        with pytest.raises(ValidationError):
            ExpertAnnotation("q", "c", bad)


# ---------------------------------------------------------------------------
# files

def test_annotations_csv_roundtrip(tmp_path):
    annotations = [ExpertAnnotation("q0", "some, tricky candidate", 5),
                   ExpertAnnotation("q1", "plain", 2)]
    path = tmp_path / "annotations.csv"
    save_annotations(annotations, path)
    assert load_annotations(path) == annotations


def test_annotations_csv_errors(tmp_path):
    path = tmp_path / "annotations.csv"
    path.write_text("query_id,candidate,score\nq0,a,high\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":2"):
        load_annotations(path)
    path.write_text("id,candidate,score\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="header"):
        load_annotations(path)


def test_report_json_roundtrip(tmp_path):
    hits = [QueryHits(f"q{i}", f"rel_{i % 2}", {1: i % 2, 10: 1})
            for i in range(6)]
    report = aggregate(hits, k_values=(1, 10), model="reference(dim=8)",
                       strategy="contrastive", split="hard",
                       metadata={"seed": 7, "checkpoint_step": 150})
    path = tmp_path / "report.json"
    save_report(report, path)
    assert load_report(path) == report


def test_report_csv_layout(tmp_path):
    hits = [QueryHits("q0", "rel_a", {1: 1, 10: 1}),
            QueryHits("q1", "rel_b", {1: 0, 10: 1})]
    report = aggregate(hits, k_values=(1, 10))
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    rows = read_csv(path)
    assert rows[0] == ["relation_id", "count", "acc1", "acc10"]
    assert rows[1] == ["rel_a", "1", "1.000000", "1.000000"]
    assert rows[2] == ["rel_b", "1", "0.000000", "1.000000"]


def test_sweep_csv_writers(tmp_path):
    # the layer table comes from the sweep command; each row must hold the
    # macro accuracy that library calls give at that layer limit
    queries = group_queries(load_triples(FIXTURES / "triples.tsv").triples,
                            default_templates())
    dataset = tmp_path / "full.jsonl"
    save_dataset(queries, dataset)
    config = tmp_path / "rewire.json"
    config.write_text(json.dumps({"steps": 0, "checkpoint_every": 0}))
    spec = "reference:dim=16,seed=1,layers=3,feature_dim=256"
    entities = str(FIXTURES / "entities.txt")
    code = main(["sweep", "--axis", "layer", "--values", "3,1,4", "--encoder", spec,
                 "--corpus", str(FIXTURES / "corpus.txt"), "--config", str(config),
                 "--dataset", str(dataset), "--entities", entities,
                 "--out", str(tmp_path / "sweep")])
    assert code == 0
    encoder = encoder_from_spec(spec)
    expected = [["layer_limit", "macro_acc1", "macro_acc10"]]
    for layer in (3, 1):
        index = build_entity_index(load_entities(entities))
        hits = score_predictions(contrastive_probe(encoder, index, queries, 10,
                                                   layer_limit=layer), queries)
        report = aggregate(hits, (1, 10))
        expected.append([str(layer), f"{report.macro[1]:.6f}", f"{report.macro[10]:.6f}"])
    assert read_csv(tmp_path / "sweep" / "layer_sweep.csv") == expected

    reports = [report_with_acc(0.2, step=50), report_with_acc(0.4, step=50)]
    step_path = tmp_path / "steps.csv"
    write_step_curves_csv(step_curves(reports), step_path)
    rows = read_csv(step_path)
    assert rows[0] == ["step", "relation_id", "acc1_mean", "acc1_std"]
    assert rows[1] == ["50", "rel", "0.300000", "0.100000"]
    assert rows[2] == ["50", "macro", "0.300000", "0.100000"]
