import io
import json
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeforge.curator import (
    KnowledgeTriple,
    ProbeQuery,
    PromptTemplate,
    avg_match,
    default_templates,
    group_queries,
    instantiate_prompt,
    load_dataset,
    load_templates,
    load_triples,
    rouge_l,
    save_dataset,
    split_hard,
)
from probeforge.errors import (
    ConfigurationError,
    EmptyDatasetError,
    InputError,
    ValidationError,
)
from probeforge.text import metric_tokens


# ---------------------------------------------------------------------------
# Independent oracle: LCS by exhaustive subsequence enumeration. Deliberately
# not a DP table so it cannot share a bug with the implementation.

def oracle_lcs(a, b):
    best = 0
    for mask in range(1 << len(a)):
        sub = [a[i] for i in range(len(a)) if mask >> i & 1]
        # greedy subsequence check against b
        j = 0
        ok = True
        for tok in sub:
            while j < len(b) and b[j] != tok:
                j += 1
            if j == len(b):
                ok = False
                break
            j += 1
        if ok:
            best = max(best, len(sub))
    return best


def oracle_rouge_f(hyp_tokens, ref_tokens):
    lcs = oracle_lcs(hyp_tokens, ref_tokens)
    p = lcs / len(hyp_tokens)
    r = lcs / len(ref_tokens)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


MAGNESIUM_QUERY = "Magnesium Chloride may be able to prevent [MASK] ."
MAGNESIUM_ANSWER = "Magnesium Deficiency"
# Frozen from oracle_rouge_f: LCS 1 over 8 query tokens and 2 answer tokens.
MAGNESIUM_ROUGE = 0.2


def test_oracle_freeze_magnesium():
    got = oracle_rouge_f(metric_tokens(MAGNESIUM_QUERY), metric_tokens(MAGNESIUM_ANSWER))
    assert got == pytest.approx(MAGNESIUM_ROUGE, abs=1e-12)


# ---------------------------------------------------------------------------
# load_triples

def test_load_triples_basic():
    src = io.StringIO(
        "# comment\n"
        "Entecavir\tmay_treat\tHepatitis B\n"
        "\n"
        "Aspirin\tmay_prevent\tStroke\tC001\tC002\n"
        "bad line without tabs\n"
        "\tmay_treat\tmissing head\n"
    )
    result = load_triples(src)
    assert [astuple(t) for t in result.triples] == [
        ("Entecavir", "may_treat", "Hepatitis B"), ("Aspirin", "may_prevent", "Stroke")]
    assert result.malformed == 2


def test_load_triples_four_fields():
    result = load_triples(io.StringIO("A\trel\tB\tID1\n"))
    assert [astuple(t) for t in result.triples] == [("A", "rel", "B")]
    assert result.malformed == 0


def test_load_triples_empty_stream():
    with pytest.raises(EmptyDatasetError):
        load_triples(io.StringIO(""))
    with pytest.raises(EmptyDatasetError):
        load_triples(io.StringIO("# only comments\n"))


def test_load_triples_unreadable_path():
    with pytest.raises(InputError):
        load_triples("/does/not/exist.tsv")


# ---------------------------------------------------------------------------
# templates and prompt instantiation

def test_default_templates_shape():
    registry = default_templates()
    assert len(registry) == 19
    assert registry["may_prevent"].pattern == "[X] may be able to prevent [Y] ."
    for tpl in registry.values():
        assert tpl.pattern.count("[X]") == 1
        assert tpl.pattern.count("[Y]") == 1


def test_template_rejects_missing_slots():
    with pytest.raises(ValidationError):
        PromptTemplate("r", "no slots here")
    with pytest.raises(ValidationError):
        PromptTemplate("r", "[X] and [Y] and [Y]")


def test_instantiate_prompt_basic():
    tpl = default_templates()["may_prevent"]
    assert instantiate_prompt(tpl, "Elvitegravir") == "Elvitegravir may be able to prevent [MASK] ."


def test_instantiate_prompt_head_before_and_after_slot():
    tpl = PromptTemplate("r", "the disease [Y] follows [X] .")
    assert instantiate_prompt(tpl, "measles") == "the disease [MASK] follows measles ."


def test_instantiate_prompt_head_containing_slot_literal():
    # [X] goes first; only the template's own [Y] is then replaced.
    tpl = PromptTemplate("r", "[X] occurs after [Y] .")
    out = instantiate_prompt(tpl, "weird [Y] head")
    assert out == "weird [Y] head occurs after [MASK] ."


def test_load_templates_duplicate_relation(tmp_path):
    p = tmp_path / "t.json"
    p.write_text(json.dumps([
        {"relation_id": "r", "pattern": "[X] a [Y]"},
        {"relation_id": "r", "pattern": "[X] b [Y]"},
    ]))
    with pytest.raises(ValidationError):
        load_templates(p)


@pytest.mark.parametrize("entry, message", [
    (1, "entry 0: expected a JSON object"),
    ({"relation_id": "r", "pattern": 5}, "entry 0: relation_id, pattern and display_name"),
    ({"relation_id": ["r"], "pattern": "[X] is [Y]"}, "entry 0: relation_id, pattern"),
    ({"relation_id": "r", "pattern": "[X] is [Y]", "display_name": None},
     "entry 0: relation_id, pattern"),
    ({"pattern": "[X] is [Y]"}, "entry 0: missing field 'relation_id'"),
])
def test_load_templates_rejects_malformed_entry(tmp_path, entry, message):
    p = tmp_path / "t.json"
    p.write_text(json.dumps([entry]))
    with pytest.raises(ValidationError, match=message):
        load_templates(p)


# ---------------------------------------------------------------------------
# group_queries

def _triples(*rows):
    return [KnowledgeTriple(*r) for r in rows]


def _registry():
    return {
        "may_treat": PromptTemplate("may_treat", "[X] might treat [Y] ."),
        "may_prevent": PromptTemplate("may_prevent", "[X] may be able to prevent [Y] ."),
    }


def test_group_queries_merges_tails():
    triples = _triples(
        ("DrugA", "may_treat", "Fever"),
        ("DrugA", "may_treat", "Chills"),
        ("DrugA", "may_treat", "fever"),  # dup after normalization
        ("DrugB", "may_treat", "Cough"),
    )
    queries = group_queries(triples, _registry())
    assert len(queries) == 2
    assert queries[0].answers == ["Fever", "Chills"]
    assert queries[0].query_text == "DrugA might treat [MASK] ."
    assert queries[1].head_name == "DrugB"


def test_group_queries_discards_oversized():
    triples = [KnowledgeTriple("H", "may_treat", f"tail {i}") for i in range(11)]
    triples.append(KnowledgeTriple("K", "may_treat", "one tail"))
    queries = group_queries(triples, _registry())
    assert [q.head_name for q in queries] == ["K"]


def test_group_queries_missing_template():
    with pytest.raises(ConfigurationError, match="unknown_rel"):
        group_queries(_triples(("A", "unknown_rel", "B")), _registry())


def test_group_queries_cap_sampling_deterministic():
    triples = [KnowledgeTriple(f"head{i}", "may_treat", f"tail{i}") for i in range(30)]
    a = group_queries(triples, _registry(), per_relation_cap=12, seed=5)
    b = group_queries(triples, _registry(), per_relation_cap=12, seed=5)
    assert [q.query_id for q in a] == [q.query_id for q in b]
    assert len(a) == 12
    c = group_queries(triples, _registry(), per_relation_cap=12, seed=6)
    assert [q.query_id for q in a] != [q.query_id for q in c]
    # sampling preserves input order among the survivors
    order = [int(q.head_name.removeprefix("head")) for q in a]
    assert order == sorted(order)


def test_group_queries_ids_stable_across_runs():
    triples = _triples(("DrugA", "may_treat", "Fever"))
    q1 = group_queries(triples, _registry())[0]
    q2 = group_queries(triples, _registry())[0]
    assert q1.query_id == q2.query_id
    assert q1.query_id.startswith("may_treat-")


# ---------------------------------------------------------------------------
# hardness metrics

DENGUE_QUERY = "Dengue virus live antigen CYD serotype 1 may be able to prevent [MASK] ."


def test_avg_match_verbatim_answer():
    assert avg_match(DENGUE_QUERY, ["Dengue"]) == 1.0


def test_avg_match_disjoint():
    assert avg_match("A b c [MASK] .", ["zzz"]) == 0.0


def test_avg_match_partial():
    assert avg_match("alpha beta gamma [MASK] .", ["alpha beta", "delta"]) == 0.5


def test_avg_match_contiguity_required():
    # both tokens present but not adjacent
    assert avg_match("alpha x beta [MASK] .", ["alpha beta"]) == 0.0


def test_avg_match_empty_answers():
    with pytest.raises(ValueError):
        avg_match("q [MASK]", [])


def test_rouge_identical():
    assert rouge_l("alpha beta gamma", "alpha beta gamma") == 1.0


def test_rouge_disjoint():
    assert rouge_l("alpha beta", "gamma delta") == 0.0


def test_rouge_magnesium_matches_oracle():
    assert rouge_l(MAGNESIUM_QUERY, MAGNESIUM_ANSWER) == pytest.approx(MAGNESIUM_ROUGE, abs=1e-12)


def test_rouge_empty_after_normalization():
    with pytest.raises(ValueError):
        rouge_l(". . .", "alpha")


@given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=8),
       st.lists(st.sampled_from("abcde"), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_rouge_agrees_with_enumeration_oracle(hyp, ref):
    expected = oracle_rouge_f(hyp, ref)
    assert rouge_l(" ".join(hyp), " ".join(ref)) == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.sampled_from(["red", "blue", "green", "k9"]), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_rouge_self_is_one(tokens):
    assert rouge_l(" ".join(tokens), " ".join(tokens)) == 1.0


# ---------------------------------------------------------------------------
# split_hard

def _query(qid, text, answers):
    return ProbeQuery(qid, "may_prevent", "H", text, answers)


def test_split_hard_flags():
    easy = _query("q1", DENGUE_QUERY, ["Dengue"])
    hard = _query("q2", "Zatrovine may be able to prevent [MASK] .", ["Kullow Spasm"])
    magnesium = _query("q3", MAGNESIUM_QUERY, [MAGNESIUM_ANSWER])
    out = split_hard([easy, hard, magnesium])
    assert [q.hard for q in out] == [False, True, MAGNESIUM_ROUGE <= 0.1]
    assert out[2].hard is False  # shared "Magnesium" token keeps it out of the hard set
    assert len(out) == 3  # nothing dropped, only flagged


def test_split_hard_any_easy_answer_disqualifies():
    q = _query("q1", "Zatrovine may be able to prevent [MASK] .", ["Kullow Spasm", "Zatrovine"])
    assert split_hard([q])[0].hard is False


def test_split_hard_keeps_original_flag_semantics():
    q = _query("q1", "Zatrovine may be able to prevent [MASK] .", ["Kullow Spasm"])
    q.hard = False
    assert split_hard([q])[0].hard is True


# ---------------------------------------------------------------------------
# dataset io

def test_dataset_roundtrip(tmp_path):
    queries = split_hard(group_queries(_triples(
        ("DrugA", "may_treat", "Fever"),
        ("DrugB", "may_prevent", "DrugB Rash"),
    ), _registry()))
    path = tmp_path / "full.jsonl"
    save_dataset(queries, path)
    back = load_dataset(path)
    assert back == queries


def test_load_dataset_names_bad_line(tmp_path):
    path = tmp_path / "ds.jsonl"
    good = {"query_id": "q", "relation_id": "r", "head_name": "h",
            "query_text": "h treats [MASK] .", "answers": ["a"], "hard": False}
    bad = dict(good, answers=[])
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValidationError, match=":2"):
        load_dataset(path)


def test_load_dataset_requires_single_placeholder(tmp_path):
    path = tmp_path / "ds.jsonl"
    rec = {"query_id": "q", "relation_id": "r", "head_name": "h",
           "query_text": "no mask here .", "answers": ["a"], "hard": False}
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValidationError, match="exactly once"):
        load_dataset(path)


def test_load_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_dataset(path) == []


def test_probe_query_validation():
    with pytest.raises(ValidationError):
        ProbeQuery("q", "r", "h", "t [MASK]", [])
    with pytest.raises(ValidationError):
        ProbeQuery("q", "r", "h", "t [MASK]", ["a"] * 11)
    with pytest.raises(ValidationError):
        ProbeQuery("q", "r", "h", "t [MASK]", ["X", "x "])


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None)
def test_group_queries_invariants(n_heads, seed):
    triples = [KnowledgeTriple(f"head{i}", "may_treat", f"tail{i % 7}") for i in range(n_heads)]
    queries = group_queries(triples, _registry(), per_relation_cap=10, seed=seed)
    assert len(queries) <= 10
    for q in queries:
        assert 1 <= len(q.answers) <= 10
        assert q.query_text.count("[MASK]") == 1
