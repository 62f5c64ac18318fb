"""Text helpers shared across curation, probing, and scoring: normalization,
and the one reader and writer of each file format the pipeline passes
between stages: lines, CSV tables, JSON documents and JSONL records.

Two normalizations coexist on purpose: answer handling collapses case and
whitespace only, while match scoring additionally strips punctuation hanging
off the ends of the string.

Every reader follows one error rule. A file that cannot be read, or is not
valid UTF-8, raises InputError. Text that is not JSON, or a value of the
wrong kind or shape, raises ValidationError naming the file (and the line,
for JSONL).
"""

from __future__ import annotations

import csv
import json
import string
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import InputError, ValidationError

T = TypeVar("T")

_PUNCT = set(string.punctuation)
_STRIP_CHARS = string.punctuation + string.whitespace


def collapse_norm(text: str) -> str:
    """Lowercase and collapse runs of whitespace to single spaces."""
    return " ".join(text.lower().split())


def match_norm(text: str) -> str:
    """collapse_norm plus stripping punctuation from both ends of the string."""
    return collapse_norm(text).strip(_STRIP_CHARS)


def is_punct_only(token: str) -> bool:
    return bool(token) and all(ch in _PUNCT for ch in token)


def metric_tokens(text: str) -> list[str]:
    """Lowercased whitespace tokens with punctuation-only tokens dropped.

    Used by the overlap metrics (avg_match, rouge_l) so that a trailing
    " ." token never counts as content.
    """
    return [tok for tok in text.lower().split() if not is_punct_only(tok)]


def contains_contiguous(needle: list[str], haystack: list[str]) -> bool:
    """True when needle appears as a contiguous slice of haystack."""
    if not needle:
        return True
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def truncate_tokens(text: str, max_tokens: int) -> str:
    """Keep at most max_tokens whitespace tokens, rejoined by single spaces.
    A text that this leaves unchanged comes back as the same object."""
    kept = " ".join(text.split()[:max_tokens])
    return text if kept == text else kept


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV table: the header row, then one line per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_lines(source, what: str) -> Iterable[str]:
    """The lines of the UTF-8 text file at source, a str or Path, read as the
    caller iterates; any other iterable of lines comes back unchanged."""
    if not isinstance(source, (str, Path)):
        return source
    return _file_lines(source, what)


def _file_lines(path, what: str) -> Iterator[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc


def read_json(path, what: str, kind: type = dict):
    """The document of a UTF-8 JSON file, whose top-level value must be a kind:
    dict for a JSON object, list for an array."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, kind):
        raise ValidationError(f"{path}: {what} must be a JSON "
                              f"{'array' if kind is list else 'object'}")
    return doc


def write_json(path, doc) -> None:
    """Write doc as ASCII JSON indented by 2 with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_jsonl(path, records: Iterable[dict]) -> None:
    """Write one compact JSON object per line, non-ASCII text as raw UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_records(path, what: str, fields: Mapping[str, type],
                 build: Callable[..., T]) -> list[T]:
    """build(*values) for each non-blank line of a UTF-8 JSONL file, in order.
    Each line must be a JSON object holding every key of fields (two or more),
    with a value of the key's type; values lists them in the order of fields.
    A bad line, or a ValidationError from build, raises ValidationError naming
    the line."""
    values_of, kinds = itemgetter(*fields), tuple(fields.values())
    out = []
    for lineno, raw in enumerate(_file_lines(path, what), start=1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise ValidationError(f"{path}:{lineno}: expected a JSON object")
        try:
            values = values_of(rec)
        except KeyError as exc:
            raise ValidationError(f"{path}:{lineno}: missing field {exc}") from exc
        if not all(map(isinstance, values, kinds)):
            raise ValidationError(f"{path}:{lineno}: field has wrong type")
        try:
            out.append(build(*values))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return out
