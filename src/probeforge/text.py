"""Text helpers shared across curation, probing, and scoring: normalization,
the one CSV writer every table goes through, and the JSONL record reader.

Two normalizations coexist on purpose: answer handling collapses case and
whitespace only, while match scoring additionally strips punctuation hanging
off the ends of the string.
"""

from __future__ import annotations

import csv
import json
import string
from typing import Iterable, Iterator, Sequence

from .errors import InputError, ValidationError

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


def read_jsonl(path, what: str) -> Iterator[tuple[int, dict]]:
    """Yield (line number, object) for each non-blank line of a UTF-8 JSONL file.
    An unreadable file raises InputError; a line that is not a JSON object,
    ValidationError naming the line."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc
    with fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise ValidationError(f"{path}:{lineno}: expected a JSON object")
                yield lineno, record
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {what} from {path}: {exc}") from exc
