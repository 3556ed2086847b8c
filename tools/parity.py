"""Fixture parity harness: run the extractor over the reference's
test-pages corpus and score metadata + span-sequence + exact-content
parity per document.

Usage: python tools/parity.py [--fixture NAME] [--verbose] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import timezone

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from smartreader_ray.extraction import parse_article  # noqa: E402
from smartreader_ray.sources import FIXTURE_DIR as PAGES  # noqa: E402
from smartreader_ray.spanio import flatten_element, flatten_html, spans_equal  # noqa: E402


def ttr_to_seconds(s: str | None) -> int:
    if not s:
        return 0
    parts = s.split(":")
    if len(parts) != 3:
        return 0
    h, m, sec = (int(p) for p in parts)
    return h * 3600 + m * 60 + sec


def dates_match(expected: str | None, actual) -> bool:
    if not expected:
        return actual is None
    if actual is None:
        return False
    from smartreader_ray.extraction import try_parse_date

    exp = try_parse_date(expected)
    if exp is None:
        return False
    if exp.tzinfo is not None:
        exp = exp.astimezone(timezone.utc)
    act = actual
    if act.tzinfo is not None:
        act = act.astimezone(timezone.utc)
    if (exp.tzinfo is None) != (act.tzinfo is None):
        # one side carries an offset: compare the instant assuming the
        # naive side is the serialized local representation — compare by
        # date only as a weak fallback
        return exp.replace(tzinfo=None).date() == act.replace(tzinfo=None).date()
    return exp.replace(tzinfo=None) == act.replace(tzinfo=None)


def check_fixture(name: str, verbose: bool = False) -> dict:
    d = os.path.join(PAGES, name)
    with open(os.path.join(d, "source.html"), encoding="utf-8-sig") as f:
        source = f.read()
    with open(os.path.join(d, "expected.html"), encoding="utf-8-sig") as f:
        expected_html = f.read()
    with open(os.path.join(d, "expected-metadata.json"), encoding="utf-8-sig") as f:
        em = json.load(f)

    a = parse_article("https://localhost/", source)

    fields = {}
    fields["readerable"] = a.is_readable == em.get("readerable", False)
    fields["title"] = a.title == em.get("title", "")
    fields["byline"] = a.byline == (em.get("byline") or "")
    fields["dir"] = (a.dir or "") == (em.get("dir") or "")
    fields["excerpt"] = a.excerpt == (em.get("excerpt") or "")
    exp_lang = em.get("language")
    fields["language"] = (a.language or "") == (exp_lang or "")
    fields["author"] = (a.author or "") == (em.get("author") or "")
    fields["siteName"] = a.site_name == (em.get("siteName") or "")
    fields["featuredImage"] = a.featured_image == (em.get("featuredImage") or "")
    fields["timeToRead"] = a.time_to_read_s == ttr_to_seconds(em.get("timeToRead"))
    fields["publicationDate"] = dates_match(em.get("publicationDate"), a.publication_date)
    alts = em.get("alternativeLanguageUris") or {}
    fields["altLanguages"] = a.alternative_language_uris == alts

    expected_spans = flatten_html(expected_html)
    got_spans = flatten_element(a.element) if a.element is not None else []
    fields["spans"] = spans_equal(expected_spans, got_spans)

    exact = a.content_html.replace("\r\n", "\n") == expected_html.replace("\r\n", "\n")
    fields["contentExact"] = exact

    meta_keys = [k for k in fields if k not in ("spans", "contentExact")]
    result = {
        "name": name,
        "fields": fields,
        "meta_ok": all(fields[k] for k in meta_keys),
        "spans_ok": fields["spans"],
        "exact_ok": exact,
        "error": a.error,
    }
    if verbose and not (result["meta_ok"] and result["spans_ok"]):
        print(f"== {name}")
        for k in meta_keys:
            if not fields[k]:
                print(f"  FIELD {k}: expected={em.get(k)!r}")
                if k == "title":
                    print(f"    got={a.title!r}")
                elif k == "byline":
                    print(f"    got={a.byline!r}")
                elif k == "excerpt":
                    print(f"    got={a.excerpt!r}")
                elif k == "author":
                    print(f"    got={a.author!r}")
                elif k == "siteName":
                    print(f"    got={a.site_name!r}")
                elif k == "language":
                    print(f"    got={a.language!r}")
                elif k == "timeToRead":
                    print(f"    got={a.time_to_read_s!r}")
                elif k == "dir":
                    print(f"    got={a.dir!r}")
                elif k == "featuredImage":
                    print(f"    got={a.featured_image!r}")
                elif k == "publicationDate":
                    print(f"    got={a.publication_date!r}")
                elif k == "readerable":
                    print(f"    got={a.is_readable!r}")
                elif k == "altLanguages":
                    print(f"    got={a.alternative_language_uris!r}")
        if not fields["spans"]:
            ndiff = 0
            for i, (es, gs) in enumerate(zip(expected_spans, got_spans)):
                if (
                    es["kind"] != gs["kind"]
                    or es["text"] != gs["text"]
                    or es["media_ref"] != gs["media_ref"]
                ):
                    if ndiff < 3:
                        print(f"  SPAN[{i}] exp={str(es)[:160]}")
                        print(f"           got={str(gs)[:160]}")
                    ndiff += 1
            print(
                f"  SPANS: {ndiff} diffs, exp_len={len(expected_spans)}, got_len={len(got_spans)}"
            )
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixture")
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("--json")
    args = ap.parse_args()

    names = [args.fixture] if args.fixture else sorted(os.listdir(PAGES))
    results = []
    for name in names:
        if not os.path.isdir(os.path.join(PAGES, name)):
            continue
        try:
            results.append(check_fixture(name, args.verbose))
        except Exception as exc:
            results.append(
                {
                    "name": name,
                    "fields": {},
                    "meta_ok": False,
                    "spans_ok": False,
                    "exact_ok": False,
                    "error": f"harness: {type(exc).__name__}: {exc}",
                }
            )
            if args.verbose:
                import traceback

                traceback.print_exc()

    n = len(results)
    meta = sum(r["meta_ok"] for r in results)
    spans = sum(r["spans_ok"] for r in results)
    exact = sum(r["exact_ok"] for r in results)
    both = sum(r["meta_ok"] and r["spans_ok"] for r in results)
    print(f"fixtures: {n}  meta_ok: {meta}  spans_ok: {spans}  exact_ok: {exact}  full(meta+spans): {both}")

    # per-field tally
    tally: dict[str, int] = {}
    for r in results:
        for k, v in r.get("fields", {}).items():
            if not v:
                tally[k] = tally.get(k, 0) + 1
    for k in sorted(tally, key=tally.get, reverse=True):
        print(f"  fail[{k}]: {tally[k]}")

    if args.json:
        with open(args.json, "w") as f:
            json.dump(results, f, indent=1)
    failing = [r["name"] for r in results if not (r["meta_ok"] and r["spans_ok"])]
    if failing and not args.fixture:
        print("failing:", " ".join(failing[:40]))


if __name__ == "__main__":
    main()
