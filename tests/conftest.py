import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield ray
    ray.shutdown()


@pytest.fixture
def size_budget(monkeypatch):
    """``size_budget(nbytes)`` sets ``DataContext.target_max_block_size``,
    the one budget ``exchange.fits`` holds a side to, for the rest of the
    test. Build the test's input Datasets before the call: Ray splits the
    blocks of a Dataset made under a budget of a few bytes row by row.
    A Dataset an operator makes under the budget is split too, and Ray's
    splitter divides by the row count of the block it splits: an empty
    block of 1.5 × the budget's bytes or more (4 bytes for an empty
    string column) fails, so a test whose operator makes one uses a
    budget of some dozens of bytes rather than 0 or 1."""
    from ray.data import DataContext

    def set_budget(nbytes: int) -> None:
        monkeypatch.setattr(DataContext.get_current(),
                            "target_max_block_size", nbytes)

    return set_budget


@pytest.fixture
def reference_fixtures():
    """The reference test-pages directory; skips the test when absent."""
    from smartreader_ray.sources import FIXTURE_DIR

    if not os.path.isdir(FIXTURE_DIR):
        pytest.skip(f"reference fixtures absent: {FIXTURE_DIR}")
    return FIXTURE_DIR


def _corpus_tables() -> dict:
    """Seeded ``documents``, ``customer`` and ``orders`` tables in the sf
    shapes the corpus queries read.

    ``documents``: stopword-rich lines in four labelled languages over
    five sources, plus exact copies of earlier docs filed under other
    sources, and near copies (one token changed) of long docs, which
    share several LSH bands with their originals — one of them also
    near-copies an exact-dup group. ``customer`` keys 0-1199 and
    ``orders`` customer keys 300-1299: after ``customer_orders_full``'s
    filters both join sides keep unmatched keys."""
    import random

    import pyarrow as pa

    words = {
        "en": "the and of to in is that it was for with on".split(),
        "de": "der die und das ist nicht mit von auf ein sich den".split(),
        "fr": "le la les et des est une pas que dans pour sur".split(),
        "es": "el la los y que en por con una para del las".split(),
    }
    fill = "data stream batch join merge window hash table".split()
    rng = random.Random(7)
    texts, langs, sources = [], [], []

    def add(text, lang, source):
        texts.append(text)
        langs.append(lang)
        sources.append(source)

    for i in range(48):
        lang = sorted(words)[i % 4]
        toks = [rng.choice(words[lang] if rng.random() < 0.5 else fill)
                for _ in range(30 + rng.randrange(30))]
        add(" ".join(toks), lang, f"src{i % 5}")
    for j in range(6):  # exact copies, each under another source
        add(texts[j * 7], langs[j * 7], f"src{(j * 7 + 1 + j % 4) % 5}")
    for j in range(8):  # near copies: one trailing token changed
        src = texts[j * 5].split()
        add(" ".join(src[:-1] + ["tail"]), langs[j * 5], sources[j * 5])
    customer = pa.table({
        "c_custkey": pa.array(range(1200), type=pa.int64()),
        "c_mktsegment": [rng.choice(["AUTOMOBILE", "BUILDING", "MACHINERY"])
                         for _ in range(1200)],
    })
    orders = pa.table({
        "o_orderkey": pa.array(range(3000), type=pa.int64()),
        "o_custkey": pa.array([rng.randrange(300, 1300) for _ in range(3000)],
                              type=pa.int64()),
    })
    documents = pa.table({"doc_id": pa.array(range(len(texts)),
                                             type=pa.int64()),
                          "text": texts, "lang": langs, "source": sources})
    return {"documents": documents, "customer": customer, "orders": orders}


@pytest.fixture(scope="session")
def corpus_sf_dir(tmp_path_factory):
    """An sf dir of ``_corpus_tables()``, one parquet file per table."""
    import pyarrow.parquet as pq

    sf_dir = tmp_path_factory.mktemp("sf")
    for name, table in _corpus_tables().items():
        pq.write_table(table, sf_dir / f"{name}.parquet")
    return str(sf_dir)
