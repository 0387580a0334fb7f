"""Unit tests for the text-vectorization substrate."""

import numpy as np
import pytest

from repro import SolverConfig
from repro.datasets.vectorizer import (
    STOP_WORDS,
    TfVectorizer,
    make_raw_documents,
    strip_suffix,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello WORLD", stem=False) == ["hello", "world"]

    def test_drops_punctuation_and_digits(self):
        tokens = tokenize("error-code 404: retry!", stem=False)
        assert tokens == ["error", "code", "retry"]

    def test_stop_words_removed(self):
        assert "the" not in tokenize("the cat sat on the mat")
        assert "the" in tokenize(
            "the cat", remove_stop_words=False, stem=False
        )

    def test_short_tokens_dropped(self):
        assert tokenize("a b cd", stem=False, remove_stop_words=False) == ["cd"]

    def test_stemming_applied(self):
        assert tokenize("cats running") == ["cat", "runn"]


class TestStripSuffix:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("nations", "nation"),
            ("running", "runn"),
            ("quickly", "quick"),
            ("statement", "stat"),  # longest rule "ement" fires first
            ("cat", "cat"),          # no suffix
            ("es", "es"),            # too short to strip
        ],
    )
    def test_examples(self, token, expected):
        assert strip_suffix(token) == expected

    def test_min_stem_respected(self):
        # "ies" would leave a 1-char stem (skipped); the plain "s" rule
        # still applies since "tie" meets the 3-char minimum
        assert strip_suffix("ties", min_stem=3) == "tie"
        assert strip_suffix("ties", min_stem=4) == "ties"


class TestTfVectorizer:
    @pytest.fixture
    def corpus(self):
        return [
            "apple banana apple cherry",
            "banana cherry banana durian",
            "apple durian cherry cherry",
            "banana apple durian apple",
        ]

    def test_vocabulary_built(self, corpus):
        vec = TfVectorizer(min_df=1, max_df_ratio=1.0, stem=False)
        vec.fit(corpus)
        assert set(vec.vocabulary_) == {"apple", "banana", "cherry", "durian"}
        assert vec.n_features == 4

    def test_rows_unit_normalized(self, corpus):
        X = TfVectorizer(min_df=1, max_df_ratio=1.0,
                         stem=False).fit_transform(corpus)
        assert np.allclose(X.row_norms(), 1.0)

    def test_term_frequencies_proportional(self, corpus):
        vec = TfVectorizer(min_df=1, max_df_ratio=1.0, stem=False)
        X = vec.fit_transform(corpus).to_dense()
        apple = vec.vocabulary_["apple"]
        cherry = vec.vocabulary_["cherry"]
        # doc 0 has 2 apples, 1 cherry
        assert X[0, apple] == pytest.approx(2 * X[0, cherry])

    def test_min_df_filters(self, corpus):
        corpus = corpus + ["zebra only here"]
        vec = TfVectorizer(min_df=2, max_df_ratio=1.0, stem=False)
        vec.fit(corpus)
        assert "zebra" not in vec.vocabulary_

    def test_max_df_filters(self):
        # "common" appears in every document; rarer terms survive
        corpus = [
            "common apple", "common banana", "common apple", "common banana",
        ]
        vec = TfVectorizer(min_df=1, max_df_ratio=0.6, stem=False)
        vec.fit(corpus)
        assert "common" not in vec.vocabulary_
        assert {"apple", "banana"} <= set(vec.vocabulary_)

    def test_max_features_cap(self, corpus):
        vec = TfVectorizer(min_df=1, max_df_ratio=1.0, max_features=2,
                           stem=False)
        vec.fit(corpus)
        assert vec.n_features == 2

    def test_oov_terms_ignored(self, corpus):
        vec = TfVectorizer(min_df=1, max_df_ratio=1.0, stem=False).fit(corpus)
        X = vec.transform(["unknown words only"])
        assert X.nnz == 0
        assert X.shape == (1, vec.n_features)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            TfVectorizer().transform(["doc"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfVectorizer().fit([])

    def test_all_filtered_rejected(self):
        with pytest.raises(ValueError, match="cutoffs"):
            TfVectorizer(min_df=5, stem=False).fit(["lonely words"])

    def test_deterministic_column_order(self, corpus):
        a = TfVectorizer(min_df=1, max_df_ratio=1.0, stem=False).fit(corpus)
        b = TfVectorizer(min_df=1, max_df_ratio=1.0, stem=False).fit(corpus)
        assert a.vocabulary_ == b.vocabulary_

    def test_validation(self):
        with pytest.raises(ValueError):
            TfVectorizer(min_df=0)
        with pytest.raises(ValueError):
            TfVectorizer(max_df_ratio=0.0)


class TestRawDocumentGenerator:
    def test_shapes_and_determinism(self):
        docs, y = make_raw_documents(n_docs=50, n_classes=3, seed=4)
        assert len(docs) == 50
        assert set(y) == {0, 1, 2}
        docs2, y2 = make_raw_documents(n_docs=50, n_classes=3, seed=4)
        assert docs == docs2
        assert np.array_equal(y, y2)

    def test_contains_stop_words_to_strip(self):
        docs, _ = make_raw_documents(n_docs=10, seed=1)
        joined = " ".join(docs)
        assert any(word in joined.split() for word in STOP_WORDS)

    def test_end_to_end_classification(self):
        from repro.core.srda import SRDA

        docs, y = make_raw_documents(n_docs=200, n_classes=4, seed=2)
        vec = TfVectorizer(min_df=2)
        X_train = vec.fit_transform(docs[:140])
        X_test = vec.transform(docs[140:])
        model = SRDA(
            alpha=1.0, config=SolverConfig(solver="lsqr"), max_iter=15
        ).fit(
            X_train, y[:140]
        )
        error = 1.0 - model.score(X_test, y[140:])
        assert error < 0.2
